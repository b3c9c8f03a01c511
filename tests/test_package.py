"""The package's public names: each module's __all__ is the one list."""

import ast
import inspect

import pytest

import cubicdet
from cubicdet import core3d, determinant, io, laplace, verify

MODULES = (core3d, determinant, io, laplace, verify)


def public_definitions(module) -> set[str]:
    """Names the module's own top level binds with def, class or an assignment."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_lists_exactly_the_public_definitions(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == public_definitions(module)


def test_no_name_is_exported_by_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_reexports_each_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cubicdet, name) is getattr(module, name), name
    exported = {name for module in MODULES for name in module.__all__}
    assert set(cubicdet.__all__) == exported | {"__version__"}
    namespace = {}
    exec("from cubicdet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cubicdet.__all__)
