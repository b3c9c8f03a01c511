"""The package's public names: each module's __all__ is the one list."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

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


def test_each_name_is_mapped_to_its_defining_module():
    # The package resolves a name through one literal map, in __all__ order.
    assert cubicdet._EXPORTS == {m.__name__.rpartition(".")[2]: tuple(m.__all__) for m in MODULES}
    assert cubicdet.__all__ == [*(name for m in MODULES for name in m.__all__), "__version__"]


def test_import_loads_no_submodule():
    # In a fresh interpreter: `import cubicdet` loads no submodule, and a
    # name, or a submodule not yet imported, loads only its own module and
    # what that module imports.
    probe = (
        "import sys, cubicdet\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('cubicdet.'))\n"
        "print(loaded())\n"
        "cubicdet.det_closed\n"
        "print(loaded())\n"
        "print(cubicdet.laplace is sys.modules['cubicdet.laplace'], loaded())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "[]\n"
        "['cubicdet.core3d', 'cubicdet.determinant']\n"
        "True ['cubicdet.core3d', 'cubicdet.determinant', 'cubicdet.laplace']\n"
    )


def test_dir_lists_every_name_and_unknown_names_raise():
    assert set(cubicdet.__all__) | {m.__name__.rpartition(".")[2] for m in MODULES} <= set(dir(cubicdet))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cubicdet.no_such_name  # noqa: B018
