"""Spans and counts recorded around cubicdet's public functions, from outside.

Nothing in the package is edited.  A :class:`Rebinding` swaps a function
for a replacement wherever it is bound: in the package namespace and in
every cubicdet module that imported it (methods on their class).  Calls
between layers go through those module-level names, so a replaced
function also sees the calls the package makes to itself, which is what
gives spans their parents.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (metric name, owner, attribute).  The owner is "pkg" for a function
# exported by the package, "cli" for the cubicdet.cli module, or the name
# of a class exported by the package.
TRACED = (
    ("io.parse_text", "pkg", "parse_text"),
    ("io.parse_json", "pkg", "parse_json"),
    ("io.serialize_text", "pkg", "serialize_text"),
    ("core3d.CubicMatrix", "CubicMatrix", "__init__"),
    ("core3d.delete_sub", "CubicMatrix", "delete_sub"),
    ("core3d.scale_layer", "CubicMatrix", "scale_layer"),
    ("core3d.swap_layers", "CubicMatrix", "swap_layers"),
    ("determinant.det_closed", "pkg", "det_closed"),
    ("determinant.det_permutation", "pkg", "det_permutation"),
    ("laplace.expand", "pkg", "expand"),
    ("laplace.det_laplace", "pkg", "det_laplace"),
    ("laplace.minor", "pkg", "minor"),
    ("laplace.cofactor", "pkg", "cofactor"),
    ("verify.batch_verify", "pkg", "batch_verify"),
    ("verify.cross_check", "pkg", "cross_check"),
    ("verify.random_cubic", "pkg", "random_cubic"),
    ("verify.matrix_digest", "pkg", "matrix_digest"),
    ("cli.main", "cli", "main"),
)

_SCALAR_OPS = tuple(("core3d.scalar_ops", "Scalar", op) for op in ("__add__", "__sub__", "__mul__", "__neg__"))
COUNTED = _SCALAR_OPS + (
    ("core3d.scalar_inits", "Scalar", "__init__"),
    ("determinant.det_closed", "pkg", "det_closed"),
    ("determinant.det_permutation", "pkg", "det_permutation"),
    ("laplace.det_laplace", "pkg", "det_laplace"),
)


def _modules():
    return [m for name, m in list(sys.modules.items()) if name == "cubicdet" or name.startswith("cubicdet.")]


class Rebinding:
    """Every binding of some cubicdet functions, switchable to replacements.

    ``replace(metric_name, original)`` builds each replacement once.
    Entering the context swaps all bindings in, leaving it swaps the
    originals back.  Build a Rebinding after entering any other one whose
    replacements it should wrap.
    """

    def __init__(self, cd, targets, replace):
        self._sites = []
        for name, owner, attr in targets:
            if owner in ("pkg", "cli"):
                original = getattr(cd if owner == "pkg" else cd.cli, attr)
                new = replace(name, original)
                for module in _modules():
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._sites.append((module, binding, original, new))
            else:
                cls = getattr(cd, owner)
                original = cls.__dict__[attr]
                self._sites.append((cls, attr, original, replace(name, original)))

    def __enter__(self):
        for obj, attr, _, new in self._sites:
            setattr(obj, attr, new)
        return self

    def __exit__(self, *exc):
        for obj, attr, original, _ in reversed(self._sites):
            setattr(obj, attr, original)


class Tracer:
    """In-memory spans: one (name, parent, op, start_ns, end_ns) record each.

    Records sit back to back in one array of int64, so a span costs five
    machine words.  The parent is the index of the enclosing span, or -1
    for a top-level call; ``op`` is whatever the caller last set.
    """

    def __init__(self):
        self.records = array("q")
        self.names: list[str] = []
        self.op = -1
        self._current = -1

    def wrap(self, name, fn):
        code = len(self.names)
        self.names.append(name)
        records = self.records
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(records) // 5
            parent = self._current
            self._current = sid
            records.extend((code, parent, self.op, 0, 0))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                records[5 * sid + 3] = start
                records[5 * sid + 4] = end
                self._current = parent

        return traced

    def write_csv(self, path) -> None:
        """All spans, as gzip-compressed CSV."""
        r = self.records
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("span,name,parent,op,start_ns,end_ns\n")
            for s in range(0, len(r), 5):
                handle.write(f"{s // 5},{self.names[r[s]]},{r[s + 1]},{r[s + 2]},{r[s + 3]},{r[s + 4]}\n")

    def self_times(self):
        """Self times (ns) per name, split into spans inside operations
        (op >= 0) and outside them, and the summed duration of top-level
        spans per op.

        A span's self time is its duration minus the durations of its
        direct children; spans of one call stack never overlap, so that
        is the part of its interval no child covers.
        """
        r = self.records
        child = [0] * (len(r) // 5)
        for s in range(0, len(r), 5):
            if r[s + 1] >= 0:
                child[r[s + 1]] += r[s + 4] - r[s + 3]
        inside = {name: [] for name in self.names}
        outside = {name: [] for name in self.names}
        top: dict[int, int] = {}
        for s in range(0, len(r), 5):
            code, parent, op, start, end = r[s : s + 5]
            (inside if op >= 0 else outside)[self.names[code]].append(end - start - child[s // 5])
            if parent < 0:
                top[op] = top.get(op, 0) + end - start
        return inside, outside, top


class Counter:
    """Exact work counts: Scalar operations, Scalar() constructions (the
    gcd-normalising path) and determinant monomials evaluated.

    A closed-form or permutation determinant of order n evaluates (n!)**2
    monomials; the recursive expansion completes one monomial at each
    order-1 base case it reaches.
    """

    _MONOMIALS = {1: 1, 2: 4, 3: 36}

    def __init__(self):
        self.counts = {"core3d.scalar_ops": 0, "core3d.scalar_inits": 0, "determinant.terms": 0}

    def wrap(self, name, fn):
        counts = self.counts
        if name.startswith("core3d."):
            @functools.wraps(fn)
            def counted(*args):
                counts[name] += 1
                return fn(*args)
        elif name == "laplace.det_laplace":
            @functools.wraps(fn)
            def counted(A, *args, **kwargs):
                if A.order == 1:
                    counts["determinant.terms"] += 1
                return fn(A, *args, **kwargs)
        else:
            monomials = self._MONOMIALS

            @functools.wraps(fn)
            def counted(A, *args, **kwargs):
                counts["determinant.terms"] += monomials[A.order]
                return fn(A, *args, **kwargs)
        return counted
