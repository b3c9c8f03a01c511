"""Every kernel, as first used and as compiled, against a plain loop over
the table it was built from."""

import re

from hypothesis import example, given
from hypothesis import strategies as st

from cubicdet import determinant, laplace
from cubicdet.core3d import _CELLS
from cubicdet.determinant import _FLAT, _flatten, _Kernels, perm_terms

# Every kernel cache with every key it answers.
KEYS = (
    (determinant._CLOSED, (1, 2, 3)),
    (determinant._PERM, (1, 2, 3)),
    (laplace._MINORS, (2, 3)),
    (laplace._TOTALS, (2, 3)),
)


def loop_sum(table, a):
    """sum of sign * a[f1] * ... * a[fn] over (sign, f1, ..., fn) rows."""
    total = 0
    for sign, *cells in table:
        term = sign
        for f in cells:
            term *= a[f]
        total += term
    return total


def minors(n, a):
    """Each flat cell's minor: the closed form of order n-1 over its kept cells."""
    return [loop_sum(_FLAT[n - 1], [a[g] for g in kept]) for _, kept in _CELLS[n]]


def layer_sums(n, a):
    """The 3n layer sums of a, axes h, p, l and indices ascending, each
    over the cells whose fixed coordinate (i, j or k) equals the index;
    the cell at (i, j, k) is a[(k-1)*n*n + (i-1)*n + (j-1)]."""
    at = [(i, j, k) for k in range(1, n + 1) for i in range(1, n + 1) for j in range(1, n + 1)]
    return tuple(sum(v for v, c in zip(a, at) if c[axis] == index) for axis in range(3) for index in range(1, n + 1))


def both_kernels(cache, key):
    """A fresh copy of cache's first-use loop for key, and cache's compiled
    kernel: the second lookup of a key compiles it, if the first did not."""
    cache[key]
    compiled = cache[key]
    assert key in cache
    fresh = _Kernels(cache.rows, cache.many)
    first = fresh[key]
    assert key not in fresh
    return first, compiled


# Values at and just past the signed 64-bit bounds, and far past them,
# as explicit examples beside the drawn ints (which reach past 64 bits
# too): a st.one_of over them costs more to draw than the test runs.
EDGES = (2**63, -(2**63), 2**63 - 1, -(2**63) - 1, 2**64 + 1, -(2**100), 3**50)
cells = st.lists(st.integers(), min_size=27, max_size=27)
# One (sign, cells) row of a table over 8 cells, with any small sign.
row = st.tuples(st.integers(-4, 4), st.lists(st.integers(0, 7), min_size=1, max_size=3))


def test_keys_cover_every_kernel_cache():
    caches = [v for module in (determinant, laplace) for v in vars(module).values() if isinstance(v, _Kernels)]
    assert sorted(map(id, caches)) == sorted(id(cache) for cache, _ in KEYS)


@example([EDGES[f % len(EDGES)] for f in range(27)])
@example([(-1) ** f * 2**63 for f in range(27)])
@given(cells)
def test_every_kernel_is_its_table(ints):
    for n in (1, 2, 3):
        a = tuple(ints[: n**3])
        for kernel in both_kernels(determinant._CLOSED, n):
            assert kernel(a) == loop_sum(_FLAT[n], a), n
        for kernel in both_kernels(determinant._PERM, n):
            assert kernel(a) == loop_sum(_flatten(n, perm_terms(n)), a), n
    for n in (2, 3):
        a = tuple(ints[: n**3])
        for kernel in both_kernels(laplace._MINORS, n):
            assert kernel(a) == tuple(minors(n, a)), n
        for kernel in both_kernels(laplace._TOTALS, n):
            assert kernel(list(a)) == layer_sums(n, a), n


@example([(2, [0, 1]), (-3, [2]), (0, [3, 4, 5])], list(EDGES) + [-1])
@given(st.lists(row, min_size=1, max_size=6), st.lists(st.integers(), min_size=8, max_size=8))
def test_any_sign_is_a_literal_coefficient(rows, ints):
    # A sign other than +1 or -1, as a faulty table might hold, is kept:
    # the kernel sums exactly what its table says, on first use and compiled.
    table = tuple((sign, *fs) for sign, fs in rows)
    one, many = _Kernels(lambda _: table), _Kernels(lambda _: (table, table[::-1]), many=True)
    for _ in range(2):
        assert one[None](ints) == loop_sum(table, ints)
        assert many[None](ints) == (loop_sum(table, ints),) * 2
    assert (list(one), list(many)) == ([None], [None])


def test_kernel_sources_are_arithmetic_on_a():
    # exec only ever sees one unpack of the names a0..aM, M the highest
    # cell the rows name, and sums of products of them and int literals
    # (for _MINORS, a tuple of such sums).
    for cache, keys in KEYS:
        for key in keys:
            rows = cache.rows(key)
            size = 1 + max(f for table in (rows if cache.many else (rows,)) for _, *fs in table for f in fs)
            head, unpack, body = cache.source(rows).split("\n")
            assert head == "def kernel(a):", key
            assert unpack == "    " + "".join(f"a{f}," for f in range(size)) + f" = a[:{size}]", key
            assert re.fullmatch(r"    return [-+*,0-9]+", re.sub(r"a[0-9]+", "", body)), (key, body)
