"""The benchmark's own reference values, sharing no code with cubicdet.

Everything the benchmark checks cubicdet against comes from here: the
splitmix64 stream, the canonical text form and its digest, and exact
determinants and minors from a ``fractions.Fraction`` Leibniz double sum

    det(A) = sum over permutation pairs (sigma, tau) of
             sgn(sigma) * sgn(tau) * prod_i a[i, sigma(i), tau(i)].

Cells are kept as one flat list of Fractions in k-major order (k, then
i, then j), with 1-based coordinates at the interface.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import permutations

_MASK = (1 << 64) - 1


def splitmix64(seed: int):
    """Endless splitmix64 outputs for a 64-bit seed."""
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


def flat(order: int, i: int, j: int, k: int) -> int:
    return (k - 1) * order * order + (i - 1) * order + (j - 1)


def coords(order: int):
    """(i, j, k) for every cell, in k-major order."""
    rng = range(1, order + 1)
    return [(i, j, k) for k in rng for i in rng for j in rng]


def _sign(perm) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a) if perm[b] > perm[a])
    return -1 if inversions % 2 else 1


def _leibniz_terms(order: int):
    perms = list(permutations(range(1, order + 1)))
    return [
        (_sign(sigma) * _sign(tau), [flat(order, i, sigma[i - 1], tau[i - 1]) for i in range(1, order + 1)])
        for sigma in perms
        for tau in perms
    ]


_TERMS = {order: _leibniz_terms(order) for order in (1, 2, 3)}


def det(order: int, cells) -> Fraction:
    total = Fraction(0)
    for sign, where in _TERMS[order]:
        prod = Fraction(sign)
        for f in where:
            prod *= cells[f]
        total += prod
    return total


def delete(order: int, cells, i: int, j: int, k: int) -> list:
    """Cells left after removing layer i, page j and depth slice k."""
    rng = range(1, order + 1)
    return [
        cells[flat(order, si, sj, sk)]
        for sk in rng if sk != k
        for si in rng if si != i
        for sj in rng if sj != j
    ]


class Truth:
    """A matrix with its exact determinant and every minor."""

    def __init__(self, order: int, cells):
        self.order = order
        self.cells = [Fraction(c) for c in cells]
        self.det = det(order, self.cells)
        self.minors = (
            {at: det(order - 1, delete(order, self.cells, *at)) for at in coords(order)}
            if order > 1
            else {}
        )

    def at(self, i: int, j: int, k: int) -> Fraction:
        return self.cells[flat(self.order, i, j, k)]

    def text(self) -> str:
        n = self.order
        rng = range(1, n + 1)
        blocks = ("\n".join(" ".join(str(self.at(i, j, k)) for j in rng) for i in rng) for k in rng)
        return f"{n}\n" + "\n\n".join(blocks) + "\n"

    def json(self) -> str:
        n = self.order
        rng = range(1, n + 1)
        layers = [
            [[_json_value(self.at(i, j, k)) for j in rng] for i in rng] for k in rng
        ]
        return json.dumps({"order": n, "layers": layers})

    def digest(self) -> str:
        return f"order{self.order}:{hashlib.sha256(self.text().encode()).hexdigest()[:16]}"


def _json_value(value: Fraction):
    return value.numerator if value.denominator == 1 else str(value)


def generated(order: int, seed: int, rng_range: int) -> Truth:
    """The matrix cubicdet's GenSpec(order, seed, range) names."""
    stream = splitmix64(seed)
    span = 2 * rng_range + 1
    return Truth(order, [next(stream) % span - rng_range for _ in range(order**3)])


def rational_cells(rng, order: int) -> list:
    """order**3 nonzero, non-integer p/q entries (|p| <= 9, 2 <= q <= 6).

    With no integer entry every integer fast path is skipped, and with no
    zero entry the recursive expansion does the same work on every input.
    The small denominators keep every intermediate inside 64 bits.
    """
    cells = []
    while len(cells) < order**3:
        p, q = rng.randint(-9, 9), rng.randint(2, 6)
        if p % q:
            cells.append(Fraction(p, q))
    return cells


def integer_cells(rng, order: int) -> list:
    """order**3 nonzero integer entries in [-9, 9]."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(order**3)]


def expansion_sign(i: int, j: int, k: int) -> int:
    return -1 if (j + k) % 2 else 1


def paper_def_sign(i: int, j: int, k: int) -> int:
    return -1 if (i + j + k) % 2 else 1


def layer_positions(order: int, axis: str, index: int):
    """(i, j, k) of the fixed layer in cubicdet's documented trace order."""
    rng = range(1, order + 1)
    if axis == "h":
        return [(index, j, k) for k in rng for j in rng]
    if axis == "p":
        return [(i, index, k) for k in rng for i in rng]
    return [(i, j, index) for i in rng for j in rng]
