"""Cross-checking of determinant paths, on one matrix or a seeded batch.

The cross-check evaluates every determinant path (closed form,
permutation sum, each one-level layer expansion) plus nine derived
algebraic laws, comparing everything exactly against the permutation
oracle.  A path value is a Scalar; a law is decided on the oracle's
ints over the transformed matrix, cross-multiplied with its prediction.
A batch draws its matrices from core3d's seeded generator, so any
failing trial is named by the GenSpec that regenerates it.

Laplace path values are the layer sums of one shared table: each
entry's contribution (sign * entry * minor, as ``expand`` traces it) is
computed once, and one kernel call (laplace's ``_TOTALS``) sums the
table over every path's layer, without building trace objects.  They
come from one level rather than the recursive evaluator: a wrong sign
on one entry shows up in exactly the three paths through that entry,
while in the recursive evaluator an error of even multiplicity can
cancel itself.  det_laplace sums one layer of the same memo; the test
suite checks it against the oracle and a Fraction reference.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from .core3d import (
    _AXES, _PATHS, ZERO, Axis, CubicMatrix, GenSpec, Scalar, ScalarOverflowError, ShapeError, SplitMix64, random_cubic,
)
from .determinant import _permutation_equals, det_closed, det_permutation
from .io import serialize_text
from .laplace import _expansion_totals

__all__ = [
    "VerifyReport",
    "BatchSummary",
    "matrix_digest",
    "build_report",
    "cross_check",
    "batch_verify",
]

# Path names of the expansion totals, per order, in _expansion_totals order.
_LAPLACE_NAMES = {
    order: tuple(f"laplace:{axis.letter}:{index}" for axis, index in _PATHS[order]) for order in (2, 3)
}

# Per axis, in _AXES order: the axis and the names of its scale, swap and zero laws.
_LAWS = tuple((axis, f"scale:{axis.letter}", f"swap:{axis.letter}", f"zero:{axis.letter}") for axis in _AXES)

# Layer transforms used by the derived-law checks: deterministic so the
# whole report is a pure function of the subject matrix.
_LAW_LAYER = 1
_LAW_SWAP = (1, 2)
_LAW_SCALE = Scalar(2)


def matrix_digest(A: CubicMatrix) -> str:
    """Short stable identifier: order plus a hash of the canonical text form."""
    import hashlib  # loads OpenSSL: only verify pays for it, not every CLI start

    digest = hashlib.sha256(serialize_text(A).encode("utf-8")).hexdigest()
    return f"order{A.order}:{digest[:16]}"


class VerifyReport(namedtuple("VerifyReport", "subject det_value paths agreements derived_laws overall")):
    """Agreement matrix for one subject.

    overall is true iff every path value equals det_value and every
    derived law holds; all comparisons are exact.
    """

    __slots__ = ()
    subject: str
    det_value: Scalar
    paths: dict[str, Scalar]
    agreements: dict[str, bool]
    derived_laws: tuple[tuple[str, bool], ...]
    overall: bool


def build_report(
    subject: str,
    det_value: Scalar,
    paths: dict[str, Scalar],
    derived_laws,
) -> VerifyReport:
    """Assemble a report from raw path values; exact comparisons only."""
    agreements = {name: value == det_value for name, value in paths.items()}
    laws = tuple(derived_laws)
    overall = all(agreements.values()) and all(ok for _, ok in laws)
    return VerifyReport(subject, det_value, dict(paths), agreements, laws, overall)


def cross_check(A: CubicMatrix) -> VerifyReport:
    """Evaluate every determinant path and derived law for one matrix.

    Paths: "closed", "permutation", and "laplace:<axis>:<index>" for all
    3 * order layer expansions.  Laws per axis: scaling layer 1 by 2
    scales the determinant by 2; swapping layers 1 and 2 preserves the
    determinant across horizontal layers and negates it across vertical
    pages and vertical layers; a zeroed layer forces determinant 0.
    Law values come from the permutation oracle on the transformed
    matrix, so a law failure localizes the bug outside the oracle.  Each
    law is decided on ints: the oracle's sum over the transformed
    matrix is cross-multiplied with the prediction (determinant's
    ``_permutation_equals``), and no Scalar is built for the law value.
    The predictions ``2 * det`` and ``-det`` are built once per call,
    right after the h axis's ``scale_layer``, where the loop first needs
    one.  With a correct oracle, a law value past the 64-bit bounds
    equals one of them, so it raises at the same step, with the same
    message, as when each law built its own value.
    """
    if A.order == 1:
        raise ShapeError("cross-check needs order 2 or 3 (order 1 has no expansions)")
    det_value = det_permutation(A)
    paths: dict[str, Scalar] = {
        "closed": det_closed(A),
        "permutation": det_value,
    }
    paths.update(zip(_LAPLACE_NAMES[A.order], _expansion_totals(A)))
    laws = []
    a, b = _LAW_SWAP
    doubled = None
    for axis, scale_name, swap_name, zero_name in _LAWS:
        scaled = A.scale_layer(axis, _LAW_LAYER, _LAW_SCALE)
        if doubled is None:
            doubled, negated = _LAW_SCALE * det_value, -det_value
        laws.append((scale_name, _permutation_equals(scaled, doubled)))
        swapped = A.swap_layers(axis, a, b)
        expected = det_value if axis is Axis.HORIZONTAL_LAYER else negated
        laws.append((swap_name, _permutation_equals(swapped, expected)))
        zeroed = A.scale_layer(axis, _LAW_LAYER, ZERO)
        laws.append((zero_name, _permutation_equals(zeroed, ZERO)))
    return build_report(matrix_digest(A), det_value, paths, laws)


class BatchSummary(namedtuple("BatchSummary", "trials failures first_failure")):
    """Outcome of a batch run; first_failure reproduces from the CLI."""

    __slots__ = ()
    trials: int
    failures: int
    first_failure: GenSpec | None


def batch_verify(orders, trials: int, seed: int, range: int) -> BatchSummary:
    """cross_check over `trials` seeded matrices per order.

    Per-trial seeds are drawn from one splitmix64 stream over the master
    seed, ``trials`` per order in turn, so the summary is deterministic
    and any failing GenSpec can be regenerated standalone.  Orders,
    ``trials``, ``seed`` and ``range`` are ints (bool rejected); another
    type raises TypeError first.
    """
    orders = tuple(orders)
    for order in orders:
        if isinstance(order, bool) or not isinstance(order, int):
            raise TypeError(f"order must be an int, got {order!r}")
        if order not in (2, 3):
            raise ValueError(f"batch orders must be 2 or 3, got {order!r}")
    for name, value in (("trials", trials), ("seed", seed), ("range", range)):
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
            raise TypeError(f"{name} must be an int, got {value!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= seed <= SplitMix64._MASK:
        raise ValueError(f"seed must fit in 64 bits, got {seed!r}")
    seeds = SplitMix64(seed).outputs(trials * len(orders))
    run = 0
    failures = 0
    first_failure = None
    for order in orders:
        for trial_seed in islice(seeds, trials):
            spec = GenSpec(order, trial_seed, range)
            try:
                report = cross_check(random_cubic(spec))
            except ScalarOverflowError as err:
                raise ScalarOverflowError(f"{spec}: {err}") from err
            run += 1
            if not report.overall:
                failures += 1
                if first_failure is None:
                    first_failure = spec
    return BatchSummary(run, failures, first_failure)
