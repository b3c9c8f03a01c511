"""Exact determinants of cubic (n x n x n) matrices of orders 1 to 3.

Closed-form expansions, a double-permutation oracle, minors and
cofactors under two sign conventions, layer expansions along all three
index directions with per-term traces, seeded random generation, and a
cross-checking harness.  All arithmetic is exact rational; every
comparison in the package is exact equality.
"""

# Each module's __all__ is the one list of its public names.
from . import core3d, determinant, io, laplace, verify
from .core3d import *  # noqa: F403
from .determinant import *  # noqa: F403
from .io import *  # noqa: F403
from .laplace import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*core3d.__all__, *determinant.__all__, *io.__all__, *laplace.__all__, *verify.__all__, "__version__"]
