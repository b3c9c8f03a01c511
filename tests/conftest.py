import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from cubicdet import CubicMatrix

# One fixed profile for every property test: the same examples on every
# run, and no per-example deadline on a shared machine.
settings.register_profile("cubicdet", max_examples=150, derandomize=True, deadline=None)
settings.load_profile("cubicdet")

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

# The two worked order-2 / order-3 matrices used as golden subjects
# throughout the suite (det -3 and det 326).
EXAMPLE1_LAYERS = [[[4, -3], [-1, 5]], [[-2, 4], [-7, 3]]]
EXAMPLE2_LAYERS = [
    [[3, 0, -4], [2, 5, -1], [0, 3, -2]],
    [[-2, 4, 0], [-3, 0, 3], [-3, 2, 5]],
    [[5, 1, 0], [3, 1, 2], [0, 4, 3]],
]


@pytest.fixture
def example1() -> CubicMatrix:
    return CubicMatrix(2, EXAMPLE1_LAYERS)


@pytest.fixture
def example2() -> CubicMatrix:
    return CubicMatrix(3, EXAMPLE2_LAYERS)


@pytest.fixture
def data_dir() -> Path:
    return DATA


def run_python(code: str, *argv: str) -> str:
    """The stdout of ``python -c code *argv`` in a fresh interpreter that
    imports this tree's package, which must exit 0 with empty stderr."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout
