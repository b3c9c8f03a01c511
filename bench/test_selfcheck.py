"""Self-checks for the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench

They show that the reference in oracle.py agrees with the package's
golden data, that a clean run is correct and prints exactly the metrics
BENCHMARK.json names, that an injected fault is counted as failed
operations, and that the benchmark refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_oracle_matches_golden_data():
    example2 = [
        [[3, 0, -4], [2, 5, -1], [0, 3, -2]],
        [[-2, 4, 0], [-3, 0, 3], [-3, 2, 5]],
        [[5, 1, 0], [3, 1, 2], [0, 4, 3]],
    ]
    cells = [v for block in example2 for row in block for v in row]
    truth = oracle.Truth(3, cells)
    assert truth.det == 326
    assert truth.text() == (ROOT / "tests" / "data" / "example2.txt").read_text()
    generated = oracle.generated(3, 42, 9)
    assert generated.text() == (ROOT / "tests" / "data" / "gen_order3_seed42_range9.txt").read_text()
    # Paper-def identity: a fixed-i layer sum of paper-def cofactors is (-1)^i det.
    for i in (1, 2, 3):
        total = sum(
            truth.at(*at) * oracle.paper_def_sign(*at) * truth.minors[at]
            for at in oracle.layer_positions(3, "h", i)
        )
        assert total == (-1) ** i * truth.det


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_run_is_correct(workload, trace):
    res = result(run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if trace:
        report = json.loads((BENCH / "out" / f"{workload}.trace1.json").read_text())
        assert report["counts_repeat"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fault_is_counted_as_failures(workload):
    res = result(run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--fault"))
    assert res["correct"] is False
    assert 0 < res["failed"] <= res["attempted"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
