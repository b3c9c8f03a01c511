"""Alternating parent/change benchmark pairs, written to one JSON file.

    python3 tools/bench_pairs.py --base HEAD --out BENCH_11.json --first-seed 1

The parent tree is ``git archive <base>``; the change tree is a copy of
this checkout's ``src/``, ``bench/`` and ``tests/`` as they are on disk,
uncommitted edits included.  Both live in one temporary directory, so
the only file written under the repository is ``--out``.

For every workload in ``BENCHMARK.json``, each of the ten pairs p runs
``bench/run.py --seed <first-seed + p> --trace 0`` for the benchmark's
``run_seconds`` once on each tree, the parent first in even pairs and
the change first in odd ones.  Give each change its own
``--first-seed``, so that no two evidence files share their seeds.
Every ``.pyc`` under both trees is deleted before each run, and runs get
``PYTHONDONTWRITEBYTECODE=1``, so neither side reads a cached compile.

Per end-to-end metric the file records both sides' values, medians and
quartiles, the change's relative shift (positive is worse), how many
pairs the change won, the quartiles of the per-pair change/parent ratio
(how widely the pairs spread), and a verdict against the metric's bound:
``unresolved`` when the parent's own IQR is wider than the bound,
``worse than bound`` when the shift exceeds it, else ``within bound``;
``gain`` when the change is better in at least nine of the ten pairs,
its median beats the parent's by more than the parent's IQR, and no
larger share of its operations failed than of the parent's.

It also records three 10-s ``--trace 1`` runs per side and workload
(every per-layer metric), the sides alternating as in the pairs and run
t seeded ``first-seed + t``, with each run's metrics and their
per-metric median per side: one traced run swings more than most
changes move a row.  Last comes one run of each tree's tier-1 suite:
wall time, the summary line and the five slowest tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10
SECONDS = SPEC["run_seconds"]
TRACE_SECONDS = 10
TRACED_RUNS = 3


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _make_trees(tmp: Path, base: str) -> dict[str, Path]:
    parent, change = tmp / "parent", tmp / "change"
    parent.mkdir()
    archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "out", ".hypothesis")
    for part in ("src", "bench", "tests"):
        shutil.copytree(ROOT / part, change / part, ignore=ignore)
    for name in ("BENCHMARK.json", "pyproject.toml"):
        shutil.copy2(ROOT / name, change / name)
    return {"parent": parent, "change": change}


def _env() -> dict[str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def _drop_bytecode(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def _bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    _drop_bytecode(tree)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, env=_env(), capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{tree.name}: {' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def _summary(parent: list[float], change: list[float], better: str, bound: float, fails_more: bool) -> dict:
    sign = 1 if better == "lower" else -1  # sign * (change - parent) > 0 is worse
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = _quartiles(parent)
    p_iqr = p_q[1] - p_q[0]
    shift = sign * (c_med - p_med) / p_med
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if not fails_more and wins >= 0.9 * len(parent) and -sign * (c_med - p_med) > p_iqr:
        verdict = "gain"
    elif p_iqr / p_med > bound:
        verdict = "unresolved"
    elif shift > bound:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "parent_quartiles": p_q,
        "change_median": c_med,
        "change_quartiles": _quartiles(change),
        "shift": shift,
        "pair_wins": wins,
        "pair_ratio_quartiles": _quartiles([c / p for p, c in zip(parent, change)]),
        "bound": bound,
        "verdict": verdict,
    }


def _pairs(trees: dict[str, Path], workload: str, first_seed: int) -> dict:
    runs = {"parent": [], "change": []}
    seeds = []
    for p in range(PAIRS):
        seed = first_seed + p
        seeds.append(seed)
        for side in ("parent", "change") if p % 2 == 0 else ("change", "parent"):
            runs[side].append(_bench(trees[side], workload, seed, SECONDS, 0))
            print(f"{workload} pair {p + 1}/{PAIRS} {side}: {runs[side][-1]['metrics']}", file=sys.stderr, flush=True)
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in runs}
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    fails_more = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    metrics = {}
    for spec in SPEC["end_to_end"]:
        name = spec["name"]
        values = {side: [r["metrics"][name] for r in runs[side]] for side in runs}
        metrics[name] = _summary(values["parent"], values["change"], spec["better"], spec["bound"], fails_more)
    return {
        "seeds": seeds,
        "first": ["parent" if p % 2 == 0 else "change" for p in range(PAIRS)],
        "attempted": attempted,
        "failed": failed,
        "correct": {side: all(r["correct"] for r in runs[side]) for side in runs},
        "metrics": metrics,
    }


def _traced(trees: dict[str, Path], workload: str, first_seed: int) -> dict:
    runs = {"parent": [], "change": []}
    for t in range(TRACED_RUNS):
        for side in ("parent", "change") if t % 2 == 0 else ("change", "parent"):
            runs[side].append(_bench(trees[side], workload, first_seed + t, TRACE_SECONDS, 1))
    return {
        "seeds": [first_seed + t for t in range(TRACED_RUNS)],
        "seconds": TRACE_SECONDS,
        "first": ["parent" if t % 2 == 0 else "change" for t in range(TRACED_RUNS)],
        "runs": runs,
        "median": {
            side: {name: statistics.median(r["metrics"][name] for r in side_runs) for name in side_runs[0]["metrics"]}
            for side, side_runs in runs.items()
        },
    }


def _suite(tree: Path) -> dict:
    _drop_bytecode(tree)
    env = dict(_env(), PYTHONPATH=str(tree / "src"))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=5"]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.splitlines()
    slowest = [line for line in lines if " call " in line or " setup " in line][:5]
    return {"wall_s": wall, "exit": done.returncode, "summary": lines[-1] if lines else "", "slowest": slowest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent tree")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--first-seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]

    report = {
        "base": _git("rev-parse", args.base),
        "change": f"working tree on {_git('rev-parse', 'HEAD')}" + (" (edited)" if _git("status", "--porcelain") else ""),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "tool": f"tools/bench_pairs.py at blob {_git('hash-object', 'tools/bench_pairs.py')}",
        "pairs": PAIRS,
        "seconds": SECONDS,
        "workloads": {},
        "traced": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = _make_trees(Path(tmp), args.base)
        for workload in workloads:
            report["workloads"][workload] = _pairs(trees, workload, args.first_seed)
        for workload in workloads:
            report["traced"][workload] = _traced(trees, workload, args.first_seed)
        report["tier1"] = {side: _suite(tree) for side, tree in trees.items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, result in report["workloads"].items():
        for name, m in result["metrics"].items():
            print(
                f"{workload:16} {name:24} {m['parent_median']:.4g} -> {m['change_median']:.4g} "
                f"(shift {m['shift']:+.1%}, + is worse; change won {m['pair_wins']}/{PAIRS}): {m['verdict']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
