"""cubicdet benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload verify_random --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` (nothing is installed or built).  Each workload is a closed
loop with one client: the next operation starts only after the previous
one has finished and been checked.  Inputs come from ``--seed`` and are
built, with their reference values (see ``oracle.py``), before the
clock starts; no input repeats within a run.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
is a separate run that reports the per-layer metrics: spans around
every public function, exact work counts from a count-only pass, the
start-up floor, and the single-matrix reference rows.  The design, the
metric definitions and the baseline are in ``bench/design.json``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller report, and in a
traced run every span, go to ``bench/out/``.  ``--fault`` makes
``det_closed`` return det + 1 and alters the last line of every CLI
output, so that the checks can be seen to fail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from contextlib import ExitStack, nullcontext, redirect_stdout
from io import StringIO
from pathlib import Path

import spans
from workloads import CliOneshot, RoutesRational, VerifyRandom, child_env, timed_subprocess

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 15  # fresh interpreters per run for setup_s
PROBE_RUNS = 7  # fresh interpreters per run for each start-up probe
WARMUP_OPS = 3
REFERENCE_SPAN = 4  # references on each side of an operation that normalise it
COUNT_OPS = {"verify_random": 8, "routes_rational": 8, "cli_oneshot": 32}
ROW_REPEATS = 5
REFERENCE_PASSES = 5

# A fresh interpreter made ready for a workload: the package imported and
# each route called once, so import-time work and first-call work (such
# as perm_terms' cache) both land in setup_s.
SETUP_CODE = """
import sys
import cubicdet as cd
if sys.argv[1] == "cli":
    import cubicdet.cli
    cd.cli.build_parser()
A = cd.random_cubic(cd.GenSpec(3, 1, 9))
for M in (A, A.scale(cd.Scalar(1, 3))):
    cd.det_closed(M)
    cd.det_permutation(M)
    cd.det_laplace(M)
    cd.expand(M, cd.Axis.HORIZONTAL_LAYER, 1)
    cd.cofactor(M, cd.Index3(1, 1, 1), cd.SignConvention.PAPER_DEF)
    cd.parse_text(cd.serialize_text(M))
    cd.parse_json(cd.serialize_json(M))
cd.batch_verify((2, 3), 1, 1, 9)
print(cd.__file__)
"""


def median_subprocess_s(argv, env, runs) -> float:
    return statistics.median(timed_subprocess(argv, env)[0] for _ in range(runs))


def setup_once(kind: str, env) -> float:
    """Wall time of one fresh interpreter brought to ready."""
    elapsed, printed = timed_subprocess([sys.executable, "-c", SETUP_CODE, kind], env)
    if not printed.strip().startswith(str(SRC)):
        raise RuntimeError(f"setup imported cubicdet from {printed.strip()}, not {SRC}")
    return elapsed


def startup_probes(env) -> tuple[float, float]:
    """(bare interpreter start, import of cubicdet.cli beyond it), in ms."""
    bare = median_subprocess_s([sys.executable, "-c", "pass"], env, PROBE_RUNS)
    cli = median_subprocess_s([sys.executable, "-c", "import cubicdet.cli"], env, PROBE_RUNS)
    return bare * 1e3, (cli - bare) * 1e3


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Loop:
    """The closed loop: make an input, time the operation, check it."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def step(self, rng, k, around=None):
        """One operation; returns its latency in seconds.  ``around`` is
        entered just outside the timed region (the tracing rebinding)."""
        wl = self.workload
        inp = wl.make(rng, k)
        self.attempted += 1
        with around or nullcontext():
            start = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception as exc:  # any exception is a failed operation
                out = exc
            elapsed = time.perf_counter() - start
        try:
            if isinstance(out, Exception):
                raise out
            wl.check(inp, out)
        except Exception as exc:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {k}: {type(exc).__name__}: {exc}")
        return elapsed


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100)[p - 1]


def run_end_to_end(cd, wl, loop, seed, seconds, env):
    """Untraced: the timed loop, with setup_s from fresh interpreters.

    After each operation (and its check) the workload's reference runs
    once: fixed work that shares no code with cubicdet (see
    ``reference`` in workloads.py).  The machine's speed drifts by tens
    of percent over tens of seconds; an operation's latency divided by
    the references run around it does not, so the gated latency and
    throughput metrics are in units of the reference ("ref").  The
    wall-clock figures go to the report alongside.
    """
    kind = "cli" if wl.name == "cli_oneshot" else "lib"
    rng = random.Random(f"{wl.name}:{seed}")
    for k in range(WARMUP_OPS):
        loop.step(rng, k)
        wl.reference()
    latencies, references, setups = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    k = WARMUP_OPS
    while time.perf_counter() < deadline:
        # The set-ups are spread over the run, between operations, so
        # that their median sees the same drift as the operations do.
        if time.perf_counter() >= start + len(setups) * seconds / SETUP_RUNS:
            setups.append(setup_once(kind, env))
        latencies.append(loop.step(rng, k))
        ref_start = time.perf_counter()
        wl.reference()
        references.append(time.perf_counter() - ref_start)
        k += 1
    setup_s = statistics.median(setups)
    if wl.name == "cli_oneshot":
        peak_rss_kb = wl.peak_rss_kb
    else:
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Each operation is divided by the median of the nine references
    # around it: close enough in time to follow the drift, and steadier
    # than the single reference beside it.
    relative = [
        op / statistics.median(references[max(0, i - REFERENCE_SPAN) : i + REFERENCE_SPAN + 1])
        for i, op in enumerate(latencies)
    ]
    metrics = {
        "throughput_ops_per_ref": (len(relative) / sum(relative), "1/ref"),
        "latency_p50_ref": (statistics.median(relative), "ref"),
        "latency_tail_ref": (percentile(relative, wl.tail), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    details = {
        "samples": len(latencies),
        "setup_samples": len(setups),
        "tail_percentile": wl.tail,
        "wall_clock": {
            "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": percentile(latencies, wl.tail) * 1e3,
            "reference_p50_ms": statistics.median(references) * 1e3,
        },
        "latencies_s": latencies,
        "references_s": references,
    }
    return metrics, details


def reference_rows(cd):
    """The single-matrix rows: GenSpec(3, 42, 9) with integer entries and
    the same matrix scaled by Scalar(1, 3), plus cross_check at order 2.
    Each is the median per-call time of ROW_REPEATS batches of at least
    2 ms, untraced.  Returns the rows and the two order-3 matrices, which
    the traced reference pass reuses."""
    A = cd.random_cubic(cd.GenSpec(3, 42, 9))
    matrices = {"int": A, "rat": A.scale(cd.Scalar(1, 3))}
    h = cd.Axis.HORIZONTAL_LAYER
    calls = []
    for label, M in matrices.items():
        text, js = cd.serialize_text(M), cd.serialize_json(M)
        calls += [
            (f"rows.{label}.det_closed_us", lambda M=M: cd.det_closed(M)),
            (f"rows.{label}.det_permutation_us", lambda M=M: cd.det_permutation(M)),
            (f"rows.{label}.expand_us", lambda M=M: cd.expand(M, h, 1)),
            (f"rows.{label}.det_laplace_us", lambda M=M: cd.det_laplace(M)),
            (f"rows.{label}.cross_check_us", lambda M=M: cd.cross_check(M)),
            (f"rows.{label}.parse_text_us", lambda text=text: cd.parse_text(text)),
            (f"rows.{label}.parse_json_us", lambda js=js: cd.parse_json(js)),
            (f"rows.{label}.matrix_digest_us", lambda M=M: cd.matrix_digest(M)),
        ]
    B = cd.random_cubic(cd.GenSpec(2, 42, 9))
    calls.append(("rows.int.cross_check_order2_us", lambda: cd.cross_check(B)))
    rows = {}
    for label, call in calls:
        number = 1
        while True:
            start = time.perf_counter()
            for _ in range(number):
                call()
            if time.perf_counter() - start >= 0.002:
                break
            number *= 2
        batches = []
        for _ in range(ROW_REPEATS):
            start = time.perf_counter()
            for _ in range(number):
                call()
            batches.append((time.perf_counter() - start) / number)
        rows[label] = statistics.median(batches) * 1e6
    return rows, matrices


def reference_pass(cd, matrices, workdir):
    """One call of every traced function, on the reference matrices; the
    per-layer fallback for functions a workload's operations never call."""
    h = cd.Axis.HORIZONTAL_LAYER
    at = cd.Index3(1, 1, 1)
    for M in matrices.values():
        cd.parse_text(cd.serialize_text(M))
        cd.parse_json(cd.serialize_json(M))
        cd.det_closed(M)
        cd.det_permutation(M)
        cd.det_laplace(M)
        cd.expand(M, h, 1)
        cd.minor(M, at)
        cd.cofactor(M, at, cd.SignConvention.PAPER_DEF)
        cd.cross_check(M)
    cd.batch_verify((2, 3), 1, 42, 9)
    path = workdir / "reference.txt"
    path.write_text(cd.serialize_text(matrices["int"]), encoding="utf-8")
    with redirect_stdout(StringIO()):
        cd.cli.main(["det", str(path)])


def run_traced(cd, wl, loop, seed, seconds, env, workdir):
    python_startup_ms, import_ms = startup_probes(env)
    rows, matrices = reference_rows(cd)
    metrics = {"cli.python_startup_ms": (python_startup_ms, "ms"), "cli.import_ms": (import_ms, "ms")}
    metrics.update({label: (value, "us") for label, value in rows.items()})
    if wl.name == "cli_oneshot":
        wl.inprocess = True

    # Exact counts: the same COUNT_OPS inputs twice; the counts must repeat.
    totals = []
    for _ in range(2):
        counter = spans.Counter()
        rng = random.Random(f"{wl.name}:{seed}:counts")
        counting = spans.Rebinding(cd, spans.COUNTED, counter.wrap)
        for k in range(COUNT_OPS[wl.name]):
            loop.step(rng, k, around=counting)
        totals.append(dict(counter.counts))
    counts_repeat = totals[0] == totals[1]
    for name, total in totals[0].items():
        metrics[name] = (total / COUNT_OPS[wl.name], "count")

    tracer = spans.Tracer()
    tracing = spans.Rebinding(cd, spans.TRACED, tracer.wrap)
    with tracing:
        for _ in range(REFERENCE_PASSES):
            reference_pass(cd, matrices, workdir)

    # Every third operation traced, the others not, so both see the same
    # drift; 3 is prime to the cli mix's cycles, so both see the same mix.
    rng = random.Random(f"{wl.name}:{seed}")
    for k in range(WARMUP_OPS):
        loop.step(rng, k)
    traced, untraced = {}, []
    deadline = time.perf_counter() + seconds
    k = WARMUP_OPS
    while time.perf_counter() < deadline:
        if k % 3 == 0:
            tracer.op = k
            traced[k] = loop.step(rng, k, around=tracing)
        else:
            untraced.append(loop.step(rng, k))
        k += 1
    tracer.op = -1

    inside, outside, top = tracer.self_times()
    sources = {}
    for name, _, _ in spans.TRACED:
        sources[name] = "operations" if inside[name] else "reference"
        metrics[f"{name}.self_us"] = (statistics.median(inside[name] or outside[name]) / 1e3, "us")
        metrics[f"{name}.calls"] = (len(inside[name]) / len(traced), "count")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.values()) / statistics.median(untraced) - 1,
        "ratio",
    )
    metrics["trace.top_span_frac"] = (sum(top.get(op, 0) for op in traced) / 1e9 / sum(traced.values()), "ratio")
    tracer.write_csv(OUT / f"{wl.name}.spans.csv.gz")
    details = {
        "traced_ops": len(traced),
        "untraced_ops": len(untraced),
        "counts_repeat": counts_repeat,
        "counts_per_pass": totals,
        "self_us_source": sources,
    }
    return metrics, details, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify_random", "routes_rational", "cli_oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fault", action="store_true", help="inject a wrong route and altered CLI output")
    args = parser.parse_args(argv)

    if not (SRC / "cubicdet" / "__init__.py").is_file():
        print(f"error: no cubicdet sources at {SRC / 'cubicdet'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cubicdet as cd
    import cubicdet.cli  # noqa: F401  (cli.main is one of the traced functions)

    if not Path(cd.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cubicdet from {cd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env(SRC)
    # One untimed import first, so that no timed interpreter is the first
    # to read the package (or, where bytecode is cached, to compile it).
    timed_subprocess([sys.executable, "-c", "import cubicdet.cli"], env)

    if args.workload == "verify_random":
        wl = VerifyRandom(cd)
    elif args.workload == "routes_rational":
        wl = RoutesRational(cd)
    else:
        wl = CliOneshot(cd, workdir, SRC, alter_output=args.fault)
    loop = Loop(wl)
    try:
        with ExitStack() as hooks:
            if args.fault:
                def off_by_one(_, det_closed):
                    return lambda A: det_closed(A) + cd.ONE

                hooks.enter_context(spans.Rebinding(cd, [("determinant.det_closed", "pkg", "det_closed")], off_by_one))
            for hook in wl.hooks():
                hooks.enter_context(hook)
            if args.trace:
                metrics, details, counts_repeat = run_traced(cd, wl, loop, args.seed, args.seconds, env, workdir)
            else:
                metrics, details = run_end_to_end(cd, wl, loop, args.seed, args.seconds, env)
                counts_repeat = True
            python_startup_ms = metrics.get("cli.python_startup_ms", (None,))[0]
            if python_startup_ms is None:
                python_startup_ms = median_subprocess_s([sys.executable, "-c", "pass"], env, PROBE_RUNS) * 1e3
    finally:
        for leftover in workdir.iterdir():
            leftover.unlink()
        workdir.rmdir()

    correct = loop.failed == 0 and counts_repeat
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fault": args.fault,
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python_startup_ms": python_startup_ms,
        "loop": "closed, 1 client",
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failed_frac": loop.failed / loop.attempted,
        "first_failures": loop.failures,
        **details,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report_path = OUT / f"{wl.name}.trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for failure in loop.failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(
        f"# {wl.name} trace={args.trace} seed={args.seed} attempted={loop.attempted} failed={loop.failed} "
        f"python={report['python']} commit={report['commit'][:12]} nproc={report['nproc']} "
        f"python_startup_ms={python_startup_ms:.1f} report={report_path.relative_to(ROOT)}"
    )
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
