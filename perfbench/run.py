"""crackbem benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload crack-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  With
--trace 0 the workload runs a closed loop of ops (one client, next op after
the previous one returns) for --seconds and reports the end-to-end metrics.
With --trace 1 it runs a fixed, seeded list of ops twice, each op untraced
and then with every public crackbem function wrapped in a span, and reports
the per-layer metrics plus the tracing overhead.  Every op's outputs are checked
outside the timed region; the last stdout line is the result object, the line
before it a report with the environment, the workload record and the checks.
Exit code 2 means the benchmark could not run (no package, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# OpenBLAS reads its thread count when numpy loads: pin it before any import
# of numpy.  One thread is the plain single-threaded baseline.
BLAS_THREADS = "1"
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), BLAS_THREADS))

import numpy  # noqa: E402
import scipy  # noqa: E402
from reference import Reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
IMPORT_REPEATS = 7
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import crackbem.cli; "
    "print(time.perf_counter() - t); print(crackbem.cli.__file__)"
)


def environment() -> dict:
    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "git_commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": int(BLAS_THREADS),
    }


def fresh_import() -> float:
    """Seconds of `import crackbem.cli` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"fresh interpreter imported crackbem from {path}")
    return float(seconds)


def measure_import() -> float:
    """Median scaled seconds of `import crackbem.cli` over fresh interpreters, after a warm-up."""
    fresh_import()
    ref = Reference()
    ref.sample()
    times = []
    for _ in range(IMPORT_REPEATS):
        times.append(fresh_import())
        ref.sample()
    return statistics.median(ref.scale(times))


def tail(durations: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With 10 samples or fewer no percentile qualifies; the maximum is reported
    as percentile 100.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Runner:
    """Times ops of one workload and collects check failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []

    def run_op(self, i: int, tracer=None) -> float:
        """Run op i (inside `tracer` when given), check it, return its duration."""
        self.attempted += 1
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = self.workload.op(i)
            except Exception:  # an op that raises is a failed op; keep measuring
                self.failures.append(f"op {i} raised: {traceback.format_exc(limit=3)}")
                return time.perf_counter() - start
            elapsed = time.perf_counter() - start
        try:
            message = self.workload.check(i, result)
        except Exception:  # missing or malformed output files
            message = f"op {i} check raised: {traceback.format_exc(limit=3)}"
        if message is not None:
            self.failures.append(message)
        return elapsed


def run_timed(runner: Runner, seconds: float) -> dict:
    gc.collect()
    ref = Reference()
    ref.sample()
    raw = []
    deadline = time.perf_counter() + seconds
    while not raw or time.perf_counter() < deadline:
        raw.append(runner.run_op(len(raw)))
        ref.sample()
    durations = ref.scale(raw)
    tail_value, tail_pct = tail(durations)
    return {
        "metrics": {
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "op_p50_ms": (1e3 * statistics.median(durations), "ms"),
            "op_tail_ms": (1e3 * tail_value, "ms"),
        },
        "report": {
            "samples": len(durations),
            "op_tail_percentile": tail_pct,
            "raw_op_p50_ms": 1e3 * statistics.median(raw),
            "reference_median_ms": 1e3 * ref.median(),
        },
    }


def run_traced(runner: Runner, cb, n_ops: int) -> dict:
    runner.run_op(n_ops)  # warm-up outside both passes
    gc.collect()
    tracer = Tracer(cb)
    plain = traced = 0.0
    for i in range(n_ops):  # interleaved, so drift hits both passes alike
        plain += runner.run_op(i)
        traced += runner.run_op(i, tracer)
    metrics = tracer.layer_metrics()
    metrics.update(runner.workload.layer_counts())
    metrics["trace.overhead_share"] = (traced / plain - 1.0, "share")
    metrics["trace.ops"] = (n_ops, "count")
    return {"metrics": metrics, "report": {"traced_ops": n_ops, "plain_s": plain, "traced_s": traced}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "crackbem" / "__init__.py").is_file():
        print(f"error: no crackbem package under {SRC}", file=sys.stderr)
        return 2
    record = spec["workloads"][args.workload]
    seed = record["default_seed"] if args.seed is None else args.seed

    sys.path.insert(0, str(SRC))
    import crackbem as cb

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        ref = Reference()
        ref.sample()
        setups = []
        for _ in range(SETUP_REPEATS):
            workload = WORKLOADS[args.workload](cb, seed, ROOT, out_dir)
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
            ref.sample()
        runner = Runner(workload)
        if args.trace:
            n_ops = max(1, math.ceil(args.seconds * record["trace_ops_per_second"]))
            measured = run_traced(runner, cb, n_ops)
        else:
            measured = run_timed(runner, args.seconds)
            measured["metrics"]["setup_s"] = (statistics.median(ref.scale(setups)), "s")
            measured["metrics"]["import_s"] = (measure_import(), "s")
        fields, run_failures = workload.run_checks()
        if not args.trace:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            measured["metrics"]["peak_rss_mb"] = (peak_mb, "MB")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()  # only when no other run still uses it
        except OSError:
            pass

    report = {
        "workload": args.workload,
        "seed": seed,
        "record": record,
        "environment": environment(),
        "raw_setup_s": setups,
        **measured["report"],
        **fields,
        "failures": (runner.failures + run_failures)[:10],
    }
    result = {
        "correct": not runner.failures and not run_failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
