"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`.

The tier-1 suite does not collect this directory: the determinism test
starts eight traced benchmark runs and takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])  # outer start, inner start, inner end, outer end
    tracer = Tracer(package=None, clock=lambda: next(ticks))
    inner = tracer._wrap("kernels.inner", lambda: None)
    outer = tracer._wrap("forward.outer", lambda: inner())
    outer()
    assert tracer.stats == {"kernels.inner": [1, 2.0], "forward.outer": [1, 8.0]}


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SPEC["workloads"]))
def test_counts_repeat_between_traced_runs(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    for name in SPEC["deterministic_counts"]:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["kernels.pairs"]["value"] > 0
