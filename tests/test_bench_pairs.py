"""The alternating-pair benchmark tool's aggregation, on canned result
lines; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower", "gone.self_s": "lower"}


def run_output(metrics: dict, failed: int = 0, seed: int = 7) -> str:
    """The last two stdout lines of perfbench/run.py for the given metrics."""
    report = {"report": {"workload": "shape-scan", "seed": seed, "environment": {"nproc": 2}}}
    result = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return "progress line\n" + json.dumps(report) + "\n" + json.dumps(result) + "\n"


def test_parse_output_reads_the_last_two_lines():
    report, result = bench_pairs.parse_output(run_output({"ops_per_s": (3.0, "1/s")}))
    assert report["seed"] == 7 and report["environment"] == {"nproc": 2}
    assert result["metrics"]["ops_per_s"] == {"value": 3.0, "unit": "1/s"}


def test_directions_come_from_the_benchmark_declaration():
    declared = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = bench_pairs.directions(declared)
    assert better["ops_per_s"] == "higher" and better["peak_rss_mb"] == "lower"
    assert better["forward.lu_solve.calls"] == "lower"


def shape_scan_result(ops: float, gone: float, failed: int = 0) -> dict:
    metrics = {"ops_per_s": (ops, "1/s"), "op_p50_ms": (1e3 / ops, "ms"),
               "gone.self_s": (gone, "s"), "extra": (1.0, "count")}
    return bench_pairs.parse_output(run_output(metrics, failed))[1]


def test_summarize_medians_quartiles_wins_and_vanished_metrics():
    parent = [3.0, 3.1, 2.9, 3.2, 3.0]
    change = [3.6, 3.0, 3.5, 3.7, 3.4]  # wins 4 of 5 pairs
    pairs = [
        (shape_scan_result(p, 0.02), shape_scan_result(c, 0.0, failed=int(i == 2)))
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    summary = bench_pairs.summarize(pairs, BETTER)

    ops = summary["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/s" and ops["better"] == "higher"
    assert ops["parent"] == {"median": 3.0, "q1": 3.0, "q3": 3.1, "n": 5}
    assert ops["change"]["median"] == 3.5
    assert ops["change"]["q1"] == pytest.approx(3.4) and ops["change"]["q3"] == 3.6
    assert (ops["wins"], ops["pairs"]) == (4, 5)
    # a lower-is-better metric wins on the same pairs
    assert summary["metrics"]["op_p50_ms"]["wins"] == 4
    # a metric with no declared direction has no win count
    assert summary["metrics"]["extra"]["wins"] is None
    # 0 on one side only: listed apart, not compared
    assert "gone.self_s" not in summary["metrics"]
    assert summary["vanished"] == {"gone.self_s": {"unit": "s", "parent": 0.02, "change": 0.0}}
    # every run's status, per side in pair order
    assert [r["failed"] for r in summary["runs"]["change"]] == [0, 0, 1, 0, 0]
    assert [r["correct"] for r in summary["runs"]["parent"]] == [True] * 5


def test_summarize_one_pair_and_a_metric_missing_on_one_side():
    parent = bench_pairs.parse_output(run_output({"ops_per_s": (2.0, "1/s"), "old": (5.0, "s")}))[1]
    change = bench_pairs.parse_output(run_output({"ops_per_s": (2.5, "1/s")}))[1]
    summary = bench_pairs.summarize([(parent, change)], BETTER)
    ops = summary["metrics"]["ops_per_s"]
    assert ops["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}
    assert (ops["wins"], ops["pairs"]) == (1, 1)
    assert summary["vanished"] == {"old": {"unit": "s", "parent": 5.0, "change": 0.0}}
