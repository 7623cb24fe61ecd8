"""Alternating-pair benchmark of two revisions, written as one BENCH_*.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --seed 7 \\
        --pairs shape-scan=10 --pairs crack-sweep=3 --pairs td-map=3 \\
        --pairs cli-commands=3 --out BENCH_13.json

Run from the repository root.  Each revision is exported fresh with
`git archive` into its own temporary directory, so neither side runs from
the working checkout, whose placement alone moves `import_s`.  Any tree-ish
works, e.g. `$(git write-tree)` for the staged index.  For each workload the
timed runs of `perfbench/run.py` alternate between the two exports, and the
side that goes first swaps every pair; then TRACE_PAIRS traced pairs give
the per-layer metrics.  The run length is perfbench/run.py's own default.
"parent" and "change" are the ids the two tree-ishes resolve to; a staged
tree from `git write-tree` is not a commit, so "parent_src" and "change_src"
also hold the tree ids of `src/`, which name the measured code in any commit
that carries it.  Per metric the file holds both sides' median and
quartiles and the number of pairs the change won.  A metric that reads 0 (or
nothing) on exactly one side, such as the self time of a function that is
gone, is listed under "vanished" instead: no ratio or win count means
anything there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACE_PAIRS = 3


def parse_output(stdout: str) -> tuple[dict, dict]:
    """(report, result) from the last two stdout lines of perfbench/run.py."""
    *_, report_line, result_line = stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def directions(benchmark: dict) -> dict:
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    return {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}


def _spread(values: list) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(pairs: list, better: dict) -> dict:
    """Aggregate (parent result, change result) pairs of one workload.

    Each result is the object run.py prints last.  Returns the runs' status
    per side, the compared metrics and the vanished ones."""
    runs = {
        side: [{k: result[k] for k in ("correct", "attempted", "failed")} for result in column]
        for side, column in zip(SIDES, zip(*pairs))
    }
    names = sorted({name for pair in pairs for result in pair for name in result["metrics"]})
    metrics, vanished = {}, {}
    for name in names:
        values = {side: [] for side in SIDES}
        units = set()
        both = []
        for pair in pairs:
            got = [result["metrics"].get(name) for result in pair]
            for side, metric in zip(SIDES, got):
                if metric is not None:
                    values[side].append(metric["value"])
                    units.add(metric["unit"])
            if None not in got:
                both.append([metric["value"] for metric in got])
        unit = units.pop()
        medians = {side: statistics.median(v) if v else 0.0 for side, v in values.items()}
        if (medians["parent"] == 0.0) != (medians["change"] == 0.0):
            vanished[name] = {"unit": unit, **medians}
            continue
        direction = better.get(name)
        if direction == "higher":
            wins = sum(c > p for p, c in both)
        elif direction == "lower":
            wins = sum(c < p for p, c in both)
        else:
            wins = None
        metrics[name] = {
            "unit": unit,
            "better": direction,
            **{side: _spread(values[side]) for side in SIDES},
            "wins": wins,
            "pairs": len(both),
        }
    return {"runs": runs, "metrics": metrics, "vanished": vanished}


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """A fresh `git archive` export of `rev` under `into`."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(checkout: Path, workload: str, seed, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_output(proc.stdout)


def run_pairs(checkouts: dict, workload: str, count: int, seed, trace: int):
    """`count` alternating pairs; returns the reports and the (parent, change) results."""
    reports, pairs = [], []
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            report, results[side] = run_once(checkouts[side], workload, seed, trace)
            reports.append(report)
            print(f"{workload} pair {i + 1}/{count} trace {trace} {side}: "
                  f"correct {results[side]['correct']}", file=sys.stderr, flush=True)
        pairs.append((results["parent"], results["change"]))
    return reports, pairs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="tree-ish of the baseline")
    parser.add_argument("--change", default="HEAD", help="tree-ish of the change")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="timed pairs per workload; repeat per workload")
    parser.add_argument("--seed", type=int, default=None, help="default: each workload's own")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    counts = {w: int(n) for w, n in (item.split("=", 1) for item in args.pairs)}
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")))
    revisions = {side: rev_parse(rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    sources = {f"{side}_src": rev_parse(f"{rev}:src") for side, rev in revisions.items()}
    bench = {**revisions, **sources, "machine": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        checkouts = {side: export(rev, Path(tmp) / side) for side, rev in revisions.items()}
        for workload, count in counts.items():
            reports, timed = run_pairs(checkouts, workload, count, args.seed, trace=0)
            _, traced = run_pairs(checkouts, workload, TRACE_PAIRS, args.seed, trace=1)
            if bench["machine"] is None:
                env = dict(reports[0]["environment"])
                env.pop("git_commit", None)
                bench["machine"] = env
            summary, layers = summarize(timed, better), summarize(traced, better)
            bench["workloads"][workload] = {
                "seed": reports[0]["seed"],
                "pairs": count,
                "trace_pairs": TRACE_PAIRS,
                "runs": {"timed": summary["runs"], "traced": layers["runs"]},
                "metrics": {**summary["metrics"], **layers["metrics"]},
                "vanished": {**summary["vanished"], **layers["vanished"]},
            }
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
