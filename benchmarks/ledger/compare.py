"""Compare two ledgers: a parent commit (A) against a change (B).

Usage::

    python3 benchmarks/ledger/compare.py A.jsonl B.jsonl

Each file is what ``run.py --out FILE`` appended, one line per run.  Make
the runs in alternating pairs with the same benchmark code and
``--seconds`` on both commits (parent, change, parent, change, ...),
at least ten pairs per workload.  The i-th run of a workload in A is
paired with the i-th run of that workload in B.

For every workload and end-to-end metric the verdict follows the
choosing-metrics rule, on absolute medians with no machine
normalization (a slowdown that hits every metric equally still shows):

* ``gain`` -- at least ten pairs, B better in at least 9/10 of them
  (ties count for neither side), and the medians differ by more than
  A's interquartile range;
* ``regression`` -- B's median is worse than A's by more than the
  metric's bound;
* ``unresolved`` -- A's own spread (IQR / median) is wider than the
  bound, so "no regression" cannot be shown, unless every run of B
  reads better than every run of A;
* ``same`` -- none of the above.

Per-layer medians from traced runs are listed after the verdicts, to
show which layer a change moved.  Exit status: 1 if any regression,
0 otherwise, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """Runs per workload, in file order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, int]:
    """(verdict, wins of B) for paired samples of one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    improved = sign * (a_med - b_med) > 0
    if (len(a) >= MIN_PAIRS and wins >= WIN_SHARE * len(a) and improved
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "gain", wins
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if sign * (b_med - a_med) > bound * abs(a_med):
        return "regression", wins
    if a_med and (a_q3 - a_q1) / abs(a_med) > bound and not all_better:
        return "unresolved", wins
    return "same", wins


def compare(runs_a: dict, runs_b: dict) -> tuple[list[list[str]], bool]:
    """Verdict rows for every shared workload and metric, and whether any
    row is a regression."""
    rows, regressed = [], False
    for name in workloads.WORKLOADS:
        timed_a = [r for r in runs_a.get(name, []) if "run_s" in r["metrics"]]
        timed_b = [r for r in runs_b.get(name, []) if "run_s" in r["metrics"]]
        pairs = min(len(timed_a), len(timed_b))
        if not pairs:
            continue
        for metric, unit, better, bound in workloads.END_TO_END:
            a = [r["metrics"][metric] for r in timed_a[:pairs]]
            b = [r["metrics"][metric] for r in timed_b[:pairs]]
            result, wins = verdict(a, b, better, bound)
            regressed |= result == "regression"
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            delta = (b_med - a_med) / a_med * 100 if a_med else 0.0
            rows.append([
                name, f"{metric} ({unit})",
                f"{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]",
                f"{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]",
                f"{delta:+.1f}%", f"{wins}/{pairs}", f"±{bound:.0%}",
                result,
            ])
    return rows, regressed


def layer_rows(runs_a: dict, runs_b: dict) -> list[list[str]]:
    """Per-layer medians of the traced runs on both sides."""
    rows = []
    for name in workloads.WORKLOADS:
        traced_a = [r for r in runs_a.get(name, [])
                    if "graph.edges" in r["metrics"]]
        traced_b = [r for r in runs_b.get(name, [])
                    if "graph.edges" in r["metrics"]]
        if not traced_a or not traced_b:
            continue
        for metric, unit, _better in workloads.PER_LAYER:
            a = statistics.median(r["metrics"][metric] for r in traced_a)
            b = statistics.median(r["metrics"][metric] for r in traced_b)
            if a or b:
                rows.append([name, f"{metric} ({unit})", f"{a:.4g}",
                             f"{b:.4g}"])
    return rows


def table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="ledger JSONL of the parent commit")
    parser.add_argument("change", help="ledger JSONL of the change")
    args = parser.parse_args(argv)
    runs_a, runs_b = load(args.parent), load(args.change)
    rows, regressed = compare(runs_a, runs_b)
    if not rows:
        print("error: no workload has end-to-end runs in both files",
              file=sys.stderr)
        return 2
    print(table(["workload", "metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "delta", "change wins",
                 "bound", "verdict"], rows))
    layers = layer_rows(runs_a, runs_b)
    if layers:
        print()
        print(table(["workload", "per-layer metric", "parent median",
                     "change median"], layers))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
