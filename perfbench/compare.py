"""Compare two sets of benchmark runs, one row per workload and metric.

Usage (from the repository root):

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the captured stdout of several ``run.py`` runs; the
``{"record": ...}`` lines are read and the i-th run of a workload in one file
is paired with the i-th run of the same workload and trace setting in the
other.  Verdicts follow the benchmark's rule:

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
- worse: for a metric with a bound, the change's median is worse than the
  parent's by more than the bound (a share of the parent's median); for a
  per-layer metric, the mirror image of "improved";
- unresolved: the parent's own spread is wider than the bound and the change
  does not read better than the parent on every run, or a per-layer metric
  meets neither rule;
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith('{"record"'):
            record = json.loads(line)["record"]
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float | None) -> tuple[str, float]:
    """(verdict, fraction of pairs the change won)."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    won = sum(1 for a, b in pairs if sign * (b - a) < 0) / len(pairs)
    lost = sum(1 for a, b in pairs if sign * (b - a) > 0) / len(pairs)
    q1, median_a, q3 = quartiles(parent)
    worsening = sign * (quartiles(change)[1] - median_a)  # > 0: the change is worse
    spread = q3 - q1
    if won >= 0.9 and -worsening > spread:
        return "improved", won
    if bound is None:
        return ("worse" if lost >= 0.9 and worsening > spread else "unresolved"), won
    every_run_better = max(sign * b for b in change) < min(sign * a for a in parent)
    if spread > bound * abs(median_a) and not every_run_better:
        return "unresolved", won
    return ("worse" if worsening > bound * abs(median_a) else "no worse"), won


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'workload':9} {'metric':42} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'ratio':>7} {'won':>5}  verdict")
    for key in sorted(parent.keys() & change.keys()):
        runs_a, runs_b = parent[key], change[key]
        n = min(len(runs_a), len(runs_b))
        for name in runs_a[0]["metrics"]:
            if name not in metrics or name not in runs_b[0]["metrics"]:
                continue
            a = [r["metrics"][name]["value"] for r in runs_a[:n]]
            b = [r["metrics"][name]["value"] for r in runs_b[:n]]
            spec_m = metrics[name]
            result, won = verdict(a, b, spec_m["better"], spec_m.get("bound"))
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{key[0]:9} {name:42} {_cell(qa):>34} {_cell(qb):>34} {ratio:7.3f} {won:5.2f}  "
                  f"{result} (n={n})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
