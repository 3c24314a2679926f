#!/usr/bin/env python3
"""Compare two sets of servebench runs (parent and change), or summarise one.

Usage, from the repository root::

    python3 servebench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 servebench/compare.py RUNS.jsonl      # one set: medians, spread

Each file holds the records ``servebench/run.py --out FILE`` appends.  For
every workload x end-to-end metric the comparison prints each side's median,
quartiles and run count, the ratio of the medians with its base, and a
verdict under the bound ``BENCHMARK.json`` fixes for the metric:

``better``
    every change run beats every parent run; or the change wins at least
    nine in ten run pairs (a pair is the two sides' runs of one seed, seeds
    present on both sides only) and its median beats the parent's by more
    than the parent's own quartile spread;
``unresolved``
    otherwise, when either side's spread (quartile distance over median)
    exceeds the bound;
``worse``
    the change's median is worse than the parent's by more than the bound;
``no worse``
    otherwise.

A metric a run marks as not judged (``detail.unjudged``: a p95 with fewer
than ten samples beyond it, or ``designs_per_s`` where it equals
``throughput_rps``) is printed with its reason instead of a verdict.

Traced runs (``--trace 1``) add one row per workload x per-layer metric:
both medians, their difference, and the ratio with its base.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace)."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            groups.setdefault((record["workload"], record["trace"]),
                              []).append(record)
    return groups


def by_seed(records: list[dict], metric: str) -> dict[int, list[float]]:
    """The metric's values, grouped by the seed of the run."""
    out: dict[int, list[float]] = {}
    for record in records:
        if metric in record["metrics"]:
            out.setdefault(record["seed"], []).append(
                record["metrics"][metric]["value"])
    return out


def values(records: list[dict], metric: str) -> list[float]:
    return [value for runs in by_seed(records, metric).values()
            for value in runs]


def unjudged(records: list[dict], metric: str) -> str | None:
    """Why some run gives ``metric`` no verdict, or ``None``."""
    for record in records:
        reason = record["detail"].get("unjudged", {}).get(metric)
        if reason:
            return reason
    return None


def quartiles(data: list[float]) -> tuple[float, float, float]:
    if len(data) < 2:
        return data[0], data[0], data[0]
    q1, median, q3 = statistics.quantiles(data, n=4)
    return q1, median, q3


def spread(data: list[float]) -> float:
    """Distance between the quartiles, as a share of the median."""
    q1, median, q3 = quartiles(data)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent_runs: dict[int, list[float]],
            change_runs: dict[int, list[float]], better: str,
            bound: float) -> str:
    """better / no worse / worse / unresolved, as the module docstring says.

    Both sides map seed -> that seed's values; a seed run more than once
    on a side is paired through its median.
    """
    sign = 1.0 if better == "lower" else -1.0
    parent = [v for runs in parent_runs.values() for v in runs]
    change = [v for runs in change_runs.values() for v in runs]

    def wins(c: float, p: float) -> bool:
        return sign * c < sign * p

    if all(wins(c, p) for c in change for p in parent):
        return "better"
    parent_median = quartiles(parent)[1]
    worse_by = sign * (quartiles(change)[1] - parent_median) \
        / abs(parent_median)
    if max(spread(parent), spread(change)) > bound:
        return "unresolved"
    seeds = sorted(parent_runs.keys() & change_runs.keys())
    won = sum(1 for seed in seeds
              if wins(statistics.median(change_runs[seed]),
                      statistics.median(parent_runs[seed])))
    if seeds and -worse_by > spread(parent) and won >= 0.9 * len(seeds):
        return "better"
    return "worse" if worse_by > bound else "no worse"


def describe(data: list[float]) -> str:
    q1, median, q3 = quartiles(data)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(data)}"


def summarise(groups, spec: dict) -> None:
    print("workload          metric               median [q1, q3] runs"
          "                  spread  bound")
    for (workload, trace), records in sorted(groups.items()):
        entries = spec["end_to_end"] if trace == 0 else spec["per_layer"]
        for entry in entries:
            data = values(records, entry["name"])
            if not data:
                continue
            line = (f"{workload:<17} {entry['name']:<20} "
                    f"{describe(data):<36} {entry['unit']:<8}")
            if "bound" in entry:
                share = spread(data)
                flag = "" if share <= entry["bound"] / 3 else (
                    "  (over bound/3)" if share <= entry["bound"]
                    else "  (OVER BOUND)")
                if unjudged(records, entry["name"]):
                    flag += "  (not judged)"
                line += f" {share:6.3f}  {entry['bound']}{flag}"
            print(line)


def compare(parent_groups, change_groups, spec: dict) -> None:
    for (workload, trace), parent in sorted(parent_groups.items()):
        change = change_groups.get((workload, trace))
        if not change:
            print(f"{workload} (trace {trace}): no change runs")
            continue
        if trace == 0:
            for entry in spec["end_to_end"]:
                name = entry["name"]
                p, c = by_seed(parent, name), by_seed(change, name)
                if not p or not c:
                    continue
                reason = unjudged(parent + change, name)
                judged = f"not judged: {reason}" if reason else verdict(
                    p, c, entry["better"], entry["bound"])
                p, c = values(parent, name), values(change, name)
                base, new = quartiles(p)[1], quartiles(c)[1]
                print(f"{workload:<17} {name:<15} parent "
                      f"{describe(p)}  change {describe(c)}  ratio "
                      f"{new / base:.4f} (= {new:.5g} / {base:.5g} "
                      f"{entry['unit']})  bound {entry['bound']}  -> "
                      f"{judged}")
            continue
        for entry in spec["per_layer"]:
            p, c = values(parent, entry["name"]), values(change, entry["name"])
            if not p or not c:
                continue
            base, new = statistics.median(p), statistics.median(c)
            ratio = f"ratio {new / base:.4f} (= {new:.5g} / {base:.5g})" \
                if base else "ratio n/a (parent 0)"
            print(f"{workload:<17} {entry['name']:<30} parent {base:.5g}  "
                  f"change {new:.5g} {entry['unit']}  delta "
                  f"{new - base:+.5g}  {ratio}")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    groups = [load(Path(path)) for path in argv]
    if len(groups) == 1:
        summarise(groups[0], spec)
    else:
        compare(groups[0], groups[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
