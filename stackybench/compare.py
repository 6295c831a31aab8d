"""Side-by-side report of two result sets.

    python3 stackybench/compare.py parent.jsonl change.jsonl

Each file holds the lines that `run.py --results FILE` appends.  One row
per workload and metric: each side's median and quartiles, the change of
the medians, and the pairs (runs with the same seed) the second side won.
An end-to-end metric is marked `unresolved` when either side's spread
(interquartile distance over median) exceeds its bound in BENCHMARK.json,
unless every run of the second side beats every run of the first.  The
unscaled wall-clock values (wall.*) and failed_ratio are shown too, with
no bound and so with no verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict:
    """(workload, trace, metric) -> {seed: value}, from the gated metrics
    and the unscaled extras.  A file that holds two runs with the same
    workload, trace and seed is refused, so no run is silently dropped."""
    out = defaultdict(dict)
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            row = json.loads(line)
            values = dict(row["result"]["metrics"])
            values.update(row.get("extra", {}))
            for metric, m in values.items():
                key = (row["workload"], row["trace"], metric)
                if row["seed"] in out[key]:
                    raise SystemExit(
                        f"{path}:{number}: a second run of {row['workload']} "
                        f"with --trace {row['trace']} and --seed "
                        f"{row['seed']}; give each run its own seed")
                out[key][row["seed"]] = m["value"]
    return out


def definition(defs: dict, metric: str):
    """The BENCHMARK.json entry of a metric; the unscaled extras are shown
    without a bound."""
    if metric == "failed_ratio":
        return {"better": "lower"}
    if metric.startswith("wall.") and metric[5:] in defs:
        return {"better": defs[metric[5:]]["better"]}
    return defs.get(metric)


def verdict(a: dict, b: dict, better: str, bound) -> tuple:
    """(pairs won by b, pairs, verdict) for one metric."""
    sign = 1 if better == "higher" else -1
    seeds = sorted(set(a) & set(b))
    won = sum(1 for s in seeds if sign * (b[s] - a[s]) > 0)
    if bound is None:
        return won, len(seeds), ""
    med_a, q1_a, q3_a = stats.median_and_quartiles(a.values())
    med_b = stats.median_and_quartiles(b.values())[0]
    if all(sign * (y - x) > 0 for x in a.values() for y in b.values()):
        return won, len(seeds), "better"
    if max(stats.relative_spread(a.values()),
           stats.relative_spread(b.values())) > bound:
        return won, len(seeds), "unresolved"
    if sign * (med_a - med_b) > bound * abs(med_a):
        return won, len(seeds), "worse"
    if (seeds and won >= 0.9 * len(seeds)
            and sign * (med_b - med_a) > q3_a - q1_a):
        return won, len(seeds), "better"
    return won, len(seeds), "unchanged"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", type=Path)
    parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a, b = load(args.first), load(args.second)
    print(f"{'workload':14s} {'metric':44s} {'first median [Q1, Q3]':>34s} "
          f"{'second median [Q1, Q3]':>34s} {'change':>8s} {'won':>6s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, _, metric = key
        d = definition(defs, metric)
        if d is None:
            continue
        cells = []
        for side in (a[key], b[key]):
            med, q1, q3 = stats.median_and_quartiles(side.values())
            cells.append((med, f"{med:.4g} [{q1:.4g}, {q3:.4g}]"))
        change = ((cells[1][0] - cells[0][0]) / abs(cells[0][0])
                  if cells[0][0] else 0.0)
        won, pairs, result = verdict(a[key], b[key], d["better"], d.get("bound"))
        print(f"{workload:14s} {metric:44s} {cells[0][1]:>34s} "
              f"{cells[1][1]:>34s} {change:+8.1%} {won:>3d}/{pairs:<2d}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
