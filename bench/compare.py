#!/usr/bin/env python3
"""Compare two sets of benchmark records, per workload and metric.

    python3 bench/compare.py BASE NEW

BASE and NEW are JSON-lines files written by ``run.py --save``, or
directories of them.  For every workload and end-to-end metric the
command prints each side's median and quartiles and a verdict, using the
``better`` direction and ``bound`` that ``BENCHMARK.json`` fixes:

* ``worse``: NEW's median is worse than BASE's by more than the bound.
* ``better``: NEW wins at least nine tenths of the run pairs (records
  paired in file order) and the medians differ by more than BASE's
  interquartile range.
* ``unresolved``: BASE's own spread (interquartile range over median) is
  wider than the bound, and NEW's runs do not all read better, or all
  read worse, than every BASE run.
* ``same``: none of the above.

Traced records are summarised as medians of each per-layer metric,
without a verdict.  The exit code is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        records.extend(json.loads(line) for line in file.read_text().splitlines() if line.strip())
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    change = sign * (nmed - bmed) / bmed
    spread = (b3 - b1) / bmed
    all_better = min(sign * v for v in new) > max(sign * v for v in base)
    all_worse = max(sign * v for v in new) < min(sign * v for v in base)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if change < -bound and (spread <= bound or all_worse):
        return "worse"
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > b3 - b1:
        return "better"
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    return "same"


def _series(records: list[dict], workload: str, traced: bool) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {}
    for record in records:
        prov = record["provenance"]
        if prov["workload"] == workload and prov["trace"] == traced:
            for name, metric in record["metrics"].items():
                series.setdefault(name, []).append(metric["value"])
    return series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(args.base), load(args.new)
    workloads = [w["name"] for w in spec["workloads"]]
    worse = False
    for workload in workloads:
        for traced in (False, True):
            bs, ns = _series(base, workload, traced), _series(new, workload, traced)
            if not bs or not ns:
                continue
            runs = f"{len(next(iter(bs.values())))} vs {len(next(iter(ns.values())))} runs"
            print(f"== {workload} ({'traced' if traced else 'end to end'}, {runs})")
            metrics = spec["per_layer"] if traced else spec["end_to_end"]
            for metric in metrics:
                name = metric["name"]
                if name not in bs or name not in ns:
                    continue
                b1, bmed, b3 = quartiles(bs[name])
                n1, nmed, n3 = quartiles(ns[name])
                change = (nmed - bmed) / bmed if bmed else float("nan")
                line = (
                    f"  {name:52s} {bmed:12.5g} [{b1:.5g}, {b3:.5g}]  ->  {nmed:12.5g} [{n1:.5g}, {n3:.5g}]"
                    f"  {100 * change:+7.2f}% {metric['unit']}"
                )
                if not traced:
                    v = verdict(bs[name], ns[name], metric["better"], metric["bound"])
                    worse |= v == "worse"
                    line += f"  {v} (bound {100 * metric['bound']:.0f}%)"
                print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
