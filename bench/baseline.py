#!/usr/bin/env python3
"""Summarize benchmark runs into bench/baseline.json.

    for s in $(seq 101 110); do
        python3 bench/run.py --workload solve --seed $s --seconds 15 --trace 0
    done
    python3 bench/run.py --workload solve --seed 101 --seconds 15 --trace 1
    ...                                      # the same for every workload
    python3 bench/baseline.py --seeds 101-110

It reads the run records in bench/out/ (untraced runs for every seed, the
traced run for the first seed) and writes, per workload, each end-to-end
metric's median, quartiles and spread (quartile distance over median) with
every value, and the traced run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 101-110")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    out = {"seeds": seeds, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for w in (w["name"] for w in SPEC["workloads"]):
        runs = [json.loads((BENCH / "out" / f"{w}-seed{s}-trace0.json").read_text())
                for s in seeds]
        traced = json.loads((BENCH / "out" / f"{w}-seed{first}-trace1.json").read_text())
        out["machine"] = traced["machine"]
        out["workloads"][w] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "cycles": [r["cycles"] for r in runs],
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in SPEC["end_to_end"]},
            "per_layer": {name: m["value"] for name, m in traced["per_layer"].items()},
        }
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
