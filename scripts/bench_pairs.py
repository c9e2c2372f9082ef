#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized into BENCH_<PR>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --pr 32 --seed 3201

PARENT and CHANGE are two trees of the repository, each with its own
bench/run.py. Both get `src` and `bench` compiled with compileall first, so
neither side pays for recompiling stale bytecode at every worker start.
Every workload of BENCHMARK.json runs, so the file can show that no
end-to-end metric got worse on any of them. For each workload, pair i of
ten runs `python3 bench/run.py --workload W --seed S+i --seconds T --trace 0`
in both trees, T being BENCHMARK.json's run_seconds, the parent first in
even pairs and the change first in odd ones. Ten pairs is the fewest that
can back a gain claim (better in at least nine). The two directories trade
places after half the pairs (the trees are renamed, through a third name
beside them, and put back after the workload), so a directory that reads
slower on the host cannot favour one side; pass scratch copies, not a
working tree. Each side then adds one `--trace 1` run per workload for the
per-layer values.

For each workload and end-to-end metric of BENCHMARK.json the summary holds
both medians, the parent's interquartile range (the distance between its
quartiles) and the change's wins: pairs where the change reads better, ties
counting for neither side. Every run's metrics, failed counts and order are
kept beside it, with the machine's description. Passing two directories of
one commit gives an A/A run. The file goes to the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Both medians, the parent's IQR and the change's wins over pairs
    (parent[i], change[i]); better is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": q3 - q1,
        "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def compile_tree(tree: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=tree, check=True,
                   stdout=subprocess.DEVNULL)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def swap(a: Path, b: Path) -> None:
    spare = a.with_name(a.name + ".swap")
    a.rename(spare)
    b.rename(a)
    spare.rename(b)


def machine() -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "libc": " ".join(platform.libc_ver()), "system": platform.platform(),
            "machine": platform.machine(), "cpus": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pr", required=True, help="names the output BENCH_<PR>.json")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            ap.error(f"{tree} has no bench/run.py")
        compile_tree(tree)

    where = dict(trees)  # side -> the directory it runs from now
    report = {"pr": args.pr, "machine": machine(), "trees": {s: t.name for s, t in trees.items()},
              "seconds": seconds, "workloads": {}}
    try:
        for workload in workloads:
            runs = []
            for i in range(PAIRS):
                if i == PAIRS // 2:
                    swap(trees["parent"], trees["change"])
                    where = {"parent": trees["change"], "change": trees["parent"]}
                seed = args.seed + i
                sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run = {"seed": seed, "first": sides[0], "dirs": {s: where[s].name for s in sides}}
                for side in sides:
                    run[side] = run_bench(where[side], workload, seed, seconds, 0)
                runs.append(run)
                print(f"{workload} pair {i + 1}/{PAIRS} seed {seed}: " + ", ".join(
                    f"{side} {run[side]['metrics']['ops_per_s']['value']:.2f} ops/s"
                    for side in ("parent", "change")), file=sys.stderr)
            swap(trees["parent"], trees["change"])
            where = dict(trees)
            summary = {
                name: summarize([r["parent"]["metrics"][name]["value"] for r in runs],
                                [r["change"]["metrics"][name]["value"] for r in runs], better[name])
                for name in better
            }
            report["workloads"][workload] = {
                "summary": summary,
                "failed": {s: sum(r[s]["failed"] for r in runs) for s in trees},
                "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in trees},
                "runs": runs,
                "per_layer": {
                    side: {name: m["value"] for name, m in
                           run_bench(trees[side], workload, args.seed, seconds, 1)["metrics"].items()}
                    for side in ("parent", "change")
                },
            }
    finally:
        if where != trees:
            swap(trees["parent"], trees["change"])
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:9} {name:11} {s['parent_median']:.4g} [{s['parent_iqr']:.3g}] -> "
                  f"{s['change_median']:.4g}, change better {s['change_wins']}/{s['pairs']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
