#!/usr/bin/env python3
"""The lettergraphs benchmark: one run of one workload.

    python3 bench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py for why each exists): solve, enumerate,
long-word, cli. Each run happens in a fresh worker process, so one
workload's peak memory cannot mask another's.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``ops_per_s``: operations per second of a typical cycle, the cycle's
  operation count over the sum of its operations' median latencies;
* ``op_p50_ms``: the median, over the cycle's operations, of their median
  latencies;
* ``op_tail_ms``: the median latency of the cycle's slowest operation (the
  number of cycles it is the median of is printed);
* ``peak_rss_mb``: peak RSS of the worker, from wait4; for ``cli`` the
  largest over its ``lettergraphs`` child processes;
* ``setup_s``: worker start to ready (interpreter, import, input generation,
  warm-up), the median of fifteen set-ups.

Every time is scaled to a fixed host speed (see hostspeed.py): the run
times a library-independent kernel while operations run and before each
set-up, and multiplies an operation's time by ``REFERENCE_S`` over the
mean kernel time while it ran, a set-up's by the same over the samples
just before it. The run record keeps the raw times, samples and scales.

The share of failed operations (wrong answer, failed certificate, wrong exit
code or stdout bytes, exception, timeout) is the ``failed`` count over
``attempted``. ``--trace 1`` reports per-layer metrics from spans recorded
around each library call, and the tracing overhead. Every run writes its
seed, instances and numbers (and, traced, its spans) to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``. The last line of
stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("solve", "enumerate", "long-word", "cli")
# Workloads whose work runs in child processes of the worker.
SUBPROCESS_WORKLOADS = ("cli",)
SETUP_SAMPLES = 15
KERNEL_SAMPLES_PER_SETUP = 3
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def start_worker(args, setup_only: bool):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        if proc.stdout.readline().strip() != "READY":
            raise BenchError("worker failed during set-up")
        setup_s = time.perf_counter() - t0
        line = "" if setup_only else proc.stdout.readline()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup_s, line, usage.ru_maxrss


def op_medians(latencies: list[float], cycle_len: int) -> list[float]:
    """The median latency over the run of each operation of the cycle.
    Every metric is taken from these: on a shared host one sample of a short
    operation can read twice its cost, and an operation's median over the
    cycles is steady where the median of all samples jumps between two
    operations."""
    return [statistics.median(latencies[i::cycle_len])
            for i in range(min(cycle_len, len(latencies)))]


def machine_info() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                      if ln.startswith("model name")), platform.processor())
    except OSError:
        info["cpu_model"] = platform.processor()
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    info["caches"] = caches
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lettergraphs" / "__init__.py").is_file():
        print(f"bench: no lettergraphs sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)

    hostspeed.sample()  # warm the kernel
    setups, setup_scales, setup_kernel = [], [], []
    try:
        starts = 1 if args.trace else SETUP_SAMPLES
        for i in range(starts):
            kernel = [hostspeed.sample() for _ in range(KERNEL_SAMPLES_PER_SETUP)]
            setup_s, line, maxrss_kb = start_worker(args, setup_only=i < starts - 1)
            setups.append(setup_s)
            setup_scales.append(hostspeed.scale(kernel))
            setup_kernel.append(kernel)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    raw = json.loads(line)
    attempted, failed = raw["attempted"], raw["failed"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "timed_s": raw["timed_s"],
              "instances": raw["instances"]}

    if args.trace:
        metrics = raw["per_layer"]
        record.update(machine=machine_info(), per_layer=metrics, overhead=raw["overhead"],
                      spans=raw["spans"])
        summary = [f"tracing overhead {metrics['trace.overhead_s']['value']:+.4f} s per cycle",
                   f"machine {json.dumps(record['machine'])}"]
    else:
        op_scale = hostspeed.scale(raw["kernel_s"])
        scales = hostspeed.op_scales(raw["kernel_s"], raw["kernel_bounds"])
        lat = [f * x for f, x in zip(scales, raw["latencies"])]
        medians = op_medians(lat, raw["cycle_len"])
        cycles = len(lat) / raw["cycle_len"]
        if args.workload in SUBPROCESS_WORKLOADS:
            maxrss_kb = raw["children_maxrss_kb"]
        metrics = {
            "ops_per_s": {"value": len(medians) / sum(medians), "unit": "1/s"},
            "op_p50_ms": {"value": 1000 * statistics.median(medians), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * max(medians), "unit": "ms"},
            "peak_rss_mb": {"value": maxrss_kb / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(f * x for f, x in zip(setup_scales, setups)),
                        "unit": "s"},
        }
        record.update(metrics=metrics, raw_latencies=raw["latencies"], cycle_s=raw["cycle_s"],
                      op_scale=op_scale, op_scales=scales, op_kernel_s=raw["kernel_s"],
                      op_kernel_bounds=raw["kernel_bounds"], setup_scales=setup_scales,
                      setup_kernel_s=setup_kernel, raw_setup_s=setups,
                      op_medians_s=medians, cycles=cycles)
        summary = [f"each operation's median is over {cycles:.1f} cycles",
                   f"host speed scale {op_scale:.3f} (operations), "
                   f"{statistics.median(setup_scales):.3f} (set-up)"]

    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations in "
          f"{raw['timed_s']:.1f} s, failed_frac {failed / attempted}")
    for ln in summary:
        print(ln)
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
