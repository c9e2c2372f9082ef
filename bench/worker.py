#!/usr/bin/env python3
"""One run of one workload, in a process of its own; bench/run.py starts it.

    python3 bench/worker.py --workload solve --seed 1 --seconds 15 --trace 0

It generates the inputs from the seed and warms up, prints ``READY``, then
(unless ``--setup-only``) runs the timed phase and prints one JSON line with
the raw results: per-operation latencies and failures, the instances, and in
a traced run the spans and per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback

import hostspeed
import workloads as wl

OP_TIMEOUT_S = 60
# Past this, even a cycle of timed-out operations stops at once, so the run
# still ends within its 180 s budget.
HARD_STOP_S = 110


# --- per-layer metrics, computed from the spans of one traced cycle -------------


def _duration(s: dict) -> float:
    return s["end"] - s["start"]


def busy(name: str):
    return lambda spans: sum(_duration(s) for s in spans if s["name"] == name)


def total(name: str, attr: str):
    return lambda spans: sum(s[attr] for s in spans if s["name"] == name)


def peak(name: str):
    return lambda spans: max(s["peak_alloc_mb"] for s in spans if s["name"] == name)


def loglog_slope(name: str):
    """Least-squares slope of log(time) against log(n) over the spans."""
    def fn(spans):
        pts = [(math.log(s["n"]), math.log(_duration(s))) for s in spans if s["name"] == name]
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        return (sum((x - mx) * (y - my) for x, y in pts)
                / sum((x - mx) ** 2 for x, _ in pts))
    return fn


def median_ms(name: str):
    return lambda spans: 1000 * statistics.median(_duration(s) for s in spans if s["name"] == name)


def cli_import_ms(spans):
    return median_ms("cli.import")(spans) - median_ms("cli.interpreter")(spans)


# (name, unit, workloads it is measured on, value from one cycle's spans).
# A traced run of a workload outside the list measures it on the first one.
# Each comment names the end-to-end metrics the layer should move.
PER_LAYER = (
    # solve: ops_per_s and op_tail_ms.
    ("solver.is_k_letterable.infeasible_s", "s", ("solve",),
     busy("solver.is_k_letterable.infeasible")),
    ("solver.is_k_letterable.feasible_s", "s", ("solve",),
     busy("solver.is_k_letterable.feasible")),
    # enumerate: ops_per_s and op_tail_ms; the census should not move under
    # a solver change.
    ("solver.enumerate_letterings_s", "s", ("enumerate",), busy("solver.enumerate_letterings")),
    ("solver.enumerate_letterings.witnesses", "count", ("enumerate",),
     total("solver.enumerate_letterings", "witnesses")),
    ("audits.audit_matching_letterings_s", "s", ("enumerate",),
     busy("audits.audit_matching_letterings")),
    ("audits.check_betweenness_s", "s", ("enumerate",), busy("audits.check_betweenness")),
    ("audits.matching_word_census_s", "s", ("enumerate",), busy("audits.matching_word_census")),
    # long-word: ops_per_s, op_tail_ms and peak_rss_mb.
    ("constructions.path_lettering_s", "s", ("long-word",), busy("constructions.path_lettering")),
    ("constructions.path_lettering.time_slope", "slope", ("long-word",),
     loglog_slope("constructions.path_lettering")),
    ("constructions.path_lettering.peak_alloc_mb", "MB", ("long-word",),
     peak("constructions.path_lettering.alloc")),
    ("core.decode_s", "s", ("long-word",), busy("core.decode")),
    ("core.decode.edges", "count", ("long-word",), total("core.decode", "edges")),
    ("core.decode.peak_alloc_mb", "MB", ("long-word",), peak("core.decode.alloc")),
    ("core.verify_lettering_s", "s", ("long-word",), busy("core.verify_lettering")),
    ("graphs.Graph_s", "s", ("long-word",), busy("graphs.Graph")),
    ("graphs.adjacency_masks_s", "s", ("long-word",), busy("graphs.adjacency_masks")),
    ("graphs.is_path_s", "s", ("long-word",), busy("graphs.is_path")),
    ("graphs.is_matching_s", "s", ("long-word",), busy("graphs.is_matching")),
    ("graphs.serialize_edge_list_s", "s", ("long-word",), busy("graphs.serialize_edge_list")),
    # cli: op_p50_ms. The bare interpreter is a floor no change here moves.
    ("cli.interpreter_ms", "ms", ("cli",), median_ms("cli.interpreter")),
    ("cli.import_ms", "ms", ("cli",), cli_import_ms),
    ("cli.main_ms", "ms", ("cli",), lambda spans: 1000 * busy("cli.main")(spans)),
)


# --- running operations ---------------------------------------------------------


def _on_alarm(signum, frame):
    raise TimeoutError(f"operation exceeded {OP_TIMEOUT_S} s")


def run_op(op: wl.Op, tr, clock=time.perf_counter) -> tuple[float, bool]:
    """Time one operation on ``clock``, then check its output; any
    exception, timeout or wrong answer makes it a failed operation (it is
    never retried)."""
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    t0 = clock()
    try:
        with tr.span("op", kind=op.kind):
            result = op.run(tr)
        dt = clock() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        ok = bool(op.check(result))
        if ok and tr.enabled and op.probe is not None:
            op.probe(tr, result)
    except Exception as exc:  # a failed operation must not end the run
        dt = clock() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        print(f"bench: {op.kind} raised {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return dt, False
    if not ok:
        print(f"bench: {op.kind} failed its check", file=sys.stderr)
    return dt, ok


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        # (first, end) index of the host-speed samples taken during each
        # operation, when a sampler runs.
        self.kernel_bounds: list[tuple[int, int]] = []
        self.failed = 0
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def cycle(self, plan: wl.Plan, tr, speed: hostspeed.Sampler | None = None,
              stop_at: float = HARD_STOP_S) -> float:
        """Run every operation once, or until ``stop_at`` seconds into the
        phase; return their summed latency."""
        spent = 0.0
        for op in plan.ops:
            if speed is None:
                dt, ok = run_op(op, tr)
            else:
                speed.tick()
                n0 = len(speed.samples)
                dt, ok = run_op(op, tr, speed.clock)
                self.kernel_bounds.append((n0, len(speed.samples)))
            self.latencies.append(dt)
            self.failed += not ok
            spent += dt
            if self.elapsed() > stop_at:
                break
        if tr.enabled and plan.cycle_probe is not None:
            try:
                with tr.span("probe"):
                    plan.cycle_probe(tr)
            except Exception as exc:
                print(f"bench: cycle probe failed: {exc!r}", file=sys.stderr)
                traceback.print_exc()
                self.failed += 1
        return spent


def timed_phase(plan: wl.Plan, seconds: float) -> dict:
    """The cycle, untraced, over and over until ``seconds`` have passed,
    with the host's speed sampled throughout."""
    tally = Tally()
    cycles = []
    stop_at = min(seconds, HARD_STOP_S)
    with hostspeed.Sampler() as speed:
        while tally.elapsed() < stop_at:
            cycles.append(tally.cycle(plan, wl.NULL_TRACER, speed, stop_at))
    return {"latencies": tally.latencies, "cycle_s": cycles, "attempted": len(tally.latencies),
            "failed": tally.failed, "timed_s": tally.elapsed(), "cycle_len": len(plan.ops),
            "kernel_s": speed.samples, "kernel_bounds": tally.kernel_bounds}


def traced_phase(name: str, plan: wl.Plan, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced cycles of the workload until ``seconds``
    have passed (at least one pair); the difference in their operation time
    is the tracing overhead. Per-layer metrics this workload does not
    exercise come from one traced cycle of the workload they belong to."""
    tally = Tally()
    untraced, traced, spans = [], [], {name: []}
    while True:
        untraced.append(tally.cycle(plan, wl.NULL_TRACER))
        tr = wl.Tracer()
        traced.append(tally.cycle(plan, tr))
        spans[name].append(tr.spans)
        if tally.elapsed() >= min(seconds, HARD_STOP_S):
            break
    per_layer = {}
    for metric, unit, homes, fn in PER_LAYER:
        home = name if name in homes else homes[0]
        if home not in spans:
            other = wl.WORKLOADS[home]
            other.warm_up()
            tr = wl.Tracer()
            tally.cycle(other.build(seed), tr)
            spans[home] = [tr.spans]
        per_layer[metric] = {"value": statistics.median_low(fn(s) for s in spans[home]),
                             "unit": unit}
    per_layer["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    return {"attempted": len(tally.latencies), "failed": tally.failed,
            "timed_s": tally.elapsed(), "per_layer": per_layer,
            "overhead": {"untraced_cycle_s": untraced, "traced_cycle_s": traced},
            "spans": {w: [[_relative(s, tally.start) for s in cyc] for cyc in cycles]
                      for w, cycles in spans.items()}}


def _relative(span: dict, t0: float) -> dict:
    return {**span, "start": span["start"] - t0, "end": span["end"] - t0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)

    workload = wl.WORKLOADS[args.workload]
    plan = workload.build(args.seed)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced_phase(args.workload, plan, args.seed, args.seconds)
    else:
        result = timed_phase(plan, args.seconds)
    result["instances"] = plan.instances
    result["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
