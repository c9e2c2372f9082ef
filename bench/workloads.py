"""The benchmark's four workloads: inputs made from a seed, the operations
run on them, and the check each operation's output must pass.

A workload is a *cycle*: a fixed list of operations. The timed phase runs
the cycle over and over in a closed loop (one operation at a time, the next
issued when the previous one returns) until its time is up. The metrics are
taken from each operation's median latency, so every run weighs the
operation mix the same.

Every call into the library is wrapped in a tracer span named after the
module and function it enters (``core.decode``, ``solver.enumerate_letterings``
...). With tracing off the span is a no-op; with tracing on, the spans are
the per-layer measurements. Calls that only the traced run makes, to split a
layer's time into parts, live in ``probe`` hooks that run outside the timed
operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from lettergraphs import (  # noqa: E402
    Graph,
    audit_matching_letterings,
    check_betweenness,
    decode,
    enumerate_letterings,
    is_k_letterable,
    is_matching,
    is_path,
    lettericity_exact,
    matching_canonical_lettering,
    matching_word_census,
    path_graph,
    path_lettering,
    serialize_edge_list,
    verify_lettering,
)
from lettergraphs.cli import main as cli_main  # noqa: E402

# A subprocess that behaves like the installed ``lettergraphs`` console script.
CLI_LAUNCHER = "import sys; from lettergraphs.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 60


# --- tracing ----------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) kept in memory; attributes such as
    ``n`` or ``edges`` ride on the span record."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


class NullTracer:
    enabled = False
    # One shared record soaks up the attributes operations set; nobody reads it.
    _noop = contextlib.nullcontext({})

    def span(self, name: str, **attrs):
        return self._noop


NULL_TRACER = NullTracer()


@contextlib.contextmanager
def alloc_peak(rec: dict):
    """Record the peak Python allocation (MB) of the block on ``rec``.
    Only the traced run uses this; tracemalloc slows everything it watches."""
    tracemalloc.start()
    try:
        yield
    finally:
        rec["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()


# --- workload plumbing --------------------------------------------------------


@dataclass
class Op:
    """One closed-loop operation. ``run`` is timed; ``check`` and ``probe``
    (traced run only) are not."""

    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    probe: Callable[[Any, Any], None] | None = None


@dataclass
class Plan:
    """What a seed expands to: the instances as JSON for the run record, the
    cycle of operations, and an optional per-cycle probe for the traced run."""

    instances: list
    ops: list[Op]
    cycle_probe: Callable[[Any], None] | None = None


@dataclass
class Workload:
    name: str
    build: Callable[[int], Plan]
    warm_up: Callable[[], None]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def relabel(edges, perm) -> list[tuple[int, int]]:
    """Edges with vertex v renamed perm[v-1]."""
    return sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges)


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = {tuple(e) for e in edges}
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
            if (u, v) not in present]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def matching_edges(r: int) -> list[tuple[int, int]]:
    return [(2 * i - 1, 2 * i) for i in range(1, r + 1)]


def edge_list_text(n: int, edges) -> str:
    """The CLI's edge-list file format, written without the library."""
    return "\n".join([f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]) + "\n"


# --- solve ----------------------------------------------------------------------
#
# Why: decision search. lettericity_exact tries k = 1, 2, ... and proving k*-1
# infeasible dominates; the solver does nearly all the work, so a faster
# search engine shows here first. The random graphs are a fixed pool of
# G(n, p) draws (n = 6..8, p in {0.3, 0.5, 0.7}) whose lettericity
# make_golden.py recorded. Paths, matchings and all complements have known
# answers: floor((n+4)/3) for P_n, r for rK_2, and a complement has the
# lettericity of its graph (complement the decoder). The seed only orders the
# cycle: the search tries vertices in label order, and renaming one pool
# graph's vertices changed its solve time by up to 4x, which would swamp the
# changes this workload exists to measure.


def _solve_op(name: str, g: Graph, k_ref: int) -> Op:
    def run(tr):
        if not tr.enabled:
            return lettericity_exact(g)
        # lettericity_exact is this loop; spelling it out splits k*-1 from k*.
        for k in range(1, g.n + 1):
            role = "feasible" if k == k_ref else "infeasible" if k == k_ref - 1 else "below"
            with tr.span(f"solver.is_k_letterable.{role}", k=k):
                witness = is_k_letterable(g, k)
            if witness is not None:
                return k, witness
        raise RuntimeError("no witness at k = n")

    def check(result):
        k, w = result
        return k == k_ref and verify_lettering(w.lettering, g, w.vertex_of_position)

    return Op(f"lettericity_exact {name}", run, check)


def build_solve(seed: int) -> Plan:
    cases = []
    for n in range(5, 10):
        cases.append((f"P_{n}", n, path_edges(n), (n + 4) // 3))
    for r in range(2, 5):
        cases.append((f"{r}K_2", 2 * r, matching_edges(r), r))
    for i, rec in enumerate(load_golden()["solve_pool"]):
        cases.append((f"G({rec['n']},{rec['p']})#{i}", rec["n"], rec["edges"], rec["k"]))
    cases += [(f"co-{name}", n, complement_edges(n, e), k) for name, n, e, k in cases]
    random.Random(seed).shuffle(cases)
    ops = [_solve_op(name, Graph(n, frozenset(map(tuple, e))), k) for name, n, e, k in cases]
    instances = [{"name": name, "n": n, "edges": e, "k": k} for name, n, e, k in cases]
    return Plan(instances, ops)


def warm_solve() -> None:
    k, w = lettericity_exact(path_graph(5))
    verify_lettering(w.lettering, path_graph(5), w.vertex_of_position)


# --- enumerate ------------------------------------------------------------------
#
# Why: the same solver run exhaustively -- every leaf is visited and
# deduplicated -- so a solver that finds a first witness faster but enumerates
# slower shows here and not on `solve`. The word census never calls the solver:
# under a solver change its time should not move. The seed renames the
# vertices of P_8 (twice) and co-P_8, which leaves their enumeration time
# alone; 4K_2 keeps its labels because renaming it moves its time by 1.8x.

ENUMERATE_TARGETS = {
    "4K_2": (8, matching_edges(4), 4),
    "P_8": (8, path_edges(8), 4),
    "co-P_8": (8, complement_edges(8, path_edges(8)), 4),
}
ENUMERATE_CYCLE = (("4K_2", False), ("P_8", True), ("P_8", True), ("co-P_8", True))


def build_enumerate(seed: int) -> Plan:
    rng = random.Random(seed)
    golden = load_golden()["enumerate"]
    ops: list[Op] = []
    instances = []
    for name, renamed in ENUMERATE_CYCLE:
        n, edges, k = ENUMERATE_TARGETS[name]
        e = relabel(edges, rng.sample(range(1, n + 1), n)) if renamed else edges
        g = Graph(n, frozenset(e))
        expected = golden["words"][f"{name}@{k}"]
        instances.append({"op": "enumerate_letterings", "name": name, "n": n,
                          "edges": e, "k": k})
        found: list = []  # this cycle's witnesses, read by the betweenness ops

        def run_enum(tr, g=g, k=k, found=found):
            found.clear()
            with tr.span("solver.enumerate_letterings") as s:
                res = enumerate_letterings(g, k)
            s["witnesses"] = len(res.witnesses)
            found.extend(res.witnesses)
            return res

        def check_enum(res, g=g, expected=expected):
            return (len(res.witnesses) == expected and not res.truncated
                    and all(verify_lettering(w.lettering, g, w.vertex_of_position)
                            for w in res.witnesses))

        ops.append(Op(f"enumerate_letterings {name}@{k}", run_enum, check_enum))
        for i in range(expected):
            def run_betw(tr, i=i, found=found):
                with tr.span("audits.check_betweenness"):
                    return check_betweenness(found[i].lettering)

            ops.append(Op("check_betweenness", run_betw, lambda v: v == []))
    for r in range(1, 4):
        for k in range(r, 2 * r + 1):
            instances.append({"op": "audit_matching_letterings", "r": r, "k": k})
            expected = golden["audits"][f"{r},{k}"]

            def run_audit(tr, r=r, k=k):
                with tr.span("audits.audit_matching_letterings"):
                    return audit_matching_letterings(r, k)

            def check_audit(rep, expected=expected):
                return rep.ok() and rep.witness_count == expected

            ops.append(Op(f"audit_matching_letterings {r} {k}", run_audit, check_audit))
    instances.append({"op": "matching_word_census", "r": 3})

    def run_census(tr):
        with tr.span("audits.matching_word_census"):
            return matching_word_census(3)

    def check_census(c):
        return (c.fixed_alphabet_count, c.canonical_count) == (90, 15)

    ops.append(Op("matching_word_census 3", run_census, check_census))
    return Plan(instances, ops)


def warm_enumerate() -> None:
    res = enumerate_letterings(Graph(4, frozenset(matching_edges(2))), 2)
    check_betweenness(res.witnesses[0].lettering)
    audit_matching_letterings(1, 1)
    matching_word_census(1)


# --- long-word ------------------------------------------------------------------
#
# Why: the sparse regime. path_lettering(n) self-certifies through decode and
# is_path, then the benchmark verifies without a map and writes the edge list;
# matching_canonical_lettering(r) is decoded and recognized. The solver never
# runs. The n-bit masks in decode, Graph adjacency and is_path make this
# quadratic, so the path sweep spans 4x in n to expose the growth. The seed
# moves each size by up to 0.5%, which keeps the cost of every size steady.

LONG_WORD_PATHS = (4000, 8000, 16000)
LONG_WORD_MATCHINGS = (1000, 2000, 4000, 8000)


def _path_op(n: int) -> Op:
    def run(tr):
        with tr.span("constructions.path_lettering", n=n):
            lt = path_lettering(n)
        with tr.span("graphs.Graph", n=n):
            target = path_graph(n)
        if tr.enabled:  # verify_lettering would build these masks anyway
            with tr.span("graphs.adjacency_masks", n=n):
                target.adjacency_masks()
        with tr.span("core.verify_lettering", n=n):
            ok = verify_lettering(lt, target)
        with tr.span("core.decode", n=n) as s:
            g = decode(lt)
        s["edges"] = len(g.edges)
        with tr.span("graphs.serialize_edge_list", n=n):
            text = serialize_edge_list(g)
        return lt, ok, g, text

    def check(result):
        lt, ok, g, text = result
        return (ok is True and lt.alphabet_size == (n + 4) // 3
                and text.startswith(f"{n} {n - 1}\n") and text.count("\n") == n - 1)

    def probe(tr, result):
        # path_lettering decodes and path-checks its own word; time the
        # path check on the decoded graph so that share is visible too.
        with tr.span("graphs.is_path", n=n):
            is_path(result[2])

    return Op(f"path_lettering {n}", run, check, probe)


def _matching_op(r: int) -> Op:
    def run(tr):
        with tr.span("constructions.matching_canonical_lettering", n=2 * r):
            lt = matching_canonical_lettering(r)
        with tr.span("core.decode", n=2 * r) as s:
            g = decode(lt)
        s["edges"] = len(g.edges)
        if tr.enabled:  # is_matching would build these masks anyway
            with tr.span("graphs.adjacency_masks", n=2 * r):
                g.adjacency_masks()
        with tr.span("graphs.is_matching", n=2 * r):
            ok = is_matching(g)
        return lt, ok, g

    def check(result):
        lt, ok, g = result
        return ok is True and lt.alphabet_size == r and len(g.edges) == r

    return Op(f"matching_canonical_lettering {r}", run, check)


def build_long_word(seed: int) -> Plan:
    rng = random.Random(seed)
    paths = [n + rng.randint(-n // 200, n // 200) for n in LONG_WORD_PATHS]
    matchings = [r + rng.randint(-r // 200, r // 200) for r in LONG_WORD_MATCHINGS]
    ops = [_path_op(n) for n in paths] + [_matching_op(r) for r in matchings]
    n_max = max(paths)

    def cycle_probe(tr):
        with tr.span("constructions.path_lettering.alloc", n=n_max) as s, alloc_peak(s):
            lt = path_lettering(n_max)
        with tr.span("core.decode.alloc", n=n_max) as s, alloc_peak(s):
            decode(lt)

    instances = [{"op": "path_lettering", "n": n} for n in paths]
    instances += [{"op": "matching_canonical_lettering", "r": r} for r in matchings]
    return Plan(instances, ops, cycle_probe)


def warm_long_word() -> None:
    _path_op(300).run(NULL_TRACER)
    _matching_op(150).run(NULL_TRACER)


# --- cli ------------------------------------------------------------------------
#
# Why: what a shell user waits for. Each command is a fresh `lettergraphs`
# process with a warm bytecode cache; interpreter start-up and import are a
# large share of a small command, so import/parse/CLI changes show only here.
# The mix holds every README example, long path certificates, an edge-list
# file, key-value audits, requests over a bound (exit 2), malformed input
# (exit 1) and `--k 1000000`, which keeps "memory grows with a number read
# from the input" visible in peak RSS. Exit codes and stdout bytes must match
# the goldens recorded by make_golden.py. The seed picks the edge-list file
# from the six-vertex graphs of the solve pool and writes the malformed file.

CLI_COMMANDS = (
    ("decode", "--word", "2,1,3,2,1,3,2", "--decoder", "2:1,3:2"),
    ("path", "7", "--verify"),
    ("lettericity", "--path", "7"),
    ("audit", "2", "2"),
    ("count", "2"),
    ("path", "1000", "--verify"),
    ("path", "10000", "--verify"),
    ("lettericity", "{graph}"),
    ("audit", "3", "3", "--kv"),
    ("count", "3", "--census"),
    ("lettericity", "--path", "13"),
    ("count", "4"),
    ("lettericity", "{malformed}"),
    ("decode", "--word", "1,2", "--decoder", "1:2", "--k", "1000000"),
)


def cli_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the cache must be warm
    return env


def run_cli(argv, env) -> tuple[int, bytes, bytes]:
    proc = subprocess.run([sys.executable, "-c", CLI_LAUNCHER, *argv], cwd=ROOT, env=env,
                          capture_output=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def cli_graph_candidates(pool: list[dict]) -> list[int]:
    """Solve-pool graphs small enough that `lettericity FILE` stays quick."""
    return [i for i, rec in enumerate(pool) if rec["n"] == 6]


def cli_graph_file(i: int, rec: dict) -> Path:
    path = OUT / f"cli-graph-{i}.txt"
    text = edge_list_text(rec["n"], rec["edges"])
    if not path.exists() or path.read_text() != text:
        path.write_text(text)
    return path


def malformed_edge_list(rng: random.Random) -> str:
    """A header promising one more edge line than follows: always a parse error."""
    n = rng.randint(3, 9)
    m = rng.randint(2, 6)
    lines = [f"{n} {m}", *(f"{rng.randint(1, n)} {rng.randint(1, n)}" for _ in range(m - 1))]
    return "\n".join(lines) + "\n"


def _cli_op(argv: list[str], key: str, expect: dict, env: dict) -> Op:
    def run(tr):
        with tr.span("cli.subprocess", command=key):
            return run_cli(argv, env)

    def check(result):
        rc, out, err = result
        return (rc == expect["exit"] and b"Traceback" not in err
                and hashlib.sha256(out).hexdigest() == expect["stdout_sha256"])

    return Op(f"lettergraphs {key}", run, check)


def build_cli(seed: int) -> Plan:
    rng = random.Random(seed)
    golden = load_golden()
    OUT.mkdir(exist_ok=True)
    graph_i = rng.choice(cli_graph_candidates(golden["solve_pool"]))
    graph_file = cli_graph_file(graph_i, golden["solve_pool"][graph_i])
    malformed_text = malformed_edge_list(rng)
    malformed_file = OUT / f"cli-malformed-{seed}.txt"
    malformed_file.write_text(malformed_text)
    env = cli_env()
    ops, argvs, instances = [], [], []
    for template in CLI_COMMANDS:
        key = " ".join(template).replace("{graph}", f"{{graph:{graph_i}}}")
        argv = [str(graph_file) if a == "{graph}" else str(malformed_file)
                if a == "{malformed}" else a for a in template]
        argvs.append(argv)
        instances.append({"command": key, "argv": argv})
        ops.append(_cli_op(argv, key, golden["cli"][key], env))
    instances.append({"graph_file": graph_file.read_text(), "malformed_file": malformed_text})

    def cycle_probe(tr):
        # Interpreter start-up, then the package's own import, then the
        # in-process work of every command in the cycle.
        for _ in range(5):
            with tr.span("cli.interpreter"):
                subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
            with tr.span("cli.import"):
                subprocess.run([sys.executable, "-c", "import lettergraphs.cli"],
                               env=env, check=True)
        for argv in argvs:
            sink = io.StringIO()
            with tr.span("cli.main", command=argv[0]), contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                cli_main(argv)

    return Plan(instances, ops, cycle_probe)


def warm_cli() -> None:
    rc, _, _ = run_cli(list(CLI_COMMANDS[0]), cli_env())
    if rc != 0:
        raise RuntimeError("lettergraphs does not start")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve", build_solve, warm_solve),
        Workload("enumerate", build_enumerate, warm_enumerate),
        Workload("long-word", build_long_word, warm_long_word),
        Workload("cli", build_cli, warm_cli),
    )
}

