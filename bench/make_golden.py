#!/usr/bin/env python3
"""Record the reference answers the benchmark checks against (golden.json).

    python3 bench/make_golden.py

The goldens are the answers of the commit that introduced the benchmark:
the lettericity of each G(n, p) graph in the solve pool, the word and
witness counts of the enumerate workload, and the exit code and stdout
digest of every CLI command. Re-record them only when a change of answer is
intended and reviewed; a changed golden hides any regression it covers.
"""

from __future__ import annotations

import hashlib
import json
import random
import re

import workloads as wl

POOL_SEED = 2007_03636
POOL_CELLS = [(n, p) for n in (6, 7, 8) for p in (0.3, 0.5, 0.7)]


def solve_pool() -> list[dict]:
    """One G(n, p) draw per cell, with its lettericity."""
    rng = random.Random(POOL_SEED)
    pool = []
    for n, p in POOL_CELLS:
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        k, _ = wl.lettericity_exact(wl.Graph(n, frozenset(edges)))
        pool.append({"n": n, "p": p, "edges": edges, "k": k})
    return pool


def enumerate_counts() -> dict:
    words = {f"{name}@{k}": len(wl.enumerate_letterings(wl.Graph(n, frozenset(e)), k).witnesses)
             for name, (n, e, k) in wl.ENUMERATE_TARGETS.items()}
    audits = {f"{r},{k}": wl.audit_matching_letterings(r, k).witness_count
              for r in range(1, 4) for k in range(r, 2 * r + 1)}
    return {"words": words, "audits": audits}


def cli_goldens(pool: list[dict]) -> dict:
    wl.OUT.mkdir(exist_ok=True)
    malformed = wl.OUT / "cli-malformed-golden.txt"
    malformed.write_text(wl.malformed_edge_list(random.Random(0)))
    env = wl.cli_env()
    out = {}
    for template in wl.CLI_COMMANDS:
        variants = {" ".join(template): template}
        if "{graph}" in template:
            variants = {
                " ".join(template).replace("{graph}", f"{{graph:{i}}}"):
                    [str(wl.cli_graph_file(i, pool[i])) if a == "{graph}" else a for a in template]
                for i in wl.cli_graph_candidates(pool)
            }
        for key, argv in variants.items():
            argv = [str(malformed) if a == "{malformed}" else a for a in argv]
            rc, stdout, _ = wl.run_cli(argv, env)
            out[key] = {"exit": rc, "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
                        "stdout_bytes": len(stdout)}
    return out


def main() -> None:
    pool = solve_pool()
    golden = {"solve_pool": pool, "enumerate": enumerate_counts(), "cli": cli_goldens(pool)}
    text = json.dumps(golden, indent=1)
    # One line per innermost list keeps the edge lists readable.
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    wl.GOLDEN_PATH.write_text(text + "\n")
    print(f"wrote {wl.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
