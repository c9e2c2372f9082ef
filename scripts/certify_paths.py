#!/usr/bin/env python3
"""Desk-scale certification sweep for path lettericity.

For every n up to --max-construct the closed-form lettering is built;
path_lettering decodes and path-checks its word before returning, so each
call certifies the upper bound floor((n+4)/3). For n up to
--max-exact the exact solver certifies the matching lower bound, so on that
prefix the formula is confirmed outright. The sweep calls the solver's
unbounded core, so --max-exact may pass VERTEX_LIMIT: --max-exact 20 prints
each n's time and takes about 7-9 s (Python 3.11, 2 vCPUs), about 4 s of it
for P_20.
"""

from __future__ import annotations

import argparse
import time

from lettergraphs import (
    VERTEX_LIMIT,
    path_graph,
    path_lettericity,
    path_lettering,
    verify_lettering,
)
from lettergraphs.solver import _lettericity


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-construct", type=int, default=200)
    ap.add_argument("--max-exact", type=int, default=VERTEX_LIMIT)
    args = ap.parse_args()
    if args.max_construct < 3:
        ap.error(f"--max-construct must be at least 3, got {args.max_construct}")

    print(f"{'n':>4} {'formula':>8} {'construct':>10} {'exact':>6} {'time':>8}")
    bad = 0
    for n in range(3, args.max_construct + 1):
        t0 = time.time()
        predicted = path_lettericity(n)
        constructed = path_lettering(n).alphabet_size
        exact = ""
        if n <= args.max_exact:
            k, w = _lettericity(path_graph(n))
            exact = str(k)
            # A witness that fails to decode to P_n counts as a mismatch.
            if k != predicted or not verify_lettering(w.lettering, path_graph(n),
                                                      w.vertex_of_position):
                bad += 1
        if constructed != predicted:
            bad += 1
        if n <= args.max_exact or n % 25 == 0 or n == args.max_construct:
            print(f"{n:>4} {predicted:>8} {constructed:>10} {exact:>6} {time.time()-t0:>7.2f}s")
    if bad:
        print(f"MISMATCHES: {bad}")
        return 1
    print(f"all n in 3..{args.max_construct} certified constructively"
          f" (exactly up to n={min(args.max_exact, args.max_construct)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
