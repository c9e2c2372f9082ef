#!/usr/bin/env python3
"""Survey of matching letterings at desk scale.

For r = 1..5 this enumerates every lettering of rK_2 at each feasible
alphabet size and reports letter multiplicities and edge pairing, through
the audit's unbounded core (the public audit stops at r = 3). For r <= 3 it
also runs the independent word census under both alphabet conventions.
Exits 1 if an audit fails its checks or the census misses its closed
forms (2r)!/2^r and (2r)!/(2^r r!), and 0 otherwise.
"""

from __future__ import annotations

import math

from lettergraphs import matching_word_census
from lettergraphs.audits import AUDIT_MAX_PAIRS, _audit_matching_letterings


def main() -> int:
    bad = 0
    for r in range(1, 6):
        print(f"== rK_2 with r={r} ==")
        for k in range(r, 2 * r + 1):
            rep = _audit_matching_letterings(r, k)
            print(
                f"  k={k}: witnesses={rep.witness_count:>3} "
                f"max-letter-occurrences={rep.max_letter_occurrences} "
                f"edge-paired-fraction={rep.edge_paired_fraction} "
                f"ok={rep.ok()}"
            )
            bad += not rep.ok()
        if r > AUDIT_MAX_PAIRS:
            continue
        census = matching_word_census(r)
        fixed = math.factorial(2 * r) // 2**r
        canonical = fixed // math.factorial(r)
        print(
            f"  census: fixed-alphabet={census.fixed_alphabet_count} "
            f"(= (2r)!/2^r = {fixed}), "
            f"canonical={census.canonical_count} "
            f"(= (2r)!/(2^r r!) = {canonical})"
        )
        bad += (census.fixed_alphabet_count, census.canonical_count) != (fixed, canonical)
    if bad:
        print(f"FAILURES: {bad}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
