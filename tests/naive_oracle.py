"""Test-only brute-force lettericity oracle, independent of the solver.

For a given alphabet size k it enumerates every word over {1..k}^n and
every decoder subset of {1..k}^2, decodes each combination, and collects
the achievable labelled graphs as edge bitmasks. A graph is k-letterable
iff some vertex permutation of it lands in that set. The top level k = n
is never enumerated: the identity word (1, 2, ..., n) with the edge set
itself as decoder always works, so minimality is already proven by the
failed enumerations below n.

numpy only vectorizes the decode loop; the enumeration is exhaustive.

It also holds a plain depth-first reference for the solver's search order:
dfs_prefixes lists every prefix that search reaches, prefix_liveness says
which of them a full lettering lies below, and first_lettering is the
first full lettering it reaches.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product

import numpy as np

from lettergraphs import Graph


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_code(g: Graph, perm: tuple[int, ...] | None = None) -> int:
    """Edge set as a bitmask over the 0-based position pairs; perm relabels
    vertex v to perm[v-1]."""
    pair_index = {p: b for b, p in enumerate(_pairs(g.n))}
    code = 0
    for u, v in g.edges:
        if perm is not None:
            u, v = perm[u - 1], perm[v - 1]
        code |= 1 << pair_index[(min(u, v) - 1, max(u, v) - 1)]
    return code


@lru_cache(maxsize=None)
def achievable_codes(n: int, k: int) -> frozenset[int]:
    """Codes of all labelled n-vertex graphs decodable over alphabet {1..k}."""
    words = np.array(list(product(range(k), repeat=n)), dtype=np.int64)
    pairs = _pairs(n)
    if not pairs:
        return frozenset({0})
    idx = np.stack([words[:, i] * k + words[:, j] for i, j in pairs], axis=1)
    weights = 1 << np.arange(len(pairs), dtype=np.int64)
    out: set[int] = set()
    for d in range(1 << (k * k)):
        bits = (d >> idx) & 1
        out.update(np.unique(bits @ weights).tolist())
    return frozenset(out)


def oracle_lettericity(g: Graph) -> int:
    """Minimum alphabet size by raw enumeration (practical for n <= 5)."""
    if g.n == 0:
        return 0
    codes = {graph_code(g, perm) for perm in permutations(range(1, g.n + 1))}
    for k in range(1, g.n):
        if not codes.isdisjoint(achievable_codes(g.n, k)):
            return k
    return g.n  # identity word with the edge set itself as decoder


def all_graphs_up_to_iso(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex graphs."""
    pairs = _pairs(n)
    perms = list(permutations(range(n)))
    # pair bit -> permuted pair bit, per permutation
    moved = [
        [pairs.index((min(p[i], p[j]), max(p[i], p[j]))) for (i, j) in pairs]
        for p in perms
    ]
    reps = []
    seen: set[int] = set()
    for code in range(1 << len(pairs)):
        if code in seen:
            continue
        orbit = set()
        for mv in moved:
            c = 0
            for b in range(len(pairs)):
                if code >> b & 1:
                    c |= 1 << mv[b]
            orbit.add(c)
        seen |= orbit
        edges = frozenset((pairs[b][0] + 1, pairs[b][1] + 1)
                          for b in range(len(pairs)) if code >> b & 1)
        reps.append(Graph(n, edges))
    return reps


def dfs_prefixes(g: Graph, k: int, order=(), letters=(), table=None):
    """Yield every prefix (order, letters) a plain depth-first search
    reaches from the given one, itself first, in the order it reaches them.
    The search places vertices in ascending order and, for each, letters in
    ascending order; a fresh letter is the smallest unused one, at most k.
    A prefix is reached when every ordered letter pair it realizes is used
    consistently: all edges or all non-edges. table holds those pairs."""
    table = {} if table is None else table
    yield order, letters
    for v in range(1, g.n + 1):
        if v in order:
            continue
        for c in range(1, min(max(letters, default=0) + 1, k) + 1):
            child = dict(table)
            if all(
                child.setdefault((a, c), g.has_edge(u, v)) == g.has_edge(u, v)
                for u, a in zip(order, letters)
            ):
                yield from dfs_prefixes(g, k, order + (v,), letters + (c,), child)


def prefix_liveness(g: Graph, k: int) -> dict[tuple, bool]:
    """Every prefix dfs_prefixes reaches, mapped to whether a full lettering
    lies below it (a full one is live itself)."""
    prefixes = list(dfs_prefixes(g, k))
    live = {
        (order[:d], letters[:d])
        for order, letters in prefixes
        if len(order) == g.n
        for d in range(g.n + 1)
    }
    return {prefix: prefix in live for prefix in prefixes}


def first_lettering(g: Graph, k: int):
    """The first full lettering (order, letters) dfs_prefixes reaches, or
    None if there is none."""
    return next((p for p in dfs_prefixes(g, k) if len(p[0]) == g.n), None)
