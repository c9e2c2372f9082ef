"""Undirected graphs on vertices 1..n.

Builders for the two structured families used throughout (paths and
perfect matchings), linear-time recognizers for both, induced subgraphs,
a small-graph isomorphism test, and edge-list / DOT serialization.

A Graph carries one adjacency representation per regime, each built on
first use. Small exact search (the solver, are_isomorphic, the audits)
reads n-bit neighbor masks from adjacency_masks(); their size is quadratic
in n, which is harmless below the search bounds. Long words (is_path,
is_matching, degree) walk per-vertex neighbor lists, so recognizing a
decoded path or matching stays linear in its size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapabilityError, ParseError

# Backtracking isomorphism is only offered at desk scale; larger targets
# must be certified structurally (is_path / is_matching).
ISOMORPHISM_VERTEX_LIMIT = 12


@dataclass(frozen=True)
class Graph:
    """Loopless undirected graph; edges stored as (u, v) pairs with u < v."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        edges = self.edges if type(self.edges) is frozenset else tuple(self.edges)
        # A frozenset of (u, v) tuples with u < v is kept as given: decode
        # passes one for every decoded graph, and a copy would double it.
        keep = type(edges) is frozenset
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if u > v:
                u, v = v, u
                keep = False
            if u < 1 or v > self.n:
                raise ValueError(f"edge {tuple(e)} has an endpoint outside 1..{self.n}")
            keep = keep and type(e) is tuple
        if not keep:
            edges = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def _adjacency(self) -> tuple[int, ...]:
        masks = [0] * (self.n + 1)
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks indexed by vertex: bit v of masks[u] marks edge u-v."""
        return self._adjacency

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        # Neighbor lists indexed by vertex, in no particular order.
        nbrs: list[list[int]] = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    def degree(self, v: int) -> int:
        return len(self._neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def path_graph(n: int) -> Graph:
    """P_n: vertices 1..n in path order, edges {i, i+1}."""
    if n < 1:
        raise ValueError(f"path needs at least one vertex, got {n}")
    return Graph(n, frozenset((i, i + 1) for i in range(1, n)))


def matching_graph(r: int) -> Graph:
    """rK_2: r disjoint edges {2i-1, 2i} on vertices 1..2r."""
    if r < 1:
        raise ValueError(f"matching needs at least one edge, got r={r}")
    return Graph(2 * r, frozenset((2 * i - 1, 2 * i) for i in range(1, r + 1)))


def is_path(g: Graph) -> tuple[int, ...] | None:
    """Path ordering of g's vertices, or None if g is not a path.

    Deterministic: the walk starts at the smaller-labelled endpoint, so a
    path graph always yields the same ordering (of the two possible).
    """
    if g.n == 0:
        return None
    if g.n == 1:
        return (1,)
    if len(g.edges) != g.n - 1:
        return None
    nbrs = g._neighbors
    ends = []
    for v in range(1, g.n + 1):
        d = len(nbrs[v])
        if d > 2:
            return None
        if d == 1:
            ends.append(v)
    if len(ends) != 2:
        return None
    # Every degree is at most 2, so the walk from an end cannot revisit a
    # vertex; it covers all n vertices unless it reaches the other end
    # early, which leaves the remaining edges on disjoint cycles.
    order = [ends[0]]
    prev, cur = 0, ends[0]
    for _ in range(g.n - 1):
        adj = nbrs[cur]
        nxt = adj[0] if adj[0] != prev else adj[-1]
        if nxt == prev:
            return None
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order)


def is_matching(g: Graph) -> bool:
    """True iff every vertex has degree exactly 1 (g is a perfect matching)."""
    nbrs = g._neighbors
    return all(len(nbrs[v]) == 1 for v in range(1, g.n + 1))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced by the given vertex set, relabelled 1..|S| by rank."""
    vs = sorted(set(vertices))
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside 1..{g.n}")
    rank = {v: i + 1 for i, v in enumerate(vs)}
    keep = set(vs)
    edges = frozenset(
        (rank[u], rank[v]) for u, v in g.edges if u in keep and v in keep
    )
    return Graph(len(vs), edges)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test, bounded at ISOMORPHISM_VERTEX_LIMIT."""
    for x in (g, h):
        if x.n > ISOMORPHISM_VERTEX_LIMIT:
            raise CapabilityError(
                f"isomorphism testing is bounded at {ISOMORPHISM_VERTEX_LIMIT} "
                f"vertices (got {x.n}); certify structured targets with "
                f"is_path or is_matching instead"
            )
    if g.n != h.n or len(g.edges) != len(h.edges):
        return False
    n = g.n
    gm, hm = g.adjacency_masks(), h.adjacency_masks()
    gdeg = [gm[v].bit_count() for v in range(n + 1)]
    if sorted(gdeg[1:]) != sorted(hm[v].bit_count() for v in range(1, n + 1)):
        return False
    # Most-constrained-first: high degree vertices get mapped early.
    order = sorted(range(1, n + 1), key=lambda v: (-gdeg[v], v))
    return extend_isomorphism(gm, hm, order, [0] * (n + 1))


def extend_isomorphism(gm, hm, order, mapping, depth: int = 0, used: int = 0) -> bool:
    """Backtracking behind are_isomorphic and the solver's automorphism
    test: extend mapping (mapping[v] is v's image, 0 while open) to an
    isomorphism between the graphs with neighbor masks gm and hm.

    The vertices order[:depth] are mapped and used is the mask of their
    images. The rest are mapped in order; a vertex whose image is already
    set in mapping keeps it, so a partial map (say, one that fixes some
    vertices and sends u to v) must list its preset vertices first. Each
    image must match its vertex's degree and its adjacency to every vertex
    mapped before it. On success mapping holds the isomorphism; on failure
    it is as given. A plain recursive function, so it leaves no reference
    cycle behind.
    """
    if depth == len(order):
        return True
    v = order[depth]
    row = gm[v]
    degree = row.bit_count()
    preset = mapping[v]
    for w in (preset,) if preset else range(1, len(hm)):
        if used >> w & 1 or hm[w].bit_count() != degree:
            continue
        hw = hm[w]
        for e in range(depth):
            u = order[e]
            if (row >> u & 1) != (hw >> mapping[u] & 1):
                break
        else:
            mapping[v] = w
            if extend_isomorphism(gm, hm, order, mapping, depth + 1, used | 1 << w):
                return True
    mapping[v] = preset
    return False


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" header plus m "u v" lines; errors carry line numbers."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty input, expected 'n m' header", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("expected header 'n m'", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header fields must be integers", line=1) from None
    if n < 0 or m < 0:
        raise ParseError("header counts must be non-negative", line=1)
    if len(lines) - 1 != m:
        raise ParseError(
            f"expected {m} edge lines, found {len(lines) - 1}",
            line=min(len(lines), m + 1) + 1,
        )
    edges: set[tuple[int, int]] = set()
    for idx, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("expected edge line 'u v'", line=idx)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=idx) from None
        if u == v:
            raise ParseError(f"loop at vertex {u} not allowed", line=idx)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"endpoint outside 1..{n}", line=idx)
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ParseError(f"duplicate edge {key[0]} {key[1]}", line=idx)
        edges.add(key)
    return Graph(n, frozenset(edges))


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted in sorted order."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines)


def to_dot(g: Graph) -> str:
    lines = ["graph {"]
    lines.extend(f"  {v};" for v in range(1, g.n + 1))
    lines.extend(f"  {u} -- {v};" for u, v in sorted(g.edges))
    lines.append("}")
    return "\n".join(lines)
