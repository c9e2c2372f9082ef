"""Undirected graphs on vertices 1..n.

Builders for the two structured families used throughout (paths and
perfect matchings), linear-time recognizers for graphs of maximum degree 2
(paths, cycles, linear forests, perfect matchings), induced subgraphs, a
small-graph isomorphism test, and edge-list / DOT serialization.

A Graph keeps one adjacency representation per regime, each built on first
use and cached on the graph:

- small exact search (the solver, are_isomorphic, the audits) reads n-bit
  neighbor masks from adjacency_masks(); their size is quadratic in n,
  which is harmless below the search bounds;
- long words keep their edges as two flat endpoint sequences sorted by
  (tail, head): the lists decode fills, or the two ranges path_graph and
  matching_graph keep, so those builders hold nothing per vertex. One
  shape pass reads degree and neighbor-XOR lists derived from them and
  keeps only the component lengths of a graph of maximum degree 2, split
  into paths and cycles, so recognizing and certifying a decoded path
  stays linear in its size and keeps nothing per edge or vertex.
  path_graph and matching_graph record their shape when they build the
  graph. degree() keeps the degree list, and is_matching reads one set
  of the endpoints, which also decides the shape of a perfect matching
  without a walk;
- the edge set itself, a frozenset of (u, v) tuples, is built only when a
  caller reads Graph.edges, compares or hashes the graph, or asks
  has_edge. The edge-list and DOT writers print sorted endpoint
  sequences as they are, and sort an edge set once; they write and join
  their lines in slices of 4096, so only one slice's lines are held as
  separate strings.

Record, the immutable base of Graph and of the package's value classes
(decoders, letterings, witnesses, reports), lives here as the lowest
module.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain

from .errors import CapabilityError, ParseError

# Backtracking isomorphism is only offered at desk scale; larger targets
# must be certified structurally, by the shape of a graph of maximum degree 2.
ISOMORPHISM_VERTEX_LIMIT = 12

# Graph._shape's value before the pass has run; None is a result.
_UNSET = object()


def _integer(value, what: str, error: type[ValueError] = ValueError, digits: bool = False) -> int:
    """value as an int: ints, bools and integral numbers such as 2.0 are
    taken, and digit strings too where digits is set (letters and vertex
    mappings take them); any other value, such as 1.5, or "3" without
    digits, raises error instead of being truncated or compared."""
    if type(value) is int:
        return value
    if digits and isinstance(value, str):
        return int(value)
    try:
        i = int(value)
    except (OverflowError, ValueError):  # inf, nan
        i = None
    if i is None or i != value:
        raise error(f"{what} must be an integer, got {value!r}")
    return i


class Record:
    """Immutable slotted record over the attributes named in _fields.

    Equal (to an instance of the same class only) and hashed by those
    values, printed as ClassName(field=value, ...), and copied and pickled
    by calling the constructor with them, so a slot outside _fields (a
    cache) is never compared, printed or carried. The constructor takes
    the fields in order, by position or by keyword, and raises TypeError
    for an argument missing, extra, unknown or given twice; a subclass
    that normalizes or checks its input does so in its own __init__ and
    ends with Record.__init__. Assigning or deleting an attribute
    afterwards raises AttributeError; a cache slot is set through
    object.__setattr__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        # The field values in order from a call that is not plainly
        # positional, or the TypeError a function with the fields as its
        # parameters would raise.
        fields = self._fields
        name = f"{self.__class__.__qualname__}()"
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments but {len(args)} were given")
        for key in kwargs:
            if key not in fields[len(args) :]:
                problem = "multiple values for" if key in fields else "an unexpected keyword"
                raise TypeError(f"{name} got {problem} argument {key!r}")
        missing = [f for f in fields[len(args) :] if f not in kwargs]
        if missing:
            raise TypeError(f"{name} missing arguments: {', '.join(missing)}")
        return (*args, *[kwargs[f] for f in fields[len(args) :]])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Graph(Record):
    """Loopless undirected graph; edges stored as (u, v) pairs with u < v.
    Vertices and the vertex count are ints: integral values such as 2.0
    are converted, and non-integral ones and strings raise ValueError.

    Immutable, and equal and hashed by (n, edges). A graph is held as its
    edge set (this constructor) or as flat endpoint sequences
    (_from_endpoints, for long words), whose edge set is built on first use.
    """

    __slots__ = ("n", "_edges", "_ends", "_adjacency", "_degrees", "_components")
    _fields = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = frozenset()):
        n = _integer(n, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        edges = edges if type(edges) is frozenset else tuple(edges)
        # A frozenset of (u, v) int tuples with u < v is kept as given; a
        # copy would double it.
        keep, ints = type(edges) is frozenset, True
        for e in edges:
            if type(e) is not tuple:
                # A string or bytes unpacks into characters or ints; it
                # names no edge.
                if isinstance(e, (str, bytes, bytearray)):
                    raise ValueError(f"edge {e!r} is not a pair of vertices")
                keep = False
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of vertices") from None
            if type(u) is not int or type(v) is not int:
                u, v = _integer(u, "vertex"), _integer(v, "vertex")
                keep = ints = False
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if u > v:
                u, v = v, u
                keep = False
            if u < 1 or v > n:
                raise ValueError(f"edge {tuple(e)} has an endpoint outside 1..{n}")
        if not ints:
            edges = [(int(u), int(v)) for u, v in edges]  # each checked above
        if not keep:
            edges = frozenset((u, v) if u < v else (v, u) for u, v in edges)
        self._init(n, edges, None, _UNSET)

    @classmethod
    def _from_endpoints(cls, n: int, tails: Sequence[int], heads: Sequence[int], shape=_UNSET) -> Graph:
        """Graph whose edges are (tails[i], heads[i]), kept as these two
        sequences of equal length: decode's lists, or the builders' ranges.

        Unchecked: the caller guarantees 1 <= tails[i] < heads[i] <= n, no
        repeated pair and the pairs in increasing (tail, head) order, which
        the writers print as they are, and never writes to the sequences
        afterwards. It passes the value _shape() would compute if it knows
        it.
        """
        g = object.__new__(cls)
        g._init(n, None, (tails, heads), shape)
        return g

    def _init(self, n, edges, ends, shape) -> None:
        init = object.__setattr__
        init(self, "n", n)
        init(self, "_edges", edges)
        init(self, "_ends", ends)
        init(self, "_adjacency", None)
        init(self, "_degrees", None)
        init(self, "_components", shape)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        edges = self._edges
        if edges is None:
            edges = frozenset(zip(*self._ends))
            object.__setattr__(self, "_edges", edges)
        return edges

    def __repr__(self):
        # Edges in sorted order, so equal graphs print alike.
        edges = f"{{{', '.join(map(repr, sorted(self._pairs())))}}}" if self._size() else ""
        return f"Graph(n={self.n!r}, edges=frozenset({edges}))"

    def _pairs(self) -> Iterable[tuple[int, int]]:
        # The edges as (u, v) pairs, without building the edge set.
        return self._edges if self._ends is None else zip(*self._ends)

    def _size(self) -> int:
        return len(self._edges) if self._ends is None else len(self._ends[0])

    def _degrees_and_xors(self) -> tuple[list[int], list[int]]:
        # Indexed by vertex: the degree, and the XOR of the neighbors. A
        # vertex of degree at most 2 entered from neighbor p leaves to
        # xor[v] ^ p, which is 0 when v has no other neighbor. Not kept:
        # the XORs are a fresh int per vertex.
        deg = [0] * (self.n + 1)
        xor = [0] * (self.n + 1)
        for u, v in self._pairs():
            deg[u] += 1
            deg[v] += 1
            xor[u] ^= v
            xor[v] ^= u
        return deg, xor

    def _shape(self) -> tuple | None:
        """The components of a graph of maximum degree 2, or None if some
        vertex has degree 3 or more.

        The shape is (paths, cycles), each a tuple of (vertex count, number
        of components) pairs in increasing vertex count; an isolated vertex
        is a path on 1 vertex. Two graphs of maximum degree 2 are isomorphic
        exactly when their shapes are equal. Computed once by _walk_shape
        and kept; path_graph and matching_graph record theirs instead.
        """
        shape = self._components
        if shape is _UNSET:
            shape = _walk_shape(self)
            object.__setattr__(self, "_components", shape)
        return shape

    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbor bitmasks indexed by vertex: bit v of masks[u] marks edge u-v."""
        masks = self._adjacency
        if masks is None:
            rows = [0] * (self.n + 1)
            for u, v in self._pairs():
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            masks = tuple(rows)
            object.__setattr__(self, "_adjacency", masks)
        return masks

    def _vertex(self, v) -> int:
        """v as a vertex: an integer in 1..n, else ValueError."""
        v = _integer(v, "vertex")
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside 1..{self.n}")
        return v

    def degree(self, v: int) -> int:
        v = self._vertex(v)
        deg = self._degrees
        if deg is None:
            deg = self._degrees_and_xors()[0]
            object.__setattr__(self, "_degrees", deg)
        return deg[v]

    def has_edge(self, u: int, v: int) -> bool:
        u, v = self._vertex(u), self._vertex(v)
        return (min(u, v), max(u, v)) in self.edges


def _path_shape(n: int):
    """Graph._shape() of P_n."""
    return ((n, 1),), ()


def _walk_shape(g: Graph) -> tuple | None:
    """Graph._shape() computed: walk each path from an end, then each cycle
    from one of its edges, marking the visited vertices in a bytearray and
    keeping only the component sizes. A perfect matching, the paper's other
    family, is decided first by is_matching's one set test, which beats a
    walk per two-vertex component."""
    if is_matching(g):
        m = g._size()
        return (((2, m),), ()) if m else ((), ())
    deg, xor = g._degrees_and_xors()
    if max(deg) > 2:
        return None
    n = g.n
    seen = bytearray(n + 1)
    paths = []
    for end in range(1, n + 1):
        # An isolated vertex or a path end not yet walked; the walk from an
        # end reaches the other end of its path, which comes later.
        if deg[end] < 2 and not seen[end]:
            prev, cur, size = 0, end, 0
            while cur:
                seen[cur] = 1
                prev, cur = cur, xor[cur] ^ prev
                size += 1
            paths.append(size)
    cycles = []
    left = n - sum(paths)
    if left:
        # Every vertex left has degree 2 and lies on a cycle.
        for first, cur in g._pairs():
            if seen[first]:
                continue
            seen[first] = 1
            prev, size = first, 1
            while cur != first:
                seen[cur] = 1
                prev, cur = cur, xor[cur] ^ prev
                size += 1
            cycles.append(size)
            left -= size
            if not left:
                break
    return tuple(sorted(Counter(paths).items())), tuple(sorted(Counter(cycles).items()))


def path_graph(n: int) -> Graph:
    """P_n: vertices 1..n in path order, edges {i, i+1}."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"path needs at least one vertex, got {n}")
    return Graph._from_endpoints(n, range(1, n), range(2, n + 1), _path_shape(n))


def matching_graph(r: int) -> Graph:
    """rK_2: r disjoint edges {2i-1, 2i} on vertices 1..2r."""
    r = _integer(r, "r")
    if r < 1:
        raise ValueError(f"matching needs at least one edge, got r={r}")
    return Graph._from_endpoints(2 * r, range(1, 2 * r, 2), range(2, 2 * r + 1, 2), (((2, r),), ()))


def is_path(g: Graph) -> tuple[int, ...] | None:
    """Path ordering of g's vertices, or None if g is not a path.

    Deterministic: the walk starts at the smaller-labelled endpoint, so a
    path graph always yields the same ordering (of the two possible).
    """
    n = g.n
    if g._size() != n - 1:
        return None
    if n == 1:
        return (1,)
    # n - 1 edges and maximum degree 2 leave one path, with two ends unless
    # it is an isolated vertex, and maybe cycles: g is a path iff the walk
    # from an end reaches every vertex.
    deg, xor = g._degrees_and_xors()
    if max(deg) > 2 or 1 not in deg:
        return None
    order = []
    prev, cur = 0, deg.index(1)
    while cur:
        order.append(cur)
        prev, cur = cur, xor[cur] ^ prev
    return tuple(order) if len(order) == n else None


def is_cycle(g: Graph) -> bool:
    """True iff g is one cycle through all of its vertices (n >= 3)."""
    return g._shape() == ((), ((g.n, 1),))


def is_linear_forest(g: Graph) -> bool:
    """True iff g is a disjoint union of paths (isolated vertices included)."""
    shape = g._shape()
    return shape is not None and not shape[1]


def is_matching(g: Graph) -> bool:
    """True iff every vertex has degree exactly 1 (g is a perfect matching).

    That holds exactly when the m edges have 2m = n endpoints and no two
    are equal, which one set of the endpoints decides.
    """
    if 2 * g._size() != g.n:
        return False
    ends = g._ends
    if ends is None:
        return len({*chain.from_iterable(g._edges)}) == g.n
    return len({*ends[0], *ends[1]}) == g.n


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced by the given vertex set, relabelled 1..|S| by rank."""
    vs = sorted({g._vertex(v) for v in vertices})
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
                f"is_path, is_cycle, is_matching or is_linear_forest instead"
            )
    if g.n != h.n or g._size() != h._size():
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


def _lines(line: str, columns: Sequence[Sequence[int]]) -> str:
    """One line % values per row of the columns, joined by newlines, where
    the rows run in slices of 4096, as format_lettering joins a word: only
    one slice's lines are held as separate values at a time. Each slice is
    written by one % call on the flat values of its rows."""
    size = len(columns[0])
    width = len(columns)
    parts = []
    for start in range(0, size, 4096):
        rows = min(4096, size - start)
        flat = [0] * (width * rows)
        for c, column in enumerate(columns):
            flat[c::width] = column[start : start + rows]
        parts.append("\n".join([line] * rows) % tuple(flat))
    return "\n".join(parts)


def _edge_lines(g: Graph, line: str) -> str:
    """The edges in sorted order, each written as line % (u, v), joined by
    newlines; empty without edges.

    Endpoint sequences are sorted by (tail, head) already, so they are
    written as they are; an edge set is sorted once and unzipped.
    """
    if not g._size():
        return ""
    return _lines(line, g._ends or [*zip(*sorted(g._edges))])


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted in sorted order."""
    edges = _edge_lines(g, "%d %d")
    return f"{g.n} {g._size()}\n{edges}" if edges else f"{g.n} 0"


def to_dot(g: Graph) -> str:
    """g in DOT: one line per vertex, then one per edge in sorted order,
    each group written in slices as _edge_lines writes edges."""
    lines = ["graph {"]
    if g.n:
        lines.append(_lines("  %d;", [range(1, g.n + 1)]))
    edges = _edge_lines(g, "  %d -- %d;")
    if edges:
        lines.append(edges)
    lines.append("}")
    return "\n".join(lines)
