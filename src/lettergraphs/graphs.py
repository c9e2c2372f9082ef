"""Undirected graphs on vertices 1..n.

Builders for the two structured families used throughout (paths and
perfect matchings), linear-time recognizers for graphs of maximum degree 2
(paths, cycles, linear forests, perfect matchings), induced subgraphs, a
small-graph isomorphism test, edge-list / DOT serialization, and _lines,
the package's one writer of int sequences as text.

A Graph stores its edges one way, read through Graph._sorted(): two flat
endpoint sequences, tails and heads, sorted by (tail, head). They are the
lists decode fills, the two ranges path_graph and matching_graph keep
(nothing per vertex), or the lists the constructor and parse_edge_list
sort their checked edges into once, when the graph is built. Each regime
reads them its own way:

- exact search (the solver, are_isomorphic, the audits) reads n-bit
  neighbor masks from adjacency_masks(), built on first use and cached;
  their size is quadratic in n, which is harmless below the search bounds;
- everything else reads the sequences themselves. One shape pass reads
  degree and neighbor-XOR lists derived from them and keeps only the
  component lengths of a graph of maximum degree 2, split into paths and
  cycles, so certifying a decoded path stays linear in its size and keeps
  nothing per edge or vertex; a path is certified by one walk from its
  first end, and the builders record their shape. degree() keeps the
  degree list, is_matching reads one set of the endpoints, which also
  decides the shape of a perfect matching without a walk, and has_edge
  bisects. Equality compares the sequences element by element and hashing
  reads them in slices. The edge-list and DOT writers and repr print the
  sequences as they are through _lines, which also writes
  core.format_lettering's word and decoder lines; it works in slices of
  rows, so no writer holds a string per edge, vertex or letter.

The edge set, a frozenset of (u, v) tuples, is built only if Graph.edges is
read, and then cached.

Record, the immutable base of Graph and of the package's value classes
(decoders, letterings, witnesses, reports), lives here as the lowest
module.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Iterable, Sequence
from operator import eq

from .errors import CapabilityError, ParseError

# Backtracking isomorphism is only offered at desk scale; larger targets
# must be certified structurally, by the shape of a graph of maximum degree 2.
ISOMORPHISM_VERTEX_LIMIT = 12

# Graph._shape's value before the pass has run; None is a result.
_UNSET = object()


def _columns(pairs: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Sorted (u, v) pairs as tails and heads lists, a Graph's storage;
    zip(*pairs) would hold one argument per edge."""
    return [u for u, _ in pairs], [v for _, v in pairs]


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
    ends with Record.__init__. _of is the second constructor, which skips
    those checks; only the closed-form builders in constructions call it.
    Assigning or deleting an attribute afterwards raises AttributeError; a
    cache slot is set through object.__setattr__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    @classmethod
    def _of(cls, *values):
        """Record holding the field values as given, without the checks or
        the normalization of cls.__init__; a cache slot starts unset.

        Unchecked: the caller guarantees the exact normalized form the
        checked constructor would leave, such as a tuple of int letters in
        1..k for a word and a frozenset of (int, int) tuples in 1..k for
        decoder pairs. Pickling and copying still rebuild through the
        checked constructor.
        """
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

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
    """Loopless undirected graph on vertices 1..n; each edge is a pair
    (u, v) with u < v. Vertices and the vertex count are ints: integral
    values such as 2.0 are converted, and non-integral ones and strings
    raise ValueError.

    Immutable, and equal and hashed by (n, edges). Whatever it was built
    from, a graph stores its edges one way, read through _sorted(): two
    endpoint sequences, tails and heads, sorted by (tail, head). This
    constructor checks its edges and sorts them into two lists once;
    _from_endpoints keeps sequences that are sorted already. The edge set
    is built only if edges is read; equality, hashing and pickling read
    the sequences.
    """

    __slots__ = ("n", "_edges", "_ends", "_adjacency", "_degrees", "_components")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = frozenset()):
        n = _integer(n, "vertex count")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        # A (u, v) tuple of ints with u < v is sorted as given; only a
        # rebuilt pair, or edges that are not a frozenset, can repeat one.
        pairs, distinct = [], type(edges) is frozenset
        for e in edges:
            # A string or bytes unpacks into characters or ints; it names
            # no edge.
            if type(e) is not tuple and isinstance(e, (str, bytes, bytearray)):
                raise ValueError(f"edge {e!r} is not a pair of vertices")
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ValueError(f"edge {e!r} is not a pair of vertices") from None
            if type(u) is not int or type(v) is not int:
                u, v = _integer(u, "vertex"), _integer(v, "vertex")
                e = None  # rebuilt below from the converted vertices
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {(u, v)} has an endpoint outside 1..{n}")
            if u > v or type(e) is not tuple:
                e = (u, v) if u < v else (v, u)
                distinct = False
            pairs.append(e)
        if not distinct:
            pairs = list(set(pairs))
        pairs.sort()
        self._init(n, _columns(pairs), _UNSET)

    @classmethod
    def _from_endpoints(cls, n: int, tails: Sequence[int], heads: Sequence[int], shape=_UNSET) -> Graph:
        """Graph whose edges are (tails[i], heads[i]), kept as these two
        sequences of equal length: decode's or parse_edge_list's lists, or
        the builders' ranges.

        Unchecked: the caller guarantees 1 <= tails[i] < heads[i] <= n, no
        repeated pair and the pairs in increasing (tail, head) order, the
        form the constructor leaves, and never writes to them afterwards.
        It passes the value _shape() would compute if it knows it.
        """
        g = object.__new__(cls)
        g._init(n, (tails, heads), shape)
        return g

    def _init(self, n, ends, shape) -> None:
        init = object.__setattr__
        init(self, "n", n)
        init(self, "_edges", None)
        init(self, "_ends", ends)
        init(self, "_adjacency", None)
        init(self, "_degrees", None)
        init(self, "_components", shape)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        edges = self._edges
        if edges is None:
            edges = frozenset(self._pairs())
            object.__setattr__(self, "_edges", edges)
        return edges

    def _sorted(self) -> tuple[Sequence[int], Sequence[int]]:
        """The edges as tails and heads sorted by (tail, head): the one
        storage, which every reader but edges takes."""
        return self._ends

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.n != other.n or self._size() != other._size():
            return False
        # Element by element: a range and a list can hold the same endpoints.
        (tails, heads), (other_tails, other_heads) = self._sorted(), other._sorted()
        return all(map(eq, tails, other_tails)) and all(map(eq, heads, other_heads))

    def __hash__(self):
        # Slice by slice, so that a range and a list holding the same
        # endpoints hash alike, and nothing per edge is built at once.
        tails, heads = self._sorted()
        h = hash((self.n, len(tails)))
        for start in range(0, len(tails), 128):
            h = hash((h, *tails[start : start + 128], *heads[start : start + 128]))
        return h

    def __reduce__(self):
        return self.__class__, (self.n, list(self._pairs()))

    def __repr__(self):
        # Edges in sorted order, so equal graphs print alike.
        edges = f"{{{_lines('(%d, %d)', self._sorted(), ', ')}}}" if self._size() else ""
        return f"Graph(n={self.n!r}, edges=frozenset({edges}))"

    def _pairs(self) -> Iterable[tuple[int, int]]:
        # The edges as sorted (u, v) pairs, without building the edge set.
        return zip(*self._sorted())

    def _size(self) -> int:
        return len(self._sorted()[0])

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
        u, v = sorted((self._vertex(u), self._vertex(v)))
        # Bisect the tails for u's run, then its heads.
        tails, heads = self._sorted()
        lo = bisect_left(tails, u)
        hi = bisect_right(tails, u, lo)
        i = bisect_left(heads, v, lo, hi)
        return i < hi and heads[i] == v


def _path_shape(n: int):
    """Graph._shape() of P_n."""
    return ((n, 1),), ()


def _walk_shape(g: Graph) -> tuple | None:
    """Graph._shape() computed: walk each path from an end, then each cycle
    from one of its edges, marking the visited vertices in a bytearray and
    keeping only the component sizes. A perfect matching, the paper's other
    family, is decided first by is_matching's one set test, which beats a
    walk per two-vertex component.

    A graph of maximum degree 2 with n - 1 edges has exactly one path
    component, and cycles if that path misses some vertex. When the path
    has ends (degree 1), one walk from the first of them, with no scan for
    ends and no marks, decides the paper's main case: it covers all n
    vertices exactly when the graph is P_n. Otherwise the general walks
    run on the same degree and XOR lists."""
    if is_matching(g):
        m = g._size()
        return (((2, m),), ()) if m else ((), ())
    deg, xor = g._degrees_and_xors()
    if max(deg) > 2:
        return None
    n = g.n
    if g._size() == n - 1 and 1 in deg:
        prev, cur, size = 0, deg.index(1), 0
        while cur:
            prev, cur = cur, xor[cur] ^ prev
            size += 1
        if size == n:
            return _path_shape(n)
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
    are equal, which one set of the sorted view's tails and heads decides.
    """
    if 2 * g._size() != g.n:
        return False
    tails, heads = g._sorted()
    return len({*tails, *heads}) == g.n


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced by the given vertex set, relabelled 1..|S| by rank."""
    vs = sorted({g._vertex(v) for v in vertices})
    rank = {v: i + 1 for i, v in enumerate(vs)}
    # rank is increasing, so the kept pairs stay in (tail, head) order.
    tails, heads = [], []
    for u, v in g._pairs():
        if u in rank and v in rank:
            tails.append(rank[u])
            heads.append(rank[v])
    return Graph._from_endpoints(len(vs), tails, heads)


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
    images; the caller vouches that this partial map agrees on degrees and
    adjacency (say, one that fixes some vertices and sends u to v). The
    rest are mapped in order, each image matching its vertex's degree and
    its adjacency to every vertex mapped before it. On success mapping
    holds the isomorphism; on failure it is as given. A plain recursive
    function, so it leaves no reference cycle behind.
    """
    if depth == len(order):
        return True
    v = order[depth]
    row = gm[v]
    degree = row.bit_count()
    for w in range(1, len(hm)):
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
    mapping[v] = 0
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
    # Each pair is checked above as Graph would check it, and distinct.
    return Graph._from_endpoints(n, *_columns(sorted(edges)))


def _lines(line: str, columns: Sequence[Sequence[int]], sep: str) -> str:
    """One line % values per row of the columns, joined by sep: the
    package's one writer of int sequences as text, behind the edge-list and
    DOT writers, format_lettering and Graph's repr. The rows run in slices
    of 4096, each written by one % call on the flat values of its rows, so
    only one slice's values are held apart at a time."""
    size = len(columns[0])
    width = len(columns)
    parts = []
    for start in range(0, size, 4096):
        rows = min(4096, size - start)
        flat = [0] * (width * rows)
        for c, column in enumerate(columns):
            flat[c::width] = column[start : start + rows]
        parts.append(sep.join([line] * rows) % tuple(flat))
    return sep.join(parts)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges emitted in sorted order."""
    edges = _lines("%d %d", g._sorted(), "\n")
    return f"{g.n} {g._size()}\n{edges}" if edges else f"{g.n} 0"


def to_dot(g: Graph) -> str:
    """g in DOT: one line per vertex, then one per edge in sorted order,
    each group written in slices by _lines."""
    lines = ["graph {"]
    if g.n:
        lines.append(_lines("  %d;", [range(1, g.n + 1)], "\n"))
    edges = _lines("  %d -- %d;", g._sorted(), "\n")
    if edges:
        lines.append(edges)
    lines.append("}")
    return "\n".join(lines)
