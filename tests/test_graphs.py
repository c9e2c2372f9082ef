"""Graph builders, recognizers, isomorphism, and edge-list / DOT output."""

import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lettergraphs import (
    CapabilityError,
    Decoder,
    Graph,
    Lettering,
    ParseError,
    are_isomorphic,
    decode,
    induced_subgraph,
    is_cycle,
    is_linear_forest,
    is_matching,
    is_path,
    matching_canonical_lettering,
    matching_graph,
    parse_edge_list,
    path_graph,
    path_lettering,
    serialize_edge_list,
    to_dot,
)
from strategies import graphs, letterings


# Graphs in every storage kind: constructor lists, decoded lists and the
# builders' ranges.
stored_graphs = st.one_of(
    graphs(),
    letterings(max_n=40, max_k=6).map(decode),
    st.integers(1, 40).map(path_graph),
    st.integers(1, 20).map(matching_graph),
)


def assert_same_graph(g, h):
    """g, freshly built by decode or a builder, behaves as h, built from
    its edge set. Neither builds its edge set until edges is read, not for
    equality, hashing or pickling either."""
    n = h.n
    assert g.n == n
    assert [g.degree(v) for v in range(1, n + 1)] == [h.degree(v) for v in range(1, n + 1)]
    assert is_path(g) == is_path(h)
    assert is_matching(g) == is_matching(h)
    assert g.adjacency_masks() == h.adjacency_masks()
    assert serialize_edge_list(g) == serialize_edge_list(h)
    assert to_dot(g) == to_dot(h)
    assert repr(g) == repr(h)
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            assert g.has_edge(u, v) == h.has_edge(u, v)
    assert g == h and not g != h
    assert hash(g) == hash(h)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == h and hash(copy) == hash(h)
    assert g._edges is None and h._edges is None and copy._edges is None
    assert list(h._pairs()) == sorted(h.edges)
    assert g.edges == h.edges and type(g.edges) is frozenset


@given(letterings(max_n=40, max_k=6))
def test_decoded_graph_behaves_as_its_edge_set(lt):
    w, pairs = lt.word, lt.decoder.pairs
    by_definition = frozenset(
        (i, j)
        for i in range(1, len(w) + 1)
        for j in range(i + 1, len(w) + 1)
        if (w[i - 1], w[j - 1]) in pairs
    )
    assert_same_graph(decode(lt), Graph(len(w), by_definition))


def test_builders_behave_as_their_edge_sets():
    for n in range(1, 30):
        assert_same_graph(path_graph(n), Graph(n, frozenset((i, i + 1) for i in range(1, n))))
    for r in range(1, 15):
        edges = frozenset((2 * i - 1, 2 * i) for i in range(1, r + 1))
        assert_same_graph(matching_graph(r), Graph(2 * r, edges))


def test_has_edge_bisects_sorted_endpoints():
    # Long decoded and range-backed graphs answer has_edge from their
    # sorted endpoints, in either order of the pair, as their edge-set twin
    # does, and build no edge set: every edge, and the pairs one step off.
    for g in (
        decode(path_lettering(5000)),
        decode(matching_canonical_lettering(2000)),
        decode(Lettering((1, 2) * 60, Decoder(2, {(1, 2), (2, 1), (1, 1)}))),
        path_graph(10_000),
        matching_graph(5000),
    ):
        twin = Graph(g.n, frozenset(zip(*g._ends)))
        for u, v in zip(*g._ends):
            for a, b in ((u, v), (u, v + 1), (u, v - 1), (u - 1, v), (u + 1, v), (u + 1, v + 1)):
                if 1 <= a <= g.n and 1 <= b <= g.n:
                    assert g.has_edge(a, b) == g.has_edge(b, a) == twin.has_edge(a, b)
        assert g._edges is None


@given(stored_graphs, stored_graphs, st.data())
def test_equality_and_hash_follow_the_edge_set(g, other, data):
    # == and hash read the sorted endpoints, not the edge set; they must
    # agree with comparing (n, edges) across lists and ranges, also for
    # graphs one edge apart.
    edges = g.edges
    twins = [Graph(g.n, edges), parse_edge_list(serialize_edge_list(g)), pickle.loads(pickle.dumps(g))]
    others = [other, Graph(g.n + 1, edges)]
    if g.n >= 2:
        u, v = sorted(data.draw(st.lists(st.integers(1, g.n), min_size=2, max_size=2, unique=True)))
        others.append(Graph(g.n, edges ^ {(u, v)}))
    for a in (g, *twins):
        for b in (g, *twins, *others):
            same = (a.n, a.edges) == (b.n, b.edges)
            assert (a == b) == same and (a != b) != same
            if same:
                assert hash(a) == hash(b)


def test_builders_record_the_shape_they_build():
    # path_graph and matching_graph record their shape instead of computing
    # it; the record must be what the shape pass finds on the same edges.
    for n in range(1, 301):
        g = path_graph(n)
        assert g._shape() == Graph(n, g.edges)._shape() == (((n, 1),), ())
        if n % 2 == 0:
            g = matching_graph(n // 2)
            assert g._shape() == Graph(n, g.edges)._shape() == (((2, n // 2),), ())


def test_graphs_are_immutable():
    lt = Lettering((2, 1, 3, 2, 1, 3, 2), Decoder(3, frozenset({(2, 1), (3, 2)})))
    for g in (decode(lt), path_graph(7), Graph(7, path_graph(7).edges)):
        for name, value in (("n", 8), ("edges", frozenset())):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
        assert g.n == 7 and len(g.edges) == 6


def test_graph_normalizes_edge_orientation():
    g = Graph(3, frozenset({(3, 1)}))
    assert g.edges == frozenset({(1, 3)})
    assert g.has_edge(3, 1) and not g.has_edge(1, 2)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))
    with pytest.raises(ValueError):
        Graph(-1)
    # Non-integral vertices and vertex counts are rejected, not kept as
    # floats, and so are strings; integral numbers become ints.
    for n, edges in ((3, [(1.5, 2)]), (3, [(1, 2.5)]), (2.5, []), (float("nan"), []), (3, [("1", "2")]), ("3", [])):
        with pytest.raises(ValueError, match="must be an integer"):
            Graph(n, edges)
    g = Graph(3.0, [(1.0, 2), (True, 3)])
    assert g == Graph(3, frozenset({(1, 2), (1, 3)}))
    assert type(g.n) is int and all(type(u) is int for e in g.edges for u in e)
    # Each edge is read once, so a one-shot pair is taken as well.
    assert Graph(3, [iter((2, 1)), (1, 2)]) == Graph(3, [(1, 2)])
    # An edge that is not a pair is named; an edge collection that is not
    # iterable stays a TypeError.
    for edges, message in (
        ([(1, 2, 3)], "edge (1, 2, 3) is not a pair of vertices"),
        ([1], "edge 1 is not a pair of vertices"),
        (frozenset({(1,)}), "edge (1,) is not a pair of vertices"),
        # A string or bytes would unpack into two vertices; it is no edge.
        (["12"], "edge '12' is not a pair of vertices"),
        ([b"12"], "edge b'12' is not a pair of vertices"),
        (frozenset({"12"}), "edge '12' is not a pair of vertices"),
        # A one-shot edge is named by the vertices it gave.
        ([iter((1, 5))], "edge (1, 5) has an endpoint outside 1..3"),
    ):
        with pytest.raises(ValueError) as info:
            Graph(3, edges)
        assert str(info.value) == message
    with pytest.raises(TypeError):
        Graph(3, 5)


def test_builders():
    assert path_graph(1) == Graph(1)
    assert path_graph(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})
    assert matching_graph(3).edges == frozenset({(1, 2), (3, 4), (5, 6)})
    with pytest.raises(ValueError):
        path_graph(0)
    with pytest.raises(ValueError):
        matching_graph(0)


def test_is_path_on_paths():
    for n in (1, 2, 5, 9):
        assert is_path(path_graph(n)) == tuple(range(1, n + 1))


def test_is_path_orders_from_smaller_endpoint():
    g = Graph(7, frozenset({(1, 2), (1, 5), (3, 4), (3, 7), (4, 5), (6, 7)}))
    assert is_path(g) == (2, 1, 5, 4, 3, 7, 6)


def test_is_path_rejects_non_paths():
    assert is_path(Graph(3, frozenset({(1, 2), (2, 3), (1, 3)}))) is None  # cycle
    assert is_path(Graph(4, frozenset({(1, 2), (1, 3), (1, 4)}))) is None  # star
    assert is_path(Graph(4, frozenset({(1, 2), (3, 4)}))) is None  # disconnected
    assert is_path(matching_graph(2)) is None
    assert is_path(Graph(0)) is None
    # n-1 edges split as a short path plus a triangle
    assert is_path(Graph(6, frozenset({(1, 2), (3, 4), (4, 5), (3, 5)}))) is None
    assert is_path(Graph(6, frozenset({(1, 2), (2, 3), (4, 5), (4, 6), (5, 6)}))) is None


def test_is_path_beyond_isomorphism_bound():
    n = 300
    perm = list(range(1, n + 1))
    random.Random(3).shuffle(perm)
    g = Graph(n, frozenset((perm[i], perm[i + 1]) for i in range(n - 1)))
    order = is_path(g)
    assert order in (tuple(perm), tuple(reversed(perm)))
    assert order[0] < order[-1]
    # n-1 edges: a path on n-3 vertices plus a disjoint triangle
    short = path_graph(n - 3).edges | {(n - 2, n - 1), (n - 1, n), (n - 2, n)}
    assert len(short) == n - 1
    assert is_path(Graph(n, short)) is None


def union_of_paths_and_cycles(components, perm) -> Graph:
    """Disjoint paths and cycles, given as (vertex count, is cycle) pairs,
    laid out in order and relabelled by perm (vertex v becomes perm[v-1])."""
    edges = []
    first = 1
    for size, cycle in components:
        last = first + size - 1
        edges += [(v, v + 1) for v in range(first, last)]
        if cycle:
            edges.append((last, first))
        first = last + 1
    return Graph(len(perm), frozenset((perm[u - 1], perm[v - 1]) for u, v in edges))


def check_recognizers(g: Graph) -> None:
    """is_path, is_cycle, is_linear_forest and is_matching against a
    union-find reference, on g and on a twin holding the same edges as
    endpoint lists, as decode builds it."""
    parent = list(range(g.n + 1))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    degree = [0] * (g.n + 1)
    for u, v in g.edges:
        degree[u] += 1
        degree[v] += 1
        parent[root(u)] = root(v)
    components = len({root(v) for v in range(1, g.n + 1)})
    m = len(g.edges)
    # A graph with n - c edges on c components is a forest; with degrees
    # <= 2, a linear forest, and a path if c = 1. A connected graph whose
    # degrees are all 2 is a cycle.
    forest = m == g.n - components and max(degree) <= 2
    path = forest and components == 1
    cycle = g.n >= 3 and components == 1 and all(degree[v] == 2 for v in range(1, g.n + 1))
    matching = all(degree[v] == 1 for v in range(1, g.n + 1))
    edges = sorted(g.edges)
    twin = Graph._from_endpoints(g.n, [u for u, _ in edges], [v for _, v in edges])
    for h in (g, twin):
        order = is_path(h)
        if not path:
            assert order is None
        else:
            assert sorted(order) == list(range(1, g.n + 1))
            assert all(g.has_edge(u, v) for u, v in zip(order, order[1:]))
            ends = [v for v in range(1, g.n + 1) if degree[v] <= 1]
            assert order[0] == min(ends)
        assert is_cycle(h) == cycle
        assert is_linear_forest(h) == forest
        assert is_matching(h) == matching


@st.composite
def paths_and_cycles(draw, max_n=60):
    components = []
    n = 0
    for size, cycle in draw(st.lists(st.tuples(st.integers(1, 20), st.booleans()), max_size=6)):
        size = max(size, 3) if cycle else size
        if n + size > max_n:
            break
        components.append((size, cycle))
        n += size
    return union_of_paths_and_cycles(components, draw(st.permutations(range(1, n + 1))))


@given(paths_and_cycles())
def test_recognizers_on_paths_and_cycles(g):
    check_recognizers(g)


def component_multisets(n, smallest=1):
    """Every multiset of paths (1+ vertices) and cycles (3+ vertices) on n
    vertices in all, as nondecreasing lists of (vertex count, is cycle)."""
    if n == 0:
        yield []
        return
    for size in range(smallest, n + 1):
        for cycle in (False, True) if size >= 3 else (False,):
            for rest in component_multisets(n - size, size):
                if not rest or (size, cycle) <= rest[0]:
                    yield [(size, cycle)] + rest


def test_shape_decides_isomorphism_at_maximum_degree_two():
    # verify_lettering past the isomorphism bound compares shapes; below it
    # the backtracking test can check that this is exact.
    rng = random.Random(13)
    for n in range(0, 11):
        graphs_n = []
        for components in component_multisets(n):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            graphs_n.append(union_of_paths_and_cycles(components, perm))
        for g in graphs_n:
            for h in graphs_n:
                assert (g._shape() == h._shape()) == are_isomorphic(g, h)


def test_recognizers_on_near_paths():
    rng = random.Random(11)
    for n in range(3, 61):
        shapes = [[(n, True)], [(n, False)]]  # a lone cycle, a path
        shapes += [[(a, False), (n - a, False)] for a in (1, n // 2, n - 1)]  # two paths
        if n >= 4:
            # a path plus a disjoint cycle: n - 1 edges, like a path on n vertices
            shapes += [[(n - c, False), (c, True)] for c in (3, n - 1)]
            shapes += [[(c, True), (n - c, False)] for c in (3, n - 1)]
        for components in shapes:
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            for labels in (range(1, n + 1), perm):
                check_recognizers(union_of_paths_and_cycles(components, list(labels)))


def test_is_matching_beyond_isomorphism_bound():
    r = 150
    assert is_matching(matching_graph(r))
    # move edge {1, 2} to {1, 3}: same edge count, vertex 2 left bare
    moved = (matching_graph(r).edges - {(1, 2)}) | {(1, 3)}
    assert not is_matching(Graph(2 * r, moved))


def test_recognizers_on_near_matchings():
    # m edges on 2m vertices where one endpoint repeats, leaving a vertex
    # bare: the edge and vertex counts of a perfect matching, but not one.
    for r in range(1, 9):
        matching = [(2 * i - 1, 2 * i) for i in range(1, r + 1)]
        check_recognizers(Graph(2 * r, frozenset(matching)))
        for t, (u, bare) in enumerate(matching):
            for x in range(1, 2 * r + 1):
                if x not in (u, bare):
                    moved = matching[:t] + [(u, x)] + matching[t + 1 :]
                    check_recognizers(Graph(2 * r, frozenset(moved)))


def test_is_matching():
    assert is_matching(matching_graph(4))
    assert is_matching(Graph(0))
    assert not is_matching(path_graph(3))
    assert not is_matching(Graph(2))


def test_induced_subgraph_relabels_by_rank():
    g = path_graph(7)
    assert induced_subgraph(g, {2, 3, 5, 6}) == Graph(4, frozenset({(1, 2), (3, 4)}))
    assert induced_subgraph(g, []) == Graph(0)
    assert induced_subgraph(g, range(1, 8)) == g
    with pytest.raises(ValueError):
        induced_subgraph(g, {0})
    with pytest.raises(ValueError):
        induced_subgraph(g, {8})


def test_induced_subgraph_takes_integral_vertices_only():
    # An integral float is its vertex; a fraction or a string raises instead
    # of being dropped or compared.
    g = path_graph(4)
    assert induced_subgraph(g, [1.0, 2]) == induced_subgraph(g, [1, 2]) == path_graph(2)
    for vertices in ([1.5, 2], ["1", 2]):
        with pytest.raises(ValueError, match="must be an integer"):
            induced_subgraph(g, vertices)


def test_degree_answers_only_for_vertices():
    g = path_graph(3)
    assert [g.degree(v) for v in (1, 2, 3, 2.0)] == [1, 2, 1, 2]
    for v in (-1, 0, 4):
        with pytest.raises(ValueError, match="outside 1..3"):
            g.degree(v)
    with pytest.raises(ValueError, match="must be an integer"):
        g.degree(1.5)
    assert [g.has_edge(u, v) for u, v in ((1, 2), (2, 1), (1, 3), (2.0, 3))] == [True, True, False, True]
    for u, v in ((0, 1), (1, 4), (-1, 2)):
        with pytest.raises(ValueError, match="outside 1..3"):
            g.has_edge(u, v)
    for u, v in ((1.5, 2), ("1", 2), (1, "2")):
        with pytest.raises(ValueError, match="must be an integer"):
            g.has_edge(u, v)


@given(stored_graphs, st.data())
def test_induced_subgraph_matches_direct_filter(g, data):
    # On edge sets, decoded endpoint lists and the builders' ranges alike;
    # the subgraph keeps its endpoints sorted, as _from_endpoints requires.
    vs = sorted(data.draw(st.sets(st.integers(1, g.n)))) if g.n else []
    sub = induced_subgraph(g, vs)
    rank = {v: i + 1 for i, v in enumerate(vs)}
    expect = frozenset(
        (rank[u], rank[v]) for u, v in g.edges if u in rank and v in rank
    )
    assert sub.n == len(vs) and sub.edges == expect
    assert list(zip(*sub._ends)) == sorted(expect)


def test_are_isomorphic_basics():
    assert are_isomorphic(path_graph(4), Graph(4, frozenset({(2, 4), (1, 3), (3, 2)})))
    assert not are_isomorphic(path_graph(4), Graph(4, frozenset({(1, 2), (1, 3), (1, 4)})))
    assert not are_isomorphic(path_graph(4), path_graph(5))
    assert are_isomorphic(Graph(0), Graph(0))
    # same degree sequence, different graphs: C_6 vs two triangles
    c6 = Graph(6, frozenset({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)}))
    tt = Graph(6, frozenset({(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)}))
    assert not are_isomorphic(c6, tt)


@given(graphs(), st.randoms(use_true_random=False))
def test_are_isomorphic_under_relabelling(g, rnd):
    perm = list(range(1, g.n + 1))
    rnd.shuffle(perm)
    h = Graph(g.n, frozenset((perm[u - 1], perm[v - 1]) for u, v in g.edges))
    assert are_isomorphic(g, h)


def test_are_isomorphic_bound():
    with pytest.raises(CapabilityError):
        are_isomorphic(path_graph(13), path_graph(13))


def test_edge_list_round_trip():
    g = Graph(7, frozenset({(1, 2), (1, 5), (3, 4), (3, 7), (4, 5), (6, 7)}))
    text = serialize_edge_list(g)
    assert text == "7 6\n1 2\n1 5\n3 4\n3 7\n4 5\n6 7"
    assert parse_edge_list(text) == g
    assert parse_edge_list(text + "\n") == g
    assert serialize_edge_list(Graph(0)) == "0 0"
    assert parse_edge_list("0 0") == Graph(0)


@given(graphs())
def test_edge_list_round_trip_random(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_edge_list_and_dot_are_the_sorted_edge_set():
    # The writers print endpoint sequences as they are and sort an edge
    # set; their bytes must be those written from sorted(g.edges), on both
    # representations.
    rng = random.Random(5)
    for _ in range(300):
        n = rng.choice([0, 1, 2, rng.randrange(3, 20), rng.randrange(20, 400)])
        p = rng.choice([0.0, 0.02, 0.2, 0.7])
        edges = frozenset(
            (u, v) for u in range(1, n) for v in range(u + 1, n + 1) if rng.random() < p
        )
        g = Graph(n, edges)
        ordered = sorted(edges)  # endpoint sequences are sorted, as decode's are
        twin = Graph._from_endpoints(n, [u for u, _ in ordered], [v for _, v in ordered])
        text = "\n".join([f"{n} {len(edges)}", *(f"{u} {v}" for u, v in ordered)])
        dot = "\n".join(
            ["graph {", *(f"  {v};" for v in range(1, n + 1)),
             *(f"  {u} -- {v};" for u, v in ordered), "}"]
        )
        for h in (g, twin):
            assert serialize_edge_list(h) == text
            assert to_dot(h) == dot


def test_range_builders_match_their_edge_set_twins():
    # path_graph and matching_graph keep two ranges of endpoints; each must
    # behave as the same edges handed to Graph, also at edge counts around
    # the writers' 4096-line slices.
    def check(g, edges, small):
        twin = Graph(g.n, edges)
        assert g.edges == edges
        assert list(zip(*g._ends)) == sorted(edges)  # the endpoint contract
        assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == twin and copy.edges == edges
        assert [g.degree(v) for v in range(1, g.n + 1)] == [twin.degree(v) for v in range(1, g.n + 1)]
        for u, v in ((1, 2), (1, 3), (2, 3), (g.n - 1, g.n), (1, g.n), (4095, 4096), (4096, 4097), (4097, 4098)):
            if 1 <= u < v <= g.n:
                assert g.has_edge(u, v) == g.has_edge(v, u) == ((u, v) in edges)
        if small:
            assert g.adjacency_masks() == twin.adjacency_masks()
        assert is_path(g) == is_path(twin)
        assert is_matching(g) == is_matching(twin)
        assert g._shape() == twin._shape()  # recorded by the builder, walked on the twin
        ordered = sorted(edges)
        text = "\n".join([f"{g.n} {len(edges)}", *(f"{u} {v}" for u, v in ordered)])
        dot = "\n".join(
            ["graph {", *(f"  {v};" for v in range(1, g.n + 1)),
             *(f"  {u} -- {v};" for u, v in ordered), "}"]
        )
        for h in (g, twin):
            assert serialize_edge_list(h) == text
            assert to_dot(h) == dot

    for m in (1, 2, 3, 4, 5, 4095, 4096, 4097, 8193):
        small = m <= 5
        check(path_graph(m + 1), frozenset((i, i + 1) for i in range(1, m + 1)), small)
        check(matching_graph(m), frozenset((2 * i - 1, 2 * i) for i in range(1, m + 1)), small)
    check(path_graph(1), frozenset(), True)


def test_repr_lists_the_sorted_edges_across_slices():
    # repr writes its pairs in the writers' 4096-pair slices; the text must
    # not show where one slice ends, on range-backed graphs or decoded ones.
    for m in (4095, 4096, 4097, 8193):
        for g in (path_graph(m + 1), matching_graph(m), decode(path_lettering(m + 1))):
            text = repr(g)
            pairs = ", ".join(map(repr, sorted(g.edges)))
            assert text == f"Graph(n={g.n}, edges=frozenset({{{pairs}}}))"
    assert repr(Graph(3)) == "Graph(n=3, edges=frozenset())"


def test_parse_edge_list_errors():
    for text, line in [
        ("", 1),
        ("3", 1),
        ("3 x", 1),
        ("3 2\n1 2", 3),
        ("3 1\n1 2\n2 3", 3),
        ("3 1\n1", 2),
        ("3 1\n1 1", 2),
        ("3 1\n1 4", 2),
        ("3 2\n1 2\n2 1", 3),
        ("-1 0", 1),
    ]:
        with pytest.raises(ParseError) as e:
            parse_edge_list(text)
        assert e.value.line == line, text


def test_to_dot():
    assert to_dot(Graph(3, frozenset({(1, 3)}))) == "graph {\n  1;\n  2;\n  3;\n  1 -- 3;\n}"
    assert to_dot(Graph(0)) == "graph {\n}"
