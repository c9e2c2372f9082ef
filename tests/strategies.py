"""Test helpers shared by several test modules: hypothesis strategies for
letterings and graphs, and the complement of a graph built edge by edge."""

from hypothesis import strategies as st

from lettergraphs import Decoder, Graph, Lettering


@st.composite
def letterings(draw, max_n=8, max_k=4):
    """A word of 0..max_n letters over 1..k, k in 1..max_k, with any set of
    ordered pairs over 1..k as its decoder."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(0, max_n))
    word = tuple(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    all_pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
    pairs = frozenset(draw(st.sets(st.sampled_from(all_pairs))))
    return Lettering(word, Decoder(k, pairs))


@st.composite
def graphs(draw, min_n=0, max_n=8):
    """A graph on min_n..max_n vertices with any set of edges."""
    n = draw(st.integers(min_n, max_n))
    all_pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    edges = frozenset(draw(st.sets(st.sampled_from(all_pairs)))) if all_pairs else frozenset()
    return Graph(n, edges)


def complement_graph(g: Graph) -> Graph:
    edges = frozenset(
        (u, v)
        for u in range(1, g.n)
        for v in range(u + 1, g.n + 1)
        if (u, v) not in g.edges
    )
    return Graph(g.n, edges)
