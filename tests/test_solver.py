"""Exact search: decision, minimization, enumeration, and its guarantees."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lettergraphs import (
    CapabilityError,
    Decoder,
    EnumerationResult,
    Graph,
    decode,
    enumerate_letterings,
    is_k_letterable,
    lettericity_exact,
    matching_graph,
    path_graph,
    path_lettericity,
    solver,
    verify_lettering,
)
from naive_oracle import (
    all_graphs_up_to_iso,
    dfs_prefixes,
    first_lettering,
    oracle_lettericity,
    prefix_liveness,
)


@st.composite
def small_graphs(draw, min_n=1, max_n=6):
    n = draw(st.integers(min_n, max_n))
    all_pairs = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    edges = frozenset(draw(st.sets(st.sampled_from(all_pairs)))) if all_pairs else frozenset()
    return Graph(n, edges)


def test_decision_examples():
    assert is_k_letterable(path_graph(7), 2) is None
    assert is_k_letterable(path_graph(7), 3) is not None
    assert is_k_letterable(Graph(2, frozenset({(1, 2)})), 1) is not None
    assert is_k_letterable(matching_graph(2), 1) is None
    assert is_k_letterable(path_graph(3), 0) is None
    # k beyond the vertex count changes nothing
    assert is_k_letterable(path_graph(3), 2000) == is_k_letterable(path_graph(3), 3)


def test_single_vertex():
    k, w = lettericity_exact(Graph(1))
    assert k == 1 and w.lettering.word == (1,) and w.vertex_of_position == (1,)


def test_lettericity_of_small_paths():
    for n in range(3, 8):
        k, w = lettericity_exact(path_graph(n))
        assert k == path_lettericity(n)
        assert verify_lettering(w.lettering, path_graph(n), w.vertex_of_position)


def test_lettericity_of_matchings():
    for r in range(1, 4):
        k, w = lettericity_exact(matching_graph(r))
        assert k == r
        assert verify_lettering(w.lettering, matching_graph(r), w.vertex_of_position)


def test_witness_uses_minimal_alphabet():
    k, w = lettericity_exact(path_graph(7))
    assert k == 3
    assert w.lettering.alphabet_size == 3
    assert w.lettering.decoder.alphabet_size == 3


def test_enumeration_counts():
    assert [w.lettering.word for w in enumerate_letterings(Graph(2, frozenset({(1, 2)})), 1).witnesses] == [(1, 1)]
    res = enumerate_letterings(matching_graph(2), 2)
    assert [w.lettering.word for w in res.witnesses] == [
        (1, 1, 2, 2),
        (1, 2, 1, 2),
        (1, 2, 2, 1),
    ]
    assert not res.truncated
    assert len(enumerate_letterings(matching_graph(3), 3).witnesses) == 15


def test_enumeration_words_are_canonical_and_exact_alphabet():
    for k in (2, 3, 4):
        for w in enumerate_letterings(matching_graph(2), k).witnesses:
            word = w.lettering.word
            assert len(set(word)) == k
            seen = 0
            for a in word:  # letters numbered by first occurrence
                assert a <= seen + 1
                seen = max(seen, a)


def test_enumeration_witnesses_verify():
    for k in (3, 4, 5):
        for w in enumerate_letterings(matching_graph(3), k).witnesses:
            assert verify_lettering(w.lettering, matching_graph(3), w.vertex_of_position)


def test_enumeration_truncation():
    assert enumerate_letterings(matching_graph(3), 3, limit=5).truncated
    assert len(enumerate_letterings(matching_graph(3), 3, limit=5).witnesses) == 5
    assert not enumerate_letterings(matching_graph(3), 3, limit=15).truncated
    assert not enumerate_letterings(matching_graph(3), 3, limit=40).truncated
    res = enumerate_letterings(matching_graph(2), 2, limit=0)
    assert res.witnesses == () and res.truncated
    # nothing to truncate when no lettering exists at this alphabet size
    assert not enumerate_letterings(path_graph(7), 2, limit=0).truncated


def test_enumeration_is_deterministic():
    a = enumerate_letterings(matching_graph(3), 4)
    b = enumerate_letterings(matching_graph(3), 4)
    assert a == b
    words = [w.lettering.word for w in a.witnesses]
    assert words == sorted(words)


def test_solver_bounds():
    with pytest.raises(CapabilityError):
        is_k_letterable(path_graph(13), 4)
    with pytest.raises(CapabilityError):
        lettericity_exact(path_graph(13))
    with pytest.raises(CapabilityError):
        enumerate_letterings(path_graph(11), 4)
    with pytest.raises(ValueError):
        is_k_letterable(Graph(0), 1)
    with pytest.raises(ValueError):
        is_k_letterable(path_graph(3), -1)
    with pytest.raises(ValueError):
        enumerate_letterings(path_graph(3), 0)
    with pytest.raises(ValueError):
        enumerate_letterings(path_graph(3), 4)
    with pytest.raises(ValueError):
        enumerate_letterings(path_graph(3), 2, limit=-1)


def test_agrees_with_naive_oracle_up_to_four_vertices():
    for n in range(1, 5):
        for g in all_graphs_up_to_iso(n):
            assert lettericity_exact(g)[0] == oracle_lettericity(g)


@settings(max_examples=60)
@given(small_graphs(), st.integers(1, 6))
def test_witnesses_are_sound(g, k):
    w = is_k_letterable(g, min(k, g.n))
    if w is not None:
        assert verify_lettering(w.lettering, g, w.vertex_of_position)
        assert w.lettering.alphabet_size <= min(k, g.n)


@settings(max_examples=60)
@given(small_graphs())
def test_letterable_stays_letterable_with_more_letters(g):
    k, _ = lettericity_exact(g)
    for bigger in range(k, g.n + 1):
        assert is_k_letterable(g, bigger) is not None
    for smaller in range(1, k):
        assert is_k_letterable(g, smaller) is None


@settings(max_examples=40)
@given(small_graphs(max_n=5), st.randoms(use_true_random=False))
def test_lettericity_is_isomorphism_invariant(g, rnd):
    perm = list(range(1, g.n + 1))
    rnd.shuffle(perm)
    h = Graph(g.n, frozenset((perm[u - 1], perm[v - 1]) for u, v in g.edges))
    assert lettericity_exact(g)[0] == lettericity_exact(h)[0]


def test_induced_subgraphs_never_need_more_letters():
    from lettergraphs import induced_subgraph

    rng = random.Random(11)
    targets = [path_graph(6)]
    for _ in range(2):
        targets.append(
            Graph(
                6,
                frozenset(
                    (u, v)
                    for u in range(1, 6)
                    for v in range(u + 1, 7)
                    if rng.random() < 0.5
                ),
            )
        )
    for g in targets:
        k, _ = lettericity_exact(g)
        for code in range(1, 1 << 6):
            vs = [v for v in range(1, 7) if code >> (v - 1) & 1]
            assert lettericity_exact(induced_subgraph(g, vs))[0] <= k


def _completable(adj, n, k, order, letters):
    # Whether the prefix (vertex order[i] with letter letters[i]) extends to
    # a lettering over at most k letters, by the solver's completion search.
    state = solver._Completion(adj, n, k)
    for v, c in zip(order, letters):
        state = state.placed(v, c)
        if state is None:
            return False
    return state.completable()


def test_completion_test_is_exact_on_every_visited_prefix():
    # Against the plain DFS reference: on every proper prefix that search
    # visits, the completion search says whether a full lettering lies
    # below it.
    dead = 0
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            adj = g.adjacency_masks()
            for k in range(n + 1):
                for (order, letters), expected in prefix_liveness(g, k).items():
                    if 0 < len(order) < n:
                        got = _completable(adj, n, k, order, letters)
                        assert got == expected, (g, k, order, letters)
                        dead += not expected
    assert dead > 0


def test_root_completion_test_decides_k():
    # The empty prefix: the completion search at the root passes iff the
    # plain DFS reference reaches a full lettering, for k = 0 too.
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            adj = g.adjacency_masks()
            for k in range(n + 1):
                expected = first_lettering(g, k) is not None
                assert solver._Completion(adj, n, k).completable() == expected, (g, k)


def test_placement_reaches_the_reference_prefixes():
    # Placing one vertex at a time from the empty state, vertices and then
    # letters ascending, reaches exactly the prefixes the plain DFS
    # reference reaches, in the same order.
    def reached(state):
        yield tuple(state.order), tuple(state.letters)
        for child in state.children():
            yield from reached(child)

    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            adj = g.adjacency_masks()
            for k in range(n + 1):
                got = list(reached(solver._Completion(adj, n, k)))
                assert got == list(dfs_prefixes(g, k)), (g, k)


def _first(g, k):
    w = is_k_letterable(g, k)
    return None if w is None else (w.vertex_of_position, w.lettering.word, w.lettering.decoder.pairs)


def _reference_pairs(g, order, letters):
    # A reference lettering's decoder: every letter pair the word realizes
    # as an edge.
    return frozenset(
        (letters[i], letters[j])
        for j in range(g.n)
        for i in range(j)
        if g.has_edge(order[i], order[j])
    )


def _reference_first(g, k):
    first = first_lettering(g, k)
    if first is None:
        return None
    order, letters = first
    return order, letters, _reference_pairs(g, order, letters)


def test_walk_finds_the_first_lettering():
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            for k in range(n + 1):
                assert _first(g, k) == _reference_first(g, k), (g, k)


@settings(max_examples=80, deadline=None)
@given(small_graphs(max_n=7), st.integers(0, 7))
def test_walk_finds_the_first_lettering_of_labelled_graphs(g, k):
    k = min(k, g.n)
    assert _first(g, k) == _reference_first(g, k)


def test_walk_fails_loudly_past_a_wrong_completion_answer(monkeypatch):
    # A completion search that passes every prefix leads the walk into dead
    # ones. P_7 has no 2-lettering, so the walk must raise, not return one.
    monkeypatch.setattr(solver._Completion, "completable", lambda self: True)
    with pytest.raises(RuntimeError, match="internal error"):
        is_k_letterable(path_graph(7), 2)


def test_infeasible_k_costs_one_completion_call(monkeypatch):
    completable = solver._Completion.completable
    calls = []

    def counted(state):
        calls.append(state)
        return completable(state)

    monkeypatch.setattr(solver._Completion, "completable", counted)
    assert is_k_letterable(path_graph(7), 2) is None
    assert is_k_letterable(matching_graph(4), 3) is None
    assert len(calls) == 2


def test_enumeration_matches_the_reference_dfs():
    # Against the plain DFS reference: the words of its full prefixes that
    # use all k letters, each with the vertex order the reference reaches
    # first and the decoder of the pairs that order realizes as edges.
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            for k in range(1, n + 1):
                first = {}
                for order, letters in dfs_prefixes(g, k):
                    if len(order) == n and max(letters) == k:
                        first.setdefault(letters, order)
                result = enumerate_letterings(g, k)
                assert [w.lettering.word for w in result.witnesses] == sorted(first), (g, k)
                for w in result.witnesses:
                    order = first[w.lettering.word]
                    assert w.vertex_of_position == order, (g, k, w)
                    expected = Decoder(k, _reference_pairs(g, order, w.lettering.word))
                    assert w.lettering.decoder == expected, (g, k, w)


def _relabel(g, rng):
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return Graph(g.n, frozenset((perm[u - 1], perm[v - 1]) for u, v in g.edges))


def test_orbit_skips_match_brute_force_orbits():
    # Every automorphism of g from all n! permutations; for each placed
    # set, v is skipped iff an automorphism fixing the placed vertices
    # sends a smaller unplaced vertex to v.
    rng = random.Random(5)
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            g = _relabel(g, rng)
            autos = [
                (0,) + p
                for p in permutations(range(1, n + 1))
                if frozenset(
                    (min(p[u - 1], p[v - 1]), max(p[u - 1], p[v - 1])) for u, v in g.edges
                )
                == g.edges
            ]
            adj = g.adjacency_masks()
            for placed in range(0, 1 << (n + 1), 2):
                expected = 0
                for sigma in autos:
                    if all(sigma[p] == p for p in range(1, n + 1) if placed >> p & 1):
                        for u in range(1, n + 1):
                            if not placed >> u & 1 and sigma[u] > u:
                                expected |= 1 << sigma[u]
                assert solver._orbit_skips(adj, n, placed) == expected, (g, placed)


def test_orbit_pruning_keeps_every_enumeration(monkeypatch):
    # The orbit rule depends on vertex labels, so graphs are also tried
    # under seeded relabelings (at n = 6 only under one, for time).
    rng = random.Random(7)
    cases = []
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            labelings = [_relabel(g, rng)] if n == 6 else [g, _relabel(g, rng), _relabel(g, rng)]
            cases += [(h, k) for h in labelings for k in range(1, n + 1)]
    limits = (None, 0, 1, 3)
    pruned = [[enumerate_letterings(h, k, limit) for limit in limits] for h, k in cases]
    # The unpruned search reports every stabilizer trivial. A limit keeps
    # the first distinct words it finds, so the witnesses it builds, in
    # order, give its result under every limit.
    witness = solver._witness
    found = []

    def record(*args):
        found.append(witness(*args))
        return found[-1]

    monkeypatch.setattr(solver, "_orbit_skips", lambda adj, n, placed: 0)
    monkeypatch.setattr(solver, "_witness", record)
    for (h, k), results in zip(cases, pruned):
        found.clear()
        assert results[0] == enumerate_letterings(h, k), (h, k)
        for limit, result in zip(limits[1:], results[1:]):
            kept = sorted(found[:limit], key=lambda w: w.lettering.word)
            assert result == EnumerationResult(tuple(kept), len(found) > limit), (h, k, limit)


def test_first_witness_of_every_matching_word(monkeypatch):
    # 4K_2 has 384 automorphisms; the siblings they make skippable hold no
    # new word, so each word keeps the witness the full search finds first.
    pruned = enumerate_letterings(matching_graph(4), 4)
    monkeypatch.setattr(solver, "_orbit_skips", lambda adj, n, placed: 0)
    assert enumerate_letterings(matching_graph(4), 4) == pruned
