"""Exact search: decision, minimization, enumeration, and its guarantees."""

import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lettergraphs import (
    CapabilityError,
    Decoder,
    EnumerationResult,
    Graph,
    Lettering,
    audit_matching_letterings,
    decode,
    enumerate_letterings,
    is_k_letterable,
    lettericity_exact,
    matching_base_lettering,
    matching_canonical_lettering,
    matching_graph,
    matching_word_census,
    path_graph,
    path_lettericity,
    path_lettering,
    solver,
    verify_lettering,
)
from make_witness_corpus import CORPUS, corpus_graphs, corpus_line
from naive_oracle import (
    all_graphs_up_to_iso,
    dfs_prefixes,
    first_lettering,
    oracle_lettericity,
    prefix_liveness,
)
from strategies import graphs


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


def test_k_and_limit_must_be_integers():
    # An integral float is taken as its int; a fraction or a digit string
    # raises ValueError at the check, not a TypeError from the search.
    g = path_graph(5)
    assert is_k_letterable(g, 3.0) == is_k_letterable(g, 3)
    assert enumerate_letterings(g, 3.0, 2.0) == enumerate_letterings(g, 3, 2)
    for call in (
        lambda: is_k_letterable(g, 2.5),
        lambda: is_k_letterable(g, "3"),
        lambda: enumerate_letterings(g, 2.5),
        lambda: enumerate_letterings(g, "3"),
        lambda: enumerate_letterings(g, 3, 1.5),
        lambda: enumerate_letterings(g, 3, "1"),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            call()


def test_sizes_must_be_integers():
    # The builders, closed forms and audits take an integral float as its
    # int, and raise ValueError for a fraction or a string instead of
    # truncating it or failing in range.
    for f, size in (
        (path_lettericity, 7),
        (path_graph, 3),
        (path_lettering, 7),
        (matching_graph, 2),
        (matching_base_lettering, 2),
        (matching_canonical_lettering, 2),
        (matching_word_census, 2),
        (lambda r: audit_matching_letterings(r, 2), 2),
    ):
        assert f(float(size)) == f(size)
        for bad in (size + 0.5, str(size)):
            with pytest.raises(ValueError, match="must be an integer"):
                f(bad)


def test_agrees_with_naive_oracle_up_to_four_vertices():
    for n in range(1, 5):
        for g in all_graphs_up_to_iso(n):
            assert lettericity_exact(g)[0] == oracle_lettericity(g)


@settings(max_examples=60)
@given(graphs(min_n=1, max_n=6), st.integers(1, 6))
def test_witnesses_are_sound(g, k):
    w = is_k_letterable(g, min(k, g.n))
    if w is not None:
        assert verify_lettering(w.lettering, g, w.vertex_of_position)
        assert w.lettering.alphabet_size <= min(k, g.n)


@settings(max_examples=60)
@given(graphs(min_n=1, max_n=6))
def test_letterable_stays_letterable_with_more_letters(g):
    k, _ = lettericity_exact(g)
    for bigger in range(k, g.n + 1):
        assert is_k_letterable(g, bigger) is not None
    for smaller in range(1, k):
        assert is_k_letterable(g, smaller) is None


@settings(max_examples=40)
@given(graphs(min_n=1, max_n=5), st.randoms(use_true_random=False))
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


def _root(k):
    # The empty prefix as _placements keeps it: (order, letters, group,
    # known, edge).
    return (), (), [0] * (k + 1), [0] * (k + 1), [0] * (k + 1)


def _m_unplaced(n, prefix):
    # The largest letter of prefix and the mask of the vertices it leaves unplaced.
    order, letters = prefix[:2]
    return max(letters, default=0), (2 << n) - 2 - sum(1 << v for v in order)


def _children(adj, n, k, prefix):
    # Each next prefix, in the order _placements gives them: v ascending,
    # then c up to the next fresh letter. A child is a fresh copy of the
    # lists _placements holds while it yields the placement.
    order, letters, group, known, edge = prefix
    m, unplaced = _m_unplaced(n, prefix)
    for v, c in solver._placements(adj, k, m, unplaced, group, known, edge):
        yield order + (v,), letters + (c,), group[:], known[:], edge[:]


def _prefixes(adj, n, k, prefix):
    # Every prefix _placements reaches from prefix, itself first, depth first.
    yield prefix
    for child in _children(adj, n, k, prefix):
        yield from _prefixes(adj, n, k, child)


def _state(adj, n, k, prefix=None):
    # The class form the walk builds from prefix for one completion search;
    # the root without one.
    order, _, group, known, edge = prefix or _root(k)
    return solver._Completion(adj, n, k, order, group, known, edge)


def test_completion_test_is_exact_on_every_visited_prefix():
    # Against the plain DFS reference: on every proper prefix that search
    # visits, the completion search says whether a full lettering lies
    # below it. Every graph with n <= 5 at every k, then seeded random graphs
    # on 6 and 7 vertices at small k, where classes often hold two members,
    # so some prefixes leave an unplaced vertex seeing a class partly, which
    # the search must refuse without the walk's forward check.
    cases = [(g, k) for n in range(1, 6) for g in all_graphs_up_to_iso(n) for k in range(n + 1)]
    rng = random.Random(19)
    for n, p in ((6, 0.3), (6, 0.5), (6, 0.7), (7, 0.4), (7, 0.6)):
        g = Graph(n, frozenset(e for e in combinations(range(1, n + 1), 2) if rng.random() < p))
        cases += [(g, k) for k in ((2, 3, 4) if n == 6 else (2, 3))]
    dead = fired = 0
    for g, k in cases:
        n, adj = g.n, g.adjacency_masks()
        liveness = prefix_liveness(g, k)
        prefixes = list(_prefixes(adj, n, k, _root(k)))
        assert len(prefixes) == len(liveness), (g, k)
        for prefix in prefixes:
            order, letters = prefix[:2]
            expected = liveness[order, letters]
            if 0 < len(order) < n:
                got = _state(adj, n, k, prefix).completable()
                assert got == expected, (g, k, order, letters)
                dead += not expected
                if n > 5:
                    left = [u for u in range(1, n + 1) if u not in order]
                    fired += any(0 != adj[u] & cm != cm for u in left for cm in prefix[2])
    assert dead > 0 and fired > 0


def _forward_check(state):
    # The walk's forward check, spelled out: every unplaced vertex sees
    # each class of two or more members all or nothing.
    adj = state.adj
    return all(adj[u] & cm in (0, cm) for cm in state.cls if cm & (cm - 1) for u in state.rest)


def test_steps_keep_exactly_the_children_that_pass_the_forward_check():
    # On every prefix the plain DFS reaches whose own forward check holds
    # (the only prefixes the walk extends), _steps keeps exactly the
    # placements of _placements whose child passes the forward check, in
    # walk order. Every graph with n <= 5 at k <= 3, where classes often
    # hold two members, then seeded random graphs on 6 and 7 vertices.
    cases = [(g, k) for n in range(1, 6) for g in all_graphs_up_to_iso(n) for k in range(min(n, 3) + 1)]
    rng = random.Random(23)
    for n, p in ((6, 0.3), (6, 0.5), (6, 0.7), (7, 0.4), (7, 0.6)):
        g = Graph(n, frozenset(e for e in combinations(range(1, n + 1), 2) if rng.random() < p))
        cases += [(g, k) for k in (2, 3)]
    dropped = 0

    def visit(prefix):
        nonlocal dropped
        m, unplaced = _m_unplaced(n, prefix)
        steps = list(solver._steps(adj, k, m, unplaced, *prefix[2:]))
        passing = []
        for child in _children(adj, n, k, prefix):
            if _forward_check(_state(adj, n, k, child)):
                passing.append(child)
            else:
                dropped += 1
        assert steps == [(p[0][-1], p[1][-1]) for p in passing], prefix[:2]
        for child in passing:
            visit(child)

    for g, k in cases:
        n, adj = g.n, g.adjacency_masks()
        visit(_root(k))
    assert dropped > 0


def test_placements_make_and_undo_each_placement():
    # On every prefix of every graph with n <= 5 at every k: while
    # _placements yields (v, c), its lists hold the child prefix, v in class
    # c, known[c] letters 1..m and edge[c] the classes v sees in full; once
    # it moves on or ends they are as before; a caller that breaks at a
    # placement keeps it.
    kept = 0
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            adj = g.adjacency_masks()
            for k in range(n + 1):
                for prefix in _prefixes(adj, n, k, _root(k)):
                    lists = [x[:] for x in prefix[2:]]
                    before = [x[:] for x in lists]
                    m, unplaced = _m_unplaced(n, prefix)
                    children = []
                    for v, c in solver._placements(adj, k, m, unplaced, *lists):
                        group, known, edge = (x[:] for x in before)
                        edge[c] = sum(1 << a for a in range(1, m + 1) if adj[v] & group[a] == group[a])
                        known[c] = (2 << m) - 2
                        group[c] |= 1 << v
                        assert lists == [group, known, edge], (g, k, prefix[:2], v, c)
                        children.append([x[:] for x in lists])
                    assert lists == before, (g, k, prefix[:2])
                    for i, child in enumerate(children):
                        placements = solver._placements(adj, k, m, unplaced, *lists)
                        for _ in range(i + 1):
                            next(placements)
                        del placements  # the caller stops iterating here
                        assert lists == child, (g, k, prefix[:2], i)
                        lists = [x[:] for x in before]
                        kept += 1
    assert kept > 1000


def test_root_completion_test_decides_k():
    # The empty prefix: the completion search at the root passes iff the
    # plain DFS reference reaches a full lettering, for k = 0 too. Every
    # graph with n <= 6, since the root search tries one orientation of its
    # first mixed pair only.
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            adj = g.adjacency_masks()
            for k in range(n + 1):
                expected = first_lettering(g, k) is not None
                assert _state(adj, n, k).completable() == expected, (g, k)


def test_placement_reaches_the_reference_prefixes():
    # Placing one vertex at a time from the empty prefix, vertices and then
    # letters ascending, reaches exactly the prefixes the plain DFS
    # reference reaches, in the same order. Every unoriented pair of
    # nonempty classes in the class form of each is flat: all members of
    # one class see the other alike, all of it or none of it.
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            adj = g.adjacency_masks()
            for k in range(n + 1):
                got = []
                for prefix in _prefixes(adj, n, k, _root(k)):
                    state = _state(adj, n, k, prefix)
                    cls, w = state.cls, state.w
                    assert all(
                        {adj[x] & bm for x in range(1, n + 1) if am >> x & 1} in ({0}, {bm})
                        for a, am in enumerate(cls)
                        for b, bm in enumerate(cls)
                        if a != b and am and bm and not state.pair[a * w + b]
                    ), (g, k, prefix[:2])
                    got.append(prefix[:2])
                assert got == list(dfs_prefixes(g, k)), (g, k)


def _completion_word(g, completion):
    # A word from a recorded completion: the vertices in a linear extension
    # of its precedence (the smallest vertex with no earlier one left first),
    # each under its class, classes numbered by first use.
    cls, reach = completion
    left, order, number, letters = set(range(1, g.n + 1)), [], {}, []
    while left:
        v = min(u for u in left if not any(reach[w] >> u & 1 for w in left))
        left.remove(v)
        order.append(v)
        c = next(c for c, cm in enumerate(cls) if cm >> v & 1)
        letters.append(number.setdefault(c, len(number) + 1))
    return tuple(order), tuple(letters)


def _assert_completion_letters(g, k, completion, prefix=((), ())):
    # The completion gives a lettering of g over at most k letters whose
    # word starts with the prefix (order, letters) it was recorded for.
    order, letters = _completion_word(g, completion)
    lettering = Lettering(letters, Decoder(max(letters), _reference_pairs(g, order, letters)))
    assert verify_lettering(lettering, g, order), (g, k, prefix)
    assert lettering.alphabet_size <= k
    depth = len(prefix[0])
    assert (order[:depth], letters[:depth]) == prefix


def _transposed(reach):
    # The precedence read backwards: u comes after v iff v came after u.
    return [sum(1 << u for u, r in enumerate(reach) if r >> v & 1) for v in range(len(reach))]


def test_recorded_completion_is_a_lettering():
    # A root completion read backwards is a lettering too (the word reversed
    # under the transposed decoder), the mirror that lets the root search
    # try one orientation of its first mixed pair.
    for n in range(1, 6):
        for g in all_graphs_up_to_iso(n):
            for k in range(n + 1):
                root = _state(g.adjacency_masks(), n, k)
                if root.completable():
                    _assert_completion_letters(g, k, root.completion)
                    cls, reach = root.completion
                    _assert_completion_letters(g, k, (cls, _transposed(reach)))
                else:
                    assert root.completion is None


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=1, max_n=7), st.integers(1, 7))
def test_recorded_completion_is_a_lettering_of_labelled_graphs(g, k):
    # Also below the root: along the walk, each first child whose search
    # passes records a completion that keeps its prefix.
    n, adj, k = g.n, g.adjacency_masks(), min(k, g.n)
    state, prefix = _state(adj, n, k), _root(k)
    if state.completable():
        _assert_completion_letters(g, k, state.completion)
        while len(prefix[0]) < n:
            state, prefix = next(
                (state, child)
                for child in _children(adj, n, k, prefix)
                for state in [_state(adj, n, k, child)]
                if state.completable()
            )
            _assert_completion_letters(g, k, state.completion, prefix[:2])


def _closure(n, arcs):
    # reach[u]: every vertex some path of arcs leads to from u, by relaxing
    # until nothing grows. A vertex in its own mask lies on a cycle.
    reach = [0] * (n + 1)
    for u, v in arcs:
        reach[u] |= 1 << v
    grown = True
    while grown:
        grown = False
        for u in range(1, n + 1):
            wider = reach[u]
            for v in range(1, n + 1):
                if reach[u] >> v & 1:
                    wider |= reach[v]
            if wider != reach[u]:
                reach[u], grown = wider, True
    return reach


def test_closure_steps_match_a_brute_force_closure():
    # Seeded random face and orient steps on one growing precedence: each
    # returns False exactly when its arcs would close a cycle, a refused
    # face step leaves reach as it was, and after every accepted step reach
    # is the transitive closure of all arcs accepted so far.
    rng = random.Random(3)
    outcomes = {True: 0, False: 0}
    swapped = {True: 0, False: 0}  # orient steps over class b, or over c
    for _ in range(400):
        n, k = rng.randint(2, 12), rng.randint(2, 4)
        adj = [0] * (n + 1)
        for u, v in combinations(range(1, n + 1), 2):
            if rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        state = _state(adj, n, k)
        classes = [0] + [rng.randint(1, k) for _ in range(n)]
        state.cls = [sum(1 << v for v in range(1, n + 1) if classes[v] == c) for c in range(k + 1)]
        arcs, reach = set(), [0] * (n + 1)
        for _ in range(rng.randint(1, 2 * n)):
            kept = reach[:]
            if rng.random() < 0.5:
                x = rng.randint(1, n)
                side = [0] + [rng.choice((0, 0, 1, 2)) if v != x else 0 for v in range(1, n + 1)]
                pre = sum(1 << v for v in range(1, n + 1) if side[v] == 1)
                post = sum(1 << v for v in range(1, n + 1) if side[v] == 2)
                new = {(v, x) for v in range(1, n + 1) if side[v] == 1}
                new |= {(x, v) for v in range(1, n + 1) if side[v] == 2}
                ok = solver._face(reach, x, pre, post)
                if not ok:
                    assert reach == kept
            else:
                c, b = rng.sample(range(1, k + 1), 2)
                state_cb = rng.choice((solver._FIRST, solver._SECOND))
                new = set()
                for x in range(1, n + 1):
                    for y in range(1, n + 1):
                        if classes[x] == c and classes[y] == b:
                            # _FIRST: adjacent iff x comes first.
                            x_first = bool(adj[x] >> y & 1) == (state_cb == solver._FIRST)
                            new.add((x, y) if x_first else (y, x))
                ok = state.orient(c, b, state_cb, reach)
                swapped[state.cls[b].bit_count() < state.cls[c].bit_count()] += 1
            closed = _closure(n, arcs | new)
            assert ok == all(not closed[u] >> u & 1 for u in range(1, n + 1))
            outcomes[ok] += 1
            if ok:
                arcs |= new
                assert reach == closed
            else:
                reach = kept
    assert min(outcomes.values()) > 200, outcomes
    assert min(swapped.values()) > 100, swapped


# Witnesses past the benchmark goldens (which stop at P_9, 4K_2 and random
# graphs on 8 vertices), pinned from the solver before its precedence
# became one closure step per vertex: k, word, decoder pairs and
# vertex_of_position, each the first lettering in search order.
WITNESS_PINS = {
    "P_13": (
        5,
        (1, 2, 3, 1, 2, 4, 3, 1, 5, 4, 3, 5, 4),
        {(1, 2), (3, 1), (4, 3), (5, 4)},
        (2, 1, 5, 4, 3, 8, 7, 6, 11, 10, 9, 13, 12),
    ),
    "P_14": (
        6,
        (1, 2, 1, 3, 2, 4, 5, 3, 2, 6, 5, 3, 6, 5),
        {(1, 1), (2, 1), (2, 4), (3, 2), (5, 3), (6, 5)},
        (1, 3, 2, 6, 5, 4, 9, 8, 7, 12, 11, 10, 14, 13),
    ),
    "P_15": (
        6,
        (1, 2, 1, 3, 4, 2, 1, 5, 4, 2, 6, 5, 4, 6, 5),
        {(1, 3), (2, 1), (4, 2), (5, 4), (6, 5)},
        (1, 4, 3, 2, 7, 6, 5, 10, 9, 8, 13, 12, 11, 15, 14),
    ),
    "P_16": (
        6,
        (1, 2, 3, 1, 2, 4, 3, 1, 5, 4, 3, 6, 5, 4, 6, 5),
        {(1, 2), (3, 1), (4, 3), (5, 4), (6, 5)},
        (2, 1, 5, 4, 3, 8, 7, 6, 11, 10, 9, 14, 13, 12, 16, 15),
    ),
    "5K_2": (
        5,
        (1, 1, 2, 2, 3, 3, 4, 4, 5, 5),
        {(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)},
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
    ),
    "6K_2": (
        6,
        (1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6),
        {(1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)},
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12),
    ),
    "co-P_10": (
        4,
        (1, 2, 3, 1, 2, 4, 3, 1, 4, 3),
        {(1, 1), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 1), (4, 4)},
        (2, 1, 5, 4, 3, 8, 7, 6, 10, 9),
    ),
}


@pytest.mark.parametrize("name", list(WITNESS_PINS))
def test_lettericity_witness_is_pinned(name):
    graphs = {f"P_{n}": path_graph(n) for n in range(13, 17)}
    graphs.update({"5K_2": matching_graph(5), "6K_2": matching_graph(6)})
    graphs["co-P_10"] = Graph(10, frozenset(combinations(range(1, 11), 2)) - path_graph(10).edges)
    k, w = solver._lettericity(graphs[name])
    got = (k, w.lettering.word, w.lettering.decoder.pairs, w.vertex_of_position)
    assert got == WITNESS_PINS[name]
    assert w.lettering.decoder.alphabet_size == k


def test_first_witnesses_match_the_corpus():
    # Every line of the file: the graph, then lettericity_exact's k, word,
    # decoder and map on it (make_witness_corpus.py wrote them).
    pinned = CORPUS.read_text().splitlines()
    got = [corpus_line(name, g) for name, g in corpus_graphs()]
    assert len(got) == len(pinned)
    differ = [(want, line) for want, line in zip(pinned, got) if want != line]
    assert not differ, (
        f"{len(differ)} lines differ, first {differ[0][0].split()[0]}:\n{differ[0][0]}\n{differ[0][1]}"
    )


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
@given(graphs(min_n=1, max_n=7), st.integers(0, 7))
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


def test_walk_completion_searches_are_pinned(monkeypatch):
    # The root search plus the walk's searches, and how many of them search
    # (place at i = 0). Without the carried completion P_9, P_10 and 4K_2
    # take 27, 32 and 9 searches. The walk builds a class form only for a
    # search, after the forward check, so every _Completion built is
    # searched. The last two take their first step from the mirror of the
    # root's completion, whose first vertex is smaller; from the root's
    # completion itself they take 3 and 7.
    completable, place, init = solver._Completion.completable, solver._Completion.place, solver._Completion.__init__
    calls, searched, built = [], [], []

    def counted(state):
        calls.append(state)
        return completable(state)

    def counted_place(state, i, m, reach):
        if i == 0:
            searched.append(state)
        return place(state, i, m, reach)

    def counted_init(state, *args):
        built.append(state)
        init(state, *args)

    monkeypatch.setattr(solver._Completion, "completable", counted)
    monkeypatch.setattr(solver._Completion, "place", counted_place)
    monkeypatch.setattr(solver._Completion, "__init__", counted_init)
    co_g8 = Graph(8, frozenset(combinations(range(1, 9), 2)) - {
        (2, 3), (2, 5), (2, 7), (3, 5), (3, 8), (4, 8), (5, 6), (5, 7), (5, 8), (6, 8)
    })
    for g, k, expected in (
        (path_graph(9), 4, (7, 7)),
        (path_graph(10), 4, (7, 7)),
        (matching_graph(4), 4, (1, 1)),
        (Graph(4, {(1, 4)}), 2, (2, 2)),
        (co_g8, 4, (6, 6)),
    ):
        calls.clear()
        searched.clear()
        built.clear()
        assert is_k_letterable(g, k) is not None
        assert (len(calls), len(searched)) == expected, g
        assert built == searched, g


def test_root_refutation_searches_are_pinned(monkeypatch):
    # Every place call of the one root search that rejects k. Trying both
    # orientations of the root's first mixed pair took 2,880, 4,200 and 78.
    place, calls = solver._Completion.place, []

    def counted(state, i, m, reach):
        calls.append(i)
        return place(state, i, m, reach)

    monkeypatch.setattr(solver._Completion, "place", counted)
    for g, k, expected in (
        (path_graph(14), 5, 1444),
        (matching_graph(6), 5, 2116),
        (path_graph(9), 3, 42),
    ):
        calls.clear()
        assert solver._first_witness(g, k) is None
        assert len(calls) == expected, g


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
