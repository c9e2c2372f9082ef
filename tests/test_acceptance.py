"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured runtime. Budgets are asserted where the criterion states one.
"""

import math
import random
import time

from lettergraphs import (
    Decoder,
    Graph,
    Lettering,
    check_betweenness,
    complement_decoder,
    count_matching_words,
    decode,
    enumerate_letterings,
    format_lettering,
    induced_subgraph,
    is_k_letterable,
    is_path,
    lettericity_exact,
    matching_graph,
    matching_word_census,
    parse_edge_list,
    parse_lettering,
    path_graph,
    path_lettericity,
    path_lettering,
    serialize_edge_list,
    subword,
    verify_lettering,
)
from lettergraphs.solver import _lettericity
from naive_oracle import all_graphs_up_to_iso, oracle_lettericity
from strategies import complement_graph

CASES_PER_PROPERTY = 10_000


def _report(num: int, desc: str, t0: float) -> None:
    print(f"ACCEPTANCE {num} PASS: {desc} [{time.time() - t0:.2f}s]")


def test_criterion_1_path_construction_sweep():
    t0 = time.time()
    for n in range(3, 201):
        lt = path_lettering(n)
        g = decode(lt)
        assert g.n == n
        assert is_path(g) is not None
        assert lt.alphabet_size == path_lettericity(n) == (n + 4) // 3
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"construction sweep took {elapsed:.2f}s, budget 1s"
    _report(1, "path letterings n=3..200 decode to paths at floor((n+4)/3) letters", t0)


def test_criterion_2_exact_path_lettericity():
    # The unbounded core certifies past the interactive VERTEX_LIMIT.
    t0 = time.time()
    for n in range(3, 21):
        k, w = _lettericity(path_graph(n))
        assert k == (n + 4) // 3, f"P_{n}: solver {k}"
        assert verify_lettering(w.lettering, path_graph(n), w.vertex_of_position)
    assert is_k_letterable(path_graph(7), 2) is None
    elapsed = time.time() - t0
    assert elapsed < 300, f"exact sweep took {elapsed:.1f}s, budget 300s"
    _report(2, "exact solver matches floor((n+4)/3) for P_3..P_20; P_7 needs 3 letters", t0)


def test_criterion_3_matching_lettericity():
    t0 = time.time()
    for r in range(1, 9):
        k, w = _lettericity(matching_graph(r))
        assert k == r, f"{r}K_2: solver {k}"
        assert verify_lettering(w.lettering, matching_graph(r), w.vertex_of_position)
    elapsed = time.time() - t0
    assert elapsed < 60, f"matching sweep took {elapsed:.1f}s, budget 60s"
    _report(3, "lettericity of rK_2 is r for r = 1..8", t0)


def test_criterion_4_minimum_matching_letterings_pair_edges():
    t0 = time.time()
    for r in range(1, 4):
        witnesses = enumerate_letterings(matching_graph(r), r).witnesses
        assert witnesses
        for w in witnesses:
            word = w.lettering.word
            decoded = decode(w.lettering)
            for a in set(word):
                ps = [p for p, b in enumerate(word, start=1) if b == a]
                assert len(ps) == 2
                assert decoded.has_edge(ps[0], ps[1])
                assert (a, a) in w.lettering.decoder.pairs
    _report(4, "every r-letter lettering of rK_2 pairs each letter on one edge with (a,a) in D", t0)


def test_criterion_5_no_letter_three_times():
    t0 = time.time()
    for r in range(1, 4):
        for k in range(1, 2 * r + 1):
            for w in enumerate_letterings(matching_graph(r), k).witnesses:
                word = w.lettering.word
                assert max(word.count(a) for a in set(word)) <= 2
    _report(5, "no lettering of rK_2 (r <= 3, any k) uses a letter three times", t0)


def test_criterion_6_word_counts_both_conventions():
    t0 = time.time()
    expected_fixed = {1: 1, 2: 6, 3: 90}
    lines = []
    for r in range(1, 4):
        census = matching_word_census(r)
        assert count_matching_words(r) == census.fixed_alphabet_count
        assert census.fixed_alphabet_count == expected_fixed[r]
        assert census.fixed_alphabet_count == math.factorial(2 * r) // 2**r
        assert census.canonical_count == math.factorial(2 * r) // (2**r * math.factorial(r))
        assert census.fixed_alphabet_count == census.canonical_count * math.factorial(r)
        lines.append(
            f"r={r}: fixed={census.fixed_alphabet_count} canonical={census.canonical_count}"
        )
    _report(6, "matching word counts 1, 6, 90 (fixed alphabet); " + "; ".join(lines), t0)


def test_criterion_6b_canonical_matching_words_past_the_census():
    # The census brute force stops at r = 3; enumeration counts the
    # canonical words of rK_2 at k = r further: (2r-1)!! of them.
    t0 = time.time()
    counts = [len(enumerate_letterings(matching_graph(r), r).witnesses) for r in range(1, 6)]
    assert counts == [math.prod(range(1, 2 * r, 2)) for r in range(1, 6)] == [1, 3, 15, 105, 945]
    elapsed = time.time() - t0
    assert elapsed < 10, f"matching enumeration took {elapsed:.1f}s, budget 10s"
    _report(6, "canonical words of rK_2 at k = r number 1, 3, 15, 105, 945 = (2r-1)!! for r = 1..5", t0)


def test_criterion_7_solver_matches_naive_oracle():
    t0 = time.time()
    per_n = {}
    for n in range(1, 6):
        graphs = all_graphs_up_to_iso(n)
        per_n[n] = len(graphs)
        for g in graphs:
            assert lettericity_exact(g)[0] == oracle_lettericity(g), g
    assert per_n == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    elapsed = time.time() - t0
    assert elapsed < 600, f"oracle sweep took {elapsed:.1f}s, budget 600s"
    _report(7, "solver agrees with the naive all-words-all-decoders oracle on all 52 graphs with n <= 5", t0)


# --- criterion 8: property suites, >= 10^4 randomized cases each ------------


def _random_lettering(rng, max_n=8, max_k=4):
    k = rng.randint(1, max_k)
    n = rng.randint(0, max_n)
    word = tuple(rng.randint(1, k) for _ in range(n))
    pairs = frozenset(
        (a, b)
        for a in range(1, k + 1)
        for b in range(1, k + 1)
        if rng.random() < 0.5
    )
    return Lettering(word, Decoder(k, pairs))


def _random_graph(rng, max_n=6, min_n=0):
    n = rng.randint(min_n, max_n)
    edges = frozenset(
        (u, v)
        for u in range(1, n)
        for v in range(u + 1, n + 1)
        if rng.random() < 0.45
    )
    return Graph(n, edges)


def test_criterion_8a_complement_duality():
    t0 = time.time()
    rng = random.Random(801)
    for _ in range(CASES_PER_PROPERTY):
        lt = _random_lettering(rng)
        flipped = Lettering(lt.word, complement_decoder(lt.decoder))
        assert decode(flipped) == complement_graph(decode(lt))
    _report(8, f"complement duality holds on {CASES_PER_PROPERTY} random letterings", t0)


def test_criterion_8b_subword_commutation():
    t0 = time.time()
    rng = random.Random(802)
    for _ in range(CASES_PER_PROPERTY):
        lt = _random_lettering(rng)
        n = len(lt.word)
        positions = [p for p in range(1, n + 1) if rng.random() < 0.5]
        sub = Lettering(subword(lt.word, positions), lt.decoder)
        assert decode(sub) == induced_subgraph(decode(lt), positions)
    _report(8, f"subword decode equals induced subgraph on {CASES_PER_PROPERTY} random cases", t0)


def test_criterion_8c_betweenness():
    t0 = time.time()
    rng = random.Random(803)
    for _ in range(CASES_PER_PROPERTY):
        assert check_betweenness(_random_lettering(rng)) == []
    _report(8, f"betweenness violations absent on {CASES_PER_PROPERTY} random letterings", t0)


def test_criterion_8d_serialization_round_trips():
    t0 = time.time()
    rng = random.Random(804)
    for _ in range(CASES_PER_PROPERTY):
        lt = _random_lettering(rng)
        assert parse_lettering(format_lettering(lt)) == lt
        g = _random_graph(rng, max_n=8)
        assert parse_edge_list(serialize_edge_list(g)) == g
    _report(8, f"lettering and edge-list round-trips hold on {CASES_PER_PROPERTY} random cases each", t0)


def test_criterion_8e_witness_soundness():
    t0 = time.time()
    rng = random.Random(805)
    verified = 0
    for _ in range(CASES_PER_PROPERTY):
        g = _random_graph(rng, min_n=1)
        k = rng.randint(1, g.n)
        w = is_k_letterable(g, k)
        if w is not None:
            assert verify_lettering(w.lettering, g, w.vertex_of_position)
            assert w.lettering.alphabet_size <= k
            verified += 1
    assert verified > CASES_PER_PROPERTY // 2
    _report(8, f"solver witnesses re-verify on {CASES_PER_PROPERTY} random instances ({verified} witnesses)", t0)
