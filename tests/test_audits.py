"""Betweenness, matching-lettering audits, and the word census."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lettergraphs import (
    CapabilityError,
    Decoder,
    Graph,
    Lettering,
    audits,
    audit_matching_letterings,
    check_betweenness,
    count_matching_words,
    enumerate_letterings,
    matching_graph,
    matching_word_census,
    path_lettering,
)
from lettergraphs.audits import _audit_matching_letterings


@st.composite
def letterings(draw, max_n=8, max_k=4):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(0, max_n))
    word = tuple(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    all_pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
    pairs = frozenset(draw(st.sets(st.sampled_from(all_pairs))))
    return Lettering(word, Decoder(k, pairs))


def test_betweenness_examples():
    assert check_betweenness(Lettering((1, 2, 1), Decoder(2, frozenset({(1, 2), (2, 1)})))) == []
    assert check_betweenness(path_lettering(7)) == []
    assert check_betweenness(Lettering((), Decoder(0))) == []
    # a distinguisher inside the gap is fine and reports nothing
    assert check_betweenness(Lettering((1, 2, 1), Decoder(2, frozenset({(1, 2)})))) == []


@given(letterings())
def test_betweenness_never_violated(lt):
    assert check_betweenness(lt) == []


def _betweenness_reference(lettering, g):
    # The per-vertex loop: for each same-letter pair (i, k), by letter and
    # then position pair, every j adjacent to exactly one of them that does
    # not lie strictly between them.
    w = lettering.word
    adj = g.adjacency_masks()
    by_letter = {}
    for i, a in enumerate(w, start=1):
        by_letter.setdefault(a, []).append(i)
    out = []
    for a in sorted(by_letter):
        ps = by_letter[a]
        for x in range(len(ps)):
            for y in range(x + 1, len(ps)):
                i, k = ps[x], ps[y]
                for j in range(1, len(w) + 1):
                    if j == i or j == k:
                        continue
                    if (adj[i] >> j & 1) != (adj[k] >> j & 1) and not i < j < k:
                        out.append((i, j, k))
    return out


def test_betweenness_matches_the_per_vertex_loop_on_any_graph(monkeypatch):
    # Decoded graphs never violate the rule, so the check is fed arbitrary
    # ones: every labelled graph with n <= 6 under a seeded random word,
    # each compared with the per-vertex loop, violations and order alike.
    rng = random.Random(8)
    fed = [None]  # the graph the next decode returns
    monkeypatch.setattr(audits, "decode", lambda lettering: fed[0])
    violations = 0
    for n in range(7):
        pairs = list(combinations(range(1, n + 1), 2))
        for code in range(1 << len(pairs)):
            fed[0] = Graph(n, frozenset(e for b, e in enumerate(pairs) if code >> b & 1))
            k = rng.randint(1, max(n - 1, 1))
            lettering = Lettering(tuple([rng.randint(1, k) for _ in range(n)]), Decoder(k))
            expected = _betweenness_reference(lettering, fed[0])
            assert check_betweenness(lettering) == expected, (fed[0], lettering.word)
            violations += len(expected)
    assert violations > 0


def test_audit_at_minimum_alphabet():
    for r, expect_count in [(1, 1), (2, 3), (3, 15)]:
        report = audit_matching_letterings(r, r)
        assert report.witness_count == expect_count
        assert report.max_letter_occurrences == 2
        assert report.edge_paired_fraction == 1.0
        assert report.ok()


def test_audit_above_minimum_alphabet():
    report = audit_matching_letterings(2, 3)
    assert report.witness_count == 6
    assert report.max_letter_occurrences == 2
    # a third letter forces two singleton letters, so no witness pairs all
    assert report.edge_paired_fraction == 0.0
    assert report.ok()
    assert audit_matching_letterings(2, 4).witness_count == 1


def test_audit_bounds():
    with pytest.raises(CapabilityError):
        audit_matching_letterings(4, 4)
    with pytest.raises(ValueError):
        audit_matching_letterings(2, 1)
    with pytest.raises(ValueError):
        audit_matching_letterings(2, 5)
    with pytest.raises(ValueError):
        audit_matching_letterings(0, 0)
    with pytest.raises(ValueError):
        audit_matching_letterings(-2, 1)


def test_audit_core_past_the_bound():
    # The public audit stops at AUDIT_MAX_PAIRS = 3; its core runs up to
    # the enumeration bound of 10 vertices.
    for r in (4, 5):
        for k in range(r, 2 * r + 1):
            report = _audit_matching_letterings(r, k)
            assert report.ok(), report
        assert _audit_matching_letterings(r, r).edge_paired_fraction == 1.0


def test_no_letter_occurs_three_times_in_any_matching_lettering():
    for r in (1, 2, 3):
        for k in range(1, 2 * r + 1):
            for w in enumerate_letterings(matching_graph(r), k).witnesses:
                word = w.lettering.word
                assert max(word.count(a) for a in set(word)) <= 2


def test_no_letter_occurs_three_times_even_for_four_pairs():
    res = enumerate_letterings(matching_graph(4), 4)
    assert len(res.witnesses) == 105
    for w in res.witnesses:
        word = w.lettering.word
        assert max(word.count(a) for a in set(word)) <= 2


def test_minimum_alphabet_letterings_self_code_every_letter():
    for r in (1, 2, 3):
        for w in enumerate_letterings(matching_graph(r), r).witnesses:
            for a in set(w.lettering.word):
                assert (a, a) in w.lettering.decoder.pairs


def test_word_census():
    for r, fixed, canonical in [(1, 1, 1), (2, 6, 3), (3, 90, 15)]:
        census = matching_word_census(r)
        assert census.fixed_alphabet_count == fixed
        assert census.canonical_count == canonical
        assert count_matching_words(r) == fixed
        # the two conventions differ by exactly the letter relabellings
        assert fixed == canonical * math.factorial(r)
        assert fixed == math.factorial(2 * r) // 2**r
        assert fixed * 2**r == math.factorial(2 * r)


def test_census_matches_solver_enumeration():
    for r in (1, 2, 3):
        solver_count = len(enumerate_letterings(matching_graph(r), r).witnesses)
        assert matching_word_census(r).canonical_count == solver_count


def test_census_bounds():
    with pytest.raises(CapabilityError):
        count_matching_words(4)
    # r < 1 is a domain error, not a bound
    with pytest.raises(ValueError):
        matching_word_census(0)
