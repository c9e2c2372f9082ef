"""Closed-form path and matching letterings."""

import copy
import pickle
from itertools import chain

import pytest

from lettergraphs import (
    Decoder,
    Graph,
    Lettering,
    decode,
    is_matching,
    is_path,
    matching_base_lettering,
    matching_canonical_lettering,
    matching_graph,
    path_lettericity,
    path_graph,
    path_lettering,
    verify_lettering,
)


def test_path_lettericity_values():
    assert path_lettericity(3) == 2
    assert path_lettericity(7) == 3
    assert path_lettericity(10) == 4
    assert path_lettericity(200) == 68
    for n, expect in [(3, 2), (4, 2), (5, 3), (6, 3), (7, 3), (8, 4), (9, 4), (10, 4)]:
        assert path_lettericity(n) == expect


def test_path_lettericity_rejects_small_n():
    for n in (2, 1, 0, -5):
        with pytest.raises(ValueError):
            path_lettericity(n)


def test_path_lettering_words():
    assert path_lettering(3).word == (2, 2, 1)
    assert path_lettering(4).word == (2, 1, 2, 1)
    assert path_lettering(5).word == (2, 3, 2, 1, 2)
    assert path_lettering(6).word == (2, 3, 2, 1, 3, 2)
    assert path_lettering(7).word == (2, 1, 3, 2, 1, 3, 2)
    assert path_lettering(7).decoder == Decoder(3, frozenset({(2, 1), (3, 2)}))
    assert path_lettering(10).word == (2, 1, 3, 2, 1, 4, 3, 2, 4, 3)


def test_path_lettering_matches_the_searched_construction():
    # The construction as first written: build the base word, then search
    # for the occurrences to drop.
    def reference(n):
        r = (n + 1) // 3
        word = [2, 1]
        for j in range(2, r + 1):
            word.extend((j + 1, j, j - 1))
        word.extend((r + 1, r))
        if n <= 3 * r:
            word.remove(1)
        if n == 3 * r - 1:
            del word[len(word) - 1 - word[::-1].index(r + 1)]
        return tuple(word), Decoder(r + 1, frozenset((j + 1, j) for j in range(1, r + 1)))

    for n in range(3, 301):
        lt = path_lettering(n)
        assert (lt.word, lt.decoder) == reference(n), n


def test_path_lettering_shares_letter_ints():
    lt = path_lettering(3000)
    first = {}
    assert all(first.setdefault(a, a) is a for a in lt.word)
    assert all(first[a] is a and first[b] is b for a, b in lt.decoder.pairs)


def test_path_certificate_is_the_decoded_graph(monkeypatch):
    # path_lettering's own certificate, verify_lettering and a later decode
    # share one decoding.
    target = path_graph(500)  # built before counting: path_graph uses the same constructor
    built = []
    from_endpoints = Graph._from_endpoints.__func__

    def counting(cls, n, tails, heads):
        built.append(n)
        return from_endpoints(cls, n, tails, heads)

    monkeypatch.setattr(Graph, "_from_endpoints", classmethod(counting))
    lt = path_lettering(500)
    assert verify_lettering(lt, target)
    g = decode(lt)
    assert built == [500]
    assert is_path(g) is not None


def test_path_certificate_walks_the_decoded_graph_once(monkeypatch):
    # The certificate's shape pass is kept on the decoded graph, and
    # path_graph records its shape, so verify_lettering and a later decode
    # walk neither graph again.
    target = path_graph(500)
    walked = []
    degrees_and_xors = Graph._degrees_and_xors

    def counting(g):
        walked.append(g)
        return degrees_and_xors(g)

    monkeypatch.setattr(Graph, "_degrees_and_xors", counting)
    lt = path_lettering(500)
    assert verify_lettering(lt, target)
    g = decode(lt)
    assert len(walked) == 1 and walked[0] is g


def test_is_path_reads_one_degree_pass(monkeypatch):
    # is_path builds the degree and neighbor-XOR lists once and walks them:
    # on a freshly decoded path (no shape kept yet), on one whose shape is
    # recorded, and on a path plus a cycle with n - 1 edges, which only the
    # walk rejects.
    lt = path_lettering(500)
    walked = []
    degrees_and_xors = Graph._degrees_and_xors

    def counting(g):
        walked.append(g)
        return degrees_and_xors(g)

    monkeypatch.setattr(Graph, "_degrees_and_xors", counting)
    decoded = decode(Lettering(lt.word, lt.decoder))
    path_plus_cycle = Graph(6, frozenset({(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)}))
    for g, is_one in ((decoded, True), (path_graph(500), True), (path_plus_cycle, False)):
        walked.clear()
        assert (is_path(g) is not None) == is_one
        assert walked == [g]


def test_shape_of_one_path_and_cycles_falls_back_to_the_general_walk(monkeypatch):
    # n - 1 edges and maximum degree 2 leave one path, and here cycles too:
    # the walk from the path's first end misses the cycles (a one-vertex
    # path has no end to walk from), and the general walks find the shape
    # on the same degree and XOR lists, built once.
    walked = []
    degrees_and_xors = Graph._degrees_and_xors

    def counting(g):
        walked.append(g)
        return degrees_and_xors(g)

    monkeypatch.setattr(Graph, "_degrees_and_xors", counting)

    def path_and_cycles(a, *cycles):
        edges = {(i, i + 1) for i in range(1, a)}
        start = a + 1
        for b in cycles:
            edges |= {(i, i + 1) for i in range(start, start + b - 1)} | {(start, start + b - 1)}
            start += b
        return Graph(start - 1, frozenset(edges))

    path_plus_triangle = Graph(6, frozenset({(1, 2), (2, 3), (4, 5), (5, 6), (4, 6)}))
    for g, shape in (
        (path_plus_triangle, (((3, 1),), ((3, 1),))),
        (path_and_cycles(4, 5), (((4, 1),), ((5, 1),))),
        (path_and_cycles(2, 3, 7, 3), (((2, 1),), ((3, 2), (7, 1)))),
        (path_and_cycles(1000, 999), (((1000, 1),), ((999, 1),))),
        (path_and_cycles(1, 4), (((1, 1),), ((4, 1),))),  # no vertex of degree 1
    ):
        assert g._size() == g.n - 1
        walked.clear()
        assert g._shape() == shape
        assert walked == [g]


def test_path_lettering_rejects_small_n():
    with pytest.raises(ValueError):
        path_lettering(2)


def test_path_lettering_decodes_to_path_with_predicted_alphabet():
    for n in range(3, 61):
        lt = path_lettering(n)
        g = decode(lt)
        assert g.n == n
        assert is_path(g) is not None
        assert lt.alphabet_size == path_lettericity(n)


def test_matching_base_lettering():
    lt = matching_base_lettering(2)
    assert lt.word == (2, 1, 3, 2)
    assert lt.decoder == Decoder(3, frozenset({(2, 1), (3, 2)}))
    assert decode(lt) == matching_graph(2)
    assert lt.alphabet_size == 3


def test_matching_canonical_lettering():
    lt = matching_canonical_lettering(3)
    assert lt.word == (1, 1, 2, 2, 3, 3)
    assert lt.decoder == Decoder(3, frozenset({(1, 1), (2, 2), (3, 3)}))
    assert decode(lt) == matching_graph(3)
    assert lt.alphabet_size == 3


def test_matching_letterings_sweep():
    for r in range(1, 26):
        base = matching_base_lettering(r)
        canon = matching_canonical_lettering(r)
        assert base.alphabet_size == r + 1
        assert canon.alphabet_size == r
        for lt in (base, canon):
            g = decode(lt)
            assert g == matching_graph(r)
            assert is_matching(g)
            assert verify_lettering(lt, matching_graph(r), tuple(range(1, 2 * r + 1)))


def test_matching_letterings_match_the_block_construction():
    for r in range(1, 101):
        base = [x for j in range(1, r + 1) for x in (j + 1, j)]
        canon = [x for a in range(1, r + 1) for x in (a, a)]
        assert matching_base_lettering(r) == Lettering(
            tuple(base), Decoder(r + 1, frozenset((j + 1, j) for j in range(1, r + 1)))
        )
        assert matching_canonical_lettering(r) == Lettering(
            tuple(canon), Decoder(r, frozenset((a, a) for a in range(1, r + 1)))
        )


def test_matching_letterings_reject_bad_r():
    with pytest.raises(ValueError):
        matching_base_lettering(0)
    with pytest.raises(ValueError):
        matching_canonical_lettering(-1)


def test_builders_agree_with_the_checked_constructors():
    # The builders make their letterings through Record._of, unchecked; each
    # must be what the checked constructors leave for the same values, and
    # the unset graph slot must still cache the decoding.
    letterings = [path_lettering(n) for n in (*range(3, 301), 4095, 4096, 16000)]
    for r in range(1, 301):
        letterings += (matching_base_lettering(r), matching_canonical_lettering(r))
    for lt in letterings:
        checked = Lettering(lt.word, Decoder(lt.decoder.alphabet_size, lt.decoder.pairs))
        assert checked == lt and hash(checked) == hash(lt)
        assert type(lt.word) is tuple and type(lt.decoder.pairs) is frozenset
        assert all(type(p) is tuple and len(p) == 2 for p in lt.decoder.pairs)
        assert all(type(a) is int for a in chain(lt.word, *lt.decoder.pairs))
        assert type(lt.decoder.alphabet_size) is int
        assert pickle.loads(pickle.dumps(lt)) == lt
        assert copy.copy(lt) == lt
        assert decode(lt) is decode(lt)
