"""Decode rule, word operations, decoder algebra, and the text formats."""

import copy
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lettergraphs import (
    CapabilityError,
    Decoder,
    EnumerationResult,
    Graph,
    InvalidLetteringError,
    Lettering,
    LetteringWitness,
    MatchingAuditReport,
    ParseError,
    WordCensus,
    complement_decoder,
    decode,
    format_lettering,
    induced_subgraph,
    letter_occurrences,
    parse_decoder_pairs,
    parse_lettering,
    parse_word,
    path_graph,
    path_lettering,
    subword,
    verify_lettering,
)

P7_LETTERING = Lettering((2, 1, 3, 2, 1, 3, 2), Decoder(3, frozenset({(2, 1), (3, 2)})))
P7_EDGES = frozenset({(1, 2), (1, 5), (3, 4), (3, 7), (4, 5), (6, 7)})


@st.composite
def letterings(draw, max_n=8, max_k=4):
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(0, max_n))
    word = tuple(draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    all_pairs = [(a, b) for a in range(1, k + 1) for b in range(1, k + 1)]
    pairs = frozenset(draw(st.sets(st.sampled_from(all_pairs))))
    return Lettering(word, Decoder(k, pairs))


@st.composite
def sparse_letterings(draw, max_n=12):
    """Words over a few letters of a possibly huge alphabet, with decoder
    pairs that may name letters the word never uses."""
    k = draw(st.integers(1, 10**6))
    used = draw(st.lists(st.integers(1, k), min_size=1, max_size=5, unique=True))
    others = draw(st.lists(st.integers(1, k), max_size=3))
    n = draw(st.integers(0, max_n))
    word = tuple(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)))
    letters = st.sampled_from(used + others)
    pairs = frozenset(draw(st.sets(st.tuples(letters, letters), max_size=12)))
    return Lettering(word, Decoder(k, pairs))


def complement_graph(g: Graph) -> Graph:
    edges = frozenset(
        (u, v)
        for u in range(1, g.n)
        for v in range(u + 1, g.n + 1)
        if (u, v) not in g.edges
    )
    return Graph(g.n, edges)


# --- decode ----------------------------------------------------------------


def test_decode_seven_vertex_path_word():
    g = decode(P7_LETTERING)
    assert g.n == 7
    assert g.edges == P7_EDGES


def test_decode_empty_word():
    g = decode(Lettering((), Decoder(0)))
    assert g.n == 0 and g.edges == frozenset()


def test_decode_pair_order_is_position_order():
    # (2,1) in the decoder joins an earlier 2 to a later 1, not the reverse
    d = Decoder(2, frozenset({(2, 1)}))
    assert decode(Lettering((2, 1), d)).edges == frozenset({(1, 2)})
    assert decode(Lettering((1, 2), d)).edges == frozenset()


def test_decode_self_pair_makes_cliques():
    assert decode(Lettering((1, 1, 1), Decoder(1, frozenset({(1, 1)})))).edges == frozenset(
        {(1, 2), (1, 3), (2, 3)}
    )
    assert decode(Lettering((1, 1, 1), Decoder(1))).edges == frozenset()


def test_lettering_rejects_letters_beyond_alphabet():
    with pytest.raises(InvalidLetteringError):
        Lettering((1, 4), Decoder(3))
    with pytest.raises(InvalidLetteringError):
        Lettering((0,), Decoder(3))


def test_decoder_rejects_pairs_beyond_alphabet():
    with pytest.raises(InvalidLetteringError):
        Decoder(2, frozenset({(9, 9)}))
    with pytest.raises(InvalidLetteringError):
        Decoder(-1)


def test_invalid_lettering_messages():
    cases = [
        (lambda: Lettering((1, 0, 4), Decoder(3)), "letter at position 2 must be >= 1, got 0"),
        (lambda: Lettering((1, 4, 0), Decoder(3)), "letter 4 at position 2 exceeds decoder alphabet 1..3"),
        (lambda: Lettering([1, "5"], Decoder(3)), "letter 5 at position 2 exceeds decoder alphabet 1..3"),
        (lambda: Lettering((True, False), Decoder(3)), "letter at position 2 must be >= 1, got 0"),
        (lambda: Decoder(2, frozenset({(9, 9)})), "decoder pair (9,9) outside alphabet 1..2"),
        (lambda: Decoder(2, frozenset({(1, 0)})), "decoder pair (1,0) outside alphabet 1..2"),
        (lambda: Decoder(2, [[1, "3"]]), "decoder pair (1,3) outside alphabet 1..2"),
        (lambda: Decoder(-1), "alphabet size must be >= 0, got -1"),
        # A non-integral letter or alphabet size is rejected, not truncated.
        (lambda: Decoder(2, [(1.9, 1)]), "letter must be an integer, got 1.9"),
        (lambda: Lettering([1.5, 2.7], Decoder(2, [(1, 2)])), "letter must be an integer, got 1.5"),
        (lambda: Decoder(2.5), "alphabet size must be an integer, got 2.5"),
        (lambda: Decoder(float("inf")), "alphabet size must be an integer, got inf"),
        # Letters take digit strings, the alphabet size does not.
        (lambda: Decoder("2"), "alphabet size must be an integer, got '2'"),
        # A decoder pair that is not a pair is named.
        (lambda: Decoder(2, [5]), "decoder pair 5 is not a pair of letters"),
        (lambda: Decoder(2, [(1, 2, 3)]), "decoder pair (1, 2, 3) is not a pair of letters"),
        (lambda: Decoder(2, frozenset({(1,)})), "decoder pair (1,) is not a pair of letters"),
        # A string or bytes would unpack into two letters; it is no pair.
        (lambda: Decoder(2, ["12"]), "decoder pair '12' is not a pair of letters"),
        (lambda: Decoder(2, [b"12"]), "decoder pair b'12' is not a pair of letters"),
        (lambda: Decoder(2, frozenset({"12"})), "decoder pair '12' is not a pair of letters"),
        # A set or a mapping has no order to read a pair from.
        (lambda: Decoder(3, [{3, 1}]), "decoder pair {1, 3} is not a pair of letters"),
        (lambda: Decoder(3, [frozenset({3, 1})]), "decoder pair frozenset({1, 3}) is not a pair of letters"),
        (lambda: Decoder(3, [{1: "x", 2: "y"}]), "decoder pair {1: 'x', 2: 'y'} is not a pair of letters"),
    ]
    for build, message in cases:
        with pytest.raises(InvalidLetteringError) as info:
            build()
        assert str(info.value) == message
    with pytest.raises(TypeError):
        Decoder(2, 5)  # pairs that are not iterable


def test_lettering_and_decoder_keep_normalized_input():
    word = (2, 1, 3, 2, 1, 3, 2)
    pairs = frozenset({(2, 1), (3, 2)})
    lt = Lettering(word, Decoder(3, pairs))
    assert lt.word is word and lt.decoder.pairs is pairs
    # Anything else is normalized to a tuple of ints and a frozenset of
    # int pairs, as before.
    for w in ([2, 1, 3], "213", (2, True, 3), (2, 1.0, 3)):
        got = Lettering(w, Decoder(3)).word
        assert got == (2, 1, 3) and type(got) is tuple
        assert all(type(a) is int for a in got)
    for p in ({(2, 1)}, [[2, 1]], frozenset({("2", 1)}), frozenset({(2, True)}), frozenset({(2.0, 1)})):
        got = Decoder(3, p).pairs
        assert got == frozenset({(2, 1)}) and type(got) is frozenset
        assert all(type(e) is tuple and type(a) is int for e in got for a in e)


def test_decode_returns_one_graph_per_lettering():
    lt = Lettering(P7_LETTERING.word, P7_LETTERING.decoder)
    g = decode(lt)
    assert decode(lt) is g
    # An equal lettering decodes its own word.
    other = Lettering(lt.word, lt.decoder)
    assert decode(other) == g and decode(other) is not g
    # A lettering built with a new word decodes its new word.
    swapped = Lettering((1, 2, 1, 3, 2, 1, 3), lt.decoder)
    assert decode(swapped) is not g
    assert decode(swapped) == decode(Lettering((1, 2, 1, 3, 2, 1, 3), lt.decoder))


def test_decoded_lettering_behaves_like_an_undecoded_one():
    fresh = Lettering(P7_LETTERING.word, P7_LETTERING.decoder)
    decoded = Lettering(P7_LETTERING.word, P7_LETTERING.decoder)
    decode(decoded)
    assert decoded == fresh and hash(decoded) == hash(fresh)
    assert repr(decoded) == repr(fresh)
    assert pickle.dumps(decoded) == pickle.dumps(fresh)
    assert pickle.loads(pickle.dumps(decoded)) == fresh
    assert decoded.__reduce_ex__(pickle.HIGHEST_PROTOCOL) == (Lettering, (fresh.word, fresh.decoder))
    for dup in (copy.copy(decoded), copy.deepcopy(decoded), pickle.loads(pickle.dumps(decoded))):
        assert dup == fresh
        assert decode(dup) == decode(decoded)
        assert decode(dup) is not decode(decoded)


_DECODER_TEXT = "Decoder(alphabet_size=3, pairs=frozenset({(2, 1)}))"
_LETTERING_TEXT = f"Lettering(word=(2, 1, 3), decoder={_DECODER_TEXT})"
_WITNESS_TEXT = f"LetteringWitness(lettering={_LETTERING_TEXT}, vertex_of_position=(1, 2, 3))"


def _witness():
    return LetteringWitness(Lettering((2, 1, 3), Decoder(3, frozenset({(2, 1)}))), (1, 2, 3))


# Each immutable record: a builder of fresh equal instances, its fields, and
# the dataclass-style repr its instance prints.
RECORDS = {
    "Decoder": (lambda: Decoder(3, frozenset({(2, 1)})), ("alphabet_size", "pairs"), _DECODER_TEXT),
    "Decoder-empty": (lambda: Decoder(2), ("alphabet_size", "pairs"),
                      "Decoder(alphabet_size=2, pairs=frozenset())"),
    "Lettering": (lambda: Lettering((2, 1, 3), Decoder(3, frozenset({(2, 1)}))),
                  ("word", "decoder"), _LETTERING_TEXT),
    "LetteringWitness": (_witness, ("lettering", "vertex_of_position"), _WITNESS_TEXT),
    "EnumerationResult": (lambda: EnumerationResult((_witness(),), False), ("witnesses", "truncated"),
                          f"EnumerationResult(witnesses=({_WITNESS_TEXT},), truncated=False)"),
    "MatchingAuditReport": (
        lambda: MatchingAuditReport(2, 2, 5, 2, 0.5),
        ("r", "k", "witness_count", "max_letter_occurrences", "edge_paired_fraction"),
        "MatchingAuditReport(r=2, k=2, witness_count=5, max_letter_occurrences=2, "
        "edge_paired_fraction=0.5)",
    ),
    "WordCensus": (lambda: WordCensus(2, 6, 3), ("r", "fixed_alphabet_count", "canonical_count"),
                   "WordCensus(r=2, fixed_alphabet_count=6, canonical_count=3)"),
    "Graph": (lambda: Graph(3, [(2, 1), (3, 2)]), ("n", "edges"),
              "Graph(n=3, edges=frozenset({(1, 2), (2, 3)}))"),
    "Graph-decoded": (lambda: decode(Lettering((2, 1, 3), Decoder(3, frozenset({(2, 1)})))),
                      ("n", "edges"), "Graph(n=3, edges=frozenset({(1, 2)}))"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    build, fields, text = RECORDS[name]
    x, y = build(), build()
    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert x is not y and x == y and hash(x) == hash(y)
    # Equal to an instance of its own class only, not to its values.
    assert x != tuple(getattr(x, f) for f in fields)
    for dup in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(dup) is type(x) and dup == x and hash(dup) == hash(x)
    assert repr(x) == text


@pytest.mark.parametrize("name", RECORDS)
def test_records_take_fields_by_position_or_keyword(name):
    build, fields, _ = RECORDS[name]
    x = build()
    cls, values = type(x), tuple(getattr(x, f) for f in fields)
    named = dict(zip(fields, values))
    assert cls(*values) == x and cls(**named) == x
    rest = {f: named[f] for f in fields[1:]}
    assert cls(values[0], **rest) == x
    for args, kwargs in (
        ((), rest),  # the first field missing
        ((*values, None), {}),  # an extra argument
        (values, {"other": None}),  # an unknown keyword
        (values[:1], named),  # the first field twice
    ):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_decode_work_follows_the_edges():
    # In each word one letter x fills m positions where it has no edge to
    # the k other letters: after them as the first letter of (x, j) pairs,
    # before them as the second letter of (j, x) pairs. A walk through
    # every position of x for each pair takes k * m steps (25 million here)
    # for k edges; decoding must cost about as much as a path word of the
    # same length.
    k = m = 5000
    x = k + 1
    from_x = Decoder(x, frozenset((x, j) for j in range(1, x)))
    to_x = Decoder(x, frozenset((j, x) for j in range(1, x)))
    tail_side = Lettering((x, *range(1, x), *[x] * m), from_x)
    head_side = Lettering((*[x] * m, *range(1, x), x), to_x)
    path = path_lettering(k + m + 1)

    def fastest(lt):
        times = []
        for _ in range(3):
            fresh = Lettering(lt.word, lt.decoder)
            start = time.perf_counter()
            g = decode(fresh)
            times.append(time.perf_counter() - start)
        return min(times), g

    base, _ = fastest(path)
    for lt in (tail_side, head_side):
        spent, g = fastest(lt)
        assert len(g.edges) == k
        assert spent < 20 * base + 0.05, (spent, base)


def test_unused_decoder_letters_do_not_count():
    lt = Lettering((1, 2), Decoder(9, frozenset({(7, 7)})))
    assert lt.alphabet_size == 2
    assert decode(lt).edges == frozenset()


# Long words too, so decode walks chains of many positions per letter.
@given(st.one_of(letterings(), sparse_letterings(), letterings(max_n=150), sparse_letterings(max_n=150)))
def test_decode_matches_definition(lt):
    w, pairs = lt.word, lt.decoder.pairs
    expect = {
        (i, j)
        for i in range(1, len(w) + 1)
        for j in range(i + 1, len(w) + 1)
        if (w[i - 1], w[j - 1]) in pairs
    }
    g = decode(lt)
    assert g.edges == expect
    # The endpoint lists are sorted by (tail, head), as the writers print.
    assert list(zip(*g._ends)) == sorted(g.edges)


@given(letterings())
def test_decode_vertex_count_is_word_length(lt):
    assert decode(lt).n == len(lt.word)


@given(letterings())
def test_decode_monotone_in_decoder(lt):
    k = lt.decoder.alphabet_size
    full = frozenset((a, b) for a in range(1, k + 1) for b in range(1, k + 1))
    bigger = Lettering(lt.word, Decoder(k, full))
    assert decode(lt).edges <= decode(bigger).edges


@given(letterings())
def test_complement_decoder_duality(lt):
    flipped = Lettering(lt.word, complement_decoder(lt.decoder))
    # same-letter pairs flip along with everything else, so the decoded
    # graphs are exact complements
    assert decode(flipped).edges == complement_graph(decode(lt)).edges


# --- subword / occurrences -------------------------------------------------


def test_subword_examples():
    w = (2, 1, 3, 2, 1, 3, 2)
    assert subword(w, {1, 3, 4, 6}) == (2, 3, 2, 3)
    assert subword(w, []) == ()
    assert subword(w, range(1, 8)) == w


def test_subword_rejects_bad_positions():
    with pytest.raises(ValueError):
        subword((1, 2), [0])
    with pytest.raises(ValueError):
        subword((1, 2), [3])
    with pytest.raises(ValueError):
        subword((1, 2), [1, 1])


@given(letterings(), st.data())
def test_subword_commutes_with_induced_subgraph(lt, data):
    n = len(lt.word)
    positions = data.draw(st.sets(st.integers(1, n)) if n else st.just(set()))
    sub = Lettering(subword(lt.word, positions), lt.decoder)
    assert decode(sub) == induced_subgraph(decode(lt), positions)


def test_letter_occurrences():
    assert letter_occurrences(P7_LETTERING, 2) == frozenset({1, 4, 7})
    assert letter_occurrences(P7_LETTERING, 1) == frozenset({2, 5})
    assert letter_occurrences(Lettering((1,), Decoder(2)), 2) == frozenset()
    with pytest.raises(InvalidLetteringError):
        letter_occurrences(P7_LETTERING, 4)


def test_letter_occurrences_and_subword_check_their_arguments():
    # A letter is read as letters are (digit strings too), and a position as
    # an integer; anything else raises instead of matching nothing.
    assert letter_occurrences(P7_LETTERING, "1") == letter_occurrences(P7_LETTERING, 1.0) == {2, 5}
    with pytest.raises(InvalidLetteringError, match="must be an integer"):
        letter_occurrences(P7_LETTERING, 1.5)
    assert subword(P7_LETTERING.word, [3.0, 1]) == (2, 3)
    for positions in ([2.5], ["2"]):
        with pytest.raises(ValueError, match="must be an integer"):
            subword(P7_LETTERING.word, positions)


@given(letterings())
def test_same_letter_positions_form_clique_or_anticlique(lt):
    g = decode(lt)
    for a in set(lt.word):
        ps = sorted(letter_occurrences(lt, a))
        inner = [(u, v) for i, u in enumerate(ps) for v in ps[i + 1 :]]
        if (a, a) in lt.decoder.pairs:
            assert all(e in g.edges for e in inner)
        else:
            assert not any(e in g.edges for e in inner)


# --- complement decoder ----------------------------------------------------


def test_complement_decoder_examples():
    d = Decoder(2, frozenset({(1, 2)}))
    assert complement_decoder(d).pairs == frozenset({(1, 1), (2, 1), (2, 2)})
    assert complement_decoder(complement_decoder(d)) == d
    empty = Decoder(0)
    assert complement_decoder(empty) == empty


# --- verify ----------------------------------------------------------------


def test_verify_lettering_isomorphic_target():
    assert verify_lettering(P7_LETTERING, path_graph(7))


def test_verify_lettering_with_mapping():
    m = (2, 1, 5, 4, 3, 7, 6)
    assert verify_lettering(P7_LETTERING, path_graph(7), m)
    assert not verify_lettering(P7_LETTERING, path_graph(7), (1, 2, 3, 4, 5, 6, 7))


def test_verify_lettering_size_mismatch():
    with pytest.raises(ValueError):
        verify_lettering(P7_LETTERING, path_graph(6))


def test_verify_lettering_bad_mapping():
    with pytest.raises(ValueError):
        verify_lettering(P7_LETTERING, path_graph(7), (1, 1, 2, 3, 4, 5, 6))
    # 1.5 is not truncated to vertex 1.
    with pytest.raises(ValueError, match="vertex must be an integer, got 1.5"):
        verify_lettering(Lettering((1, 1), Decoder(1, {(1, 1)})), Graph(2, {(1, 2)}), [1.5, 2])
    assert verify_lettering(P7_LETTERING, path_graph(7), [2.0, 1, 5, 4, 3, 7, 6])
    assert verify_lettering(P7_LETTERING, path_graph(7), ["2", 1, 5, 4, 3, 7, 6])


def test_verify_large_path_target_via_recognizer():
    # beyond the isomorphism bound the structured-recognizer route kicks in
    from lettergraphs import path_lettering

    lt = path_lettering(40)
    assert verify_lettering(lt, path_graph(40))


def one_letter_per_position(n, edges) -> Lettering:
    """Word 1..n whose decoder holds (u, v) for each edge u < v: it decodes
    to the graph with those edges, each position its own vertex."""
    return Lettering(tuple(range(1, n + 1)), Decoder(n, frozenset(edges)))


def test_verify_rejects_non_paths_past_the_isomorphism_bound():
    n = 40
    star = [(1, v) for v in range(2, n + 1)]
    two_paths = [(v, v + 1) for v in range(1, n) if v != n // 2]
    # n - 1 edges, as many as P_n has: P_{n-3} plus a disjoint triangle
    short_and_triangle = [(v, v + 1) for v in range(1, n - 3)]
    short_and_triangle += [(n - 2, n - 1), (n - 1, n), (n - 2, n)]
    assert len(short_and_triangle) == n - 1
    for edges in (star, two_paths, short_and_triangle):
        assert not verify_lettering(one_letter_per_position(n, edges), path_graph(n))
        assert not verify_lettering(one_letter_per_position(n, edges), Graph(n, path_graph(n).edges))


def test_verify_certifies_cycles_past_the_isomorphism_bound():
    n = 20
    cycle = [(v, v + 1) for v in range(1, n)] + [(1, n)]
    lt = one_letter_per_position(n, cycle)
    # the target's labels need not follow the positions
    relabel = [(3 * v) % n + 1 for v in range(n)]
    target = Graph(n, frozenset((relabel[u - 1], relabel[v - 1]) for u, v in cycle))
    assert verify_lettering(lt, target)
    assert not verify_lettering(lt, path_graph(n))
    assert not verify_lettering(path_lettering(n), target)


def test_verify_refuses_targets_of_higher_degree_past_the_bound():
    n = 20
    star = Graph(n, frozenset((1, v) for v in range(2, n + 1)))
    with pytest.raises(CapabilityError):
        verify_lettering(one_letter_per_position(n, star.edges), star)
    with pytest.raises(CapabilityError):
        verify_lettering(path_lettering(n), star)


# --- text formats ----------------------------------------------------------


def test_format_lettering_exact_text():
    assert format_lettering(P7_LETTERING) == "k 3\nw 2,1,3,2,1,3,2\nD 2:1,3:2"


def test_format_empty_lettering():
    assert format_lettering(Lettering((), Decoder(0))) == "k 0\nw\nD"


def test_parse_lettering_round_trip():
    assert parse_lettering(format_lettering(P7_LETTERING)) == P7_LETTERING
    empty = Lettering((), Decoder(0))
    assert parse_lettering(format_lettering(empty)) == empty


def test_parse_lettering_compact_digits():
    assert parse_lettering("k 3\nw 2132132\nD 2:1,3:2") == P7_LETTERING


def test_parse_lettering_multi_digit_letters():
    lt = Lettering((12, 3), Decoder(12, frozenset({(12, 3)})))
    text = format_lettering(lt)
    assert text == "k 12\nw 12,3\nD 12:3"
    assert parse_lettering(text) == lt
    # k > 9 disables the compact reading: a bare 12 is the letter twelve
    one = parse_lettering("k 12\nw 12\nD")
    assert one.word == (12,)
    # the CLI's trailing comma means the same in a file
    assert parse_lettering("k 12\nw 12,\nD").word == (12,)


def test_format_lettering_long_words():
    # The word line is written in slices of 4096 letters; the text must not
    # show where one slice ends.
    for n in (4095, 4096, 4097, 8193):
        word = tuple(i % 13 + 1 for i in range(n))
        lt = Lettering(word, Decoder(13, frozenset({(2, 1), (13, 12)})))
        text = format_lettering(lt)
        assert text == "k 13\nw " + ",".join(str(a) for a in word) + "\nD 2:1,13:12"
        assert parse_lettering(text) == lt


@given(letterings())
def test_parse_format_round_trip(lt):
    assert parse_lettering(format_lettering(lt)) == lt


def test_parse_lettering_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_lettering("k 3\nw 1,2\nD 1:2\nextra")
    assert e.value.line == 4
    with pytest.raises(ParseError) as e:
        parse_lettering("q 3\nw 1\nD")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_lettering("k 3\nw x\nD")
    assert e.value.line == 2
    with pytest.raises(ParseError) as e:
        parse_lettering("k 3\nw 1\nD 12")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_lettering("k 3\nw 1")
    assert e.value.line == 3
    # compact digits forbid 0, as on the CLI
    with pytest.raises(ParseError) as e:
        parse_lettering("k 3\nw 10\nD")
    assert e.value.line == 2


# Lettering-file texts: up to five lines, each a tag (or junk) and a payload
# of digits and the separators the tokenizer splits on, with tabs and a
# non-ASCII digit. Two thirds are k, w and D lines in order whose payloads
# are whole tokens of the right kind (in half of them mixed with junk), so
# that a fair share parses.
JUNK = st.lists(
    st.sampled_from(["1", "2", "3", "12", "0", "\u0663", ",", ":", "-", " ", "\t", "1:2", "2,1"]),
    max_size=6,
).map("".join)
LINE_TAGS = st.sampled_from(["k ", "w ", "D ", "k", "w\t", "D:", "x ", ""])
TOKENS = [
    ("k ", ["3", "1", "12", "\u0663", "-1", "0"]),
    ("w ", ["2,1,3", "3", "12", "2132132", "1,\u0663", ""]),
    ("D ", ["1:2,3:1", "2:1", "1:1", ""]),
]


@st.composite
def lettering_texts(draw):
    shape = draw(st.sampled_from(["tokens", "mixed", "junk"]))
    if shape == "junk":
        lines = [draw(LINE_TAGS) + draw(JUNK) for _ in range(draw(st.integers(0, 5)))]
    else:
        junk = st.nothing() if shape == "tokens" else JUNK
        lines = [tag + draw(st.sampled_from(tokens) | junk) for tag, tokens in TOKENS]
    return "\n".join(lines)


@settings(max_examples=1000)
@given(lettering_texts())
def test_parse_lettering_fuzz(text):
    # Any text either parses to a lettering that round-trips or is refused
    # with one of the two documented errors.
    try:
        lt = parse_lettering(text)
    except (ParseError, InvalidLetteringError):
        return
    assert parse_lettering(format_lettering(lt)) == lt


def test_parse_word_forms():
    assert parse_word("2,1,3,2") == (2, 1, 3, 2)
    assert parse_word("2132") == (2, 1, 3, 2)
    assert parse_word("7") == (7,)
    assert parse_word("12") == (1, 2)
    assert parse_word("12,") == (12,)
    assert parse_word("12", compact=False) == (12,)
    assert parse_word("") == ()
    with pytest.raises(ParseError):
        parse_word("1,x")
    with pytest.raises(ParseError):
        parse_word("102")


def test_parse_decoder_pairs_forms():
    assert parse_decoder_pairs("2:1,3:2") == frozenset({(2, 1), (3, 2)})
    assert parse_decoder_pairs("") == frozenset()
    with pytest.raises(ParseError):
        parse_decoder_pairs("2-1")
    with pytest.raises(ParseError):
        parse_decoder_pairs("a:b")
