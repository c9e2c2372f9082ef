"""Memory follows the size of the input and the output, never a number read
from the input such as the alphabet size. Peaks are measured with
tracemalloc, so the tests do not depend on machine speed."""

import gc
import tracemalloc

from lettergraphs import (
    Decoder,
    Graph,
    Lettering,
    are_isomorphic,
    decode,
    enumerate_letterings,
    format_lettering,
    is_k_letterable,
    is_path,
    lettericity_exact,
    matching_canonical_lettering,
    matching_graph,
    path_graph,
    path_lettering,
    serialize_edge_list,
    to_dot,
    verify_lettering,
)
from lettergraphs.cli import main


def peak_bytes(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_memory_ignores_alphabet_size():
    lt = Lettering((1, 2), Decoder(10**6, frozenset({(1, 2)})))
    assert peak_bytes(decode, lt) < 100_000


def test_solver_memory_ignores_alphabet_size():
    assert peak_bytes(is_k_letterable, path_graph(3), 2000) < 1_000_000


def test_search_leaves_no_reference_cycles():
    # Everything the solver allocates is freed on return, by reference
    # counting, so the cycle collector finds nothing left behind.
    gc.collect()
    gc.disable()
    try:
        for n in range(3, 9):
            lettericity_exact(path_graph(n))
        for n in range(5, 9):
            # A path against a shorter path plus a triangle: same degrees.
            triangle = {(n - 2, n - 1), (n - 1, n), (n - 2, n)}
            assert not are_isomorphic(path_graph(n), Graph(n, path_graph(n - 3).edges | triangle))
            assert are_isomorphic(path_graph(n), path_graph(n))
        enumerate_letterings(matching_graph(2), 2)
        enumerate_letterings(matching_graph(3), 3)  # computes stabilizer orbits
        # A lettering keeps its decoded graph; the graph points nowhere back.
        assert verify_lettering(path_lettering(50), path_graph(50))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_shares_equal_decoders():
    result = enumerate_letterings(path_graph(8), 4)
    first: dict = {}
    for w in result.witnesses:
        decoder = w.lettering.decoder
        assert first.setdefault(decoder, decoder) is decoder
    assert len(first) < len(result.witnesses)  # 37 decoders for 81 words
    # Held by the result: about 80 kB, and 102 kB with a decoder per witness.
    tracemalloc.start()
    try:
        held = enumerate_letterings(path_graph(8), 4)
        assert tracemalloc.get_traced_memory()[0] < 90_000
        # Each verified lettering keeps its decoded graph, as endpoint
        # lists only: about 110 kB in all, and 200 kB if the graphs kept
        # their edge sets.
        target = path_graph(8)
        assert all(verify_lettering(w.lettering, target, w.vertex_of_position) for w in held.witnesses)
        del target
        assert tracemalloc.get_traced_memory()[0] < 130_000
    finally:
        tracemalloc.stop()
    assert held == result


def test_graph_keeps_a_normalized_edge_set():
    # parse_edge_list, induced_subgraph and user code hand Graph a frozenset
    # of (u, v) tuples with u < v; building the graph must not copy it.
    edges = frozenset((i, i + 1) for i in range(1, 100_000))
    assert peak_bytes(Graph, 100_000, edges) < 100_000


def test_decode_holds_no_tuple_per_edge():
    # A decoded graph keeps flat endpoint lists and builds its edge set of
    # tuples only when asked. decode links each position to the previous
    # one of its letter in one flat list, prev, whose ints and the endpoint
    # lists' are those of one shared list of positions, and a letter that
    # leads one decoder pair keeps its successor as an int: decoding a
    # 16k-vertex path peaks near 1.13 MB, 1.46 MB with a successor list for
    # every letter, 1.5 MB with a list of positions per letter and 2.8 MB
    # with a tuple per edge in a frozenset. The 8000-edge canonical
    # matching word, two positions per letter, peaks near 1.22 MB, 1.64 MB
    # with a successor list for every letter and 1.83 MB with a list of
    # positions per letter.
    # path_lettering has decoded its own lettering, and decode keeps that
    # graph, so each check decodes a fresh lettering of the same word.
    lt = path_lettering(16000)
    assert peak_bytes(decode, Lettering(lt.word, lt.decoder)) < 1_200_000
    matching = matching_canonical_lettering(8000)
    assert peak_bytes(decode, Lettering(matching.word, matching.decoder)) < 1_300_000
    # The path check reads flat degree and neighbor-XOR lists: about 1.75 MB
    # together with the decode, and 4.3 MB with a neighbor tuple per vertex.
    assert peak_bytes(lambda: is_path(decode(Lettering(lt.word, lt.decoder)))) < 2_500_000


def test_path_certificate_keeps_no_vertex_order():
    # The certificate asks the decoded graph's shape, which keeps only the
    # component lengths: on a decoded 16k-vertex path the pass peaks near
    # 0.35 MB and keeps under 200 bytes, where is_path's vertex order peaks
    # near 1.03 MB and keeps 0.63 MB.
    lt = path_lettering(16000)
    g = decode(Lettering(lt.word, lt.decoder))
    tracemalloc.start()
    try:
        assert g._shape() == (((16000, 1),), ())
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert kept < 1_000


def test_lettering_keeps_a_normalized_word_and_decoder():
    # A tuple of ints and a frozenset of int pairs are kept, not copied:
    # copying them peaks near 1.6 MB and 10.7 MB. Checking the decoder's
    # letters takes one flat list of them, 1.6 MB.
    word = tuple(range(1, 100_001))
    pairs = frozenset((a + 1, a) for a in range(1, 100_000))
    decoder = Decoder(100_000, pairs)
    assert peak_bytes(Lettering, word, decoder) < 10_000
    assert peak_bytes(Decoder, 100_000, pairs) < 2_000_000


def test_format_lettering_holds_no_string_per_letter():
    # The word line is joined from slices of letters: formatting a
    # 300,000-vertex path lettering peaks near 3.3 times its 2.9 MB text,
    # and near 7.0 times with one string per letter.
    lt = path_lettering(300_000)
    size = len(format_lettering(lt))
    assert peak_bytes(format_lettering, lt) < 4 * size


def test_builders_hold_no_list_per_vertex():
    # path_graph and matching_graph keep their endpoints as two ranges:
    # a few hundred bytes, where two endpoint lists took 80 MB and 40 MB.
    assert peak_bytes(path_graph, 10**6) < 10_000
    assert peak_bytes(matching_graph, 5 * 10**5) < 10_000


def test_writers_hold_no_string_per_line():
    # The edge and vertex lines are written and joined in slices of 4096,
    # and sorted endpoint sequences are written as they are: on a decoded
    # 100k-vertex path, serialize_edge_list peaks near 2.0 times its 1.2 MB
    # text (5.7 times when it sorted packed integer keys, 13.6 times with
    # one tuple of all endpoints) and to_dot near 2.0 times its 2.7 MB text
    # (3.3 and 8.8 times). The range-backed path_graph writes alike. The
    # same edges as an edge set are sorted and unzipped first: near 6.8
    # and 3.3 times.
    lt = path_lettering(100_000)
    g = decode(Lettering(lt.word, lt.decoder))
    for h in (g, path_graph(100_000)):
        assert peak_bytes(serialize_edge_list, h) < 3 * len(serialize_edge_list(h))
        assert peak_bytes(to_dot, h) < 3 * len(to_dot(h))
    edge_set = Graph(g.n, g.edges)
    assert peak_bytes(serialize_edge_list, edge_set) < 8 * len(serialize_edge_list(edge_set))
    assert peak_bytes(to_dot, edge_set) < 4 * len(to_dot(edge_set))


def test_path_lettering_memory_grows_linearly():
    small = peak_bytes(path_lettering, 8000)
    large = peak_bytes(path_lettering, 16000)
    # Doubling n doubles a linear peak and quadruples a quadratic one.
    assert large < 2.5 * small


def test_over_bound_cli_target_is_not_built(capsys):
    # A million-vertex target would take hundreds of MB; the bound is
    # checked on the requested size before any graph exists.
    for argv in (["lettericity", "--path", "1000000"], ["lettericity", "--matching", "500000"]):
        codes = []
        assert peak_bytes(lambda: codes.append(main(argv))) < 2_000_000
        assert codes == [2]
        assert "bounded at 12 vertices, got 1000000" in capsys.readouterr().err


def test_over_bound_path_request_is_not_built(capsys):
    # path 1000000 --verify peaks near 162 MB max RSS and grows linearly,
    # so path 100000000 would try to build about 16 GB; the bound is
    # checked on N before any word exists.
    for argv in (["path", "1000001"], ["path", "100000000", "--verify"]):
        codes = []
        assert peak_bytes(lambda: codes.append(main(argv))) < 2_000_000
        assert codes == [2]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"bounded at 1000000 vertices, got {argv[1]}" in captured.err
