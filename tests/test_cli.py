"""Command-line behaviour: outputs, exit codes, determinism."""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import lettergraphs
from lettergraphs.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_decode_edges(capsys):
    rc, out, err = run(capsys, "decode", "--word", "2,1,3,2", "--decoder", "2:1,3:2")
    assert rc == 0 and err == ""
    assert out == "4 2\n1 2\n3 4\n"


def test_decode_p7(capsys):
    rc, out, _ = run(capsys, "decode", "--word", "2,1,3,2,1,3,2", "--decoder", "2:1,3:2")
    assert rc == 0
    assert out == "7 6\n1 2\n1 5\n3 4\n3 7\n4 5\n6 7\n"


def test_decode_compact_word(capsys):
    rc, out, _ = run(capsys, "decode", "--word", "2132132", "--decoder", "2:1,3:2")
    assert rc == 0 and out.startswith("7 6\n")


def test_decode_dot(capsys):
    rc, out, _ = run(capsys, "decode", "--word", "1,1", "--decoder", "1:1", "--format", "dot")
    assert rc == 0
    assert out == "graph {\n  1;\n  2;\n  1 -- 2;\n}\n"


def test_decode_rejects_decoder_beyond_inferred_alphabet(capsys):
    for word, decoder, message in (
        ("1,2", "9:9", "decoder pair (9,9) outside alphabet 1..2"),
        ("", "1:1", "decoder pair (1,1) outside alphabet 1..0"),
        # The alphabet is inferred from the word, so a letter below 1 is the
        # word's fault, not the decoder's or the alphabet's.
        ("0,0", "1:1", "letter at position 1 must be >= 1, got 0"),
        ("-1", "1:1", "letter at position 1 must be >= 1, got -1"),
    ):
        rc, out, err = run(capsys, "decode", f"--word={word}", "--decoder", decoder)
        assert (rc, out, err) == (1, "", f"error: {message}\n"), word


def test_decode_explicit_alphabet_widens(capsys):
    rc, out, _ = run(capsys, "decode", "--word", "1,2", "--decoder", "9:9", "--k", "9")
    assert rc == 0 and out == "2 0\n"


def test_decode_letters_beyond_the_word_length(capsys):
    # Letters larger than the word is long are renumbered inside decode;
    # the output names positions only, so it is as for any other letters.
    rc, out, err = run(
        capsys, "decode", "--word", "1000000,1,1000000", "--decoder", "1000000:1,1:1000000", "--k", "1000000"
    )
    assert rc == 0 and err == ""
    assert out == "3 2\n1 2\n2 3\n"


def test_path_output(capsys):
    rc, out, _ = run(capsys, "path", "7")
    assert rc == 0
    assert out == "k 3\nw 2,1,3,2,1,3,2\nD 2:1,3:2\n"


def test_path_verify(capsys):
    rc, out, _ = run(capsys, "path", "7", "--verify")
    assert rc == 0
    assert out.endswith("VERIFIED P_7\n")


def test_path_rejects_small_n(capsys):
    rc, out, err = run(capsys, "path", "2")
    assert rc == 1 and out == "" and "n >= 3" in err


def test_lettericity_of_path(capsys):
    # The README example, byte for byte.
    rc, out, _ = run(capsys, "lettericity", "--path", "7")
    assert rc == 0
    assert out == "lettericity 3\nk 3\nw 1,2,3,1,2,3,1\nD 1:2,3:1\nmap 2,1,5,4,3,7,6\n"


def test_lettericity_of_single_edge(capsys):
    rc, out, _ = run(capsys, "lettericity", "--path", "2")
    assert rc == 0
    assert out == "lettericity 1\nk 1\nw 1,1\nD 1:1\nmap 1,2\n"


def test_lettericity_of_matching(capsys):
    rc, out, _ = run(capsys, "lettericity", "--matching", "3")
    assert rc == 0 and out.splitlines()[0] == "lettericity 3"


def test_lettericity_from_file(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("4 3\n1 2\n2 3\n3 4\n", encoding="utf-8")
    rc, out, _ = run(capsys, "lettericity", str(f))
    assert rc == 0 and out.splitlines()[0] == "lettericity 2"


def test_lettericity_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "lettericity", str(tmp_path / "nope.txt"))
    assert rc == 1 and err != ""


def test_lettericity_requires_one_source(capsys):
    rc, _, err = run(capsys, "lettericity")
    assert rc == 1 and "exactly one" in err
    rc, _, err = run(capsys, "lettericity", "--path", "4", "--matching", "2")
    assert rc == 1 and "exactly one" in err


def test_lettericity_capability_bound_exit_code(capsys):
    rc, _, err = run(capsys, "lettericity", "--path", "13")
    assert rc == 2 and "12" in err


def test_audit_output(capsys):
    rc, out, _ = run(capsys, "audit", "2", "2")
    assert rc == 0
    assert out == "max-letter-occurrences 2; edge-paired-fraction 1.0\n"


def test_audit_kv_output(capsys):
    rc, out, _ = run(capsys, "audit", "2", "2", "--kv")
    assert rc == 0
    assert out == (
        "r 2\nk 2\nwitnesses 3\nmax-letter-occurrences 2\nedge-paired-fraction 1.0\n"
    )


def test_audit_capability_bound(capsys):
    rc, _, err = run(capsys, "audit", "4", "4")
    assert rc == 2 and "r <= 3" in err


def test_count_output(capsys):
    rc, out, _ = run(capsys, "count", "2")
    assert rc == 0 and out == "6\n"


def test_count_census_output(capsys):
    rc, out, _ = run(capsys, "count", "3", "--census")
    assert rc == 0
    assert out == "r 3\nfixed-alphabet-words 90\ncanonical-words 15\n"


def test_count_capability_bound(capsys):
    rc, _, err = run(capsys, "count", "4")
    assert rc == 2 and "r <= 3" in err


def test_nonpositive_r_is_a_domain_error(capsys):
    # r < 1 exits 1 like any domain error, before the bound r <= 3 (exit 2)
    for argv in (["count", "0"], ["count", "-1"], ["audit", "0", "0"], ["audit", "-2", "1"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == "" and "at least one pair" in err
    assert run(capsys, "count", "4")[0] == 2
    assert run(capsys, "audit", "4", "4")[0] == 2


def test_usage_errors_exit_one(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == 1 and err != ""
    rc, _, err = run(capsys, "decode", "--word", "1,2")
    assert rc == 1 and err != ""
    rc, _, err = run(capsys, "path", "seven")
    assert rc == 1 and err != ""
    rc, _, err = run(capsys)
    assert rc == 1 and err != ""


def test_repeat_invocations_are_byte_identical(capsys):
    first = run(capsys, "lettericity", "--path", "8")
    second = run(capsys, "lettericity", "--path", "8")
    assert first == second


SMALL = st.integers(-3, 14)
# Pieces of words, decoders and edge lists, well-formed and not.
TEXT = st.lists(
    st.sampled_from(["1", "2", "3", "9", "0", "-1", "12", "x", ",", ":", " ", "\n", "1:2", "2:1", "1 2"]),
    max_size=8,
).map("".join)


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(0, 7))
    lines = [f"{u} {v}" for u, v in draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=9))]
    m = draw(st.sampled_from([len(lines), len(lines) + 1, draw(SMALL)]))
    return "\n".join([f"{n} {m}", *lines, draw(TEXT)])


@st.composite
def argument_vectors(draw, directory):
    """An argument vector for one subcommand, and its pair count r where it
    names one. No size starts a long run: path n <= 2000, lettericity
    targets of at most 12 vertices."""
    command = draw(st.sampled_from(["decode", "path", "lettericity", "audit", "count"]))
    flag = draw(st.booleans())
    if command == "decode":
        argv = ["decode", "--word", draw(TEXT), "--decoder", draw(TEXT)]
        if flag:
            argv += ["--k", str(draw(SMALL))]
        return argv + draw(st.sampled_from([[], ["--format", "dot"], ["--format", "svg"]])), None
    if command == "path":
        return ["path", str(draw(st.integers(-3, 2000)))] + (["--verify"] if flag else []), None
    if command == "audit":
        r = draw(SMALL)
        return ["audit", str(r), str(draw(SMALL))] + (["--kv"] if flag else []), r
    if command == "count":
        r = draw(SMALL)
        return ["count", str(r)] + (["--census"] if flag else []), r
    source = draw(st.sampled_from(["--path", "--matching", "file", "missing", "directory", "none"]))
    if source in ("--path", "--matching"):
        size = draw(SMALL)
        return ["lettericity", source, str(size)], size if source == "--matching" else None
    if source == "file":
        path = directory / "graph.txt"
        path.write_text(draw(edge_list_texts()), encoding="utf-8")
        return ["lettericity", str(path)] + (["--path", "3"] if flag else []), None
    if source == "missing":
        return ["lettericity", str(directory / "missing.txt")], None
    return (["lettericity", str(directory)] if source == "directory" else ["lettericity"]), None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cli_fuzz_exits_with_a_contract_code(tmp_path_factory, data):
    # Exit 0, 1 or 2 and no exception for any vector; r <= 0 is a domain
    # error (exit 1).
    directory = tmp_path_factory.getbasetemp() / "cli-fuzz"
    directory.mkdir(exist_ok=True)
    argv, r = data.draw(argument_vectors(directory))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2), argv
    if r is not None and r <= 0:
        assert rc == 1, argv


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Every command pays for the CLI's import; dataclasses alone pulls in
    # inspect, ast, dis and tokenize. -S keeps site's own imports out.
    src = str(Path(lettergraphs.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lettergraphs.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
