"""The certification scripts, run in-process through their main()."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(module, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [module.__name__, *argv])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = module.main()
    return rc, out.getvalue()


def test_certify_paths_reports_the_range_it_solved_exactly(monkeypatch):
    script = _load("certify_paths")
    rc, out = _run(script, monkeypatch, "--max-construct", "6", "--max-exact", "9")
    assert rc == 0
    assert out.splitlines()[-1] == "all n in 3..6 certified constructively (exactly up to n=6)"


def test_certify_paths_counts_a_failed_witness_check(monkeypatch):
    # Not an assert, which python -O would drop: each n in 3..6 whose exact
    # witness fails its check is one mismatch, and the script exits 1.
    script = _load("certify_paths")
    monkeypatch.setattr(script, "verify_lettering", lambda *args: False)
    rc, out = _run(script, monkeypatch, "--max-construct", "6", "--max-exact", "9")
    assert rc == 1
    assert out.splitlines()[-1] == "MISMATCHES: 4"


def test_certify_paths_rejects_an_empty_range(monkeypatch, capsys):
    # Below n = 3 the sweep would check nothing and still report success.
    script = _load("certify_paths")
    for bound in ("2", "0", "-5"):
        with pytest.raises(SystemExit) as exit_info:
            _run(script, monkeypatch, "--max-construct", bound)
        assert exit_info.value.code == 2
        assert "--max-construct must be at least 3" in capsys.readouterr().err


def test_bench_pairs_summary_statistics():
    # Pairs (10, 11), (12, 12), (11, 10), (13, 14), (9, 12): the tie counts
    # for neither side. The parent's quartiles are 10 and 12.
    script = _load("bench_pairs")
    parent, change = [10.0, 12.0, 11.0, 13.0, 9.0], [11.0, 12.0, 10.0, 14.0, 12.0]
    higher = {"parent_median": 11.0, "change_median": 12.0, "parent_iqr": 2.0, "change_wins": 3, "pairs": 5}
    assert script.summarize(parent, change, "higher") == higher
    assert script.summarize(parent, change, "lower") == {**higher, "change_wins": 1}
