import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import altrings
from altrings.algebra import BudgetError
from altrings.catalog import catalog, parse, serialize
from altrings.cli import main
from altrings.fields import GF, QQ
from altrings.peirce import is_prime
from oracles import mat2_over_x4_plus_1


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_alternative_zorn(capsys):
    code, out, _ = run(capsys, "check", "--catalog", "zorn", "--prop", "alternative")
    assert code == 0
    assert "check:alternative" in out and "holds" in out


def test_check_all_identities_default(capsys):
    code, out, _ = run(capsys, "check", "--catalog", "zorn")
    assert code == 1  # associativity fails on zorn
    assert "check:associative" in out and "fails" in out


def test_check_torsion_and_prime(capsys):
    code, out, _ = run(
        capsys, "check", "--catalog", "mat2", "--field", "GFp:2",
        "--torsion", "3", "--prime",
    )
    assert code == 0
    assert "check:torsion-free-3" in out
    assert "check:prime" in out


def test_check_prime_witness_printed(capsys):
    code, out, _ = run(
        capsys, "check", "--catalog", "tri2", "--field", "GFp:2", "--prime"
    )
    assert code == 1
    assert "aRb = 0" in out


def test_prime_over_its_budget_is_one_undecided_row(capsys):
    # 960,800 rays: the library refuses, and the CLI reports that nothing
    # was decided after the rows it has printed
    with pytest.raises(BudgetError):
        is_prime(catalog("zorn", GF(7)))
    budget = ("check:budget                       undecided  960800 rays exceed the primality"
              " budget 131072")
    for props, before in (([], []), (["--prop", "alternative"],
                                     ["check:alternative                  holds"])):
        code, out, err = run(capsys, "check", "--catalog", "zorn", "--field", "GFp:7",
                             *props, "--prime")
        assert (code, err) == (2, "")
        assert [line.rstrip() for line in out.splitlines()] == before + [budget]


def test_peirce_conditions_tri2_exit_1(capsys):
    code, out, _ = run(capsys, "peirce", "--catalog", "tri2", "--conditions")
    assert code == 1
    assert "peirce:cond-1(1,2)" in out
    assert "peirce:dims" in out


def test_peirce_full_run_mat2(capsys):
    code, out, _ = run(capsys, "peirce", "--catalog", "mat2")
    assert code == 0
    assert "peirce:relation-composition" in out
    assert "peirce:commutant-12" in out


def test_peirce_explicit_idempotent(capsys):
    code, out, _ = run(
        capsys, "peirce", "--catalog", "mat2", "--idem", "0 0 0 1"
    )
    assert code == 0
    assert "(1, 1, 1, 1)" in out


def test_peirce_undecided_exit_2(tmp_path, capsys):
    # product2's commutant checks all hold; on 2 x 2 matrices over
    # Q[x]/(x^4 + 1) conditions (1)-(3) hold and (4) is undecided -> exit 2
    code, _, _ = run(capsys, "peirce", "--catalog", "product2", "--commutant")
    assert code == 0
    path = tmp_path / "m2k.saf"
    path.write_bytes(serialize(mat2_over_x4_plus_1()))
    code, out, _ = run(capsys, "peirce", "--file", str(path), "--conditions")
    assert code == 2
    assert "undecided" in out and "fails" not in out


@pytest.mark.parametrize("field", ["Q", "GF 3"])
def test_peirce_relation_witness_lines(tmp_path, capsys, field):
    # e1 e1 = e1, e1 e2 = e2, e2 e2 = e1: at e1, R12 = span{e2} squares into R11
    path = tmp_path / "a.saf"
    path.write_text(f"saf 1\nfield {field}\ndim 2\n"
                    "mul 1 1 1 1\nmul 1 2 2 1\nmul 2 2 1 1\n")
    code, out, _ = run(capsys, "peirce", "--file", str(path), "--idem", "1 0",
                       "--relations", "--format", "tsv")
    assert code == 1
    witnesses = [line.split("\t")[1:] for line in out.splitlines()
                 if line.startswith("peirce:relation-witness")]
    assert witnesses == [
        ["fails", "R12*R12 escapes R21; product (1, 0)"],
        ["fails", "square of (0, 1) is nonzero; product (1, 0)"],
    ]


def test_derive_and_lie(capsys):
    code, out, _ = run(capsys, "derive", "--catalog", "zorn")
    assert code == 0 and "derive:der-dim" in out and "14" in out
    code, out, _ = run(capsys, "derive", "--catalog", "mat2", "--n", "2", "--basis")
    assert code == 0 and "derive:lie2-dim" in out and "derive:basis-0" in out


def test_derive_lie_n_needs_no_budget(capsys):
    code, out, _ = run(capsys, "derive", "--catalog", "mat2", "--n", "6")
    assert code == 0
    assert out.split() == ["derive:lie6-dim", "holds", "4"]
    # 8^7 basis tuples, but 5 spanned levels of at most 8 + 8^3 states each
    code, out, _ = run(capsys, "derive", "--catalog", "zorn", "--n", "7")
    assert code == 0
    assert out.split() == ["derive:lie7-dim", "holds", "15"]


@pytest.mark.parametrize("n", ["0", "1", "-1", "x"])
@pytest.mark.parametrize("argv", [
    ["derive"],
    ["decompose"],
    ["fosner"],
    ["search", "--field", "GFp:2", "--mode", "exhaust"],
])
def test_n_below_2_is_a_usage_error(capsys, argv, n):
    code, out, err = run(capsys, argv[0], "--catalog", "mat2", *argv[1:], "--n", n)
    assert code == 3 and out == ""
    assert "--n" in err


def test_decompose_roundtrip(tmp_path, capsys):
    path = tmp_path / "D.lmap"
    path.write_text(
        "lmap 1\ndim 4\n"
        "row 1 0 0 1\nrow 0 -2 0 0\nrow 0 0 2 0\nrow 1 0 0 1\n"
    )
    code, out, _ = run(
        capsys, "decompose", "--catalog", "mat2", "--map", str(path), "--n", "2"
    )
    assert code == 0
    assert "decompose:delta" in out and "decompose:tau" in out
    assert "decompose:leibniz" in out


def test_decompose_long_nested_commutators(tmp_path, capsys):
    # the README's map; the p_n span of mat2 is the same for every n >= 2
    rows = ("1 0 0 1", "0 3 0 0", "0 0 -3 0", "1 0 0 1")
    path = tmp_path / "D.lmap"
    path.write_text("lmap 1\ndim 4\n" + "".join(f"row {r}\n" for r in rows))
    argv = ["decompose", "--catalog", "mat2", "--field", "Q", "--map", str(path)]
    code2, out2, _ = run(capsys, *argv, "--n", "2")
    code12, out12, _ = run(capsys, *argv, "--n", "12")
    assert code2 == code12 == 0
    assert out12 == out2


def test_decompose_rejection_named_certificate(tmp_path, capsys):
    path = tmp_path / "bad.lmap"
    # ad_{E12}: images of basis under x -> [x, E12]
    path.write_text(
        "lmap 1\ndim 4\n"
        "row 0 0 -1 0\nrow 1 0 0 -1\nrow 0 0 0 0\nrow 0 0 1 0\n"
    )
    code, out, _ = run(
        capsys, "decompose", "--catalog", "mat2", "--map", str(path)
    )
    assert code == 1
    assert "decompose:condition-c" in out


def test_fosner(capsys):
    code, out, _ = run(capsys, "fosner", "--catalog", "mat2", "--n", "2", "--k", "1")
    assert code == 0
    assert "fosner:inclusion" in out
    # the Lie-12 space of mat2 spans 4^12 basis tuples
    code, out, _ = run(capsys, "fosner", "--catalog", "mat2", "--n", "2", "--k", "10")
    assert code == 0
    assert out.split()[:2] == ["fosner:inclusion", "holds"]


def test_search_exhaust(capsys):
    code, out, _ = run(
        capsys, "search", "--catalog", "product2", "--field", "GFp:2",
        "--mode", "exhaust",
    )
    assert code == 0
    assert "search:exhaust-tally" in out
    assert "search:exhaust-no-contradiction" in out


def test_search_exhaust_product2_gf3_completes(capsys):
    code, out, _ = run(
        capsys, "search", "--catalog", "product2", "--field", "GFp:3",
        "--mode", "exhaust",
    )
    assert code == 0
    assert "search:exhaust-complete            holds" in out
    assert "{'lie=True,almost-additive=True': 43046721}" in out


def test_search_exhaust_budget_detail_names_what_ran_out(capsys):
    code, out, _ = run(
        capsys, "search", "--catalog", "tri2", "--field", "GFp:2",
        "--mode", "exhaust", "--n", "7", "--budget", "10",
    )
    assert code == 2
    assert ("search:exhaust-complete            undecided  budget hit after"
            " 10 identity instances and 0 nodes") in out.splitlines()



def test_search_exhaust_incomplete_without_contradiction_is_undecided(capsys):
    # 148,224 of 2^24 tables covered: no contradiction among them proves nothing
    code, out, _ = run(
        capsys, "search", "--catalog", "tri2", "--field", "GFp:2",
        "--mode", "exhaust", "--budget", "100",
    )
    assert code == 2
    lines = out.splitlines()
    assert "search:exhaust-coverage            holds      128 leaves, 148224/16777216 tables covered" in lines
    assert ("search:exhaust-complete            undecided  budget hit after"
            " 64 identity instances and 36 nodes") in lines
    assert ("search:exhaust-no-contradiction    undecided  0 tables satisfy the identity"
            " but are not almost additive in the covered part") in lines



def test_search_exhaust_contradiction_fails_even_if_incomplete(capsys, monkeypatch):
    from collections import Counter

    from altrings import finite

    rep = finite.SearchReport(tally=Counter({(True, False): 1}), leaves=1,
                              covered=1, total=16, nodes=3, complete=False)
    monkeypatch.setattr(finite, "pruned_exhaustive_search", lambda *args, **kw: rep)
    code, out, _ = run(
        capsys, "search", "--catalog", "product2", "--field", "GFp:2", "--mode", "exhaust",
    )
    assert code == 1
    assert ("search:exhaust-no-contradiction    fails      1 tables satisfy the identity"
            " but are not almost additive") in out.splitlines()


@pytest.fixture
def swap_table(tmp_path):
    """A .tmap on tri2 over GF(2) swapping elements 0, 1 and 2, 3."""
    path = tmp_path / "swap.tmap"
    values = [1, 0, 3, 2, 4, 5, 6, 7]
    path.write_text("tmap 1\nsize 8\n" + "".join(f"map {i} {v}\n" for i, v in enumerate(values)))
    return str(path)


@pytest.mark.parametrize("mode, code, line", [
    ("verify", 1, "search:lie-identity                fails      mode exhaustive, checked 1;"
                  " witness ((0, 0, 0), (0, 0, 0)), residual (1, 0, 0)"),
    ("defect", 1, "search:almost-additive             fails      checked 1 pairs;"
                  " non-central defect (1, 0, 0) at a = (0, 0, 0), b = (0, 0, 0)"),
    ("defect --budget 10", 2, "search:budget                      undecided  64 pairs"
                              " exceed budget 10"),
])
def test_search_on_a_table_that_fails_at_zero(capsys, swap_table, mode, code, line):
    # T(0) = e0 is not 0: the first pair (0, 0) already fails
    got, out, err = run(capsys, "search", "--catalog", "tri2", "--field", "GFp:2",
                        "--map", swap_table, "--mode", *mode.split())
    assert (got, out.splitlines(), err) == (code, [line], "")


def test_search_converse_verify_defect_pipeline(tmp_path, capsys):
    lmap = tmp_path / "ad.lmap"
    lmap.write_text(
        "lmap 1\ndim 4\n"
        "row 0 0 0 0\nrow 0 -1 0 0\nrow 0 0 1 0\nrow 0 0 0 0\n"
    )
    table = tmp_path / "T.tmap"
    code, out, _ = run(
        capsys, "search", "--catalog", "mat2", "--field", "GFp:3",
        "--mode", "converse", "--map", str(lmap), "--seed", "1",
        "--out", str(table),
    )
    assert code == 0 and table.exists()
    code, out, _ = run(
        capsys, "search", "--catalog", "mat2", "--field", "GFp:3",
        "--mode", "verify", "--map", str(table),
    )
    assert code == 0 and "exhaustive" in out
    code, out, _ = run(
        capsys, "search", "--catalog", "mat2", "--field", "GFp:3",
        "--mode", "defect", "--map", str(table),
    )
    assert code == 0 and "search:almost-additive" in out


def test_search_verify_undecided_exit_2(tmp_path, capsys):
    lmap = tmp_path / "ad.lmap"
    lmap.write_text(
        "lmap 1\ndim 4\n"
        "row 0 0 0 0\nrow 0 -1 0 0\nrow 0 0 1 0\nrow 0 0 0 0\n"
    )
    table = tmp_path / "T.tmap"
    run(
        capsys, "search", "--catalog", "mat2", "--field", "GFp:3",
        "--mode", "converse", "--map", str(lmap), "--out", str(table),
    )
    code, out, _ = run(
        capsys, "search", "--catalog", "mat2", "--field", "GFp:3",
        "--mode", "verify", "--map", str(table), "--budget", "100",
    )
    assert code == 2
    assert "sampled" in out


def test_catalog_list_and_export_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for name in ("mat2", "tri2", "zorn", "product2"):
        assert f"catalog:{name}" in out

    out_path = tmp_path / "zorn.saf"
    code, _, _ = run(
        capsys, "catalog", "--export", "zorn", "--field", "GFp:5",
        "--out", str(out_path),
    )
    assert code == 0
    data = out_path.read_bytes()
    assert parse(data).tensor == catalog("zorn", GF(5)).tensor

    code, out, _ = run(capsys, "catalog", "--export", "zorn", "--field", "GFp:5")
    assert code == 0
    assert out.encode() == serialize(catalog("zorn", GF(5)))


def test_out_to_unwritable_path_exits_3(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "out")
    code, out, err = run(
        capsys, "catalog", "--export", "zorn", "--field", "GFp:5", "--out", missing,
    )
    assert code == 3 and err.startswith(f"error: cannot write {missing}")
    assert out == ""

    lmap = tmp_path / "ad.lmap"
    lmap.write_text(
        "lmap 1\ndim 4\n"
        "row 0 0 0 0\nrow 0 -1 0 0\nrow 0 0 1 0\nrow 0 0 0 0\n"
    )
    code, out, err = run(
        capsys, "search", "--catalog", "mat2", "--field", "GFp:3",
        "--mode", "converse", "--map", str(lmap), "--out", missing,
    )
    assert code == 3 and err.startswith(f"error: cannot write {missing}")
    assert out == ""  # no verdict line before the failed write


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is a real temporary file, so redirecting it is safe."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [
    ["info", "--catalog", "mat2"],
    ["catalog", "--export", "zorn", "--field", "GFp:5"],
])
def test_closed_stdout_exits_141_quietly(tmp_path, capsys, monkeypatch, argv):
    with open(tmp_path / "stdout", "wb") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = main(argv)
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == 141
    assert capsys.readouterr().err == ""


def test_info_file_input(tmp_path, capsys):
    path = tmp_path / "a.saf"
    path.write_bytes(serialize(catalog("mat2", QQ)))
    code, out, _ = run(capsys, "info", "--file", str(path))
    assert code == 0
    assert "info:dim" in out and "4" in out


def test_tsv_format(capsys):
    code, out, _ = run(
        capsys, "check", "--catalog", "zorn", "--prop", "alternative",
        "--format", "tsv",
    )
    assert code == 0
    line = [ln for ln in out.splitlines() if ln.startswith("check:")][0]
    assert line.split("\t") == ["check:alternative", "holds", ""]


def test_usage_errors_exit_3(tmp_path, capsys):
    code, _, err = run(capsys, "check")  # no algebra source
    assert code == 3 and "error:" in err
    code, _, err = run(capsys, "check", "--catalog", "mat2", "--field", "GF5")
    assert code == 3
    code, _, err = run(capsys, "decompose", "--catalog", "mat2")
    assert code == 3

    bad = tmp_path / "bad.saf"
    bad.write_text("saf 1\nfield Q\ndim 1\nmul 1 1 9 1\n")
    code, _, err = run(capsys, "info", "--file", str(bad))
    assert code == 3 and "line 4" in err


def test_map_file_errors_are_line_numbered(tmp_path, capsys):
    path = tmp_path / "bad.lmap"
    path.write_text("lmap 1\ndim 4\nrow 1 2 3\n")
    code, _, err = run(
        capsys, "decompose", "--catalog", "mat2", "--map", str(path)
    )
    assert code == 3 and ":3:" in err

    tbl = tmp_path / "bad.tmap"
    tbl.write_text("tmap 1\nsize 16\nmap 0 99\n")
    code, _, err = run(
        capsys, "search", "--catalog", "mat2", "--field", "GFp:2",
        "--mode", "verify", "--map", str(tbl),
    )
    assert code == 3 and ":3:" in err


@pytest.mark.parametrize(
    "suffix, text, lineno",
    [
        ("lmap", "# D for mat2\nlmap 2\ndim 4\n", 2),
        ("lmap", "lmap 1\ndim 4 9\n", 2),
        ("lmap", "lmap 1\ndim 4\nrow 1 0 0 0\n", 4),
        ("lmap", "lmap 1\ndim 4\n" + "row 0 0 0 0\n" * 5, 7),
        ("tmap", "# T\ntmap 2\nsize 16\n", 2),
        ("tmap", "tmap 1\nsize 16 x\n", 2),
        ("tmap", "tmap 1\nsize 15\n", 2),
        ("tmap", "tmap 1\nsize 16\n" + "".join(f"map {i} 0\n" for i in range(15)), 18),
    ],
)
def test_every_map_file_error_names_its_line(tmp_path, capsys, suffix, text, lineno):
    path = tmp_path / f"bad.{suffix}"
    path.write_text(text)
    if suffix == "lmap":
        argv = ["decompose", "--catalog", "mat2", "--map", str(path)]
    else:
        argv = ["search", "--catalog", "mat2", "--field", "GFp:2",
                "--mode", "verify", "--map", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith(f"error: {path}:{lineno}: ")


@pytest.mark.parametrize("budget", ["0", "-5", "x"])
def test_nonpositive_budget_is_a_usage_error(capsys, budget):
    code, out, err = run(
        capsys, "check", "--catalog", "mat2", "--field", "GFp:3", "--prime",
        "--budget", budget,
    )
    assert code == 3 and out == ""
    assert "--budget" in err


@pytest.mark.parametrize("argv", [
    ["info", "--catalog", "mat2", "--budget", "5"],
    ["peirce", "--catalog", "mat2", "--budget", "5"],
    ["info", "--catalog", "mat2", "--seed", "1"],
    ["derive", "--catalog", "mat2", "--seed", "1"],
    ["derive", "--catalog", "mat2", "--budget", "5"],
    ["fosner", "--catalog", "mat2", "--budget", "5"],
    # one algebra source, and a .saf file names its own field
    ["info", "--file", "x.saf", "--catalog", "mat2"],
    ["info", "--catalog", "mat2", "--file", "x.saf"],
    ["info", "--file", "x.saf", "--field", "GFp:3"],
    ["derive", "--file", "x.saf", "--field", "Q"],
    # the listing reads no algebra, is over Q and writes no file
    ["catalog", "--catalog", "mat2"],
    ["catalog", "--file", "/nonexistent.saf"],
    ["catalog", "--out", "x.saf"],
    ["catalog", "--field", "GFp:5"],
])
def test_knob_on_a_subcommand_that_ignores_it_is_a_usage_error(capsys, tmp_path,
                                                                monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    knob = [a for a in argv if a.startswith("--")][-1]
    assert knob in err
    assert list(tmp_path.iterdir()) == []


def test_unknown_subcommand_exit_3(capsys):
    assert run(capsys, "frobnicate")[0] == 3


@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_nonpositive_torsion_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "check", "--catalog", "mat2", "--torsion", value)
    assert code == 3 and out == ""
    assert "--torsion" in err and repr(value) in err


@pytest.mark.parametrize("value", ["-2", "x"])
def test_negative_fosner_k_is_a_usage_error(capsys, value):
    code, out, err = run(capsys, "fosner", "--catalog", "mat2", "--k", value)
    assert code == 3 and out == ""
    assert "--k" in err and repr(value) in err


def test_fosner_k_zero_is_the_trivial_inclusion(capsys):
    code, out, _ = run(capsys, "fosner", "--catalog", "mat2", "--k", "0")
    assert code == 0
    assert out.split()[:2] == ["fosner:inclusion", "holds"]


def _cold(*argv):
    """``python -m altrings argv`` in a fresh process: (exit code, stdout, stderr)."""
    src = str(Path(altrings.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-m", "altrings", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


def test_char3_primality_warning_is_one_note_line():
    code, out, err = _cold("check", "--catalog", "zorn", "--field", "GFp:3", "--prime")
    assert code == 0
    assert out == "check:prime                        holds      all 3280 rays have trivial annihilator\n"
    assert err == ("note: primality loop on a char-3 ring: the ideal-theoretic"
                   " equivalence assumes 3-torsion-freeness\n")


def test_undecided_ring_condition_in_decompose_is_one_note_line(tmp_path, capsys):
    # 2 x 2 matrices over Q[x]/(x^4 + 1) at E11: conditions (1)-(3) hold,
    # and (4) is undecided since the center has dimension 4
    saf, lmap = tmp_path / "m2k.saf", tmp_path / "zero.lmap"
    saf.write_bytes(serialize(mat2_over_x4_plus_1()))
    lmap.write_text("lmap 1\ndim 16\n" + ("row" + " 0" * 16 + "\n") * 16)
    shown = warnings.showwarning
    code, out, err = run(capsys, "decompose", "--file", str(saf), "--map", str(lmap),
                         "--idem", "1" + " 0" * 15)
    assert code == 0 and warnings.showwarning is shown
    assert out.splitlines()[3] == "decompose:leibniz                  holds      "
    assert err == ("note: ring condition 4 undecided: zR = R is nonlinear in z;"
                   " undecidable over an infinite field here\n")
