"""The committed mutant table of ``mutants.py``: every snippet is in the
source exactly once and every node id names a test that exists, and the
harness reports a no-op mutant as a survivor."""

import re
from pathlib import Path

import pytest

import mutants
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_snippet_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert mutants.occurrences(mutant) == 1


def test_mutant_names_are_unique_and_their_tests_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.kills, mutant.name
        for node in mutant.kills:
            path, name = node.split("::")
            assert re.search(rf"^def {re.escape(name.split('[')[0])}\(",
                             (ROOT / path).read_text(), re.M), node


def test_a_no_op_mutant_survives_and_fails_the_script(monkeypatch, capsys):
    real = next(m for m in MUTANTS if m.name == "one passed set shared by all depths")
    no_op = real._replace(name="no-op", new=real.old)
    assert mutants.survivors(real) == []
    monkeypatch.setattr(mutants, "MUTANTS", (no_op,))
    assert mutants.main([]) == 1
    assert capsys.readouterr().out.startswith("SURVIVED  no-op")
