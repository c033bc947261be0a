"""What each entry point loads, and the package namespace it exposes.

`altrings/__init__` imports `algebra`, `catalog`, `fields`, `linalg` and
`verdict`; `finite`, `lietype` and `peirce` load on first use.  No entry
point loads `dataclasses` or `inspect`: the result records are NamedTuples
or plain classes.  The import checks run in a fresh interpreter each, since
this process has long since loaded every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altrings
from altrings.catalog import serialize
from altrings.fields import GF

SRC = str(Path(altrings.__file__).resolve().parents[1])
LAZY = ("altrings.finite", "altrings.lietype", "altrings.peirce")
HEAVY = {"dataclasses", "inspect"}  # ~13 ms of a cold CLI process, with ast, dis, tokenize
MODULES = [importlib.import_module(f"altrings.{m}") for m in (
    "algebra", "catalog", "fields", "finite", "lietype", "linalg", "peirce", "verdict")]

# runs main(argv) with stdout discarded, then prints [exit code, loaded modules]
CLI = """
import contextlib, io, json, sys
from altrings.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""
LOADED = "import json, sys; print(json.dumps(sorted(sys.modules)))"
README_LMAP = "lmap 1\ndim 4\nrow 1 0 0 1\nrow 0 3 0 0\nrow 0 0 -3 0\nrow 1 0 0 1\n"


def _python(code: str, *argv) -> str:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def _cli_loads(*argv):
    code, loaded = json.loads(_python(CLI, *argv))
    return code, set(loaded)


def test_import_altrings_loads_none_of_the_lazy_modules():
    loaded = set(json.loads(_python("import altrings; " + LOADED)))
    assert "altrings.catalog" in loaded
    assert not set(LAZY) & loaded
    assert not HEAVY & loaded


@pytest.mark.parametrize("module", LAZY)
def test_lazy_module_loads_neither_dataclasses_nor_inspect(module):
    loaded = set(json.loads(_python(f"import {module}; " + LOADED)))
    assert module in loaded and not HEAVY & loaded


def test_cli_loads_only_what_its_subcommand_runs(tmp_path):
    saf = tmp_path / "zorn2.saf"
    lmap = tmp_path / "D.lmap"
    lmap.write_text(README_LMAP)
    peirce, lietype = {"altrings.peirce"}, {"altrings.lietype"}

    # argv -> the lazy modules it loads; none loads dataclasses or inspect
    for argv, lazy in (
            (["catalog", "--export", "zorn", "--field", "GFp:2", "--out", saf], set()),
            (["info", "--file", saf], set()),
            (["check", "--catalog", "mat2", "--prop", "identities"], set()),
            (["check", "--file", saf, "--prime"], peirce),
            (["peirce", "--catalog", "zorn", "--conditions"], peirce),
            (["derive", "--catalog", "mat2"], lietype),
            (["decompose", "--catalog", "mat2", "--map", lmap], lietype | peirce),
            (["fosner", "--catalog", "mat2"], lietype),
            (["search", "--catalog", "product2", "--field", "GFp:2", "--mode", "exhaust"],
             {"altrings.finite"})):
        code, loaded = _cli_loads(*argv)
        assert code == 0 and set(LAZY) & loaded == lazy, argv
        assert not HEAVY & loaded, (argv, sorted(HEAVY & loaded))
    assert saf.read_bytes() == serialize(altrings.catalog("zorn", GF(2)))


def test_every_exported_name_is_the_object_of_its_home_module():
    for name in altrings.__all__:
        obj = getattr(altrings, name)
        home = getattr(obj, "__module__", None)
        if isinstance(home, str) and home.startswith("altrings."):
            assert vars(sys.modules[home])[name] is obj, name
        # every module that binds the name binds this same object
        assert {id(vars(m)[name]) for m in MODULES if name in vars(m)} == {id(obj)}, name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from altrings import *", namespace)
    assert set(altrings.__all__) <= set(namespace)
    assert set(altrings.__all__) <= set(dir(altrings))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        altrings.no_such_name
    assert not hasattr(altrings, "no_such_name")


def test_catalog_is_the_function_not_the_submodule():
    assert altrings.catalog is vars(sys.modules["altrings.catalog"])["catalog"]


def test_lazy_names_are_read_from_their_home_module_each_time(monkeypatch):
    # The tracer in perfbench patches functions in their home module and
    # restores them on uninstall().  A name cached in the package namespace
    # would keep serving the wrapper after the restore.
    peirce = sys.modules["altrings.peirce"]
    original = peirce.is_prime
    for name in altrings._LAZY:
        getattr(altrings, name)
        assert name not in vars(altrings), name

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(peirce, "is_prime", patched)
    assert altrings.is_prime is patched
    monkeypatch.undo()
    assert altrings.is_prime is original
