"""The README's examples: the ```pycon blocks run as one doctest session, and
the ```console blocks run through the CLI's ``main``."""

import doctest
import re
import shlex
from pathlib import Path

from altrings.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(kind):
    return re.findall(rf"^```{kind}\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_pycon_examples():
    blocks = _blocks("pycon")
    # the blank line between blocks ends each block's last expected output
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README.md", str(README), 0
    )
    results = doctest.DocTestRunner().run(test)
    assert len(blocks) == 2 and results.attempted > 0
    assert results.failed == 0


def _session(block):
    """[command, expected output lines] for each ``$ `` line of a block."""
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append([line[2:], []])
        else:
            steps[-1][1].append(line.rstrip())
    return steps


def test_readme_console_examples(tmp_path, monkeypatch, capsys):
    # the decompose example's map is the delta + tau that it prints
    rows = ("1 0 0 1", "0 3 0 0", "0 0 -3 0", "1 0 0 1")
    (tmp_path / "D.lmap").write_text(
        "lmap 1\ndim 4\n" + "".join(f"row {r}\n" for r in rows)
    )
    monkeypatch.chdir(tmp_path)
    ran = 0
    for block in _blocks("console"):
        code = None
        for command, expected in _session(block):
            if command == "echo $?":
                assert expected == [str(code)]
                continue
            program, *argv = shlex.split(command)
            if program != "altrings":  # the install commands
                continue
            code = main(argv)
            out = capsys.readouterr().out
            assert [line.rstrip() for line in out.splitlines()] == expected, command
            ran += 1
    assert ran == 4
