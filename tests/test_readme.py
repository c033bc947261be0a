"""The README's ```pycon examples, run as one doctest session."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_pycon_examples():
    blocks = re.findall(r"^```pycon\n(.*?)^```", README.read_text(), re.S | re.M)
    # the blank line between blocks ends each block's last expected output
    test = doctest.DocTestParser().get_doctest(
        "\n".join(blocks), {}, "README.md", str(README), 0
    )
    results = doctest.DocTestRunner().run(test)
    assert len(blocks) == 2 and results.attempted > 0
    assert results.failed == 0
