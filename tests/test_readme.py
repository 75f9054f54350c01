"""The README's ``pycon`` examples, run through doctest so they cannot go stale."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_pycon_blocks_print_what_they_show():
    text = README.read_text()
    blocks = list(re.finditer(r"^```pycon\n(.*?)^```", text, re.M | re.S))
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for block in blocks:
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(block[1], {}, "README.md", str(README), lineno)
        assert runner.run(test).failed == 0
