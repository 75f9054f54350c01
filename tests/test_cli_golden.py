"""Golden test of the CLI: stdout, stderr and exit code of a fixed command
matrix, replayed in-process through ``cli.main`` and compared byte for byte
with ``cli_golden.json``.

The matrix covers ``analyze``, ``moduli``, ``classify`` and ``verify`` over
the rationals, small prime fields, fields of large degree, large prime fields
(``q:1000003``, ``q:2516209727``, ``q:4294967291``; none needs Brent rho),
characteristic 2 with its Artin-Schreier generator realized (``q:2``) and
symbolic only (``q:2^11``, whose ``q^2`` exceeds the oracle's field bound),
plus commands that exit 2 and 3, and exit code 4 from ``verify`` over
``q:1000003`` and ``q:2516209727``, which exceed CYCLOKIT_MAX_Q.  A refactor
that must not change the CLI's output keeps this test passing unedited.  When
the output changes on purpose, regenerate the file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review its diff.

``PYTHONPATH=src python tests/test_cli_golden.py --check`` replays the matrix
without pytest, so it runs on any interpreter with nothing installed: it
prints each case that differs and exits 1 if any does, 0 if all match.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from cyclokit.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

FIELDS = ("Q", "q:23", "q:5", "q:2^10", "q:17^2", "q:1000003", "q:2516209727")

COMMANDS = [
    ["analyze", "--field", "Q", "--n", "4"],
    ["analyze", "--field", "Q", "--n", "6"],
    ["analyze", "--field", "q:23", "--n", "16"],
    ["analyze", "--field", "q:23", "--n", "3"],
    ["analyze", "--field", "q:5", "--n", "8"],
    ["analyze", "--field", "q:5", "--n", "12"],
    ["analyze", "--field", "q:2^10", "--n", "41"],
    ["analyze", "--field", "q:17^2", "--n", "5"],
    ["analyze", "--field", "q:1000003", "--n", "8"],
    ["analyze", "--field", "q:2516209727", "--n", "64"],
    *(["moduli", "--field", f] for f in FIELDS),
    ["moduli", "--field", "q:23", "--prime", "2"],
    ["moduli", "--field", "q:17^2", "--prime", "3"],
    *(["moduli", "--field", "Q", "--prime", p]
      for p in ("2", "3", "5", "9223372036854775837")),
    ["moduli", "--field", "q:2^10", "--prime", "3"],
    ["moduli", "--field", "q:7", "--prime", "2"],
    ["moduli", "--field", "q:3", "--prime", "2"],
    *(["classify", "--field", f] for f in FIELDS),
    ["classify", "--field", "q:7"],
    *(["verify", "--field", f] for f in FIELDS),
    ["analyze", "--field", "q:6", "--n", "3"],
    ["analyze", "--field", "q:5", "--n", "10"],
    ["classify", "--field", "q:4294967291"],
    ["analyze", "--field", "Q", "--n", "3"],
    ["analyze", "--field", "q:2", "--n", "3"],
    ["analyze", "--field", "q:2^11", "--n", "3"],
    ["moduli", "--field", "q:2"],
    ["classify", "--field", "q:2"],
    ["verify", "--field", "q:2^3"],
]


def replay(args: list[str]) -> dict:
    """Stdout, stderr and exit code of ``cyclokit ARGS``, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code
    return {"args": args, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "exit_code": code}


def _golden() -> dict:
    return {" ".join(case["args"]): case for case in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_the_matrix():
    assert sorted(_golden()) == sorted(" ".join(args) for args in COMMANDS)
    assert {case["exit_code"] for case in _golden().values()} == {0, 2, 3, 4}


def pytest_generate_tests(metafunc):
    # The hook, not a pytest.mark decorator, so that --check imports no pytest.
    if "args" in metafunc.fixturenames:
        metafunc.parametrize("args", COMMANDS, ids=" ".join)


def test_cli_output_matches_golden(args, monkeypatch):
    monkeypatch.delenv("CYCLOKIT_MAX_Q", raising=False)
    assert replay(args) == _golden()[" ".join(args)]


if __name__ == "__main__":
    os.environ.pop("CYCLOKIT_MAX_Q", None)
    if sys.argv[1:] == ["--check"]:
        golden = _golden()
        differing = 0
        for args in COMMANDS:
            got, want = replay(args), golden.get(" ".join(args))
            if got != want:
                differing += 1
                print(f"differs: {' '.join(args)}\n  golden: {json.dumps(want)}\n"
                      f"  now:    {json.dumps(got)}")
        print(f"{len(COMMANDS) - differing} of {len(COMMANDS)} cases match")
        sys.exit(1 if differing else 0)
    if sys.argv[1:]:
        sys.exit("usage: python tests/test_cli_golden.py [--check]")
    GOLDEN.write_text(json.dumps([replay(args) for args in COMMANDS], indent=1) + "\n")
