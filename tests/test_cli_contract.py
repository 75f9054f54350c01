"""The CLI's exit-code contract, over a seeded corpus of field specs crossed
with every command and option, run in process through ``cli.main``.

For every input the command must give an answer or a documented exit code
within a time bound: 0 with a JSON report, 1 only with a JSON report whose
``mismatches`` list is not empty, 2 for usage errors, 3 for unmet
preconditions, 4 for size bounds; and no traceback may reach stderr.
"""

import json
import random
import time

import pytest

from cyclokit.cli import main
from cyclokit.numtheory import is_prime

#: Seconds any one command may take here; the slowest in this corpus takes
#: a few hundredths.
TIME_BOUND_S = 2.0

_rng = random.Random(20230)


def _prime_near(low):
    n = low | 1
    while not is_prime(n):
        n += 2
    return n


#: Q, small and large primes, prime powers up to and past the bound of
#: 65,536 bits on k * bit_length(p), non-prime characteristics and
#: malformed specs.
FIELDS = [
    "Q", "q:2", "q:3", "q:5", "q:23",
    f"q:{_prime_near(_rng.randrange(30, 100))}",
    f"q:{_prime_near(_rng.randrange(1 << 30, 1 << 31))}",
    f"q:{_prime_near(_rng.randrange(1 << 40, 1 << 41))}",
    "q:4294967291", "q:9223372036854775783", "q:18446744073709551557",
    "q:2^5", "q:3^4", "q:2^32768", "q:3^32768", "q:2^32769", "q:7^99999999",
    "q:0", "q:1", "q:6", "q:4^2", "q:-7", "q:5^0", "q:2^-1", "q:", "q:abc", "F5", "",
]

#: Every command with each of its options, on values that answer, refuse or
#: are malformed.
COMMANDS = [
    ["classify"],
    ["moduli"],
    *(["moduli", "--prime", p] for p in ("2", "3", "4", "1", "x",
                                         "318665857834031151167461")),
    *(["analyze", "--n", n] for n in ("1", "3", "4", "8", str(_rng.randrange(9, 200)),
                                      str(2**61 - 1), "99999999999999999999", "0", "x")),
    ["verify", "--max-n", "12"],
    ["verify", "--max-n", "0"],
]

#: verify and analyze consult the brute-force oracle only up to
#: CYCLOKIT_MAX_Q (default 1024); the corpus keeps the full verify runs to
#: fields that are cheap to build.
_FULL_VERIFY = {"q:2", "q:3", "q:5", "q:23", "q:2^5", FIELDS[5]}


def _run(capsys, args):
    capsys.readouterr()
    start = time.perf_counter()
    try:
        main(args)
        code = 0
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any other exception is a breach
        code = f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    return code, out, err, elapsed


@pytest.mark.parametrize("field", FIELDS)
def test_every_command_answers_or_exits_with_a_documented_code(capsys, monkeypatch, field):
    cases = [(None, [*command[:1], "--field", field, *command[1:]]) for command in COMMANDS]
    if field in _FULL_VERIFY:
        cases.append((None, ["verify", "--field", field]))
    # The oracle gate is an option too: malformed, refusing and raised.
    cases += [(gate, [command, "--field", field, *extra]) for gate in ("abc", "1", "2000")
              for command, extra in (("analyze", ["--n", "3"]), ("verify", ["--max-n", "12"]))]
    broken = []
    for gate, args in cases:
        if gate is None:
            monkeypatch.delenv("CYCLOKIT_MAX_Q", raising=False)
        else:
            monkeypatch.setenv("CYCLOKIT_MAX_Q", gate)
        code, out, err, elapsed = _run(capsys, args)
        args = args if gate is None else [f"CYCLOKIT_MAX_Q={gate}", *args]
        if code not in (0, 1, 2, 3, 4):
            broken.append((args, f"exit {code!r}"))
        if "Traceback" in err:
            broken.append((args, "traceback on stderr"))
        if elapsed > TIME_BOUND_S:
            broken.append((args, f"took {elapsed:.2f} s"))
        if code in (0, 1):
            try:
                report = json.loads(out)
            except ValueError:
                broken.append((args, "stdout is not JSON"))
                continue
            if code == 1 and not report.get("mismatches"):
                broken.append((args, "exit 1 without mismatches"))
    assert broken == []
