"""Tests for the command-line interface: JSON payloads, exit codes, and the
size-bound environment override for each subcommand.
"""

import gc
import json
import operator
import os
import shutil
import subprocess
import sys
from math import prod
from pathlib import Path
from types import SimpleNamespace

import pytest

import cyclokit
import cyclokit.cli as cli_mod
import cyclokit.moduli as moduli_mod
import cyclokit.oracle as oracle_mod
import cyclokit.quadcyclo as quadcyclo_mod
from cyclokit.cli import main
from cyclokit.field_profile import Sign
from cyclokit.numtheory import MAX_FACTOR_INPUT, ResidueClass, is_prime

from conftest import valuation


class Runner:
    """Runs ``main(args)`` in-process, as the console script does, and
    captures its stdout, stderr and SystemExit."""

    def __init__(self, capsys, monkeypatch):
        self.capsys, self.monkeypatch = capsys, monkeypatch

    def invoke(self, command, args, env=None):
        for name, value in (env or {}).items():
            self.monkeypatch.setenv(name, value)
        self.capsys.readouterr()
        exception, exit_code = None, 0
        try:
            command(args)
        except SystemExit as exc:
            exception, exit_code = exc, exc.code
        out, err = self.capsys.readouterr()
        return SimpleNamespace(
            exit_code=exit_code, stdout=out, stderr=err, exception=exception
        )


@pytest.fixture()
def runner(capsys, monkeypatch):
    return Runner(capsys, monkeypatch)


def invoke_json(runner, args, **kwargs):
    result = runner.invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.stderr
    return json.loads(result.stdout)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_finite_two_high_minus(runner):
    payload = invoke_json(runner, ["analyze", "--field", "q:23", "--n", "16"])
    assert payload["command"] == "analyze"
    assert payload["field"] == "q:23"
    r = payload["results"]
    assert r["n"] == 16
    assert r["degree"] == 2
    assert r["quadratic"] is True
    assert r["in_field"] is False
    assert r["n_F"] == 2
    assert r["order_of_zeta"] == 8
    assert r["t_nF"] == 16
    mp = r["min_poly"]
    assert mp["case"] == "TwoHighMinus"
    assert mp["yogh"] == 7
    assert mp["trace_symbolic"] == "z(16,1) + z(16,7)"
    assert mp["norm_symbolic"] == "-z(1,0)"
    assert mp["trace_concrete"] == [19, 0]
    assert mp["norm_concrete"] == [22, 0]
    assert r["min_poly_rendered"] == "x^2 - (z(16,1) + z(16,7))*x + (-z(1,0))"
    assert r["trace_shape"] == "z(2,1)*(z(16,1) - z(16,1)^-1)"
    gen = r["generator"]
    assert gen["type"] == "radical"
    assert gen["expression"] == "z(16,1) - z(16,7)"
    assert gen["square_value"] == [20, 0]
    kappa = r["kappa"]
    assert kappa["branch"] == "MinusBranch"
    assert kappa["representative"] == "z(16,1) + z(16,7)"
    assert kappa["in_field"] is True
    assert payload["oracle_checked"] is True
    assert payload["mismatches"] == []


def test_analyze_rational_radical(runner):
    payload = invoke_json(runner, ["analyze", "--field", "Q", "--n", "4"])
    r = payload["results"]
    assert r["min_poly"]["case"] == "Radical"
    assert r["min_poly_rendered"] == "x^2 - (0)*x + (z(1,0))"
    assert r["integer_min_poly"] == "x^2 + 1"
    gen = r["generator"]
    assert gen["expression"] == "2*z(4,1)"
    assert gen["square"] == "-4*z(1,0)"
    assert gen["square_value"] == "-4"
    assert r["kappa"]["branch"] == "TwoTimesBranch"
    assert payload["oracle_checked"] is True


def test_analyze_non_quadratic_reports_degree_only(runner):
    payload = invoke_json(runner, ["analyze", "--field", "q:5", "--n", "7"])
    r = payload["results"]
    assert r["degree"] == 6
    assert r["quadratic"] is False
    assert "min_poly" not in r
    assert payload["oracle_checked"] is False


def test_analyze_root_already_in_field(runner):
    payload = invoke_json(runner, ["analyze", "--field", "q:5", "--n", "4"])
    r = payload["results"]
    assert r["degree"] == 1
    assert r["in_field"] is True


def test_analyze_characteristic_divides_order(runner):
    result = runner.invoke(main, ["analyze", "--field", "q:5", "--n", "10"])
    assert result.exit_code == 3
    assert "characteristic 5 divides" in result.stderr
    assert result.stdout == ""


def test_analyze_rejects_malformed_field(runner):
    result = runner.invoke(main, ["analyze", "--field", "q:6", "--n", "3"])
    assert result.exit_code == 2
    assert "must be prime" in result.stderr


def test_analyze_large_char_two_field_reports_symbolic_generator(runner):
    # F_(2^22) is beyond the explicit-field bound: the generator has no
    # concrete encodings, but the report still goes out.
    payload = invoke_json(runner, ["analyze", "--field", "q:2^11", "--n", "3"])
    assert payload["oracle_checked"] is False
    assert payload["results"]["generator"] == {
        "type": "artin-schreier",
        "numerator": "z(3,1)",
        "denominator": "z(3,1) + z(3,2)",
    }


def test_analyze_huge_field_degree_is_refused_quickly():
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    cmd = [sys.executable, "-m", "cyclokit.cli", "analyze", "--n", "3", "--field"]
    proc = subprocess.run(
        [*cmd, "q:7^99999999"], capture_output=True, text=True, timeout=30, env=env
    )
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    proc = subprocess.run(
        [*cmd, "q:2^20000"], capture_output=True, text=True, timeout=30, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["in_field"] is True  # 3 | 2^20000 - 1


@pytest.mark.parametrize(
    "args",
    [
        ["moduli", "--field", "q:2^20000"],
        ["classify", "--field", "q:3^20000"],
        ["verify", "--field", "q:2^20000"],
    ],
)
def test_huge_fields_within_the_bit_bound_exit_four(runner, args):
    # q has more digits than int-to-str allows; messages must not print it.
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""


def test_analyze_exits_one_on_oracle_mismatch(runner, monkeypatch):
    real = oracle_mod.brute_min_poly

    def swapped(p, k, n):
        trace, norm = real(p, k, n)
        return norm, trace

    monkeypatch.setattr(oracle_mod, "brute_min_poly", swapped)
    result = runner.invoke(main, ["analyze", "--field", "q:23", "--n", "16"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["mismatches"] == [
        {"n": 16, "check": "min_poly_concrete", "formula": [[19, 0], [22, 0]],
         "oracle": [[22, 0], [19, 0]]}
    ]


def test_analyze_rational_checks_the_oracle_polynomial(runner, monkeypatch):
    # Over the rationals the realized coefficients are compared with the
    # oracle's polynomial, reduced mod Phi_n: x^2 + 1 for n = 4, here made
    # x^2 + x + 1.
    real = oracle_mod.rational_min_poly
    monkeypatch.setattr(
        oracle_mod, "rational_min_poly", lambda n: (1, 1, 1) if n == 4 else real(n)
    )
    result = runner.invoke(main, ["analyze", "--field", "Q", "--n", "4"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["oracle_checked"] is True
    assert payload["mismatches"] == [
        {"n": 4, "check": "min_poly_concrete", "formula": ["0", "1"],
         "oracle": ["-1", "1"]}
    ]


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test and return the list of its calls'
    arguments, which fills as it is called."""
    real, calls = getattr(module, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_over_q_computes_the_oracle_polynomial_once(runner, monkeypatch):
    # The cross-check and integer_min_poly read the same oracle polynomial.
    calls = count_calls(monkeypatch, oracle_mod, "rational_min_poly")
    payload = invoke_json(runner, ["analyze", "--field", "Q", "--n", "3"])
    assert payload["results"]["integer_min_poly"] == "x^2 + x + 1"
    assert calls == [(3,)]


def test_analyze_realizes_the_trace_once_in_characteristic_two(runner, monkeypatch):
    # z + z^yogh is both the min-poly trace and the Artin-Schreier denominator.
    calls = count_calls(monkeypatch, oracle_mod, "evaluate_sum")
    invoke_json(runner, ["analyze", "--field", "q:2", "--n", "3"])
    assert [str(s) for _, s in calls] == ["z(3,1) + z(3,2)", "z(1,0)", "z(3,1)"]


def test_verify_reads_the_oracle_gate_once(runner, monkeypatch):
    calls = count_calls(monkeypatch, cli_mod, "_oracle_refusal")
    payload = invoke_json(runner, ["verify", "--field", "q:5"])
    assert payload["oracle_checked"] is True and payload["mismatches"] == []
    assert len(calls) == 1


def test_analyze_realizes_values_above_the_oracle_gate_without_checking(
    runner, monkeypatch
):
    # q = 23 exceeds CYCLOKIT_MAX_Q = 16, but F_(23^2) is within the field
    # bound: the coefficients and the generator are realized, and the oracle's
    # own polynomial is never computed.
    def unreachable(p, k, n):
        raise AssertionError("brute_min_poly called above CYCLOKIT_MAX_Q")

    monkeypatch.setattr(oracle_mod, "brute_min_poly", unreachable)
    payload = invoke_json(runner, ["analyze", "--field", "q:23", "--n", "16"],
                          env={"CYCLOKIT_MAX_Q": "16"})
    assert payload["oracle_checked"] is False
    assert payload["mismatches"] == []
    results = payload["results"]
    assert results["min_poly"]["trace_concrete"] == [19, 0]
    assert results["min_poly"]["norm_concrete"] == [22, 0]
    assert results["generator"]["square_value"] == [20, 0]


@pytest.mark.parametrize("n, degree", [(2**127 - 1, 1), (2**127 + 1, 2)])
def test_analyze_answers_degrees_one_and_two_above_the_factorize_bound(runner, n, degree):
    # n divides q - 1 or q + 1 for q = 2^127, so the degree needs no factoring
    # of n; the Q order 99999999999999999999 below still has to factor.
    results = invoke_json(runner, ["analyze", "--field", "q:2^127", "--n", str(n)])["results"]
    assert (results["degree"], results["in_field"]) == (degree, degree == 1)
    assert results["order_of_zeta"] == (1 if degree == 1 else n)
    assert results["n_F"] == n // results["order_of_zeta"]


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--field", "Q", "--n", "99999999999999999999"],
        ["moduli", "--field", "q:2^100"],
        ["classify", "--field", "q:18446744073709551557"],
    ],
)
def test_inputs_beyond_factorization_bound_exit_four(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    assert "out of range" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "q, minus, plus",
    [
        (4294967291, [(2, 1), (5, 1), (19, 1), (22605091, 1)],
         [(2, 2), (3, 2), (7, 1), (11, 1), (31, 1), (151, 1), (331, 1)]),
        (9223372036854775783,
         [(2, 1), (3, 4), (17, 1), (23, 1), (319279, 1), (456065899, 1)],
         [(2, 3), (1177067, 1), (979486728119, 1)]),
    ],
)
def test_classify_and_moduli_answer_while_q_plus_one_is_in_range(runner, q, minus, plus):
    # q^2 - 1 is above MAX_FACTOR_INPUT, but q - 1 and q + 1, which the prime
    # basis factors apart, are not.
    assert q + 1 <= MAX_FACTOR_INPUT < q * q - 1
    for n, factors in ((q - 1, minus), (q + 1, plus)):
        assert prod(p**e for p, e in factors) == n
        assert all(is_prime(p) and valuation(n, p) == e for p, e in factors)
    # The class's primes are those whose exponent in q^2 - 1 exceeds the one
    # in q - 1: exactly the primes of q + 1.
    primes = [p for p, _ in plus]
    nu = {str(p): valuation(q - 1, p) + e for p, e in plus}
    rep = prod(p ** (valuation(q - 1, p) + 1) for p in primes)
    classify = invoke_json(runner, ["classify", "--field", f"q:{q}"])["results"]
    moduli = invoke_json(runner, ["moduli", "--field", f"q:{q}"])["results"]
    for results in (classify, moduli):
        (cls,) = results["s_max"]["classes"]
        assert (cls["primes"], cls["representative_n"]) == (primes, rep)
        assert cls["cardinality"] == q * q - q
    assert classify["nu"] == nu
    assert moduli["full_moduli"]["cardinality"] == q * q - q


@pytest.mark.parametrize(
    "q, p, classes",
    [
        # The least prime above 2^63 divides neither q - 1 nor q + 1.
        (23, 9223372036854775837, []),
        # q - 1 = 2 * 3037000919: the p-th roots lie in F_q.
        (6074001839, 3037000919, []),
        # q + 1 = 2 * 3037000507: the p-th roots are quadratic.
        (6074001013, 3037000507, [{
            "primes": [3037000507],
            "representative_n": 3037000507,
            "minpoly": "x^2 - (z(3037000507,1) + z(3037000507,3037000506))*x"
                       " + (z(1,0))",
        }]),
    ],
)
def test_moduli_prime_answers_above_the_factorize_bound(runner, q, p, classes):
    # p^(nu + 1) exceeds 2^63, but the per-prime moduli are valuations only:
    # for odd p, ell = eps(q - 1, p) and nu = nu_plus = eps(q^2 - 1, p).
    ell, nu = valuation(q - 1, p), valuation(q - 1, p) + valuation(q + 1, p)
    payload = invoke_json(runner, ["moduli", "--field", f"q:{q}", "--prime", str(p)])
    results = payload["results"]
    assert (results["nu"], results["nu_plus"], results["ell"]) == (nu, nu, ell)
    assert results["per_prime"] == {
        "kind": "PerPrime",
        "presentation": f"mu({p**nu}) - mu({p**ell})",
        "cardinality": p**nu - p**ell,
        "classes": classes,
    }


#: psi_12, the least strong pseudoprime to the 12 prime bases up to 37.
PSI_12 = "318665857834031151167461"


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--field", f"q:{PSI_12}", "--n", "3"],
        ["moduli", "--field", "q:23", "--prime", PSI_12],
    ],
)
def test_primality_inputs_at_psi_12_exit_four(runner, args):
    # psi_12 is composite; the Miller-Rabin bases would call it prime.
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: is_prime input out of range")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["bogus"],
        ["analyze", "--field", "q:5"],
        ["analyze", "--field", "q:5", "--n", "0"],
        ["analyze", "--field", "q:5", "--n", "abc"],
        ["moduli", "--field", "q:5", "--prime", "1"],
        ["verify", "--field", "q:5", "--max-n", "0"],
        ["classify", "--field", "Q", "extra"],
        ["analyze", "--fie", "q:5", "--n", "3"],
    ],
)
def test_usage_errors_exit_two(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "usage:" in result.stderr.lower()
    assert "Traceback" not in result.stderr


TOP_USAGE = "usage: cyclokit [-h] COMMAND ...\ncyclokit: error: "
ANALYZE_USAGE = "usage: cyclokit analyze [-h] --field FIELD --n N\ncyclokit analyze: error: "
MODULI_USAGE = ("usage: cyclokit moduli [-h] --field FIELD [--prime PRIME]\n"
                "cyclokit moduli: error: ")
VERIFY_USAGE = ("usage: cyclokit verify [-h] --field FIELD [--max-n MAX_N]\n"
                "cyclokit verify: error: ")
CLASSIFY_USAGE = "usage: cyclokit classify [-h] --field FIELD\ncyclokit classify: error: "


@pytest.mark.parametrize(
    "args, stderr",
    [
        ([], TOP_USAGE + "the following arguments are required: COMMAND"),
        (["bogus"], TOP_USAGE + "argument COMMAND: invalid choice: 'bogus' "
                                "(choose from 'analyze', 'moduli', 'verify', 'classify')"),
        (["analyze", "--field", "q:5"],
         ANALYZE_USAGE + "the following arguments are required: --n"),
        (["analyze", "--field", "q:5", "--n", "0"],
         ANALYZE_USAGE + "argument --n: '0' is not an integer >= 1"),
        (["analyze", "--field", "q:5", "--n", "abc"],
         ANALYZE_USAGE + "argument --n: 'abc' is not an integer >= 1"),
        (["moduli", "--field", "q:5", "--prime", "1"],
         MODULI_USAGE + "argument --prime: '1' is not an integer >= 2"),
        (["verify", "--field", "q:5", "--max-n", "0"],
         VERIFY_USAGE + "argument --max-n: '0' is not an integer >= 1"),
        # Extra tokens are reported by the top level, after the command's checks.
        (["classify", "--field", "Q", "extra"], TOP_USAGE + "unrecognized arguments: extra"),
        (["classify", "--field", "Q", "--bogus", "3"],
         TOP_USAGE + "unrecognized arguments: --bogus 3"),
        (["classify", "--field", "Q", "--", "x"], TOP_USAGE + "unrecognized arguments: -- x"),
        (["classify", "--", "--field", "Q", "-h"],
         CLASSIFY_USAGE + "the following arguments are required: --field"),
        (["--field", "Q", "classify"], TOP_USAGE + "argument COMMAND: invalid choice: 'Q' "
                                                   "(choose from 'analyze', 'moduli', "
                                                   "'verify', 'classify')"),
        # A missing required option is reported before an unknown token.
        (["analyze", "--fie", "q:5", "--n", "3"],
         ANALYZE_USAGE + "the following arguments are required: --field"),
        # A token that looks like an option is not taken as a value ...
        (["analyze", "--field"], ANALYZE_USAGE + "argument --field: expected one argument"),
        (["classify", "--field", "--n"],
         CLASSIFY_USAGE + "argument --field: expected one argument"),
        (["moduli", "--field", "Q", "--prime"],
         MODULI_USAGE + "argument --prime: expected one argument"),
        (["classify", "--field", "-Q"], CLASSIFY_USAGE + "argument --field: expected one argument"),
        # ... but a negative number is, and errors come in the order of the tokens.
        (["analyze", "--n", "-3", "--field", "Q"],
         ANALYZE_USAGE + "argument --n: '-3' is not an integer >= 1"),
        (["analyze", "--field", "Q", "--n", "-1.5"],
         ANALYZE_USAGE + "argument --n: '-1.5' is not an integer >= 1"),
        (["analyze", "--n", "0", "--field"],
         ANALYZE_USAGE + "argument --n: '0' is not an integer >= 1"),
        (["analyze", "--n=", "--field", "Q"],
         ANALYZE_USAGE + "argument --n: '' is not an integer >= 1"),
    ],
)
def test_usage_errors_print_the_usage_line_and_argparse_wording(runner, args, stderr):
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr + "\n")


@pytest.mark.parametrize(
    "args, field",
    [
        (["classify", "--field=Q"], "Q"),
        (["classify", "--field", "Q", "--field", "q:5"], "q:5"),  # the last one wins
        (["analyze", "--n=3", "--field=q:7"], "q:7"),
    ],
)
def test_option_forms_and_repeats(runner, args, field):
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stderr) == (0, "")
    assert json.loads(result.stdout)["field"] == field


def test_help_exits_zero(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("analyze", "moduli", "verify", "classify"):
        assert command in result.stdout
    options = {"analyze": ["--field", "--n"], "moduli": ["--field", "--prime"],
               "verify": ["--field", "--max-n"], "classify": ["--field"]}
    for command, flags in options.items():
        for args in ([command, "-h"], [command, "--field", "Q", "--help"]):
            result = runner.invoke(main, args)
            assert (result.exit_code, result.stderr) == (0, "")
            assert result.stdout.startswith(f"usage: cyclokit {command} [-h]")
            assert all(flag in result.stdout for flag in flags)


def test_import_loads_only_the_standard_library():
    # The package has no runtime dependencies: importing the CLI, in a fresh
    # process, loads no module from outside the standard library but its own.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cyclokit.cli\n"
        "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'cyclokit'}))\n"
    )
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# moduli
# ---------------------------------------------------------------------------


def test_moduli_global_finite(runner):
    payload = invoke_json(runner, ["moduli", "--field", "q:5"])
    r = payload["results"]
    assert r["full_moduli"]["presentation"] == "mu(24) - mu(4)"
    assert r["full_moduli"]["cardinality"] == 20
    (cls,) = r["s_max"]["classes"]
    assert cls["primes"] == [2, 3]
    assert cls["representative_n"] == 24
    assert cls["presentation"] == "(mu(8) * mu(3) * mu(1)) - (mu(4) * mu(1) * mu(1))"
    assert cls["cardinality"] == 20
    assert r["order_two"]["presentation"] == "prim(8) * mu(1)"
    assert r["order_two"]["cardinality"] == 4
    assert r["order_two"]["classes"][0]["minpoly"] == "x^2 - (0)*x + (-z(4,1))"


def test_moduli_global_rational(runner):
    payload = invoke_json(runner, ["moduli", "--field", "Q"])
    r = payload["results"]
    assert r["full_moduli"]["presentation"] == "prim(3) | prim(4) | prim(6)"
    assert r["full_moduli"]["cardinality"] == 6
    classes = r["s_max"]["classes"]
    assert [c["primes"] for c in classes] == [[2], [3]]
    assert [c["cardinality"] for c in classes] == [2, 4]
    assert classes[0]["presentation"] == "(mu(4) * mu(1)) - (mu(2) * mu(1))"
    assert classes[1]["presentation"] == "(mu(3) * mu(2)) - (mu(1) * mu(2))"
    assert r["order_two"]["cardinality"] == 2


def test_moduli_per_prime(runner):
    payload = invoke_json(runner, ["moduli", "--field", "q:23", "--prime", "2"])
    r = payload["results"]
    assert r["per_prime"]["presentation"] == "mu(16) - mu(2)"
    assert r["per_prime"]["cardinality"] == 14
    assert r["per_prime"]["classes"][0]["representative_n"] == 4
    assert r["nu"] == 4
    assert r["nu_plus"] == 3
    assert r["ell"] == 1
    assert r["c2"] == 4


def test_moduli_prime_equal_to_characteristic(runner):
    result = runner.invoke(main, ["moduli", "--field", "q:5", "--prime", "5"])
    assert result.exit_code == 3
    assert "characteristic" in result.stderr


def test_moduli_rejects_composite_prime(runner):
    result = runner.invoke(main, ["moduli", "--field", "q:23", "--prime", "4"])
    assert result.exit_code == 2
    assert "must be prime" in result.stderr


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_small_field(runner):
    payload = invoke_json(runner, ["verify", "--field", "q:5"])
    assert payload["results"] == {"max_n": 24, "orders_checked": 8}
    assert payload["oracle_checked"] is True
    assert payload["mismatches"] == []


def test_verify_respects_max_n(runner):
    payload = invoke_json(runner, ["verify", "--field", "q:2^2", "--max-n", "15"])
    assert payload["results"] == {"max_n": 15, "orders_checked": 4}
    assert payload["mismatches"] == []


def test_verify_medium_field_clean(runner):
    payload = invoke_json(runner, ["verify", "--field", "q:23"])
    assert payload["results"] == {"max_n": 528, "orders_checked": 20}
    assert payload["mismatches"] == []


def test_verify_quadratic_check_uses_the_oracle_order(runner, monkeypatch):
    # An oracle that finds zeta_8 already in F_5 contradicts the formula's
    # "quadratic" verdict for n = 8.
    real = oracle_mod.brute_order
    monkeypatch.setattr(
        oracle_mod, "brute_order", lambda p, k, n: 1 if n == 8 else real(p, k, n)
    )
    result = runner.invoke(main, ["verify", "--field", "q:5"])
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert {"n": 8, "check": "quadratic", "formula": True, "oracle": False,
            "equaliser": True} in payload["mismatches"]
    assert {"n": 8, "check": "order_two", "formula": True, "oracle": False} in (
        payload["mismatches"]
    )


@pytest.fixture
def broken_min_poly_16(monkeypatch):
    # Over F_23 the formula gives yogh(16) = 23 mod 16 = 7; report 15 instead,
    # and let the oracle return the coefficients swapped.
    real_poly, real_brute = quadcyclo_mod.min_poly, oracle_mod.brute_min_poly

    def fake_poly(field, n):
        poly = real_poly(field, n)
        return poly._replace(yogh=ResidueClass(15, 16)) if n == 16 else poly

    def fake_brute(p, k, n):
        trace, norm = real_brute(p, k, n)
        return (norm, trace) if n == 16 else (trace, norm)

    monkeypatch.setattr(quadcyclo_mod, "min_poly", fake_poly)
    monkeypatch.setattr(oracle_mod, "brute_min_poly", fake_brute)
    return [{"n": 16, "check": "yogh_frobenius", "formula": 15, "oracle": 7},
            {"n": 16, "check": "min_poly_concrete", "formula": [[19, 0], [22, 0]],
             "oracle": [[22, 0], [19, 0]]}]


@pytest.mark.parametrize("args", [["verify", "--field", "q:23"],
                                  ["analyze", "--field", "q:23", "--n", "16"]])
def test_min_poly_mismatch_records(runner, broken_min_poly_16, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["mismatches"] == broken_min_poly_16


def test_a_formula_refusal_inside_verify_is_a_mismatch(runner, monkeypatch,
                                                      cold_formula_caches):
    # Every n that verify checks divides q^2 - 1 and is prime to p, so a
    # formula that raises PreconditionError there disagrees with the oracle:
    # a record naming n and exit 1, not exit 3.  Testing the minus sum for the
    # plus sum makes min_poly refuse n = 8 and 24 over F_7.
    cos_sum = quadcyclo_mod.cos_sum_in_field
    monkeypatch.setattr(quadcyclo_mod, "cos_sum_in_field",
                        lambda field, n, sign: cos_sum(field, n, Sign.MINUS))
    result = runner.invoke(main, ["verify", "--field", "q:7"])
    assert (result.exit_code, result.stderr) == (1, "")
    detail = "2-power component of order 4 is incompatible with a quadratic extension"
    refusals = [m for m in json.loads(result.stdout)["mismatches"]
                if m["check"] == "precondition"]
    assert refusals == [{"n": 8, "check": "precondition", "detail": detail},
                        {"n": 24, "check": "precondition", "detail": detail}]


# Each cross-check row, made to disagree: the module binding the command reads,
# the function's name there, and how its value at the forced order changes.
FORCES = {
    # the formula side of "order"
    "order": (cli_mod, "order_of_zeta", lambda order: order + 1),
    # the oracle side of "order", which "quadratic" and "order_two" also read
    "oracle_order": (oracle_mod, "brute_order", lambda order: 1),
    # the kappa route of moduli.m2_membership, so that it raises
    "equaliser": (moduli_mod, "kappa_class",
                  lambda cls: cls._replace(in_field=not cls.in_field)),
    "quadratic": (quadcyclo_mod, "is_quadratic", operator.not_),
    "order_two": (moduli_mod, "g2_membership", operator.not_),
    "yogh_frobenius": (quadcyclo_mod, "min_poly",
                       lambda poly: poly._replace(yogh=ResidueClass(1, poly.n))),
    "min_poly_concrete": (oracle_mod, "brute_min_poly", lambda pair: pair[::-1]),
    "rational_min_poly": (oracle_mod, "rational_min_poly",
                          lambda coeffs: (coeffs[0] + 1, *coeffs[1:])),
}


def force_rows(monkeypatch, forced):
    """Patch each row of ``forced`` (row name -> n) so that its function's
    value changes at the root order n, read from its last argument (an order
    or a root)."""
    for row, n in forced.items():
        module, name, change = FORCES[row]
        real = getattr(module, name)

        def patched(*args, real=real, change=change, n=n):
            value, last = real(*args), args[-1]
            order = last if isinstance(last, int) else last.denominator
            return change(value) if order == n else value

        monkeypatch.setattr(module, name, patched)


def equaliser_record(n):
    return {"n": n, "check": "equaliser", "detail": (
        f"membership routes disagree at z({n},1): equaliser False, degree True")}


VERIFY_23 = ["verify", "--field", "q:23"]


@pytest.mark.parametrize("args, forced, expected", [
    pytest.param(VERIFY_23, {"oracle_order": 44, "equaliser": 44,
                             "yogh_frobenius": 44, "min_poly_concrete": 44}, [
        {"n": 44, "check": "order", "formula": 2, "oracle": 1},
        equaliser_record(44),
        {"n": 44, "check": "quadratic", "formula": True, "oracle": False,
         "equaliser": True},
        {"n": 44, "check": "order_two", "formula": True, "oracle": False},
        {"n": 44, "check": "yogh_frobenius", "formula": 1, "oracle": 23},
        {"n": 44, "check": "min_poly_concrete", "formula": [[0, 0], [18, 0]],
         "oracle": [[18, 0], [0, 0]]},
    ], id="verify-every-row-at-one-n"),
    pytest.param(VERIFY_23, {"order": 24}, [
        {"n": 24, "check": "order", "formula": 13, "oracle": 12},
    ], id="verify-order"),
    pytest.param(VERIFY_23, {"equaliser": 24}, [equaliser_record(24)],
                 id="verify-equaliser"),
    pytest.param(VERIFY_23, {"quadratic": 24}, [
        {"n": 24, "check": "quadratic", "formula": False, "oracle": True,
         "equaliser": True},
    ], id="verify-quadratic"),
    pytest.param(VERIFY_23, {"order_two": 24}, [
        {"n": 24, "check": "order_two", "formula": True, "oracle": False},
    ], id="verify-order_two"),
    pytest.param(VERIFY_23, {"yogh_frobenius": 24}, [
        {"n": 24, "check": "yogh_frobenius", "formula": 1, "oracle": 23},
    ], id="verify-yogh_frobenius"),
    pytest.param(VERIFY_23, {"min_poly_concrete": 24}, [
        {"n": 24, "check": "min_poly_concrete", "formula": [[15, 0], [1, 0]],
         "oracle": [[1, 0], [15, 0]]},
    ], id="verify-min_poly_concrete"),
    pytest.param(["verify", "--field", "q:5"], {
        "order": 3, "equaliser": 6, "order_two": 8, "yogh_frobenius": 12,
        "quadratic": 24, "min_poly_concrete": 24}, [
        {"n": 3, "check": "order", "formula": 4, "oracle": 3},
        equaliser_record(6),
        {"n": 8, "check": "order_two", "formula": False, "oracle": True},
        {"n": 12, "check": "yogh_frobenius", "formula": 1, "oracle": 5},
        # not quadratic by the formula, so its min-poly rows do not run
        {"n": 24, "check": "quadratic", "formula": False, "oracle": True,
         "equaliser": True},
    ], id="verify-rows-across-n"),
    pytest.param(["analyze", "--field", "q:23", "--n", "12"],
                 {"yogh_frobenius": 12, "min_poly_concrete": 12}, [
        {"n": 12, "check": "yogh_frobenius", "formula": 1, "oracle": 11},
        {"n": 12, "check": "min_poly_concrete", "formula": [[16, 0], [1, 0]],
         "oracle": [[1, 0], [16, 0]]},
    ], id="analyze-finite-min-poly-rows"),
    pytest.param(["analyze", "--field", "q:23", "--n", "24"],
                 {"min_poly_concrete": 24}, [
        {"n": 24, "check": "min_poly_concrete", "formula": [[15, 0], [1, 0]],
         "oracle": [[1, 0], [15, 0]]},
    ], id="analyze-finite-min_poly_concrete"),
    pytest.param(["analyze", "--field", "Q", "--n", "6"], {"rational_min_poly": 6}, [
        {"n": 6, "check": "min_poly_concrete", "formula": ["1", "1"],
         "oracle": ["1", "2"]},
    ], id="analyze-rational-min_poly_concrete"),
])
def test_every_cross_check_row_reports_its_mismatch(
    runner, monkeypatch, args, forced, expected
):
    # The full ordered list pins each record's keys and values and the
    # record order: per n, order, equaliser, quadratic, order_two, then the
    # min-poly rows.
    force_rows(monkeypatch, forced)
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.stderr
    assert json.loads(result.stdout)["mismatches"] == expected


def test_records_made_before_a_refusal_stay_in_order(runner, monkeypatch,
                                                    cold_formula_caches):
    # Testing the minus sum for the plus sum makes min_poly refuse n = 8 and 24
    # over F_7 (see above); the forced order and the kappa route's verdict
    # disagree first, so each refusal ends a run of records of its n.
    cos_sum = quadcyclo_mod.cos_sum_in_field
    monkeypatch.setattr(quadcyclo_mod, "cos_sum_in_field",
                        lambda field, n, sign: cos_sum(field, n, Sign.MINUS))
    force_rows(monkeypatch, {"order": 8})
    result = runner.invoke(main, ["verify", "--field", "q:7"])
    assert (result.exit_code, result.stderr) == (1, "")
    refusal = {"check": "precondition", "detail": (
        "2-power component of order 4 is incompatible with a quadratic extension")}
    assert json.loads(result.stdout)["mismatches"] == [
        {"n": 8, "check": "order", "formula": 5, "oracle": 4},
        equaliser_record(8),
        {"n": 8, **refusal},
        {"n": 16, "check": "yogh_frobenius", "formula": 15, "oracle": 7},
        {"n": 16, "check": "min_poly_concrete", "formula": [[0, 1], [1, 0]],
         "oracle": [[4, 0], [6, 0]]},
        equaliser_record(24),
        {"n": 24, **refusal},
        {"n": 48, "check": "yogh_frobenius", "formula": 31, "oracle": 7},
        {"n": 48, "check": "min_poly_concrete", "formula": [[0, 2], [2, 0]],
         "oracle": [[4, 0], [5, 0]]},
    ]


@pytest.mark.parametrize("keys, failing", [
    ({"formula": 0, "oracle": 1}, True),
    ({"detail": "always fails"}, True),
    ({"formula": 1, "oracle": 1}, False),
])
def test_one_row_gives_one_record(runner, monkeypatch, keys, failing):
    # One more row of n = 24 from the producer adds exactly its own record,
    # after the other rows of 24, when it fails, and none when it agrees.
    real = cli_mod._rows

    def with_extra_row(field, realize, n):
        yield from real(field, realize, n)
        if n == 24:
            yield "extra", keys

    monkeypatch.setattr(cli_mod, "_rows", with_extra_row)
    result = runner.invoke(main, VERIFY_23)
    expected = [{"n": 24, "check": "extra", **keys}] if failing else []
    assert (result.exit_code, json.loads(result.stdout)["mismatches"]) == (
        int(failing), expected)


def test_the_oracle_side_of_each_row_is_computed_once_per_n(runner, monkeypatch):
    orders = count_calls(monkeypatch, oracle_mod, "brute_order")
    polys = count_calls(monkeypatch, oracle_mod, "brute_min_poly")
    payload = invoke_json(runner, VERIFY_23)
    divisors = [n for n in range(1, 529) if 528 % n == 0]
    assert payload["results"]["orders_checked"] == len(divisors) == 20
    assert orders == [(23, 1, n) for n in divisors]
    # zeta_n lies in F_(23^2); it is quadratic iff it is not in F_23
    assert polys == [(23, 1, n) for n in divisors if 22 % n]
    polys.clear()
    invoke_json(runner, ["analyze", "--field", "q:23", "--n", "16"])
    assert polys == [(23, 1, 16)]


def test_verify_rejects_rational_field(runner):
    result = runner.invoke(main, ["verify", "--field", "Q"])
    assert result.exit_code == 3
    assert "requires a finite field" in result.stderr


def test_verify_size_bound_default(runner):
    result = runner.invoke(main, ["verify", "--field", "q:1031"])
    assert result.exit_code == 4
    assert "exceeds CYCLOKIT_MAX_Q=1024" in result.stderr


def test_verify_size_bound_env_override(runner):
    result = runner.invoke(
        main, ["verify", "--field", "q:23"], env={"CYCLOKIT_MAX_Q": "16"}
    )
    assert result.exit_code == 4
    assert "exceeds CYCLOKIT_MAX_Q=16" in result.stderr


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_bad_max_q_is_a_usage_error(runner, value):
    result = runner.invoke(
        main, ["verify", "--field", "q:5"], env={"CYCLOKIT_MAX_Q": value}
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "CYCLOKIT_MAX_Q" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ["analyze", "--field", "Q", "--n", "4"],
        # F_(2^22) is above the oracle's field bound: nothing is realized.
        ["analyze", "--field", "q:2^11", "--n", "3"],
        # 11 divides 23 - 1: the root lies in F_23, so it is not quadratic.
        ["analyze", "--field", "q:23", "--n", "11"],
    ],
)
def test_analyze_reads_the_oracle_gate_on_every_field(runner, args):
    # analyze reads CYCLOKIT_MAX_Q at its start, also where the oracle has
    # nothing to check.
    result = runner.invoke(main, args, env={"CYCLOKIT_MAX_Q": "abc"})
    assert result.exit_code == 2
    assert "CYCLOKIT_MAX_Q" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", ["classify", "moduli"])
def test_symbolic_commands_ignore_the_oracle_gate(runner, command):
    invoke_json(runner, [command, "--field", "q:23"], env={"CYCLOKIT_MAX_Q": "abc"})


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_rational(runner):
    payload = invoke_json(runner, ["classify", "--field", "Q"])
    r = payload["results"]
    assert r["kind"] == "rational"
    assert r["characteristic"] == 0
    assert [c["primes"] for c in r["s_max"]["classes"]] == [[2], [3]]
    assert r["order_two"]["cardinality"] == 2
    assert r["quad_moduli_summary"]["inseparable"] == 0
    assert r["nu"] == {"2": 2, "3": 1}
    assert r["c2"] is None


def test_classify_finite(runner):
    payload = invoke_json(runner, ["classify", "--field", "q:23"])
    r = payload["results"]
    assert r["kind"] == "finite"
    assert r["characteristic"] == 23
    assert r["q"] == 23
    (cls,) = r["s_max"]["classes"]
    assert cls["primes"] == [2, 3]
    assert cls["representative_n"] == 12
    assert cls["cardinality"] == 506
    assert r["order_two"]["presentation"] == "prim(4) * mu(11)"
    assert r["order_two"]["cardinality"] == 22
    assert r["quad_moduli_summary"] == {"separable": 1, "inseparable": 0}
    assert r["nu"] == {"2": 4, "3": 1}
    assert r["c2"] == 4


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
ENTRY_POINT_ARGS = ["analyze", "--field", "Q", "--n", "4"]


def assert_entry_point_report(proc):
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["results"]["integer_min_poly"] == "x^2 + 1"


def test_installed_entry_point_runs(tmp_path):
    """Run the `cyclokit` console script declared in pyproject.toml as its own
    process, through the launcher body an installer writes for it, against the
    package this suite imported (no install needed)."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["cyclokit"]
    module, attr = target.split(":")
    launcher = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'cyclokit'\n"
        f"sys.exit({attr}())\n"
    )
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", launcher, *ENTRY_POINT_ARGS],
        capture_output=True,
        text=True,
        timeout=30,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert_entry_point_report(proc)


@pytest.mark.skipif(
    shutil.which("cyclokit") is None,
    reason="no installed cyclokit console script on PATH",
)
def test_entry_point_on_path_runs():
    proc = subprocess.run(
        ["cyclokit", *ENTRY_POINT_ARGS],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert_entry_point_report(proc)


# ---------------------------------------------------------------------------
# process entry
# ---------------------------------------------------------------------------


def run_python(args, cwd):
    """``python *args`` against the package this suite imported."""
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )


def script_launcher():
    """The launcher body an installer writes for the ``cyclokit`` script."""
    with PYPROJECT.open("rb") as fh:
        module, attr = pytest.importorskip("tomllib").load(fh)["project"]["scripts"][
            "cyclokit"].split(":")
    return f"from {module} import {attr}\nsys.argv[0] = 'cyclokit'\nsys.exit({attr}())\n"


@pytest.mark.parametrize("launch", [
    script_launcher,
    # What ``python -m cyclokit.cli`` runs, behind the exit hook.
    lambda: "import runpy\nrunpy.run_module('cyclokit.cli', run_name='__main__', alter_sys=True)\n",
], ids=["console_script", "module"])
def test_the_process_entry_freezes_the_heap(tmp_path, launch):
    # An exit hook prints how many objects are frozen, once the command ran.
    hook = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n")
    proc = run_python(["-c", hook + launch(), "classify", "--field", "q:7"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "classify"
    assert int(proc.stderr.split()[-1]) > 0


def test_main_in_process_freezes_nothing(runner):
    before = gc.get_freeze_count()
    assert runner.invoke(main, ["classify", "--field", "q:7"]).exit_code == 0
    assert gc.get_freeze_count() == before


#: Makes every order disagree with the formula, for a mismatch exit.
BROKEN_BRUTE_ORDER = "lambda p, k, n: n"


@pytest.mark.parametrize("exit_code, args", [
    (0, ["classify", "--field", "q:7"]),
    (1, ["verify", "--field", "q:7"]),
    (2, ["analyze", "--field", "q:7"]),
    (3, ["verify", "--field", "Q"]),
    (4, ["analyze", "--field", "q:7^99999999", "--n", "3"]),
])
def test_process_entry_prints_and_exits_as_main(runner, monkeypatch, tmp_path, exit_code, args):
    # The exit-code contract at the process level: ``python -m cyclokit.cli``
    # (for exit 1, a launcher that breaks the oracle's order and calls run)
    # writes the same bytes and exits with the same code as main in process.
    launcher = ["-m", "cyclokit.cli"]
    if exit_code == 1:
        launcher = ["-c", "import cyclokit.oracle as oracle\n"
                          f"oracle.brute_order = {BROKEN_BRUTE_ORDER}\n"
                          "from cyclokit import cli\ncli.run()\n"]
        monkeypatch.setattr(oracle_mod, "brute_order", eval(BROKEN_BRUTE_ORDER))
    expected = runner.invoke(main, args)
    proc = run_python([*launcher, *args], tmp_path)
    assert expected.exit_code == exit_code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        exit_code, expected.stdout, expected.stderr)


#: Modules that ``import cyclokit.cli`` must not load, since each costs every
#: CLI process start-up time: ``dataclasses`` and the introspection modules it
#: pulls in; the oracle, which only ``analyze`` and ``verify`` use;
#: ``fractions`` with the ``decimal`` module it pulls in; and ``argparse``
#: with the ``gettext`` and ``locale`` modules it loads.
HEAVY_STARTUP_MODULES = (
    "dataclasses", "inspect", "ast", "dis", "tokenize",
    "cyclokit.oracle", "fractions", "decimal",
    "argparse", "gettext", "locale",
)


def test_cli_import_loads_no_heavy_modules(tmp_path):
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "import cyclokit.cli\n"
        f"print(' '.join(m for m in {HEAVY_STARTUP_MODULES!r} if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=30,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize(
    "args, unused",
    [
        (["classify", "--field", "q:101"], "cyclokit.oracle"),
        (["moduli", "--field", "Q"], "cyclokit.oracle"),
        (["analyze", "--field", "Q", "--n", "3"], "fractions"),
        (["classify", "--field", "q:101"], "argparse"),
    ],
)
def test_cli_command_runs_without_loading_what_it_does_not_use(tmp_path, args, unused):
    # classify and moduli are symbolic, so they never load the oracle; over Q
    # the oracle computes with ints, so analyze never loads fractions; parsing
    # the command line loads no argparse.
    package_root = Path(cyclokit.__file__).resolve().parents[1]
    probe = (
        "import sys\n"
        "from cyclokit.cli import main\n"
        f"main({args!r})\n"
        f"print({unused!r} in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=30,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
