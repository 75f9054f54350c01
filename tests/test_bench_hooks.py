"""The names the benchmark harness hooks into must exist in the package.

``bench/tracer.py`` wraps every function of its ``TRACED`` table and counts
``FFElement`` multiplication; ``bench/lib_session.py`` renders ``nu``'s value
with ``to_json``.  A rename or deletion here would otherwise break only the
traced benchmark, outside the test suite.  The tracer is read as source and
its table evaluated as a literal: nothing under ``bench/`` is imported.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

import cyclokit
import cyclokit.oracle as oracle_mod
from cyclokit import RATIONAL, finite_field, quadcyclo

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_table() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {TRACER}")


@pytest.mark.parametrize("name", [
    f"{module}.{function}"
    for module, functions in traced_table().items() for function in functions
])
def test_every_traced_name_is_a_callable_of_its_module(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"cyclokit.{module}"), function))


def test_field_element_multiplication_can_be_counted():
    assert callable(oracle_mod.FFElement.__mul__)
    assert callable(oracle_mod.FFElement.__rmul__)


@pytest.mark.parametrize("field", [RATIONAL, finite_field(23)], ids=["Q", "q:23"])
def test_nu_renders_to_json(field):
    # lib_session reaches nu through the package namespace
    assert cyclokit.nu is quadcyclo.nu
    json.dumps(quadcyclo.nu(field, 3).to_json())
