"""Value semantics of the package's immutable value types.

Each value type is pinned by the exact ``repr`` of a sample, by a hash equal
to the hash of the tuple of its fields, and by refusing attribute
assignment.  Normalisation, ordering and the rational-field default are
checked separately, and every annotation in the package must resolve.  The
tuple base they share refuses + and *, gives no instance a ``__dict__`` but a
field profile's, and keeps ``typing`` out of the package.
"""

import ast
import copy
import importlib
import importlib.util
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import cyclokit

from cyclokit._value import Value
from cyclokit.field_profile import RATIONAL, ExtendedNat, FieldProfile, ell, finite_field
from cyclokit.moduli import (
    ArtinSchreierClass,
    FiniteSquareClass,
    ModuliClass,
    ModuliDescription,
    RationalSquareClass,
    SMaxClass,
    SMaxPartition,
)
from cyclokit.numtheory import ResidueClass
from cyclokit.quadcyclo import (
    ArtinSchreierGenerator,
    KappaClass,
    QuadMinPoly,
    RadicalGenerator,
    TraceShape,
    nu,
    nu_plus,
)
from cyclokit.roots import (
    Difference,
    InternalProduct,
    Mu,
    PrimSet,
    RootOfUnity,
    RootSum,
    Union,
    canonical,
)

Z4 = canonical(4, 1)
Z3 = canonical(3, 1)
SUM = RootSum.of(Z3, canonical(3, 2))
SHAPE = TraceShape(2, 16, -1)
RC = ResidueClass(7, 16)
DIFF = Difference(Mu(4), Mu(2))
MCLASS = ModuliClass((2,), 4, "x^2 + 1")
SCLASS = SMaxClass((3,), 3, "x^2 + x + 1", DIFF, 2)

# (value, exact repr, the tuple of its fields in order, a field name)
CASES = [
    (Z4, "RootOfUnity(denominator=4, numerator=1)", (4, 1), "numerator"),
    (Mu(4), "Mu(n=4)", (4,), "n"),
    (PrimSet(8), "PrimSet(n=8)", (8,), "n"),
    (InternalProduct((Mu(3), PrimSet(4))),
     "InternalProduct(factors=(Mu(n=3), PrimSet(n=4)))", ((Mu(3), PrimSet(4)),),
     "factors"),
    (DIFF, "Difference(left=Mu(n=4), right=Mu(n=2))", (Mu(4), Mu(2)), "left"),
    (Union((Mu(3), PrimSet(4))), "Union(parts=(Mu(n=3), PrimSet(n=4)))",
     ((Mu(3), PrimSet(4)),), "parts"),
    (ResidueClass(-1, 5), "ResidueClass(value=4, modulus=5)", (4, 5), "value"),
    (FieldProfile(2, 4), "FieldProfile(p=2, k=4)", (2, 4), "p"),
    (SHAPE, "TraceShape(unit_index=2, cos_index=16, sign=-1)",
     (2, 16, -1), "sign"),
    (QuadMinPoly(16, "TwoHighMinus", RC, SUM, RootSum.of(Z4), SHAPE),
     "QuadMinPoly(n=16, case_tag='TwoHighMinus', yogh=ResidueClass(value=7,"
     " modulus=16), trace_coeff=RootSum(z(3,1) + z(3,2)),"
     " norm_coeff=RootSum(z(4,1)), shape=TraceShape(unit_index=2, cos_index=16,"
     " sign=-1))",
     (16, "TwoHighMinus", RC, SUM, RootSum.of(Z4), SHAPE), "yogh"),
    (RadicalGenerator(SUM, RootSum.of(Z4)),
     "RadicalGenerator(expression=RootSum(z(3,1) + z(3,2)),"
     " square=RootSum(z(4,1)))",
     (SUM, RootSum.of(Z4)), "square"),
    (ArtinSchreierGenerator(Z3, SUM),
     "ArtinSchreierGenerator(numerator=RootOfUnity(denominator=3, numerator=1),"
     " denominator=RootSum(z(3,1) + z(3,2)))", (Z3, SUM), "numerator"),
    (KappaClass("MinusBranch", SUM, True),
     "KappaClass(branch='MinusBranch',"
     " representative=RootSum(z(3,1) + z(3,2)), in_field=True)",
     ("MinusBranch", SUM, True), "in_field"),
    (MCLASS, "ModuliClass(primes=(2,), representative_n=4, minpoly='x^2 + 1')",
     ((2,), 4, "x^2 + 1"), "minpoly"),
    (ModuliDescription("PerPrime", DIFF, 2, (MCLASS,)),
     "ModuliDescription(kind='PerPrime', presentation=Difference(left=Mu(n=4),"
     " right=Mu(n=2)), cardinality=2, classes=(ModuliClass(primes=(2,),"
     " representative_n=4, minpoly='x^2 + 1'),))",
     ("PerPrime", DIFF, 2, (MCLASS,)), "classes"),
    (SCLASS,
     "SMaxClass(primes=(3,), representative_n=3, minpoly='x^2 + x + 1',"
     " presentation=Difference(left=Mu(n=4), right=Mu(n=2)), cardinality=2)",
     ((3,), 3, "x^2 + x + 1", DIFF, 2), "cardinality"),
    (SMaxPartition((SCLASS,)),
     "SMaxPartition(classes=(SMaxClass(primes=(3,), representative_n=3,"
     " minpoly='x^2 + x + 1', presentation=Difference(left=Mu(n=4),"
     " right=Mu(n=2)), cardinality=2),))", ((SCLASS,),), "classes"),
    (RationalSquareClass(-1), "RationalSquareClass(d=-1)", (-1,), "d"),
    (FiniteSquareClass(False), "FiniteSquareClass(is_residue=False)", (False,),
     "is_residue"),
    (ArtinSchreierClass(1), "ArtinSchreierClass(trace_bit=1)", (1,), "trace_bit"),
]


@pytest.mark.parametrize("value, text, fields, name", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_value_repr_hash_and_immutability(value, text, fields, name):
    assert repr(value) == text
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)
    with pytest.raises(AttributeError):
        setattr(value, name, fields[0])


@pytest.mark.parametrize("value, text, fields, name", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_make_and_replace_rebuild_through_the_constructor(value, text, fields, name):
    assert type(value)._make(tuple(value)) == value
    assert value._replace(**{name: getattr(value, name)}) == value


@pytest.mark.parametrize("value, text, fields, name", CASES,
                         ids=[type(case[0]).__name__ for case in CASES])
def test_values_rebuild_by_keyword_by_copy_and_by_pickle(value, text, fields, name):
    assert type(value)(**value._asdict()) == value
    assert type(value).__match_args__ == tuple(value._asdict())
    for rebuilt in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(rebuilt) is type(value) and tuple(rebuilt) == fields
    with pytest.raises(ValueError, match="unexpected field names"):
        value._replace(no_such_field=1)


@pytest.mark.parametrize("expression", [
    lambda v: v + v, lambda v: v * 2, lambda v: 2 * v, lambda v: (1,) + v, lambda v: v + (1,),
], ids=["value_plus_value", "value_times_int", "int_times_value", "tuple_plus_value",
        "value_plus_tuple"])
@pytest.mark.parametrize("value", [case[0] for case in CASES],
                         ids=[type(case[0]).__name__ for case in CASES])
def test_tuple_arithmetic_on_every_value_type_raises(value, expression):
    # A value is a tuple, so these would concatenate or repeat it silently.
    with pytest.raises(TypeError, match=r"\+ or \*"):
        expression(value)


def test_no_value_type_but_the_field_profile_gives_instances_a_dict():
    # A value type whose class lacks __slots__ = () gets a __dict__ silently.
    assert {type(case[0]) for case in CASES} == set(Value.__subclasses__())
    with_dict = [type(case[0]).__name__ for case in CASES if hasattr(case[0], "__dict__")]
    assert with_dict == ["FieldProfile"]


def test_no_module_of_the_package_imports_typing_or_namedtuple():
    # Building classes through typing.NamedTuple or collections.namedtuple
    # costs every process milliseconds at import.
    package = Path(cyclokit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [f"{path.stem}: {a.name}" for a in node.names
                          if a.name.split(".")[0] == "typing"]
            elif isinstance(node, ast.ImportFrom):
                found += [f"{path.stem}: {node.module}.{a.name}" for a in node.names
                          if node.module == "typing" or a.name == "namedtuple"]
    assert found == []


def test_importing_the_cli_leaves_typing_unloaded():
    code = "import sys, cyclokit.cli\nprint('typing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(cyclokit.__file__).resolve().parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_residue_class_replace_normalises_and_refuses_bad_moduli():
    assert ResidueClass(7, 16)._replace(value=23) == ResidueClass(23, 16)
    assert ResidueClass._make((23, 16)) == ResidueClass(7, 16)
    with pytest.raises(ValueError, match="modulus must be positive"):
        ResidueClass(7, 16)._replace(modulus=0)


def test_extended_nat_hash_immutability_and_repr_shape():
    # nu's value is an int in all but its one method: equal, hashed, ordered
    # and rendered as the int, in JSON too, and no attribute can be set.
    # ell and nu_plus return plain ints.
    field = finite_field(23)
    value = nu(field, 2)
    assert type(value) is ExtendedNat and value == 4 and 3 < value < 5
    assert hash(value) == hash(4)
    assert repr(value) == str(value) == "4"
    assert json.dumps({"nu": value}) == '{"nu": 4}'
    assert value.to_json() == 4 and type(value.to_json()) is int
    assert ExtendedNat.__slots__ == ()
    assert [name for name in vars(ExtendedNat) if not name.startswith("__")] == ["to_json"]
    with pytest.raises(AttributeError):
        value.label = "nu"
    assert type(ell(field, 2)) is int and type(nu_plus(field, 2)) is int


def test_residue_class_normalises_and_refuses_bad_moduli():
    assert ResidueClass(-1, 5).value == 4
    assert ResidueClass(12, 5) == ResidueClass(2, 5)
    assert ResidueClass(0, 1).value == 0
    for modulus in (0, -3):
        with pytest.raises(ValueError, match="modulus must be positive"):
            ResidueClass(1, modulus)


def test_root_of_unity_orders_by_denominator_then_numerator():
    roots = [canonical(4, 3), canonical(2, 1), canonical(4, 1), canonical(1, 0)]
    assert sorted(roots) == [RootOfUnity(1, 0), RootOfUnity(2, 1),
                             RootOfUnity(4, 1), RootOfUnity(4, 3)]
    assert RootOfUnity(3, 2) < RootOfUnity(4, 1)


def test_default_field_profile_is_the_rationals():
    assert FieldProfile() == RATIONAL
    assert hash(FieldProfile()) == hash(RATIONAL)
    assert RATIONAL.is_rational


def _defined_functions():
    """Every function and method defined in a ``cyclokit`` module, the CLI and
    the oracle included, unwrapped from its caches."""
    for info in pkgutil.iter_modules(cyclokit.__path__):
        module = importlib.import_module(f"cyclokit.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else [obj]
            for member in members:
                member = getattr(member, "fget", getattr(member, "__func__", member))
                fn = inspect.unwrap(member) if callable(member) else member
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    yield fn


def test_every_annotation_in_the_package_resolves():
    functions = list(_defined_functions())
    names = {f"{fn.__module__}.{fn.__qualname__}" for fn in functions}
    assert {"cyclokit.cli.main", "cyclokit.oracle.build_field",
            "cyclokit.quadcyclo.min_poly", "cyclokit.roots.RootSum.from_terms",
            "cyclokit.field_profile.FieldProfile.is_rational"} <= names
    unresolved = []
    for fn in functions:
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append(f"{fn.__module__}.{fn.__qualname__}: {exc}")
    assert unresolved == []


def test_every_name_the_benchmark_tracer_wraps_is_still_defined():
    # bench/tracer.py wraps these by name; a renamed one would drop out of
    # the per-layer figures without an error.
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module_name, functions in tracer.TRACED.items():
        module = importlib.import_module(f"cyclokit.{module_name}")
        for name in functions:
            fn = inspect.unwrap(getattr(module, name))
            assert inspect.isfunction(fn) and fn.__name__ == name, f"{module_name}.{name}"
    from cyclokit.oracle import FFElement
    assert "__init__" in vars(RootSum)
    assert {"__mul__", "__rmul__"} <= set(vars(FFElement))
