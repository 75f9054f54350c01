"""Every public name of a submodule is used by the program or the benchmark.

A name in a submodule's ``__all__`` that no file under ``src/cyclokit`` and no
``bench/*.py`` file loads, outside its own definition, is surface that only
the tests keep alive: delete it, or move it into ``tests/`` when it is a
test's own reference.  ``KEPT`` holds the names kept because they state a
paper claim that the tests check.  Files are read as source with ``ast``, so
nothing under ``bench/`` is imported.  Names are matched by spelling alone,
so a name counts as used wherever a name or an attribute spelled the same is
loaded, such as a value type's field.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclokit"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

#: Public names that no code uses, kept for the paper claim a test checks.
KEPT = {
    "automorphisms.fixing_subgroup":
        "the subgroup of U_n fixing F(z_m), acceptance criterion 7",
    "moduli.g2_star": "the group law on the roots of order 2 in K*/F*",
    "moduli.chi_rad": "the embedding into square classes, acceptance criterion 8",
    "moduli.chi_as": "the embedding into Artin-Schreier classes, acceptance criterion 8",
    "oracle.brute_moduli": "the scan of K* that the moduli exponents nu and ell are checked on",
    "roots.contains": "membership in a moduli presentation, a route of acceptance criterion 5",
}


def public_names() -> set[str]:
    """``module.name`` for every entry of every submodule's ``__all__``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and path.stem != "__init__"
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                names |= {f"{path.stem}.{name}" for name in ast.literal_eval(node.value)}
    return names


def loaded_names() -> set[str]:
    """Every name the sources load, bare or as an attribute, outside the
    top-level definition of that same name."""
    loaded = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Load)}
            loaded |= names - {getattr(top, "name", None)}
    return loaded


def unused() -> set[str]:
    loaded = loaded_names()
    return {name for name in public_names() if name.split(".")[1] not in loaded}


def test_every_public_name_is_used_or_kept_for_a_claim():
    assert sorted(unused() - KEPT.keys()) == []


def test_every_kept_name_is_public_and_otherwise_unused():
    assert sorted(KEPT.keys() - unused()) == []
