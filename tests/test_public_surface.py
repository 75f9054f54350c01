"""Every public name of a submodule is used by the program or the benchmark.

A name in a submodule's ``__all__`` that no file under ``src/cyclokit`` and no
``bench/*.py`` file loads, outside its own definition, is surface that only
the tests keep alive: delete it, or move it into ``tests/`` when it is a
test's own reference.  ``KEPT`` holds the names kept because they state a
paper claim that the tests check.  Files are read as source with ``ast``, so
nothing under ``bench/`` is imported.  Names are matched by owner: a public
name of module M counts as used only where it is loaded bare after an import
from M or from the ``cyclokit`` package, as ``M.name`` or ``ck.name`` through
a module or package binding, or bare inside M itself.  A value type's field
spelled like a function, read as ``desc.cardinality``, does not count.
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


def _owner(module: str | None, level: int) -> str | None:
    """The submodule, or ``cyclokit`` for the package, that an import reads
    from; None outside the package."""
    if level:
        return module or PACKAGE.name
    if module == PACKAGE.name:
        return module
    prefix = PACKAGE.name + "."
    return module[len(prefix):] if module and module.startswith(prefix) else None


def loaded_names() -> set[str]:
    """``owner.name`` for every name the sources load through its owner,
    ``owner`` being a submodule or ``cyclokit`` for the package."""
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    loaded = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        modules, imported = {}, {}  # local name -> owner, local name -> owner.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if (owner := _owner(alias.name, 0)) and alias.asname:
                        modules[alias.asname] = owner  # import cyclokit.cli as cli
                    elif owner:
                        modules[alias.name.split(".")[0]] = PACKAGE.name
            elif isinstance(node, ast.ImportFrom) and (owner := _owner(node.module, node.level)):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if owner == PACKAGE.name and alias.name in submodules:
                        modules[local] = alias.name
                    else:
                        imported[local] = f"{owner}.{alias.name}"
        home = path.stem if path.parent == PACKAGE else None
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                if isinstance(node, ast.Name) and node.id in imported:
                    loaded.add(imported[node.id])
                elif isinstance(node, ast.Name) and home and node.id != getattr(top, "name", None):
                    loaded.add(f"{home}.{node.id}")
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in modules):
                    loaded.add(f"{modules[node.value.id]}.{node.attr}")
    return loaded


def unused() -> set[str]:
    loaded = loaded_names()
    return {name for name in public_names()
            if not {name, f"{PACKAGE.name}.{name.split('.')[1]}"} & loaded}


def test_every_public_name_is_used_or_kept_for_a_claim():
    assert sorted(unused() - KEPT.keys()) == []


def test_every_kept_name_is_public_and_otherwise_unused():
    assert sorted(KEPT.keys() - unused()) == []
