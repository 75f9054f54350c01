"""Every public name of a submodule, and every public member of its public
classes, is used by the program or the benchmark.

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

The same holds one level down.  Every method, property, classmethod or class
attribute defined in the body of a public class, unless its name starts with
an underscore, must be read as ``.name`` somewhere in those sources outside
its own definition, or be listed in ``KEPT_MEMBERS`` with its claim.
NamedTuple fields are exempt: they are the value itself.  Members are matched
by name alone, without their owner, since the type of ``x`` in ``x.name`` is
not known from the source: a read of any ``.order`` keeps every public member
called ``order``.

One more rule keeps ``__all__`` complete: in a submodule that has one, every
public module-level ``def`` or ``class`` is listed there.  Assignments, such
as ``moduli``'s ``KIND_*`` constants, are outside this rule.
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


#: Class members that no code reads, kept for the paper claim a test checks.
KEPT_MEMBERS = {
    f"moduli.{cls}.is_trivial":
        "the embeddings land in a nontrivial class, acceptance criterion 8"
    for cls in ("RationalSquareClass", "FiniteSquareClass", "ArtinSchreierClass")
}


def submodule_alls() -> dict[str, list[str]]:
    """The ``__all__`` of every submodule that has one, by module name."""
    alls = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and path.stem != "__init__"
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"]):
                alls[path.stem] = ast.literal_eval(node.value)
    return alls


def public_names() -> set[str]:
    """``module.name`` for every entry of every submodule's ``__all__``."""
    return {f"{module}.{name}" for module, names in submodule_alls().items()
            for name in names}


def unlisted_definitions() -> set[str]:
    """``module.name`` for every public module-level function or class of a
    submodule that its ``__all__`` does not list."""
    missing = set()
    for module, names in submodule_alls().items():
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in names):
                missing.add(f"{module}.{node.name}")
    return missing


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


def public_members() -> dict[str, tuple[str, ...]]:
    """``module.Class.member`` for every public member of every class in a
    submodule's ``__all__``, mapped to the scope of its definition."""
    public = public_names()
    members = {}
    for path in PACKAGE.glob("*.py"):
        for cls in ast.parse(path.read_text()).body:
            if not (isinstance(cls, ast.ClassDef) and f"{path.stem}.{cls.name}" in public):
                continue
            named_tuple = any(getattr(base, "id", None) == "NamedTuple" for base in cls.bases)
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [getattr(target, "id", "_") for target in node.targets]
                elif isinstance(node, ast.AnnAssign) and not named_tuple:
                    names = [getattr(node.target, "id", "_")]
                else:
                    names = []
                for name in names:
                    if not name.startswith("_"):
                        members[f"{path.stem}.{cls.name}.{name}"] = (str(path), cls.name, name)
    return members


def attribute_reads() -> dict[str, list[tuple[str, ...]]]:
    """For every ``.name`` the sources load, the scopes it is loaded in: the
    file, then the classes and functions enclosing the read."""
    reads: dict[str, list[tuple[str, ...]]] = {}

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                reads.setdefault(child.attr, []).append(scope)
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, scope + (child.name,) if named else scope)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), (str(path),))
    return reads


def unread_members() -> set[str]:
    reads = attribute_reads()
    return {key for key, home in public_members().items()
            if all(scope[:3] == home for scope in reads.get(home[2], []))}


def test_every_public_name_is_used_or_kept_for_a_claim():
    assert sorted(unused() - KEPT.keys()) == []


def test_every_kept_name_is_public_and_otherwise_unused():
    assert sorted(KEPT.keys() - unused()) == []


def test_every_public_definition_is_listed_in_its_modules_all():
    assert sorted(unlisted_definitions()) == []


def test_every_public_member_is_read_or_kept_for_a_claim():
    assert sorted(unread_members() - KEPT_MEMBERS.keys()) == []


def test_every_kept_member_is_public_and_otherwise_unread():
    assert sorted(KEPT_MEMBERS.keys() - unread_members()) == []
