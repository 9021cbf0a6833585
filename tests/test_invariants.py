"""Invariant checks in the package raise typed errors, never `assert`.

An `assert` statement vanishes under `python -O`, and an AssertionError
escapes the CLI's exit-code mapping as a traceback; `InvariantError`
does neither.
"""

import ast
from pathlib import Path

import assettree

from test_readme import library_block

SOURCES = sorted(Path(assettree.__file__).parent.glob("*.py"))


def test_package_sources_use_no_assert_or_assertion_error():
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_every_module_level_import_is_read():
    # `__init__.py` imports names to re-export them.
    unread = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append("%s:%d %s" % (path.name, node.lineno, name))
    assert unread == []


def _named(tree: ast.AST) -> set[str]:
    """Every name a piece of code loads, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


# `perfbench/tracing.py` wraps `Tree.degrees` on the class to count its
# calls, so a traced run fails without it, though the package never calls it.
USED_OUTSIDE_THE_PACKAGE = {"mst.Tree.degrees"}


def test_every_public_definition_is_used_by_the_package_or_the_readme():
    # Code only the tests call belongs in the tests (see tests/oracles.py).
    # `__init__.py` re-exports names, so its imports do not count as a use.
    # Public methods and properties of package classes count too; dunders
    # and other `_` names are skipped.
    used = _named(ast.parse(library_block()))
    defined = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                used |= _named(node)
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            methods = [m.name for m in members if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            defined.append(("%s.%s" % (path.stem, node.name), node.name))
            defined += [("%s.%s.%s" % (path.stem, node.name, name), name) for name in methods]
            # A name read only inside its own definition is not a use.
            used |= _named(node) - {node.name, *methods}
            for member in members:
                used |= _named(member) - {getattr(member, "name", None)}
    assert defined
    assert [label for label, name in defined if name not in used and label not in USED_OUTSIDE_THE_PACKAGE] == []


def test_metrics_raises_invariant_error_only_for_a_degree_count_row():
    # `summarize_batch` leaves the structure of its columns to
    # `mst._check_join_order`; metrics raises no structural error of its
    # own. Its one InvariantError is the check of a degree-count row.
    source = (Path(assettree.__file__).parent / "metrics.py").read_text(encoding="utf-8")
    module = ast.parse(source)
    raising = [node.name for node in module.body if isinstance(node, ast.FunctionDef) and "InvariantError" in _named(node)]
    assert raising == ["_check_counts"]
