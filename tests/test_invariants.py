"""Invariant checks in the package raise typed errors, never `assert`.

An `assert` statement vanishes under `python -O`, and an AssertionError
escapes the CLI's exit-code mapping as a traceback; `InvariantError`
does neither.
"""

import ast
from pathlib import Path

import assettree

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
