"""Invariant checks are explicit raises, so they survive python -O."""

import ast
from pathlib import Path

import eisen

SRC = Path(eisen.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
