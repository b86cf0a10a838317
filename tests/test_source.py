"""Source-level invariants of the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "tametori").glob("*.py"))


def test_sources_found():
    assert len(SRC) >= 9


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Checks must survive python -O, which strips assert statements: the
    package raises typed TametoriError subclasses instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"
