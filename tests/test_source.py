"""Source-level invariants of the package."""

from __future__ import annotations

import ast
import importlib
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


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_all_exports_resolve(path):
    """Every name a module lists in __all__ exists, so a deleted function
    cannot leave a stale export behind."""
    dotted = "tametori" if path.stem == "__init__" else f"tametori.{path.stem}"
    module = importlib.import_module(dotted)
    exports = getattr(module, "__all__", ())
    missing = [name for name in exports if not hasattr(module, name)]
    assert not missing, f"{path.name}: __all__ names missing {missing}"
