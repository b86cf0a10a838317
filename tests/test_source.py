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


ORACLES = Path(__file__).resolve().parent / "oracles.py"


def _tametori_modules():
    return [
        importlib.import_module("tametori" if p.stem == "__init__" else f"tametori.{p.stem}")
        for p in SRC
    ]


def test_oracles_live_only_in_tests():
    """A second route kept in tests/oracles.py has no twin of the same name in
    the package, so the library holds one route per concept."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    defined = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert defined
    clashes = [
        (module.__name__, name)
        for module in _tametori_modules()
        for name in defined
        if hasattr(module, name)
    ]
    assert not clashes, f"oracles also defined in the package: {clashes}"


def test_oracles_use_public_names_only():
    """The oracles import no _-prefixed tametori name and read no _-prefixed
    attribute, so a second route cannot borrow the first route's internals."""
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    private = [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tametori")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    private += [
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
    ]
    assert not private, f"oracles.py reaches private names: {private}"


def _called_name(node):
    """The last name of a decorator or call target: lru_cache for
    @functools.lru_cache(maxsize=None), dict for dict()."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def test_identities_keeps_no_state_across_calls():
    """identities builds its tables inside a call (a FieldPass) and memoizes
    nothing across calls, so a patched function is seen by the next call: no
    lru_cache or cache decorator and no module-level dict, list or set
    (__all__ and other dunder names aside)."""
    path = next(p for p in SRC if p.name == "identities.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    cached = [
        (node.lineno, node.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for dec in node.decorator_list
        if _called_name(dec) in ("lru_cache", "cache")
    ]
    assert not cached, f"identities.py caches across calls: {cached}"
    state = [
        node.lineno
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and node.value is not None
        and (
            isinstance(node.value, CONTAINERS)
            or _called_name(node.value) in ("dict", "list", "set", "defaultdict")
        )
        and not all(
            isinstance(t, ast.Name) and t.id.startswith("__") and t.id.endswith("__")
            for t in getattr(node, "targets", [getattr(node, "target", None)])
        )
    ]
    assert not state, f"identities.py holds module-level containers at lines {state}"


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC}


def test_every_parameter_is_read():
    """A function reads every parameter it takes (self and cls aside), so no
    caller passes a value that nothing looks at."""
    unread = []
    for stem, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [
                f"{stem}.{name}({p})" for p in params if p not in ("self", "cls", *read)
            ]
    assert not unread, f"parameters never read: {unread}"


# Top-level public names that no function or class of the package uses and
# tametori.__all__ does not export, each with the reason it stays.
KEPT = {
    "cli.main": "the console script's entry point",
    "chartools.perm_sign_bruteforce": "perfbench symbol-scan oracle; leaves with ROADMAP item 1",
    "finmod.symp_iso_direct": "perfbench trace target; leaves with ROADMAP item 1",
    "identities.nu_zeta_total": "perfbench trace target; leaves with ROADMAP item 1",
    "identities.epsilon_total": "perfbench trace target; leaves with ROADMAP item 1",
    "identities.epsilon_alpha": "public one-orbit entry point over FieldPass (README)",
    "identities.zeta_restricted": "public one-orbit entry point over FieldPass (README)",
}


def _library_uses():
    """(top-level public names, names that some other top-level function or
    class of the package reads, by bare name or as an attribute)."""
    defined, used = [], set()
    for stem, tree in _trees().items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not top.name.startswith("_"):
                defined.append((stem, top.name))
            used.update(
                name
                for n in ast.walk(top)
                for name in (
                    n.id if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) else None,
                    n.attr if isinstance(n, ast.Attribute) else None,
                )
                if name is not None and name != top.name
            )
    return defined, used


def test_every_public_name_has_a_library_use():
    """Each top-level public function or class has a caller in the package,
    is exported by tametori.__all__, or is listed in KEPT with its reason; a
    KEPT name that gains a caller or an export fails too, so KEPT stays exact."""
    exported = set(importlib.import_module("tametori").__all__)
    defined, used = _library_uses()
    unused = {
        f"{stem}.{name}"
        for stem, name in defined
        if name not in used and name not in exported
    }
    assert unused == set(KEPT), (
        f"no library use and not in KEPT: {sorted(unused - set(KEPT))}; "
        f"in KEPT but used, exported or gone: {sorted(set(KEPT) - unused)}"
    )
