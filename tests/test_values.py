"""The value types that cache keys and verdicts are made of: CsaParams,
TowerShape and TameQuadChar are named tuples with the texts, reprs and
pickling of the frozen dataclasses they replaced."""

from __future__ import annotations

import pickle
import re

import pytest

from tametori.chartools import TRIVIAL_CHAR, TameQuadChar
from tametori.csa import CsaParams, order_invariants
from tametori.identities import grid_algebras
from tametori.localfield import interval_subgroups
from tametori.tower import TowerShape

from conftest import model


@pytest.mark.parametrize(
    "build,text",
    [
        (lambda: CsaParams(0, 1, 0), "m=0, d=1 must be positive"),
        (lambda: CsaParams(2, 0, 0), "m=2, d=0 must be positive"),
        (lambda: CsaParams(1, 4, 2), "h=2 invalid for d=4"),
        (lambda: CsaParams(1, 4, 4), "h=4 invalid for d=4"),
        (lambda: TameQuadChar(0, 1), "character values must be +1 or -1 (quadratic)"),
        (lambda: TameQuadChar(1, 2), "character values must be +1 or -1 (quadratic)"),
    ],
)
def test_value_error_texts(build, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build()


def _shapes():
    X = model(3, 2, 1)
    full = interval_subgroups(X)[-1]
    return TowerShape(subgroups=(full,), levels=()), TowerShape((X.gamma_E, full), (1,))


def test_reprs():
    t0, t1 = _shapes()
    assert repr(CsaParams(1, 2, 1)) == "CsaParams(m=1, d=2, h=1)"
    assert repr(TameQuadChar(-1, 1)) == "TameQuadChar(on_unit_gen=-1, on_uniformizer=1)"
    assert repr(t0) == (
        "TowerShape(subgroups=(frozenset({GaloisElement(a=1, c=0), "
        "GaloisElement(a=0, c=0)}),), levels=())"
    )
    assert repr(t1) == (
        "TowerShape(subgroups=(frozenset({GaloisElement(a=0, c=0)}), "
        "frozenset({GaloisElement(a=1, c=0), GaloisElement(a=0, c=0)})), levels=(1,))"
    )


def test_pickle_round_trip():
    for value in (CsaParams(2, 3, 2), TameQuadChar(-1, 1), TRIVIAL_CHAR, *_shapes()):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value) and hash(back) == hash(value)
    t1 = pickle.loads(pickle.dumps(_shapes()[1]))
    assert t1.t == 1 and all(type(H) is frozenset for H in t1.subgroups)
    assert pickle.loads(pickle.dumps(CsaParams(2, 3, 2))).n == 6


def test_values_carry_no_instance_dict():
    for value in (CsaParams(1, 2, 1), TRIVIAL_CHAR, _shapes()[0]):
        assert not hasattr(value, "__dict__")
        with pytest.raises(AttributeError):
            value.x = 1


def test_products_are_the_four_interned_characters():
    assert TameQuadChar(-1, 1) * TameQuadChar(-1, 1) is TRIVIAL_CHAR
    chars = [TameQuadChar(u, v) for u in (1, -1) for v in (1, -1)]
    interned = {id(a * TRIVIAL_CHAR) for a in chars}
    assert len(interned) == 4
    for a in chars:
        for b in chars:
            product = a * b
            assert id(product) in interned
            assert product == TameQuadChar(a[0] * b[0], a[1] * b[1])


def test_equal_algebras_share_hash_and_cache_entry():
    """CsaParams built by two grid_algebras calls are distinct objects that
    hash alike, so the second one hits the first one's cache entry."""
    first, second = grid_algebras(6), grid_algebras(6)
    assert first == second
    assert all(a is not b and hash(a) == hash(b) for a, b in zip(first, second))
    X = model(3, 2, 3)
    for A in first:
        order_invariants(X, A)
    hits = order_invariants.cache_info().hits
    for A in second:
        order_invariants(X, A)
    assert order_invariants.cache_info().hits == hits + len(second)
