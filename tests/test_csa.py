"""Central simple algebras, principal-order invariants, Brauer torsion."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tametori.csa import (
    CsaParams,
    brauer_torsion_sign,
    centralizer_invariants,
    order_invariants,
    split_algebra,
)
from tametori.errors import DimensionMismatch, NotASubgroup, NotTwoTorsion
from tametori.localfield import interval_subgroups, subfield_invariants

from conftest import model


def test_csa_params_validation():
    assert CsaParams(2, 2, 1).n == 4
    assert split_algebra(6) == CsaParams(6, 1, 0)
    with pytest.raises(ValueError):
        CsaParams(1, 4, 2)  # gcd(h, d) != 1
    with pytest.raises(ValueError):
        CsaParams(1, 4, 4)  # h out of range
    with pytest.raises(ValueError):
        CsaParams(0, 1, 0)


@pytest.mark.parametrize(
    "qef,mdh,expected",
    [
        ((3, 1, 4), (2, 2, 1), (1, 2, 2, 2)),
        ((3, 1, 2), (1, 2, 1), (1, 1, 2, 2)),
        ((3, 1, 4), (4, 1, 0), (1, 4, 1, 1)),
        ((5, 2, 2), (1, 4, 1), (1, 1, 4, 2)),
        ((5, 2, 2), (4, 1, 0), (2, 2, 2, 1)),
        ((5, 4, 1), (2, 2, 1), (2, 1, 4, 1)),
    ],
)
def test_order_invariants_frozen(qef, mdh, expected):
    X = model(*qef)
    inv = order_invariants(X, CsaParams(*mdh))
    assert (inv.r, inv.s, inv.e_F, inv.e_E) == expected


def test_order_invariants_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        order_invariants(model(3, 1, 4), CsaParams(1, 2, 1))


def algebra_pairs():
    out = []
    for q, e, f in [(3, 1, 4), (3, 2, 2), (3, 4, 1), (5, 2, 3), (7, 6, 1), (5, 1, 6)]:
        n = e * f
        for d in range(1, n + 1):
            if n % d:
                continue
            for h in range(d):
                if gcd(h, d) == 1 or (d == 1 and h == 0):
                    out.append(((q, e, f), (n // d, d, h)))
    return out


@pytest.mark.parametrize("qef,mdh", algebra_pairs())
def test_order_invariant_identities(qef, mdh):
    """The four invariants factor n: r*gcd(d,e) = e, s*e_E = f, m = r*s,
    d = gcd(d,e)*e_E, hence n = r*s*e_E*gcd(d,e)."""
    X = model(*qef)
    A = CsaParams(*mdh)
    inv = order_invariants(X, A)
    assert inv.r * gcd(A.d, X.e) == X.e
    assert inv.s * inv.e_E == X.f
    assert inv.e_F == inv.e_E * X.e == A.d * inv.r
    assert A.m == inv.r * inv.s
    assert A.d == gcd(A.d, X.e) * inv.e_E
    assert inv.r * inv.s * inv.e_E * gcd(A.d, X.e) == X.n


@pytest.mark.parametrize(
    "qef,mdh,selector_order,expected",
    [
        ((3, 1, 4), (2, 2, 1), 1, (1, 1, 1)),
        ((3, 1, 4), (2, 2, 1), 2, (2, 1, 1)),
        ((3, 1, 4), (2, 2, 1), 4, (2, 2, 2)),
        ((3, 1, 4), (4, 1, 0), 2, (2, 1, 1)),
    ],
)
def test_centralizer_invariants_frozen(qef, mdh, selector_order, expected):
    X = model(*qef)
    A = CsaParams(*mdh)
    (H,) = [H for H in interval_subgroups(X) if len(H) == selector_order]
    assert centralizer_invariants(X, A, H) == expected


def test_centralizer_requires_gamma_e():
    # (3,2,1,w=1) has Gal(L/E) = {1, phi}; the inertia subgroup {1, sigma}
    # misses it entirely
    X = model(3, 2, 1, 1)
    assert len(X.gamma_E) == 2
    inertia = tuple(sorted({type(X.sigma)(0, 0), X.sigma}))
    with pytest.raises(NotASubgroup):
        centralizer_invariants(X, CsaParams(1, 2, 1), inertia)
    with pytest.raises(DimensionMismatch):
        centralizer_invariants(X, CsaParams(1, 4, 1), X.gamma_E)


@pytest.mark.parametrize("qef,mdh", algebra_pairs())
def test_centralizer_chain_consistency(qef, mdh):
    """Along every interval subgroup: the centralizer is a csa of the right
    dimension over E_k and its order ramification divides e_E."""
    X = model(*qef)
    A = CsaParams(*mdh)
    inv = order_invariants(X, A)
    for H in interval_subgroups(X):
        e_k, f_k = subfield_invariants(X, H)
        over = X.n // (e_k * f_k)
        m_k, d_k, e_next = centralizer_invariants(X, A, H)
        assert m_k * d_k == over
        assert inv.e_E % e_next == 0
        if len(H) == len(X.gamma_E):  # H = Gal(L/E), so E_k = E
            assert (m_k, d_k, e_next) == (1, 1, 1)


def test_brauer_torsion_sign():
    assert brauer_torsion_sign(CsaParams(2, 2, 1), 1) == -1
    assert brauer_torsion_sign(CsaParams(2, 2, 1), 2) == 1
    assert brauer_torsion_sign(CsaParams(1, 4, 1), 2) == -1
    assert brauer_torsion_sign(split_algebra(4), 3) == 1
    with pytest.raises(NotTwoTorsion):
        brauer_torsion_sign(CsaParams(1, 4, 1), 1)
    with pytest.raises(NotTwoTorsion):
        brauer_torsion_sign(CsaParams(1, 3, 1), 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 12), st.integers(0, 11), st.integers(1, 6))
def test_brauer_torsion_matches_fraction_order(d, h, n_alpha):
    """Oracle: sign is determined by the order of n_alpha*h/d in Q/Z."""
    if gcd(h, d) != 1 or h >= d:
        return
    A = CsaParams(1, d, h)
    denom = (n_alpha * Fraction(h, d)) % 1
    if denom == 0:
        assert brauer_torsion_sign(A, n_alpha) == 1
    elif denom == Fraction(1, 2):
        assert brauer_torsion_sign(A, n_alpha) == -1
    else:
        with pytest.raises(NotTwoTorsion) as info:
            brauer_torsion_sign(A, n_alpha)
        assert str(info.value) == f"{n_alpha} * [{h}/{d}] = {denom} is not 2-torsion"
