"""Quadratic symbols and tame characters in exponent coordinates."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tametori.chartools import (
    TRIVIAL_CHAR,
    MuExponent,
    TameQuadChar,
    legendre_k1,
    legendre_kx,
    perm_sign,
    perm_sign_bruteforce,
    reduce_to_subfield,
)
from tametori.errors import NotInSubfield, NotNormOne


def test_mu_exponent_normalizes():
    assert MuExponent(10, 8).val == 2
    assert MuExponent(-1, 8).val == 7
    with pytest.raises(ValueError):
        MuExponent(0, 0)


def test_quad_char_validation_and_product():
    chi = TameQuadChar(-1, 1)
    psi = TameQuadChar(-1, -1)
    assert chi * psi == TameQuadChar(1, -1)
    assert chi * TRIVIAL_CHAR == chi
    assert chi * chi == TRIVIAL_CHAR
    with pytest.raises(ValueError):
        TameQuadChar(0, 1)
    with pytest.raises(ValueError):
        TameQuadChar(1, 2)


def test_reduce_to_subfield():
    # mu_24 -> mu_8 (Q=25 -> Q_sub=9): index 3
    assert reduce_to_subfield(MuExponent(6, 24), 9) == 2
    assert reduce_to_subfield(MuExponent(0, 24), 9) == 0
    with pytest.raises(NotInSubfield):
        reduce_to_subfield(MuExponent(4, 24), 9)  # 3 does not divide 4
    with pytest.raises(NotInSubfield):
        reduce_to_subfield(MuExponent(0, 24), 11)  # 10 does not divide 24


def prime_field_qr(p):
    """Quadratic residues of Z/p, the honest way."""
    return {(x * x) % p for x in range(1, p)}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_legendre_kx_prime_field_oracle(p):
    """Against squaring: zeta^k is a square iff k is even.  Spot-identify the
    exponent picture with the residue picture by counting."""
    qr = prime_field_qr(p)
    assert len(qr) == (p - 1) // 2
    evens = sum(1 for k in range(p - 1) if legendre_kx(p, MuExponent(k, p - 1)) == 1)
    assert evens == len(qr)
    # multiplicativity mirror of residue multiplicativity
    for a in range(p - 1):
        for b in range(p - 1):
            assert legendre_kx(p, MuExponent(a + b, p - 1)) == legendre_kx(
                p, MuExponent(a, p - 1)
            ) * legendre_kx(p, MuExponent(b, p - 1))


def test_legendre_kx_frozen():
    assert legendre_kx(7, MuExponent(3, 6)) == -1
    assert legendre_kx(9, MuExponent(4, 8)) == 1
    assert legendre_kx(9, MuExponent(1, 8)) == -1
    # reduction from a bigger ambient group first
    assert legendre_kx(9, MuExponent(3, 24)) == -1
    assert legendre_kx(9, MuExponent(6, 24)) == 1
    with pytest.raises(NotInSubfield):
        legendre_kx(9, MuExponent(1, 24))


def test_legendre_k1_frozen():
    assert legendre_k1(25, 5, MuExponent(20, 24)) == -1
    assert legendre_k1(25, 5, MuExponent(8, 24)) == 1
    assert legendre_k1(9, 3, MuExponent(6, 8)) == -1
    assert legendre_k1(9, 3, MuExponent(0, 8)) == 1
    with pytest.raises(NotNormOne):
        legendre_k1(25, 5, MuExponent(6, 24))
    with pytest.raises(ValueError):
        legendre_k1(25, 3, MuExponent(8, 24))


@pytest.mark.parametrize("q_pm", [3, 5, 7, 9, 11])
def test_legendre_k1_is_quadratic_on_norm_one(q_pm):
    """k^1 has order q_pm+1; the symbol is the unique surjective quadratic
    character: kernel of index 2, multiplicative."""
    Q = q_pm * q_pm
    norm_one = [k * (q_pm - 1) for k in range(q_pm + 1)]
    vals = [legendre_k1(Q, q_pm, MuExponent(x, Q - 1)) for x in norm_one]
    assert vals.count(1) == vals.count(-1) == (q_pm + 1) // 2
    assert set(vals) == {1, -1}
    for i, a in enumerate(norm_one):
        for b in norm_one:
            assert legendre_k1(Q, q_pm, MuExponent(a + b, Q - 1)) == vals[i] * legendre_k1(
                Q, q_pm, MuExponent(b, Q - 1)
            )


def test_perm_sign_frozen():
    assert perm_sign(5, MuExponent(1, 4)) == -1
    assert perm_sign(9, MuExponent(4, 8)) == 1
    assert perm_sign(9, MuExponent(0, 8)) == 1
    assert perm_sign(9, MuExponent(1, 8)) == -1
    assert perm_sign(7, MuExponent(2, 6)) == 1


@pytest.mark.parametrize("Q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 81, 121, 169])
def test_perm_sign_against_bruteforce(Q):
    for k in range(Q - 1):
        x = MuExponent(k, Q - 1)
        assert perm_sign(Q, x) == perm_sign_bruteforce(Q, x)


def test_perm_sign_equals_legendre_everywhere_small():
    """On odd-order fields the multiplication sign IS the Legendre symbol."""
    for Q in (3, 5, 7, 9, 11, 25, 27):
        for k in range(Q - 1):
            x = MuExponent(k, Q - 1)
            assert perm_sign(Q, x) == legendre_kx(Q, x)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([9, 25, 49, 81, 121]), st.integers(0, 10_000), st.integers(0, 10_000))
def test_kx_multiplicative(Q, a, b):
    xa = MuExponent(a, Q - 1)
    xb = MuExponent(b, Q - 1)
    xab = MuExponent(a + b, Q - 1)
    assert legendre_kx(Q, xab) == legendre_kx(Q, xa) * legendre_kx(Q, xb)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(9, 3), (25, 5), (49, 7), (121, 11)]), st.integers(0, 40), st.integers(0, 40))
def test_k1_multiplicative(pair, i, j):
    Q, q_pm = pair
    a = MuExponent(i * (q_pm - 1), Q - 1)
    b = MuExponent(j * (q_pm - 1), Q - 1)
    ab = MuExponent((i + j) * (q_pm - 1), Q - 1)
    assert legendre_k1(Q, q_pm, ab) == legendre_k1(Q, q_pm, a) * legendre_k1(Q, q_pm, b)
