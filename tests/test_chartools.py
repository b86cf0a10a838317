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

from conftest import real_field


def test_mu_exponent_normalizes():
    assert MuExponent(10, 8).val == 2
    assert MuExponent(-1, 8).val == 7
    assert MuExponent(5, 1).val == 0
    for order in (0, -3):
        with pytest.raises(ValueError):
            MuExponent(1, order)


def test_mu_exponent_is_a_light_value():
    x = MuExponent(10, 8)
    assert not hasattr(x, "__dict__")
    assert x == MuExponent(2, 8)
    assert x != MuExponent(2, 16)
    assert repr(x) == "MuExponent(val=2, order=8)"


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


@pytest.mark.parametrize("p,k", [(3, 6), (5, 4)])
def test_reduce_fast_path_matches_general_route(p, k):
    """reduce_to_subfield answers x.order == Q_sub - 1 at once.  The same
    element carried in the full mu_{Q-1} takes the divide-and-check route and
    must give the same index and symbols; elements outside a subfield, and
    sizes that are no subfield, raise NotInSubfield through every symbol."""
    n = p**k - 1
    symbols = (reduce_to_subfield, lambda x, Q: legendre_kx(Q, x), lambda x, Q: perm_sign(Q, x))
    for d in range(1, k + 2):
        Q_sub = p**d
        u = n // (Q_sub - 1) if k % d == 0 else None
        if u is not None:
            for v in range(Q_sub - 1):
                fast, general = MuExponent(v, Q_sub - 1), MuExponent(v * u, n)
                assert reduce_to_subfield(fast, Q_sub) == reduce_to_subfield(general, Q_sub) == v
                assert legendre_kx(Q_sub, fast) == legendre_kx(Q_sub, general)
                assert perm_sign(Q_sub, fast) == perm_sign(Q_sub, general)
        for w in range(n):
            if u is None or w % u:
                for symbol in symbols:
                    with pytest.raises(NotInSubfield):
                        symbol(MuExponent(w, n), Q_sub)


@pytest.mark.parametrize("Q_sub", [1, 0, -7])
def test_subfield_size_below_two_is_rejected(Q_sub):
    for x in (MuExponent(3, 8), MuExponent(0, 8)):
        with pytest.raises(ValueError):
            reduce_to_subfield(x, Q_sub)
        with pytest.raises(ValueError):
            legendre_kx(Q_sub, x)
        with pytest.raises(ValueError):
            legendre_k1(Q_sub, Q_sub, x)
        with pytest.raises(ValueError):
            perm_sign(Q_sub, x)


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


# Real finite fields: p^k in {9, 25, 27, 49, 81, 121, 125, 243, 343, 625, 729}
# and a few primes.  Exponent j stands for the real element g^j = F.pw[j].
GF_FIELDS = [
    (3, 1), (7, 1), (13, 1), (31, 1),
    (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (3, 5), (7, 3), (5, 4), (3, 6),
]
GF_EVEN = [(p, k) for p, k in GF_FIELDS if k % 2 == 0]
GF_IDS = [f"{p}^{k}" for p, k in GF_FIELDS]


def subfield_sizes(p, k):
    return [p**d for d in range(1, k + 1) if k % d == 0]


@pytest.mark.parametrize("p,k", GF_FIELDS, ids=GF_IDS)
def test_real_field_oracle_is_cyclic(p, k):
    F = real_field(p**k)
    assert len(F.modulus) == k + 1
    assert sorted(F.pw) == list(range(1, F.Q))
    assert F.mul(F.g, F.pw[-1]) == 1


@pytest.mark.parametrize("p,k", GF_FIELDS, ids=GF_IDS)
def test_legendre_kx_against_euler_criterion(p, k):
    """On every subfield k_sub, x is a square iff x^{(Q_sub-1)/2} = 1 (the
    other value is -1, the constant p - 1)."""
    F = real_field(p**k)
    for Q_sub in subfield_sizes(p, k):
        for j, x in enumerate(F.pw):
            if F.pow(x, Q_sub) != x:
                continue
            euler = F.pow(x, (Q_sub - 1) // 2)
            assert euler in (1, p - 1)
            assert legendre_kx(Q_sub, MuExponent(j, F.Q - 1)) == (1 if euler == 1 else -1)


@pytest.mark.parametrize("p,k", GF_FIELDS, ids=GF_IDS)
def test_reduce_to_subfield_against_frobenius(p, k):
    """x lies in the subfield with Q_sub elements iff x^{Q_sub} = x, and its
    reduced exponent r then satisfies x = h^r for the generator
    h = g^{(Q-1)/(Q_sub-1)} of that subfield's mu."""
    F = real_field(p**k)
    n = F.Q - 1
    for Q_sub in subfield_sizes(p, k):
        h = F.pow(F.g, n // (Q_sub - 1))
        for j, x in enumerate(F.pw):
            if F.pow(x, Q_sub) == x:
                assert F.pow(h, reduce_to_subfield(MuExponent(j, n), Q_sub)) == x
            else:
                with pytest.raises(NotInSubfield):
                    reduce_to_subfield(MuExponent(j, n), Q_sub)


@pytest.mark.parametrize("p,k", GF_EVEN, ids=[f"{p}^{k}" for p, k in GF_EVEN])
def test_legendre_k1_against_real_norm(p, k):
    """k^1 is the kernel of the norm x -> x^{q_pm+1} to the subfield with
    q_pm elements; on it the symbol is +1 exactly on the squares of k^1."""
    F = real_field(p**k)
    q_pm = p ** (k // 2)
    norm_one = {x for x in F.pw if F.pow(x, q_pm + 1) == 1}
    assert len(norm_one) == q_pm + 1
    squares = {F.mul(y, y) for y in norm_one}
    for j, x in enumerate(F.pw):
        xj = MuExponent(j, F.Q - 1)
        if x in norm_one:
            assert legendre_k1(F.Q, q_pm, xj) == (1 if x in squares else -1)
        else:
            with pytest.raises(NotNormOne):
                legendre_k1(F.Q, q_pm, xj)


@pytest.mark.parametrize("p,k", GF_FIELDS, ids=GF_IDS)
def test_perm_sign_against_real_multiplication(p, k):
    F = real_field(p**k)
    for j, a in enumerate(F.pw):
        assert perm_sign(F.Q, MuExponent(j, F.Q - 1)) == F.mul_sign(a)
