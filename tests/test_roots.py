"""Double-coset enumeration, classification, and root evaluation."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tametori.csa import CsaParams, split_algebra
from tametori.identities import grid_extension_params
from tametori.localfield import (
    build_extension,
    compose,
    enumerate_group,
    inverse,
)
from tametori.roots import (
    RootClass,
    coset_element,
    double_coset_labels,
    enumerate_orbits,
    left_coset_label,
    ord_contains,
    root_eval,
)

from conftest import ACCEPT_GRID, model, orbit_by_label, orbit_with_rep, real_field
from oracles import CriterionViolation, classify_by_criterion, classify_elementwise

MODELS = [
    (3, 1, 2, 0),
    (3, 1, 4, 0),
    (3, 2, 1, 0),
    (3, 2, 1, 1),
    (3, 2, 2, 0),
    (3, 4, 1, 0),
    (5, 2, 2, 0),
    (5, 4, 1, 0),
    (5, 1, 3, 0),
    (7, 2, 3, 0),
    (7, 4, 1, 0),
    (7, 6, 1, 0),
    (9, 2, 2, 0),
    (3, 2, 2, 3),
    (5, 6, 1, 0),
]


def test_left_coset_label_roundtrip():
    for params in MODELS:
        X = model(*params)
        for i in range(X.e):
            for j in range(X.f):
                assert left_coset_label(X, coset_element(X, i, j)) == (i, j)


def test_left_coset_label_constant_on_right_cosets():
    for params in MODELS:
        X = model(*params)
        for g in enumerate_group(X):
            lbl = left_coset_label(X, g)
            for h in X.gamma_E:
                assert left_coset_label(X, compose(X, g, h)) == lbl


def brute_double_coset(X, g):
    """Oracle: materialize Gal(L/E) g Gal(L/E) element by element."""
    return tuple(
        sorted(
            {
                left_coset_label(X, compose(X, compose(X, h1, g), h2))
                for h1 in X.gamma_E
                for h2 in X.gamma_E
            }
        )
    )


@pytest.mark.parametrize("params", MODELS)
def test_double_coset_labels_against_bruteforce(params):
    X = model(*params)
    for g in enumerate_group(X):
        assert double_coset_labels(X, g) == brute_double_coset(X, g)


@pytest.mark.parametrize("params", MODELS)
def test_orbits_partition_nontrivial_labels(params):
    X = model(*params)
    orbits = enumerate_orbits(X)
    all_labels = [lbl for o in orbits for lbl in o.labels]
    assert len(all_labels) == len(set(all_labels)) == X.n - 1
    assert (0, 0) not in set(all_labels)
    assert [o.ij for o in orbits] == sorted(o.ij for o in orbits)
    for o in orbits:
        assert o.ij == min(o.labels)
        assert o.rep == coset_element(X, *o.ij)


def test_orbit_examples_5_2_2():
    X = model(5, 2, 2)
    orbits = enumerate_orbits(X)
    assert [(o.ij, o.cls) for o in orbits] == [
        ((0, 1), RootClass.SYMMETRIC_UNRAMIFIED),
        ((1, 0), RootClass.SYMMETRIC_RAMIFIED),
        ((1, 1), RootClass.SYMMETRIC_UNRAMIFIED),
    ]
    ram = orbit_by_label(X, (1, 0))
    assert (ram.e_alpha, ram.f_alpha, ram.Q_alpha) == (2, 2, 25)
    assert ram.fpm == (1, 2) and ram.q_pm == 25 and ram.n_pm == 2
    unram = orbit_by_label(X, (0, 1))
    assert (unram.e_alpha, unram.f_alpha) == (2, 2)
    assert unram.fpm == (2, 1) and unram.q_pm == 5 and unram.n_pm == 2


def test_orbit_examples_5_4_1():
    X = model(5, 4, 1)
    orbits = enumerate_orbits(X)
    assert [o.ij for o in orbits] == [(1, 0), (2, 0), (3, 0)]
    pair = orbit_by_label(X, (1, 0))
    assert pair.cls is RootClass.ASYMMETRIC
    assert pair.labels == ((1, 0),)
    assert pair.partner_ij == (3, 0)
    assert orbit_by_label(X, (3, 0)).partner_ij == (1, 0)
    mid = orbit_by_label(X, (2, 0))
    assert mid.cls is RootClass.SYMMETRIC_RAMIFIED
    assert (mid.e_alpha, mid.f_alpha) == (4, 1)
    assert mid.fpm == (2, 1) and mid.n_pm == 2


def test_orbit_examples_3_1_4():
    X = model(3, 1, 4)
    orbits = enumerate_orbits(X)
    assert [(o.ij, o.cls) for o in orbits] == [
        ((0, 1), RootClass.ASYMMETRIC),
        ((0, 2), RootClass.SYMMETRIC_UNRAMIFIED),
        ((0, 3), RootClass.ASYMMETRIC),
    ]
    assert orbit_by_label(X, (0, 1)).partner_ij == (0, 3)
    two = orbit_by_label(X, (0, 2))
    assert (two.f_alpha, two.Q_alpha, two.q_pm) == (4, 81, 9)


def test_orbit_data_depends_on_w():
    """The presentation w is not cosmetic: for q=3, e=2, f=2 the twist w=1
    enlarges the frame and turns both symmetric unramified orbits
    asymmetric."""
    even, odd = model(3, 2, 2, 0), model(3, 2, 2, 1)
    assert (even.f_L, odd.f_L) == (2, 4)
    assert [o.cls for o in enumerate_orbits(even)] == [
        RootClass.SYMMETRIC_UNRAMIFIED,
        RootClass.SYMMETRIC_RAMIFIED,
        RootClass.SYMMETRIC_UNRAMIFIED,
    ]
    assert [o.cls for o in enumerate_orbits(odd)] == [
        RootClass.ASYMMETRIC,
        RootClass.SYMMETRIC_RAMIFIED,
        RootClass.ASYMMETRIC,
    ]


@pytest.mark.parametrize("params", MODELS)
def test_classification_routes_agree(params):
    X = model(*params)
    for o in enumerate_orbits(X):
        assert classify_by_criterion(X, o) == o.cls
        assert classify_elementwise(X, o) == o.cls


def test_three_classification_routes_agree_on_accept_grid():
    """The stabilizer route (o.cls), the label criterion and the elementwise
    route on the materialized double coset agree on every orbit of every
    field of the acceptance grid."""
    checked = 0
    for params in grid_extension_params(ACCEPT_GRID):
        X = build_extension(params)
        for o in enumerate_orbits(X):
            assert classify_elementwise(X, o) is o.cls, (params, o.ij)
            assert classify_by_criterion(X, o) is o.cls, (params, o.ij)
            checked += 1
    assert checked == 978


@pytest.mark.parametrize("params", MODELS)
def test_symmetric_orbit_bookkeeping(params):
    """Symmetric orbits: j in {0, f/2}, F_alpha quadratic over F_pm, exactly
    one ramified orbit and only when e is even."""
    X = model(*params)
    ram = 0
    for o in enumerate_orbits(X):
        partner = orbit_by_label(X, o.partner_ij)
        assert partner.partner_ij == o.ij
        if o.symmetric:
            assert o.partner_ij == o.ij
            assert o.j == 0 or 2 * o.j == X.f
            assert o.e_alpha * o.f_alpha == 2 * o.n_pm
            if o.cls is RootClass.SYMMETRIC_RAMIFIED:
                ram += 1
                assert o.e_alpha == 2 * o.fpm[0]
            else:
                assert o.e_alpha == o.fpm[0]
                assert o.f_alpha == 2 * o.fpm[1]
                assert o.Q_alpha == o.q_pm**2
        else:
            assert o.partner_ij != o.ij
            assert o.fpm is None and o.q_pm is None and o.n_pm is None
    assert ram == (1 if X.e % 2 == 0 else 0)


def test_classify_by_criterion_rejects_bad_j():
    """A forged orbit whose rep inverts INTO its claimed label but whose j is
    outside {0, f/2} must raise rather than misclassify: set rep = phi^3 on
    the orbit labeled (0,1), so [rep^{-1}] = [(0,1)] matches the label."""
    import dataclasses

    X = model(3, 1, 4)
    forged = dataclasses.replace(
        orbit_by_label(X, (0, 1)), rep=coset_element(X, 0, 3)
    )
    with pytest.raises(CriterionViolation):
        classify_by_criterion(X, forged)


def test_orbit_with_rep_and_label_errors():
    X = model(5, 4, 1)
    o = orbit_by_label(X, (1, 0))
    with pytest.raises(KeyError):
        orbit_by_label(X, (0, 0))
    with pytest.raises(KeyError):
        orbit_with_rep(X, o, (2, 0))
    alt = orbit_with_rep(X, o, (1, 0))
    assert alt == o


def test_orbit_with_rep_moves_representative():
    X = model(3, 2, 2)
    for o in enumerate_orbits(X):
        for lbl in o.labels:
            alt = orbit_with_rep(X, o, lbl)
            assert alt.ij == lbl
            assert left_coset_label(X, alt.rep) == lbl
            assert alt.cls == o.cls and alt.labels == o.labels


def test_root_eval_frozen():
    X = model(5, 2, 2)
    ram = orbit_by_label(X, (1, 0))
    assert root_eval(X, ram, 0, 1).val == 12  # -a_g = -12 mod 24
    assert root_eval(X, ram, 1, 0).val == 0
    X2 = model(3, 1, 4)
    o = orbit_by_label(X2, (0, 1))
    # u=1, v=0: u_E (1 - q) = 1 * (1-3) = -2 mod 80
    assert root_eval(X2, o, 1, 0).val == 78
    assert root_eval(X2, o, 0, 1).val == 0


# Presentations whose splitting field has Q <= 729 elements, several with
# w != 0, so that alpha(pi_E) = zeta^{-a} is not always +-1.
REAL_FIELDS = [
    (3, 1, 4, 0),
    (3, 2, 2, 1),
    (3, 4, 2, 0),
    (3, 5, 2, 1),
    (5, 2, 2, 3),
    (5, 4, 1, 0),
    (5, 6, 1, 0),
    (7, 3, 1, 1),
    (7, 6, 2, 0),
    (9, 4, 1, 2),
    (11, 3, 2, 3),
]


@pytest.mark.parametrize("params", REAL_FIELDS)
def test_root_values_against_real_field(params):
    """In GF(Q), with the oracle's primitive element g as zeta and
    zeta_E = g^{u_E}: alpha(zeta_E) is the discrete log of the real
    zeta_E / zeta_E^{q^c}, alpha(pi_E) that of the real inverse of zeta^a,
    and every Galois element satisfies the Kummer relation
    (zeta^a)^e = zeta_E^{w q^c} / zeta_E^w, read off g(pi_E)^e = g(zeta_E^w pi_F)."""
    X = model(*params)
    F = real_field(X.Q)
    log = {x: i for i, x in enumerate(F.pw)}

    def inv(x):
        return F.pow(x, F.Q - 2)

    zeta_E = F.pow(F.g, X.u_E)
    for o in enumerate_orbits(X):
        g = o.rep
        frob = F.pow(zeta_E, X.q**g.c)
        assert root_eval(X, o, 1, 0).val == log[F.mul(zeta_E, inv(frob))]
        assert root_eval(X, o, 0, 1).val == log[inv(F.pow(F.g, g.a))]
    for g in enumerate_group(X):
        kummer = F.mul(F.pow(zeta_E, X.w * X.q**g.c), inv(F.pow(zeta_E, X.w)))
        assert F.pow(F.pow(F.g, g.a), X.e) == kummer, g


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MODELS),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-5, 5),
)
def test_root_eval_additive(params, u1, v1, u2, v2):
    X = model(*params)
    for o in enumerate_orbits(X):
        lhs = root_eval(X, o, u1 + u2, v1 + v2)
        rhs = (root_eval(X, o, u1, v1).val + root_eval(X, o, u2, v2).val) % X.M
        assert lhs.val == rhs


@pytest.mark.parametrize("params", MODELS)
def test_root_eval_inverse_rep_is_twisted_negative(params):
    """Evaluating against g^{-1} gives -q^{-c} times the value against g:
    both the 1-q^{c'} unit factor and a_{g^{-1}} = -q^{-c} a_g scale so."""
    X = model(*params)
    for o in enumerate_orbits(X):
        g = o.rep
        gi = inverse(X, g)
        partner = orbit_with_rep(
            X, orbit_by_label(X, o.partner_ij), left_coset_label(X, gi)
        )
        assert partner.rep == coset_element(X, *left_coset_label(X, gi))
        twist = X.qpow[(-g.c) % X.f_L]
        for u, v in [(0, 1), (1, 0), (2, 3), (1, 1)]:
            lhs = root_eval(X, partner, u, v).val
            assert lhs == (-twist * root_eval(X, o, u, v).val) % X.M


def test_ord_contains_frozen():
    """Levels a with e = 1: the half-level a / 2e is 1/2 at a = 1, 1 at a = 2."""
    X = model(3, 1, 4)
    A = CsaParams(2, 2, 1)
    o1 = orbit_by_label(X, (0, 1))
    o2 = orbit_by_label(X, (0, 2))
    assert ord_contains(X, A, o1, 1) is True
    assert ord_contains(X, A, o2, 1) is False
    assert ord_contains(X, A, o2, 2) is True
    assert ord_contains(X, split_algebra(4), o1, 1) is False  # non-integral j'


@pytest.mark.parametrize("params", MODELS)
def test_ord_contains_split_everywhere_integral(params):
    """For the split algebra e_E = 1: containment iff r*e_F is integral,
    r = a / 2e the half-level of level a."""
    X = model(*params)
    A = CsaParams(X.n, 1, 0)
    for o in enumerate_orbits(X):
        assert ord_contains(X, A, o, 2 * X.e) is True  # r = 1
        assert ord_contains(X, A, o, 2) is True  # r = 1/e
        # r*e_F = 1/2 is never integral
        assert ord_contains(X, A, o, 1) is False


@pytest.mark.parametrize("params", MODELS)
def test_ord_contains_matches_fraction_oracle(params):
    """Integer gate against the rational definition: for the half-level
    r = a / 2e of level a, r * e_F integral and j == h * (r * e_F) (mod e_E)."""
    from tametori.csa import order_invariants
    from tametori.identities import grid_algebras

    X = model(*params)
    for A in grid_algebras(X.n):
        inv = order_invariants(X, A)
        for o in enumerate_orbits(X):
            for a in [*range(1, 9), 2 * X.e, 4 * X.e]:
                jp = Fraction(a, 2 * X.e) * inv.e_F
                want = jp.denominator == 1 and (o.j - A.h * int(jp)) % inv.e_E == 0
                assert ord_contains(X, A, o, a) is want
