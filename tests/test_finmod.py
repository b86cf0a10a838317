"""Graded pieces and depth-layer modules of principal-order quotients."""

from __future__ import annotations

import pytest

from tametori.csa import CsaParams, order_invariants, split_algebra
from tametori.errors import NotSymmetric
from tametori.finmod import ModuleClass, symp_iso_direct, u_dim, v_module
from tametori.localfield import inverse
from tametori.roots import enumerate_orbits
from tametori.tower import TowerShape, enumerate_shapes, interval_subgroups

from conftest import model, orbit_by_label, shape_from_bottoms, shape_t0
from oracles import graded_piece, symp_iso_criterion, v_layer


def test_u_dim_frozen():
    X = model(5, 2, 2)
    assert u_dim(X, None) == 2
    assert u_dim(X, orbit_by_label(X, (1, 0))) == 2
    X2 = model(3, 1, 4)
    assert u_dim(X2, None) == 4
    assert u_dim(X2, orbit_by_label(X2, (0, 1))) == 4
    assert u_dim(X2, orbit_by_label(X2, (0, 2))) == 4


def test_graded_piece_frozen_3_1_4():
    X = model(3, 1, 4)
    A = CsaParams(2, 2, 1)
    assert graded_piece(X, A, 0) == ((0, 0), (0, 2))
    assert graded_piece(X, A, 1) == ((0, 1), (0, 3))
    assert graded_piece(X, A, 2) == ((0, 0), (0, 2))
    # split form: e_E = 1, everything sits on every graded piece
    S = split_algebra(4)
    assert graded_piece(X, S, 0) == ((0, 0), (0, 1), (0, 2), (0, 3))


def test_graded_dimension_bookkeeping_3_1_4():
    """Each graded piece of M_m(D) has k_F-dimension r s^2 d."""
    X = model(3, 1, 4)
    A = CsaParams(2, 2, 1)
    inv = order_invariants(X, A)
    for jp in range(inv.e_F):
        dims = sum(
            u_dim(X, None if ij == (0, 0) else orbit_by_label(X, ij))
            for ij in graded_piece(X, A, jp)
        )
        assert dims == inv.r * inv.s**2 * A.d == 8
    S = split_algebra(4)
    for jp in range(1):
        dims = sum(
            u_dim(X, None if ij == (0, 0) else orbit_by_label(X, ij))
            for ij in graded_piece(X, S, jp)
        )
        assert dims == 16  # 1 * 4^2 * 1


def test_v_module_worked_example():
    """(3,1,2), D the quaternion-like division algebra (1,2,1), tower E_0 = E
    at level 1: the lone orbit (0,1) carries U for A and Zero for the split
    form."""
    X = model(3, 1, 2)
    A = CsaParams(1, 2, 1)
    shape = shape_from_bottoms(X, [X.gamma_E], (1,))
    (orbit,) = enumerate_orbits(X)
    assert orbit.ij == (0, 1)
    assert v_module(X, A, shape, orbit.rep) is ModuleClass.U
    assert v_module(X, split_algebra(2), shape, orbit.rep) is ModuleClass.ZERO
    assert v_layer(X, A, shape, 0) == ((0, 1),)
    assert v_layer(X, split_algebra(2), shape, 0) == ()


def test_v_module_depth_minus_one_is_zero():
    X = model(3, 1, 2)
    A = CsaParams(1, 2, 1)
    (orbit,) = enumerate_orbits(X)
    assert v_module(X, A, shape_t0(X), orbit.rep) is ModuleClass.ZERO
    assert v_module(X, split_algebra(2), shape_t0(X), orbit.rep) is ModuleClass.ZERO


def test_v_module_odd_parity_kills_layer():
    """(3,1,4) with A = (2,2,1) through the quadratic subfield: e_next = 1 at
    k = 0, so an odd level empties the layer."""
    X = model(3, 1, 4)
    A = CsaParams(2, 2, 1)
    subs = interval_subgroups(X)
    shape = TowerShape(subgroups=(subs[0], subs[1], subs[2]), levels=(1, 2))
    assert v_layer(X, A, shape, 0) == ()
    mid = orbit_by_label(X, (0, 2))
    assert v_module(X, A, shape, mid.rep) is ModuleClass.ZERO
    # raising the level to even revives it
    shape2 = TowerShape(subgroups=(subs[0], subs[1], subs[2]), levels=(2, 3))
    assert v_module(X, A, shape2, mid.rep) is ModuleClass.U


def test_symp_iso_frozen():
    X = model(3, 1, 2)
    A = CsaParams(1, 2, 1)
    shape = shape_from_bottoms(X, [X.gamma_E], (1,))
    (orbit,) = enumerate_orbits(X)
    assert symp_iso_direct(X, A, shape, orbit) is False
    assert symp_iso_criterion(X, A, orbit) is False
    S = split_algebra(2)
    assert symp_iso_direct(X, S, shape, orbit) is True
    assert symp_iso_criterion(X, S, orbit) is True


def test_symp_iso_rejects_asymmetric():
    X = model(5, 4, 1)
    asym = orbit_by_label(X, (1, 0))
    with pytest.raises(NotSymmetric):
        symp_iso_criterion(X, CsaParams(4, 1, 0), asym)
    with pytest.raises(NotSymmetric):
        symp_iso_direct(X, CsaParams(4, 1, 0), shape_t0(X), asym)


SMALL = [
    ((3, 1, 2, 0), (1, 2, 1)),
    ((3, 1, 4, 0), (2, 2, 1)),
    ((3, 1, 4, 0), (1, 4, 1)),
    ((3, 2, 2, 0), (2, 2, 1)),
    ((5, 2, 2, 0), (1, 4, 1)),
    ((5, 4, 1, 0), (2, 2, 1)),
    ((7, 2, 3, 0), (3, 2, 1)),
    ((3, 2, 1, 1), (1, 2, 1)),
]


@pytest.mark.parametrize("qefw,mdh", SMALL)
def test_v_module_constant_on_cosets_and_duality(qefw, mdh):
    """v is well defined on double cosets and invariant under inversion."""
    from tametori.roots import coset_element

    X = model(*qefw)
    A = CsaParams(*mdh)
    for shape in enumerate_shapes(X, 2, 3):
        for o in enumerate_orbits(X):
            v = v_module(X, A, shape, o.rep)
            assert v_module(X, A, shape, inverse(X, o.rep)) is v
            for ij in o.labels:
                assert v_module(X, A, shape, coset_element(X, *ij)) is v


@pytest.mark.parametrize("qefw,mdh", SMALL)
def test_layer_u_dimension_sum(qefw, mdh):
    """Within one layer the U-cosets (trivial coset never among them, depth of
    identity is -1) have total residue dimension bounded by the graded piece:
    every U-orbit sits on the graded piece h j_k."""
    X = model(*qefw)
    A = CsaParams(*mdh)
    for shape in enumerate_shapes(X, 2, 4):
        for k in range(shape.t):
            labels = v_layer(X, A, shape, k)
            for ij in labels:
                o = orbit_by_label(X, ij)
                assert v_module(X, A, shape, o.rep) is ModuleClass.U
            # layer support is contained in a single graded piece
            from tametori.tower import jump_data

            j_k = jump_data(X, A, shape, k)
            if j_k is not None and labels:
                piece = graded_piece(X, A, j_k % order_invariants(X, A).e_F)
                assert set(labels) <= set(piece)


@pytest.mark.parametrize("qefw,mdh", SMALL)
def test_symp_routes_agree_at_positive_depth(qefw, mdh):
    """The module comparison and the closed form agree whenever the orbit
    actually meets a layer (depth >= 0)."""
    from tametori.tower import depth_index

    X = model(*qefw)
    A = CsaParams(*mdh)
    for shape in enumerate_shapes(X, 2, 3):
        for o in enumerate_orbits(X):
            if not o.symmetric:
                continue
            if depth_index(shape, o.rep) == -1:
                assert symp_iso_direct(X, A, shape, o) is True
            else:
                assert symp_iso_direct(X, A, shape, o) == symp_iso_criterion(X, A, o)
