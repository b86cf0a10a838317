"""Tower shapes: validation, enumeration, depths, jumps, selectors."""

from __future__ import annotations

from fractions import Fraction

import pytest

from tametori.csa import CsaParams, centralizer_invariants, order_invariants
from tametori.errors import (
    IndexOutOfRange,
    NonIncreasingLevels,
    NonStrictTower,
    NotASubgroup,
    UnramifiedViolation,
)
from tametori.identities import GridSpec, grid_algebras, grid_extension_params
from tametori.localfield import (
    GaloisElement,
    build_extension,
    enumerate_group,
    inertia_order,
    interval_subgroups,
    inverse,
    subfield_invariants,
    subgroup_closure,
)
from tametori.roots import enumerate_orbits
from tametori.tower import (
    TowerShape,
    depth_index,
    enumerate_shapes,
    jump_data,
    parse_selector,
    subgroup_selector,
    validate_shape,
)

from conftest import model, shape_from_bottoms, shape_t0


def full_group(X):
    return interval_subgroups(X)[-1]


def test_validate_t0_always_ok():
    for params in [(3, 2, 1, 0), (5, 2, 2, 0), (3, 1, 4, 0), (7, 4, 1, 0)]:
        X = model(*params)
        validate_shape(X, shape_t0(X))  # must not raise


def test_validate_unramified_bottom():
    X = model(3, 2, 1)
    # E_0 = E: Gal(L/E) is trivial here and has trivial inertia
    ok = TowerShape(subgroups=(X.gamma_E, full_group(X)), levels=(1,))
    validate_shape(X, ok)
    # E_0 = F: the full group has inertia of order e = 2
    bad = TowerShape(subgroups=(full_group(X), full_group(X)), levels=(1,))
    with pytest.raises(UnramifiedViolation):
        validate_shape(X, bad)


def test_validate_unramified_checked_before_strictness():
    """The E_0 = F chain above is ALSO non-strict; unramifiedness wins."""
    X = model(5, 4, 1)
    bad = TowerShape(subgroups=(full_group(X), full_group(X)), levels=(1,))
    with pytest.raises(UnramifiedViolation):
        validate_shape(X, bad)


def test_validate_structural_errors():
    X = model(5, 2, 2)
    full = full_group(X)
    with pytest.raises(NonStrictTower):
        validate_shape(X, TowerShape(subgroups=(full,), levels=(1,)))
    with pytest.raises(NotASubgroup):
        validate_shape(X, TowerShape(subgroups=(X.gamma_E,), levels=()))
    with pytest.raises(NotASubgroup):
        not_closed = (sorted(X.gamma_E)[0], X.sigma, sorted(full)[3])
        validate_shape(X, TowerShape(subgroups=(not_closed, full), levels=(1,)))
    with pytest.raises(NonIncreasingLevels):
        validate_shape(X, TowerShape(subgroups=(X.gamma_E, full), levels=(0,)))
    mids = [H for H in interval_subgroups(X) if 1 < len(H) < len(full)]
    chain = (X.gamma_E, mids[0], full)
    with pytest.raises(NonIncreasingLevels):
        validate_shape(X, TowerShape(subgroups=chain, levels=(2, 2)))
    with pytest.raises(NonIncreasingLevels):
        validate_shape(X, TowerShape(subgroups=chain, levels=(3, 1)))
    validate_shape(X, TowerShape(subgroups=chain, levels=(1, 4)))


def test_enumerate_shapes_3_2_1():
    """Interval lattice is {Gal(L/E), full}; only E_0 = E is unramified, so
    with max_t=1, max_level=2 there are exactly 1 + 2 shapes."""
    X = model(3, 2, 1)
    shapes = enumerate_shapes(X, 1, 2)
    assert len(shapes) == 3
    assert shapes[0].t == 0 and shapes[0].levels == ()
    assert {s.levels for s in shapes[1:]} == {(1,), (2,)}
    assert all(s.subgroups[0] == X.gamma_E for s in shapes[1:])


def test_enumerate_shapes_counts():
    X = model(3, 1, 4)
    # interval lattice is the subgroup chain of Z/4: orders 1, 2, 4, all with
    # trivial inertia; t=1 bottoms: orders 1 and 2; t=2 chain: 1 < 2 < 4
    shapes = enumerate_shapes(X, 2, 3)
    t0 = [s for s in shapes if s.t == 0]
    t1 = [s for s in shapes if s.t == 1]
    t2 = [s for s in shapes if s.t == 2]
    assert len(t0) == 1
    assert len(t1) == 2 * 3  # 2 bottoms x 3 level choices
    assert len(t2) == 1 * 3  # 1 chain x C(3,2) level pairs
    for s in shapes:
        validate_shape(X, s)


def test_enumerate_shapes_skips_ramified_bottoms():
    X = model(5, 4, 1)
    shapes = enumerate_shapes(X, 1, 1)
    for s in shapes:
        if s.t >= 1:
            assert inertia_order(X, s.subgroups[0]) == 1


def test_depth_t0_is_minus_one():
    X = model(5, 2, 2)
    shape = shape_t0(X)
    for g in enumerate_group(X):
        assert depth_index(X, shape, g) == -1


def test_depth_frozen_3_1_4():
    X = model(3, 1, 4)
    subs = interval_subgroups(X)
    shape = TowerShape(subgroups=(subs[0], subs[1], subs[2]), levels=(1, 2))
    # phi and phi^3 lie outside the order-2 subgroup: depth 1;
    # phi^2 lies in it but not in Gal(L/E): depth 0
    by_c = {g.c: g for g in enumerate_group(X)}
    assert depth_index(X, shape, by_c[0]) == -1
    assert depth_index(X, shape, by_c[1]) == 1
    assert depth_index(X, shape, by_c[2]) == 0
    assert depth_index(X, shape, by_c[3]) == 1


def test_depth_constant_on_double_cosets_and_inverse():
    for params in [(3, 2, 2, 0), (5, 2, 2, 0), (3, 2, 1, 1), (7, 4, 1, 0)]:
        X = model(*params)
        for shape in enumerate_shapes(X, 2, 2):
            for o in enumerate_orbits(X):
                d = depth_index(X, shape, o.rep)
                assert depth_index(X, shape, inverse(X, o.rep)) == d
                for i, j in o.labels:
                    from tametori.roots import coset_element

                    assert depth_index(X, shape, coset_element(X, i, j)) == d


def e_next(X, A, shape, k):
    """e(A_{k+1}/O_E), the centralizer index that decides the layer parity."""
    return centralizer_invariants(X, A, shape.subgroups[k + 1])[2]


def test_jump_data_frozen():
    X = model(3, 1, 4)
    A = CsaParams(2, 2, 1)
    subs = interval_subgroups(X)
    # one-step tower E_0 = E: the k=0 centralizer chain ends at A itself
    flat = TowerShape(subgroups=(subs[0], subs[2]), levels=(1,))
    assert e_next(X, A, flat, 0) == 2
    j0 = jump_data(X, A, flat, 0)
    assert type(j0) is int and j0 == 1  # a_0 * e(A/O_E) / 2 = 1 * 2 / 2
    # two-step tower through the quadratic subfield: A_1 is split over E_1,
    # so e_next drops to 1 and level 1 makes the product odd
    deep = TowerShape(subgroups=(subs[0], subs[1], subs[2]), levels=(1, 2))
    assert e_next(X, A, deep, 0) == 1
    assert jump_data(X, A, deep, 0) is None
    assert e_next(X, A, deep, 1) == 2
    assert jump_data(X, A, deep, 1) == 2
    with pytest.raises(IndexOutOfRange):
        jump_data(X, A, deep, 2)
    with pytest.raises(IndexOutOfRange):
        jump_data(X, A, deep, -1)


def test_jump_data_even_product_3_1_2():
    X = model(3, 1, 2)
    A = CsaParams(1, 2, 1)
    shape = shape_from_bottoms(X, [X.gamma_E], (1,))
    assert e_next(X, A, shape, 0) == 2
    assert jump_data(X, A, shape, 0) == 1


def test_jump_data_none_exactly_on_odd_layers():
    """Over a whole grid: None exactly when a_k * e_next is odd, else the
    integer a_k * e(A/O_E) / 2."""
    grid = GridSpec((3, 5, 7), n_max=6, w_extra=1, w_seed=20260817, t_max=2, a_max=4)
    layers = odd = 0
    for params in grid_extension_params(grid):
        X = build_extension(params)
        for A in grid_algebras(X.n):
            e_E = order_invariants(X, A).e_E
            for shape in enumerate_shapes(X, grid.t_max, grid.a_max):
                for k, a_k in enumerate(shape.levels):
                    j_k = jump_data(X, A, shape, k)
                    layers += 1
                    if (a_k * e_next(X, A, shape, k)) % 2:
                        odd += 1
                        assert j_k is None
                    else:
                        assert type(j_k) is int
                        assert j_k == Fraction(a_k * e_E, 2)
    assert layers > odd > 0


def test_selector_roundtrip():
    for params in [(3, 1, 4, 0), (5, 2, 2, 0), (3, 2, 1, 1), (7, 6, 1, 0)]:
        X = model(*params)
        for H in interval_subgroups(X):
            token = subgroup_selector(X, H)
            assert parse_selector(X, token) == H
            assert subgroup_selector(X, sorted(H, reverse=True)) == token
        assert parse_selector(X, "E") == X.gamma_E
        assert parse_selector(X, "F") == interval_subgroups(X)[-1]


def test_selector_degree_semantics():
    X = model(3, 1, 4)
    assert subgroup_selector(X, X.gamma_E) == "4.0"
    assert subgroup_selector(X, interval_subgroups(X)[-1]) == "1.0"
    assert parse_selector(X, "2") == parse_selector(X, "2.0")
    with pytest.raises(KeyError):
        parse_selector(X, "3.0")
    with pytest.raises(KeyError):
        parse_selector(X, "2.5")
    with pytest.raises(KeyError):
        parse_selector(X, "x")


def test_depth_layers_partition_group():
    """Every element gets exactly one depth in -1..t-1 and layer sizes sum."""
    X = model(5, 2, 2)
    for shape in enumerate_shapes(X, 2, 3):
        counts = {}
        for g in enumerate_group(X):
            d = depth_index(X, shape, g)
            assert -1 <= d < max(shape.t, 1)
            counts[d] = counts.get(d, 0) + 1
        assert sum(counts.values()) == X.e * X.f_L
        assert counts.get(-1, 0) == len(shape.subgroups[0])
        for k in range(shape.t):
            expected = len(shape.subgroups[k + 1]) - len(shape.subgroups[k])
            assert counts.get(k, 0) == expected


def test_equal_shapes_share_hash_and_depth_cache_entry():
    X = model(3, 1, 4)
    shapes = enumerate_shapes(X, 2, 3)
    g = enumerate_orbits(X)[0].rep
    for shape in shapes:
        subgroups = tuple(tuple(GaloisElement(*g) for g in H) for H in shape.subgroups)
        twin = TowerShape(subgroups=subgroups, levels=tuple(list(shape.levels)))
        assert twin == shape and twin is not shape
        assert hash(twin) == hash(shape)
        assert all(type(H) is frozenset for H in twin.subgroups)
        assert twin.subgroups == shape.subgroups
        depth_index(X, shape, g)
        before = depth_index.cache_info()
        assert depth_index(X, twin, g) == depth_index(X, shape, g)
        after = depth_index.cache_info()
        assert after.currsize == before.currsize
        assert after.hits == before.hits + 2


def test_library_subgroups_are_frozensets():
    """A subgroup has one representation: every one the library hands out is
    a frozenset."""
    for params in [(3, 1, 4, 0), (5, 2, 2, 0), (3, 4, 2, 5), (7, 6, 1, 3)]:
        X = model(*params)
        subs = interval_subgroups(X)
        handed_out = [X.gamma_E, subgroup_closure(X, (X.sigma, X.phi)), *subs]
        handed_out += [parse_selector(X, subgroup_selector(X, H)) for H in subs]
        handed_out += [parse_selector(X, token) for token in ("E", "F")]
        handed_out += [H for shape in enumerate_shapes(X, 2, 3) for H in shape.subgroups]
        assert all(type(H) is frozenset for H in handed_out), params


def test_shapes_of_one_chain_share_their_subgroups():
    """Every shape holds the lattice's own subgroup objects, so the shapes of
    one chain share them (and the hash each caches)."""
    X = model(3, 1, 4)
    lattice = {id(H) for H in interval_subgroups(X)}
    shapes = enumerate_shapes(X, 2, 3)
    assert len(shapes) > len({s.subgroups for s in shapes})  # chains repeat
    assert all(id(H) in lattice for s in shapes for H in s.subgroups)


def test_not_a_subgroup_message_is_sorted():
    X = model(5, 2, 2)
    not_closed = sorted({X.sigma, X.phi, *X.gamma_E}, reverse=True)
    full = full_group(X)
    with pytest.raises(NotASubgroup) as info:
        subfield_invariants(X, not_closed)
    assert str(info.value) == f"{sorted(not_closed)!r} is not closed"
    with pytest.raises(NotASubgroup) as info:
        validate_shape(X, TowerShape(subgroups=(not_closed, full), levels=(1,)))
    assert str(info.value) == f"{sorted(not_closed)!r} is not closed"


def test_non_strict_message_names_selectors():
    """A non-strict step names both subgroups by chain position and selector
    (the `verify --tower 4,E` chain of (3, 4, 2)), not by their elements."""
    X = model(3, 4, 2)
    chain = (parse_selector(X, "4"), parse_selector(X, "E"), full_group(X))
    with pytest.raises(NonStrictTower) as info:
        validate_shape(X, TowerShape(subgroups=chain, levels=(1, 2)))
    assert str(info.value) == "H_0 = 4.0 not strictly inside H_1 = 8.0"
    assert "GaloisElement" not in str(info.value)


def test_shape_pickle_roundtrip():
    import pickle

    for shape in enumerate_shapes(model(5, 2, 2), 2, 2):
        back = pickle.loads(pickle.dumps(shape))
        assert back == shape and hash(back) == hash(shape)


def test_enumerated_shapes_pass_full_validation():
    """enumerate_shapes validates one shape per chain; validate_shape stays
    the oracle for every shape it returns."""
    grid = GridSpec((3, 5, 7), n_max=6, w_extra=1, t_max=2, a_max=4)
    checked = 0
    for params in grid_extension_params(grid):
        X = build_extension(params)
        for shape in enumerate_shapes(X, grid.t_max, grid.a_max):
            validate_shape(X, shape)
            checked += 1
    assert checked == 956


def test_enumerate_shapes_validates_once_per_chain(monkeypatch):
    import tametori.tower as tw

    calls = []
    real = tw.validate_shape
    monkeypatch.setattr(
        tw, "validate_shape", lambda X, shape: calls.append(shape) or real(X, shape)
    )
    X = model(3, 1, 4)
    shapes = tw.enumerate_shapes.__wrapped__(X, 2, 5)  # uncached
    chains = {s.subgroups for s in shapes}
    assert len(shapes) > len(chains)
    assert len(calls) == len(chains)
    assert {s.subgroups for s in calls} == chains
