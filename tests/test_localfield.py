"""Splitting-field model: construction, group law, subgroups, subfields."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tametori import localfield
from tametori.errors import NotASubgroup, SearchExhausted, TameViolation
from tametori.identities import GridSpec, grid_extension_params
from tametori.localfield import (
    ExtensionParams,
    GaloisElement,
    build_extension,
    compose,
    enumerate_group,
    inertia_order,
    interval_subgroups,
    inverse,
    is_subgroup,
    radical_prime,
    subfield_invariants,
    subgroup_closure,
)
from tametori.tower import enumerate_shapes, validate_shape

from conftest import model
from oracles import power


def brute_split_degree(q, e, f, w):
    """Independent oracle for f_L: scan multiples of f directly."""
    fp = f
    while True:
        big = q**fp - 1
        if big % e == 0 and (w * (big // (q**f - 1))) % e == 0:
            return fp
        fp += f


@pytest.mark.parametrize(
    "q,e,f,w,f_L,Q",
    [
        (5, 2, 2, 0, 2, 25),
        (5, 4, 1, 0, 1, 5),
        (3, 4, 1, 0, 2, 9),
        (3, 1, 2, 0, 2, 9),
        (3, 2, 1, 0, 1, 3),
        (3, 2, 1, 1, 2, 9),
        (7, 5, 1, 0, 4, 2401),
    ],
)
def test_build_extension_split_degree(q, e, f, w, f_L, Q):
    X = model(q, e, f, w)
    assert (X.f_L, X.Q) == (f_L, Q)
    assert X.f_L == brute_split_degree(q, e, f, w)
    assert X.M == Q - 1
    assert X.u_E == (Q - 1) // (q**f - 1)


def test_generators_5_2_2():
    X = model(5, 2, 2)
    assert X.sigma == GaloisElement(12, 0)
    assert X.phi == GaloisElement(0, 1)
    assert set(enumerate_group(X)) == {
        GaloisElement(0, 0),
        GaloisElement(12, 0),
        GaloisElement(0, 1),
        GaloisElement(12, 1),
    }
    assert X.gamma_E == frozenset({GaloisElement(0, 0)})


def test_group_examples():
    X = model(5, 4, 1)
    assert X.sigma == GaloisElement(1, 0)
    assert power(X, X.sigma, 2) == GaloisElement(2, 0)
    assert inverse(X, X.sigma) == GaloisElement(3, 0)
    assert model(3, 2, 1).sigma == GaloisElement(1, 0)
    assert set(enumerate_group(model(3, 2, 1))) == {
        GaloisElement(0, 0),
        GaloisElement(1, 0),
    }
    X312 = model(3, 1, 2)
    assert enumerate_group(X312) == (GaloisElement(0, 0), GaloisElement(0, 1))
    assert power(X312, X312.phi, 2) == GaloisElement(0, 0)


@pytest.mark.parametrize(
    "q,e,f",
    [(3, 3, 1), (3, 6, 1), (9, 3, 2), (5, 5, 1), (7, 7, 1)],
)
def test_tame_violation(q, e, f):
    with pytest.raises(TameViolation):
        build_extension(ExtensionParams(q, e, f))


def test_bad_parameters():
    with pytest.raises(ValueError):
        build_extension(ExtensionParams(6, 1, 1))  # not a prime power
    with pytest.raises(ValueError):
        build_extension(ExtensionParams(4, 1, 1))  # even
    with pytest.raises(ValueError):
        build_extension(ExtensionParams(5, 1, 1, 4))  # w out of range
    with pytest.raises(ValueError):
        build_extension(ExtensionParams(5, 0, 1))


def test_radical_prime():
    assert radical_prime(9) == 3
    assert radical_prime(25) == 5
    assert radical_prime(11) == 11
    with pytest.raises(ValueError):
        radical_prime(12)


def grid_params():
    out = []
    for q in (3, 5, 7, 9):
        p = radical_prime(q)
        for e in range(1, 7):
            if e % p == 0:
                continue
            for f in range(1, 7 // e + 1):
                for w in (0, 1, (q**f - 2)):
                    if 0 <= w < q**f - 1:
                        out.append(ExtensionParams(q, e, f, w))
    return sorted(set(out))


PARAMS = grid_params()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PARAMS), st.data())
def test_group_law(params, data):
    """Closure, associativity, identity, inverses, and the uniformizer
    constraint hold for every element."""
    X = build_extension(params)
    group = enumerate_group(X)
    assert len(group) == X.e * X.f_L
    g = data.draw(st.sampled_from(group))
    h = data.draw(st.sampled_from(group))
    k = data.draw(st.sampled_from(group))
    assert compose(X, g, h) in set(group)
    assert compose(X, compose(X, g, h), k) == compose(X, g, compose(X, h, k))
    assert compose(X, g, inverse(X, g)) == GaloisElement(0, 0)
    assert (X.e * g.a - (X.qpow[g.c] - 1) * X.w_L) % X.M == 0


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PARAMS))
def test_frobenius_conjugation(params):
    """phi sigma phi^{-1} = sigma^q."""
    X = build_extension(params)
    lhs = compose(X, compose(X, X.phi, X.sigma), inverse(X, X.phi))
    assert lhs == power(X, X.sigma, X.q)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PARAMS))
def test_sigma_phi_orders(params):
    X = build_extension(params)
    assert power(X, X.sigma, X.e) == GaloisElement(0, 0)
    assert power(X, X.phi, X.f_L).c == 0
    assert inertia_order(enumerate_group(X)) == X.e


def test_subfield_invariants_examples():
    X = model(5, 2, 2)
    H = (GaloisElement(0, 0), GaloisElement(0, 1))
    assert subfield_invariants(X, H) == (2, 1)
    assert subfield_invariants(X, X.gamma_E) == (X.e, X.f)
    assert subfield_invariants(X, enumerate_group(X)) == (1, 1)


def test_subfield_invariants_rejects_nonsubgroup():
    X = model(5, 2, 2)
    with pytest.raises(NotASubgroup):
        subfield_invariants(X, (GaloisElement(12, 0),))  # no identity
    with pytest.raises(NotASubgroup):
        # not closed: (12,0)(0,1) = (12,1) is missing
        subfield_invariants(
            X, (GaloisElement(0, 0), GaloisElement(12, 0), GaloisElement(0, 1))
        )


def test_subfield_invariants_accepts_noncentral_subgroup():
    # {1, (12,1)} is a subgroup NOT containing Gal(L/E)-conjugates of phi;
    # its fixed field is ramified quadratic over F
    X = model(5, 2, 2)
    H = (GaloisElement(0, 0), GaloisElement(12, 1))
    assert subfield_invariants(X, H) == (2, 1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(PARAMS), st.data())
def test_subfield_tower_multiplicativity(params, data):
    """e(M/F) f(M/F) = [M:F] divides n * [L:E] and e*f factors through any
    interval subgroup."""
    X = build_extension(params)
    H = data.draw(st.sampled_from(interval_subgroups(X)))
    e_M, f_M = subfield_invariants(X, H)
    assert e_M * f_M * len(H) == X.e * X.f_L
    assert X.e % e_M == 0 and X.f_L % f_M == 0


def closed_pairwise(X, S):
    """Oracle for is_subgroup: the definition, with all |S|^2 products."""
    S = set(S)
    return GaloisElement(0, 0) in S and all(compose(X, g, h) in S for g in S for h in S)


def brute_closure(X, gens):
    """Oracle for subgroup_closure: close {1} under right multiplication by
    every generator."""
    seen = {GaloisElement(0, 0)}
    queue = list(seen)
    while queue:
        x = queue.pop()
        for g in gens:
            y = compose(X, x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def brute_interval_subgroups(X):
    """Oracle: test every subset of the group containing Gal(L/E)."""
    from itertools import combinations

    group = enumerate_group(X)
    gamma = set(X.gamma_E)
    rest = [g for g in group if g not in gamma]
    found = set()
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            cand = frozenset(gamma | set(extra))
            if closed_pairwise(X, cand):
                found.add(cand)
    return tuple(sorted(found, key=lambda H: (len(H), sorted(H))))


def bfs_interval_subgroups(X):
    """Oracle: extend every known subgroup by every element outside it and
    re-close from the identity."""
    group = enumerate_group(X)
    base_gens = (GaloisElement(0, X.f % X.f_L),)
    found = {brute_closure(X, base_gens): base_gens}
    queue = list(found)
    while queue:
        H = queue.pop()
        gens = found[H]
        for g in group:
            if g not in H:
                H2 = brute_closure(X, gens + (g,))
                if H2 not in found:
                    found[H2] = gens + (g,)
                    queue.append(H2)
    return tuple(sorted(found, key=lambda H: (len(H), sorted(H))))


@pytest.mark.parametrize("params", [(3, 1, 4, 0), (5, 2, 2, 0), (3, 2, 1, 1), (5, 4, 1, 0)])
def test_interval_subgroups_against_bruteforce(params):
    X = model(*params)
    assert interval_subgroups(X) == brute_interval_subgroups(X)


def test_interval_subgroups_against_elementwise_bfs():
    """One extension per double coset finds the lattice that extending by
    every element finds, on every field of the field-scan grid."""
    grid = GridSpec((3, 5), n_max=12, w_extra=2, w_seed=20260817)
    fields = grid_extension_params(grid)
    assert len(fields) == 169
    for params in fields:
        X = build_extension(params)
        assert interval_subgroups(X) == bfs_interval_subgroups(X), params


def test_is_subgroup_matches_pairwise_definition():
    """On every PARAMS field: every interval subgroup, each of them with one
    element added or removed, and seeded random subsets: half of them with
    the identity, and closures of random pairs (subgroups outside the
    interval)."""
    import random

    rng = random.Random(20260817)
    one = GaloisElement(0, 0)
    checked = 0
    for params in PARAMS:
        X = build_extension(params)
        group = enumerate_group(X)
        subs = interval_subgroups(X)
        cands = [*subs, *(set(H) ^ {g} for H in subs for g in group)]
        for _ in range(8):
            cands.append(rng.sample(group, rng.randint(0, len(group))))
            cands.append({one, *rng.sample(group, rng.randint(0, len(group)))})
            cands.append(brute_closure(X, rng.choices(group, k=2)))
        for S in cands:
            assert is_subgroup(X, S) == closed_pairwise(X, S), (params, S)
        assert all(is_subgroup(X, H) for H in subs)
        checked += len(cands)
    assert checked > 5000


def test_is_subgroup_stops_when_the_growth_outgrows_the_set(monkeypatch):
    """(1, 0) lies outside Gal(L/F) for (3, 1, 8) and generates all 3^8 - 1
    pairs (a, 0): the test must stop after a few composes, not close it."""
    X = model(3, 1, 8)
    calls = count_composes(monkeypatch)
    assert not is_subgroup(X, (GaloisElement(0, 0), GaloisElement(1, 0)))
    assert calls[0] < 10


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PARAMS), st.data())
def test_subgroup_closure_matches_oracle(params, data):
    X = build_extension(params)
    group = enumerate_group(X)
    gens = data.draw(st.lists(st.sampled_from(group), max_size=4))
    closure = subgroup_closure(X, gens)
    assert closure == brute_closure(X, gens)
    assert closed_pairwise(X, closure)


def count_composes(monkeypatch):
    """Count every localfield.compose call made from here on."""
    calls = [0]
    real = localfield.compose

    def counted(X, g, h):
        calls[0] += 1
        return real(X, g, h)

    monkeypatch.setattr(localfield, "compose", counted)
    return calls


def test_lattice_compose_budget(monkeypatch):
    """Complexity guard on the 64-element group of (5, 8, 1, 3): the lattice
    and the chain checks stay under a quarter of the 19,208 and 17,856
    composes that whole-group BFS and |S|^2 subgroup tests took."""
    X = model(5, 8, 1, 3)
    assert len(enumerate_group(X)) == 64
    calls = count_composes(monkeypatch)
    subs = interval_subgroups.__wrapped__(X)
    assert subs == interval_subgroups(X)
    assert 0 < calls[0] < 19_208 // 4
    chains = {s.subgroups: s for s in enumerate_shapes(X, 2, 2)}
    assert len(chains) == 4
    calls[0] = 0
    for shape in chains.values():
        validate_shape(X, shape)
    assert 0 < calls[0] < 17_856 // 4


def test_interval_subgroups_sorted_and_bounded():
    X = model(3, 1, 4)
    subs = interval_subgroups(X)
    assert [len(H) for H in subs] == [1, 2, 4]
    assert subs[0] == X.gamma_E
    assert set(subs[-1]) == set(enumerate_group(X))


def test_subgroup_closure():
    X = model(5, 4, 1)
    assert subgroup_closure(X, (X.sigma,)) == frozenset(enumerate_group(X))
    assert subgroup_closure(X, ()) == frozenset({GaloisElement(0, 0)})


def test_search_exhausted_is_importable():
    # the cap is generous enough that tame parameters never hit it; the error
    # type still must exist for callers
    assert issubclass(SearchExhausted, Exception)


def test_galois_element_order_and_repr():
    g10, g11, g20 = GaloisElement(1, 0), GaloisElement(1, 1), GaloisElement(2, 0)
    elems = [g20, g11, g10]
    assert sorted(elems) == [g10, g11, g20]
    assert sorted(elems) == sorted(elems, key=lambda g: (g.a, g.c))
    assert repr(GaloisElement(1, 0)) == "GaloisElement(a=1, c=0)"
    assert GaloisElement(a=3, c=1) == GaloisElement(3, 1)


def test_rebuilt_model_equals_and_hashes_like_the_cached_one():
    """The model's hash is hash(params), computed once; a model rebuilt after
    the cache is cleared must find every cache entry keyed on the old one.
    The model stores q, e, f, w as fields; params is rebuilt from them and
    interns back to the same model."""
    params = ExtensionParams(5, 2, 2, 3)
    old = build_extension(params)
    build_extension.cache_clear()
    new = build_extension(params)
    assert new is not old
    assert new == old and hash(new) == hash(old) == hash(params)
    assert build_extension(ExtensionParams(5, 2, 2, 1)) != old
    assert new.params == ExtensionParams(new.q, new.e, new.f, new.w) == params
    assert build_extension(new.params) is new
    assert "params" not in [f.name for f in dataclasses.fields(new)]


def test_model_pickle_roundtrip():
    import pickle

    X = model(3, 4, 1)
    for obj in (X, X.sigma, enumerate_group(X)):
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj)
    assert type(pickle.loads(pickle.dumps(X.phi))) is GaloisElement
