"""Shared fixtures: the acceptance grid and small shape-building helpers."""

from __future__ import annotations

from dataclasses import replace
from functools import cache
from itertools import count

import pytest

from tametori.identities import GridSpec
from tametori.localfield import ExtensionParams, build_extension, radical_prime
from tametori.roots import RootOrbit, coset_element, enumerate_orbits
from tametori.tower import TowerShape, interval_subgroups, validate_shape

from oracles import GF

# The main verification universe: every tame (e, f) with e*f <= 8 over small
# odd residue cardinalities, w = 0 plus two sampled nonzero presentations,
# every inner form, every tower shape with t <= 2 and levels <= 6.
ACCEPT_GRID = GridSpec(
    q_list=(3, 5, 7, 9, 11),
    n_max=8,
    w_extra=2,
    w_seed=20260817,
    t_max=2,
    a_max=6,
)


def model(q, e, f, w=0):
    return build_extension(ExtensionParams(q, e, f, w))


@cache
def real_field(Q):
    """oracles.GF with Q elements, built once per size."""
    p = radical_prime(Q)
    return GF(p, next(k for k in count(1) if p**k == Q))


def orbit_by_label(X, ij: tuple[int, int]) -> RootOrbit:
    """The orbit of X whose double coset holds the left coset labelled ij."""
    for orbit in enumerate_orbits(X):
        if ij in orbit.labels:
            return orbit
    raise KeyError(f"{ij} labels the trivial coset")


def orbit_with_rep(X, orbit: RootOrbit, ij: tuple[int, int]) -> RootOrbit:
    """The same orbit presented by an alternative left-coset label."""
    if ij not in orbit.labels:
        raise KeyError(f"{ij} is not a label of orbit {orbit.ij}")
    return replace(orbit, rep=coset_element(X, *ij), ij=ij)


def shape_t0(X) -> TowerShape:
    full = interval_subgroups(X)[-1]
    return TowerShape(subgroups=(full,), levels=())


def shape_from_bottoms(X, bottoms, levels) -> TowerShape:
    full = interval_subgroups(X)[-1]
    shape = TowerShape(subgroups=tuple(bottoms) + (full,), levels=tuple(levels))
    validate_shape(X, shape)
    return shape


@pytest.fixture(scope="session")
def accept_grid() -> GridSpec:
    return ACCEPT_GRID
