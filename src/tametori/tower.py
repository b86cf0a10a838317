"""Subfield towers: chains of subfields of E with strictly increasing jump levels.

A TowerShape is a chain Gal(L/E) <= H_0 < H_1 < ... < H_t = Gal(L/F) of
subgroups (fixed fields E = superset of E_0 > ... > E_t = F read the other way)
together with levels 0 < a_0 < ... < a_{t-1}.  For t >= 1 the bottom step must
keep E/E_0 unramified (its inertia is trivial); a t = 0 shape is the bare
chain [Gal(L/F)] and every root has depth -1 there.

depth_index places a double coset in the unique layer H_{k+1} - H_k it meets;
jump_data gives the layer-k graded index j_k = a_k * e(A/O_E) / 2 used by the
finite-module criteria, or None when a_k * e(A_{k+1}/O_E) is odd and the
whole layer vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import prod

from .csa import CsaParams, centralizer_invariants, order_invariants
from .errors import (
    IndexOutOfRange,
    InvariantViolation,
    NonIncreasingLevels,
    NonStrictTower,
    NotASubgroup,
    UnramifiedViolation,
)
from .localfield import (
    ExtensionModel,
    GaloisElement,
    inertia_order,
    interval_subgroups,
    is_subgroup,
    subfield_invariants,
)

__all__ = [
    "TowerShape",
    "validate_shape",
    "enumerate_shapes",
    "depth_index",
    "jump_data",
    "subgroup_selector",
    "parse_selector",
]

Subgroup = frozenset[GaloisElement]


@dataclass(frozen=True)
class TowerShape:
    """subgroups = (H_0, ..., H_t) with H_t = Gal(L/F); levels = (a_0, ..., a_{t-1}).

    Each subgroup is stored as a frozenset; one that already is one is kept
    as is, so the shapes of one chain share their subgroups and the hash each
    frozenset caches.
    """

    subgroups: tuple[Subgroup, ...]
    levels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "subgroups", tuple(map(frozenset, self.subgroups)))

    @property
    def t(self) -> int:
        return len(self.levels)


def validate_shape(X: ExtensionModel, shape: TowerShape) -> None:
    """Raise a typed error unless the shape is a valid tower for X.

    Check order matters: unramifiedness of E/E_0 is diagnosed before
    strictness, so a bottom subfield that is simply too small reports
    UnramifiedViolation whatever else is wrong with the chain.
    """
    if len(shape.subgroups) != shape.t + 1:
        raise NonStrictTower(
            f"need t+1={shape.t + 1} subgroups, got {len(shape.subgroups)}"
        )
    subs = shape.subgroups
    for H in subs:
        if not is_subgroup(X, H):
            raise NotASubgroup(f"{sorted(H)!r} is not closed")
        if not X.gamma_E <= H:
            raise NotASubgroup(f"{sorted(H)!r} does not contain Gal(L/E)")
    if len(subs[-1]) != X.e * X.f_L:
        raise NotASubgroup("top of the chain must be all of Gal(L/F)")
    if shape.t >= 1 and inertia_order(X, subs[0]) != 1:
        raise UnramifiedViolation("E/E_0 must be unramified (trivial inertia)")
    for k, (low, high) in enumerate(zip(subs, subs[1:])):
        if not low < high:
            names = [f"H_{k + i} = {subgroup_selector(X, H)}" for i, H in enumerate((low, high))]
            raise NonStrictTower(" not strictly inside ".join(names))
    if any(a <= 0 for a in shape.levels):
        raise NonIncreasingLevels(f"levels {shape.levels} must be positive")
    if any(a >= b for a, b in zip(shape.levels, shape.levels[1:])):
        raise NonIncreasingLevels(f"levels {shape.levels} must strictly increase")


@lru_cache(maxsize=None)
def enumerate_shapes(
    X: ExtensionModel, max_t: int, max_level: int
) -> tuple[TowerShape, ...]:
    """Every valid shape with t <= max_t and levels inside 1..max_level.

    The t = 0 shape always exists.  Chains are drawn from the interval
    subgroup lattice; only the bottom subgroup carries the unramifiedness
    constraint.
    """
    subs = interval_subgroups(X)
    full = subs[-1]
    if len(full) != X.e * X.f_L:
        raise NotASubgroup("top of the interval lattice must be all of Gal(L/F)")
    shapes = [TowerShape(subgroups=(full,), levels=())]
    validate_shape(X, shapes[0])
    # every interval subgroup lies in full; the proper ones are all but the last
    proper = subs[:-1]
    for t in range(1, max_t + 1):
        chains: list[tuple[Subgroup, ...]] = []

        def grow(chain: tuple[Subgroup, ...]) -> None:
            if len(chain) == t:
                chains.append(chain + (full,))
                return
            for H in proper:
                if chain[-1] < H:
                    grow(chain + (H,))

        for H0 in proper:
            if inertia_order(X, H0) == 1:
                grow((H0,))
        for chain in chains:
            chain_shapes = [
                TowerShape(subgroups=chain, levels=levels)
                for levels in combinations(range(1, max_level + 1), t)
            ]
            # the chain checks do not read the levels, and combinations
            # yields positive, strictly increasing ones: one check per chain
            if chain_shapes:
                validate_shape(X, chain_shapes[0])
            shapes.extend(chain_shapes)
    return tuple(shapes)


@lru_cache(maxsize=None)
def depth_index(X: ExtensionModel, shape: TowerShape, g: GaloisElement) -> int:
    """-1 if g lies in H_0, else the unique k with g in H_{k+1} - H_k.

    Constant on double cosets and under inversion, because every H_k contains
    Gal(L/E) and is closed under inverses.
    """
    subs = shape.subgroups
    if g in subs[0]:
        return -1
    for k in range(shape.t):
        if g in subs[k + 1]:
            return k
    raise NotASubgroup(f"{g!r} outside the top of the chain")


def jump_data(
    X: ExtensionModel, A: CsaParams, shape: TowerShape, k: int
) -> int | None:
    """j_k = a_k * e(A/O_E) / 2 for layer k, or None when a_k * e_next is odd
    (e_next = e(A_{k+1}/O_E)) and the layer vanishes.  e_next divides
    e(A/O_E), so an even a_k * e_next makes j_k an integer."""
    if not 0 <= k < shape.t:
        raise IndexOutOfRange(f"k={k} outside 0..{shape.t - 1}")
    a_k = shape.levels[k]
    _, _, e_next = centralizer_invariants(X, A, shape.subgroups[k + 1])
    e_E = order_invariants(X, A).e_E
    if e_E % e_next:
        raise InvariantViolation(f"e(A_{k + 1}/O_E)={e_next} does not divide e_E={e_E}")
    if (a_k * e_next) % 2:
        return None
    return a_k * e_E // 2


def subgroup_selector(X: ExtensionModel, H: Subgroup) -> str:
    """Stable textual name for an interval subgroup: 'deg.idx' where deg is
    the degree [E_k : F] of its fixed field and idx disambiguates among
    subgroups of equal degree in canonical order."""
    subs = interval_subgroups(X)
    e_M, f_M = subfield_invariants(X, H)
    deg = e_M * f_M
    peers = [S for S in subs if len(S) == len(H)]
    return f"{deg}.{peers.index(frozenset(H))}"


def parse_selector(X: ExtensionModel, token: str) -> Subgroup:
    """Inverse of subgroup_selector; also accepts 'E' and 'F'."""
    subs = interval_subgroups(X)
    if token == "E":
        return X.gamma_E
    if token == "F":
        return subs[-1]
    deg_s, _, idx_s = token.partition(".")
    try:
        deg = int(deg_s)
        idx = int(idx_s) if idx_s else 0
    except ValueError:
        raise KeyError(f"bad subfield selector {token!r}") from None
    peers = [S for S in subs if prod(subfield_invariants(X, S)) == deg]
    if not 0 <= idx < len(peers):
        raise KeyError(f"no subfield matches selector {token!r}")
    return peers[idx]
