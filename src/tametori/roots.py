"""Galois double cosets as absolute root orbits of an elliptic torus.

The roots of the diagonal torus of GL_n restricted to E^x are indexed by the
nontrivial double cosets Gal(L/E) \\ Gal(L/F) / Gal(L/E); alpha = [1; g] sends
gamma to gamma / g(gamma).  Each orbit carries a canonical representative
sigma^i phi^j (lexicographically least (i, j)), a symmetry class, and the
residue data of the fields F_alpha = E.g(E) and F_{+-alpha}.  The class has
one route, through stabilizers: an orbit is symmetric when some x sends alpha
to -alpha, and symmetric ramified when F_alpha/F_{+-alpha} is ramified.  The
tests compare it with the label criterion and with the materialized coset.

j = c mod f is constant on a double coset and the pi_E-exponent a transforms
by unit multiples q^c under coset moves, which is what makes the classification
and all downstream characters representative-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .chartools import MuExponent
from .csa import CsaParams, order_invariants
from .errors import InvariantViolation
from .localfield import (
    ExtensionModel,
    GaloisElement,
    compose,
    inverse,
    subfield_invariants,
)

__all__ = [
    "RootClass",
    "RootOrbit",
    "coset_element",
    "left_coset_label",
    "double_coset_labels",
    "enumerate_orbits",
    "orbit_by_label",
    "orbit_with_rep",
    "root_eval",
    "ord_contains",
]


class RootClass(Enum):
    ASYMMETRIC = "asymmetric"
    SYMMETRIC_UNRAMIFIED = "symmetric-unramified"
    SYMMETRIC_RAMIFIED = "symmetric-ramified"


@dataclass(frozen=True)
class RootOrbit:
    """One nontrivial double coset with its classification data.

    rep is the canonical representative sigma^i phi^j; labels lists every
    left-coset label (i', j) contained in the double coset; partner_ij is the
    canonical label of the inverse coset (equal to ij iff symmetric).
    f_alpha / Q_alpha describe the residue field of F_alpha = E.g(E); for
    symmetric orbits fpm, q_pm, n_pm describe F_{+-alpha}.
    """

    rep: GaloisElement
    ij: tuple[int, int]
    cls: RootClass
    labels: tuple[tuple[int, int], ...]
    partner_ij: tuple[int, int]
    e_alpha: int
    f_alpha: int
    Q_alpha: int
    fpm: tuple[int, int] | None
    q_pm: int | None
    n_pm: int | None

    @property
    def symmetric(self) -> bool:
        return self.cls is not RootClass.ASYMMETRIC

    @property
    def j(self) -> int:
        return self.ij[1]


def coset_element(X: ExtensionModel, i: int, j: int) -> GaloisElement:
    """sigma^i phi^j = (i (Q-1)/e + a_phi (1 + q + ... + q^{j-1}), j)."""
    return GaloisElement((i * (X.M // X.e) + X.phi.a * X.spow[j]) % X.M, j % X.f_L)


def left_coset_label(X: ExtensionModel, g: GaloisElement) -> tuple[int, int]:
    """The (i, j) with g in sigma^i phi^j Gal(L/E)."""
    j = g.c % X.f
    t = (g.a - X.phi.a * X.spow[j]) % X.M
    step = X.M // X.e
    if t % step:
        raise InvariantViolation(f"{g} violates the uniformizer constraint")
    return (t // step) % X.e, j


def double_coset_labels(X: ExtensionModel, g: GaloisElement) -> tuple[tuple[int, int], ...]:
    """Sorted labels of all left cosets inside Gal(L/E) g Gal(L/E).

    Right moves fix the left coset, so ranging over left moves suffices.
    """
    return tuple(sorted({left_coset_label(X, compose(X, h, g)) for h in X.gamma_E}))


def _stabilizer_data(X: ExtensionModel, g: GaloisElement):
    """(Gamma_alpha, swap) for alpha = [1; g]: the stabilizer of alpha inside
    Gal(L/E) x-conjugation, and the set of x sending alpha to -alpha."""
    g_inv = inverse(X, g)
    gamma_set = set(X.gamma_E)
    stab = tuple(
        h for h in X.gamma_E if compose(X, compose(X, g_inv, h), g) in gamma_set
    )
    swap = tuple(
        x
        for h in X.gamma_E
        for x in (compose(X, g, h),)
        if compose(X, x, g) in gamma_set
    )
    return stab, swap


def _build_orbit(X: ExtensionModel, labels: tuple[tuple[int, int], ...]) -> RootOrbit:
    ij = labels[0]
    g = coset_element(X, *ij)
    partner = double_coset_labels(X, inverse(X, g))[0]
    stab, swap = _stabilizer_data(X, g)
    if bool(swap) != (partner == ij):
        raise InvariantViolation(f"orbit {ij}: swap set and partner {partner} disagree")
    e_alpha, f_alpha = subfield_invariants(X, stab)
    fpm = q_pm = n_pm = None
    if swap:
        fpm = subfield_invariants(X, tuple(sorted(set(stab) | set(swap))))
        q_pm = X.q ** fpm[1]
        n_pm = fpm[0] * fpm[1]
        cls = (
            RootClass.SYMMETRIC_UNRAMIFIED
            if e_alpha == fpm[0]
            else RootClass.SYMMETRIC_RAMIFIED
        )
    else:
        cls = RootClass.ASYMMETRIC
    return RootOrbit(
        rep=g,
        ij=ij,
        cls=cls,
        labels=labels,
        partner_ij=partner,
        e_alpha=e_alpha,
        f_alpha=f_alpha,
        Q_alpha=X.q**f_alpha,
        fpm=fpm,
        q_pm=q_pm,
        n_pm=n_pm,
    )


@lru_cache(maxsize=None)
def enumerate_orbits(X: ExtensionModel) -> tuple[RootOrbit, ...]:
    """All nontrivial double cosets, sorted by canonical label."""
    seen: set[tuple[int, int]] = {(0, 0)}
    orbits = []
    for i in range(X.e):
        for j in range(X.f):
            if (i, j) in seen:
                continue
            labels = double_coset_labels(X, coset_element(X, i, j))
            seen.update(labels)
            orbits.append(_build_orbit(X, labels))
    return tuple(sorted(orbits, key=lambda o: o.ij))


def orbit_by_label(X: ExtensionModel, ij: tuple[int, int]) -> RootOrbit:
    for orbit in enumerate_orbits(X):
        if ij in orbit.labels:
            return orbit
    raise KeyError(f"{ij} labels the trivial coset")


def orbit_with_rep(X: ExtensionModel, orbit: RootOrbit, ij: tuple[int, int]) -> RootOrbit:
    """The same orbit presented by an alternative left-coset label."""
    if ij not in orbit.labels:
        raise KeyError(f"{ij} is not a label of orbit {orbit.ij}")
    return replace(orbit, rep=coset_element(X, *ij), ij=ij)


def root_eval(X: ExtensionModel, orbit: RootOrbit, u: int, v: int) -> MuExponent:
    """alpha(zeta_E^u pi_E^v) = (zeta_E^u pi_E^v) / g(zeta_E^u pi_E^v) as an
    exponent in mu_L: u u_E (1 - q^{c_g}) - v a_g mod Q-1."""
    g = orbit.rep
    return MuExponent((u * X.u_E * (1 - X.qpow[g.c]) - v * g.a) % X.M, X.M)


def ord_contains(X: ExtensionModel, A: CsaParams, orbit: RootOrbit, r) -> bool:
    """Whether depth r (an int or a Fraction) sits in the order-theoretic
    support of alpha for the E-pure principal order of A: r * e(A/O_F) must be
    an integer j' with j == h j' (mod f_0)."""
    inv = order_invariants(X, A)
    num = r.numerator * inv.e_F
    if num % r.denominator:
        return False
    return (orbit.j - A.h * (num // r.denominator)) % inv.e_E == 0
