"""Second routes that the tests compare the library against.

The library keeps one route per concept; each function here recomputes a
library result another way, from public names only, so a test can check the
two against each other.  Nothing in the package imports this module.
"""

from __future__ import annotations

from tametori.csa import CsaParams, order_invariants
from tametori.errors import NotSymmetric, TametoriError
from tametori.finmod import ModuleClass, v_module
from tametori.localfield import ExtensionModel, GaloisElement, compose, inverse, power
from tametori.roots import RootClass, RootOrbit, double_coset_labels, enumerate_orbits
from tametori.tower import TowerShape, depth_index, jump_data

__all__ = [
    "CriterionViolation",
    "classify_by_criterion",
    "classify_elementwise",
    "graded_piece",
    "v_layer",
    "symp_iso_criterion",
]


class CriterionViolation(TametoriError):
    """A symmetric orbit fell outside the j in {0, f/2} dichotomy."""


def classify_by_criterion(X: ExtensionModel, orbit: RootOrbit) -> RootClass:
    """Classification via the label criterion: symmetric orbits have
    j in {0, f/2}; the symmetric ramified one is [sigma^{e/2}] (e even),
    and j = f/2 forces symmetric unramified."""
    g = orbit.rep
    symmetric = double_coset_labels(X, inverse(X, g))[0] == orbit.ij
    if not symmetric:
        return RootClass.ASYMMETRIC
    i, j = orbit.ij
    if j != 0 and 2 * j != X.f:
        raise CriterionViolation(f"symmetric orbit with j={j}, f={X.f}")
    if j == 0:
        if X.e % 2 == 0:
            ram_ij = double_coset_labels(X, power(X, X.sigma, X.e // 2))[0]
            if orbit.ij == ram_ij:
                return RootClass.SYMMETRIC_RAMIFIED
        return RootClass.SYMMETRIC_UNRAMIFIED
    return RootClass.SYMMETRIC_UNRAMIFIED


def classify_elementwise(X: ExtensionModel, orbit: RootOrbit) -> RootClass:
    """Classification on the materialized double coset D = Gal(L/E) g Gal(L/E):
    asymmetric when D is not closed under inversion, symmetric ramified when D
    holds the inertia involution sigma^{e/2} = (M/2, 0) (an element of the
    group only for even e), symmetric unramified otherwise."""
    D = {compose(X, compose(X, h, orbit.rep), k) for h in X.gamma_E for k in X.gamma_E}
    if {inverse(X, x) for x in D} != D:
        return RootClass.ASYMMETRIC
    if GaloisElement(X.M // 2, 0) in D:
        return RootClass.SYMMETRIC_RAMIFIED
    return RootClass.SYMMETRIC_UNRAMIFIED


def graded_piece(
    X: ExtensionModel, A: CsaParams, j_prime: int
) -> tuple[tuple[int, int], ...]:
    """Labels of the cosets supported on graded piece j', the trivial coset
    (0, 0) included: those with j == h j' (mod f_0)."""
    inv = order_invariants(X, A)
    labels = [(0, 0)] if (A.h * j_prime) % inv.e_E == 0 else []
    labels += [
        o.ij for o in enumerate_orbits(X) if (o.j - A.h * j_prime) % inv.e_E == 0
    ]
    return tuple(sorted(labels))


def v_layer(
    X: ExtensionModel, A: CsaParams, shape: TowerShape, k: int
) -> tuple[tuple[int, int], ...]:
    """Labels of the cosets with a nonvanishing module in layer k."""
    if jump_data(X, A, shape, k) is None:
        return ()
    return tuple(
        sorted(
            o.ij
            for o in enumerate_orbits(X)
            if depth_index(X, shape, o.rep) == k
            and v_module(X, A, shape, o.rep) is ModuleClass.U
        )
    )


def symp_iso_criterion(X: ExtensionModel, A: CsaParams, orbit: RootOrbit) -> bool:
    """Closed-form route to the symplectic-isomorphism dichotomy that
    finmod.symp_iso_direct decides from module classes: isomorphic iff
    j == 0 or m is even."""
    if not orbit.symmetric:
        raise NotSymmetric(f"orbit {orbit.ij} is asymmetric")
    return orbit.j == 0 or A.m % 2 == 0
