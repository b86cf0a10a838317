"""Finite module decompositions of principal-order quotients.

The graded pieces of the E-pure principal order of A decompose over the double
cosets; the coset [g] contributes the residue field k_{F_alpha} (dimension
f(F_alpha/F) over k_F, the trivial coset contributing k_E).  The depth-k layer
of a tower assigns each coset a module class: Zero off the layer support, U
when the parity a_k * e(A_{k+1}/O_E) is even and j == h j_k (mod e(A/O_E)),
with j_k = a_k * e(A/O_E) / 2 the integer that jump_data returns (None for an
odd parity).

Comparing the class of a symmetric orbit across A and its split form is the
module route to the symplectic-isomorphism dichotomy; j == 0 or m even is the
closed-form route.
"""

from __future__ import annotations

from enum import Enum

from .csa import CsaParams, order_invariants, split_algebra
from .errors import NotSymmetric
from .localfield import ExtensionModel, GaloisElement
from .roots import RootOrbit, enumerate_orbits
from .tower import TowerShape, depth_index, jump_data

__all__ = [
    "ModuleClass",
    "u_dim",
    "graded_piece",
    "v_module",
    "v_layer",
    "symp_iso_direct",
    "symp_iso_criterion",
]


class ModuleClass(Enum):
    ZERO = "zero"
    U = "u"


def u_dim(X: ExtensionModel, orbit: RootOrbit | None) -> int:
    """dim_{k_F} of the coset's residue module: f(F_alpha/F), with the trivial
    coset (orbit=None) contributing f = dim k_E."""
    return X.f if orbit is None else orbit.f_alpha


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


def v_module(
    X: ExtensionModel, A: CsaParams, shape: TowerShape, g: GaloisElement
) -> ModuleClass:
    """Class of the depth-layer module at the coset of g: Zero at depth -1
    (nothing survives below the first jump), else U exactly when the layer
    parity is even and j == h j_k (mod e(A/O_E))."""
    k = depth_index(X, shape, g)
    if k == -1:
        return ModuleClass.ZERO
    j_k = jump_data(X, A, shape, k)
    if j_k is None:
        return ModuleClass.ZERO
    e_E = order_invariants(X, A).e_E
    if (g.c % X.f - A.h * j_k) % e_E == 0:
        return ModuleClass.U
    return ModuleClass.ZERO


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


def symp_iso_direct(
    X: ExtensionModel, A: CsaParams, shape: TowerShape, orbit: RootOrbit
) -> bool:
    """Module route: the symmetric orbit's modules for A and for the split
    form are isomorphic iff their classes agree."""
    if not orbit.symmetric:
        raise NotSymmetric(f"orbit {orbit.ij} is asymmetric")
    given = v_module(X, A, shape, orbit.rep)
    split = v_module(X, split_algebra(X.n), shape, orbit.rep)
    return given == split


def symp_iso_criterion(X: ExtensionModel, A: CsaParams, orbit: RootOrbit) -> bool:
    """Closed-form route: isomorphic iff j == 0 or m is even."""
    if not orbit.symmetric:
        raise NotSymmetric(f"orbit {orbit.ij} is asymmetric")
    return orbit.j == 0 or A.m % 2 == 0
