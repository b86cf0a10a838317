"""Finite module decompositions of principal-order quotients.

The graded pieces of the E-pure principal order of A decompose over the double
cosets; the coset [g] contributes the residue field k_{F_alpha}, of dimension
u_dim = f(F_alpha/F) over k_F (the trivial coset contributing k_E).  The depth-k layer
of a tower assigns each coset a module class: Zero off the layer support, U
when the parity a_k * e(A_{k+1}/O_E) is even and j == h j_k (mod e(A/O_E)),
with j_k = a_k * e(A/O_E) / 2 the integer that jump_data returns (None for an
odd parity).

Comparing the class of a symmetric orbit across A and its split form decides
the symplectic-isomorphism dichotomy (symp_iso_direct); the tests check it
against the closed form j == 0 or m even.
"""

from __future__ import annotations

from enum import Enum

from .csa import CsaParams, order_invariants, split_algebra
from .errors import NotSymmetric
from .localfield import ExtensionModel, GaloisElement
from .roots import RootOrbit
from .tower import TowerShape, depth_index, jump_data

__all__ = [
    "ModuleClass",
    "u_dim",
    "v_module",
    "symp_iso_direct",
]


class ModuleClass(Enum):
    ZERO = "zero"
    U = "u"


def u_dim(X: ExtensionModel, orbit: RootOrbit | None) -> int:
    """dim_{k_F} of the coset's residue module: f(F_alpha/F), with the trivial
    coset (orbit=None) contributing f = dim k_E."""
    return X.f if orbit is None else orbit.f_alpha


def v_module(
    X: ExtensionModel, A: CsaParams, shape: TowerShape, g: GaloisElement
) -> ModuleClass:
    """Class of the depth-layer module at the coset of g: Zero at depth -1
    (nothing survives below the first jump), else U exactly when the layer
    parity is even and j == h j_k (mod e(A/O_E))."""
    k = depth_index(shape, g)
    if k == -1:
        return ModuleClass.ZERO
    j_k = jump_data(X, A, shape, k)
    if j_k is None:
        return ModuleClass.ZERO
    e_E = order_invariants(X, A).e_E
    if (g.c % X.f - A.h * j_k) % e_E == 0:
        return ModuleClass.U
    return ModuleClass.ZERO


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
