"""Central simple algebras A = M_m(D) over F and their principal orders.

A is encoded by (m, d, h): D is the division algebra of degree d^2 with Hasse
invariant h/d, gcd(h, d) = 1, and n = m*d.  The split form is (n, 1, 0).
E embeds in A when m*d = e*f, and the E-pure principal orders attached to the
embedding are controlled by a handful of integer invariants, all derived here
by gcd bookkeeping.  The Brauer class of A is h/d in Q/Z; the 2-torsion
sign of a multiple of it is read off the integer residue of the numerator
mod d.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import DimensionMismatch, InvariantViolation, NotASubgroup, NotTwoTorsion
from .localfield import ExtensionModel, subfield_invariants

__all__ = [
    "CsaParams",
    "OrderInvariants",
    "split_algebra",
    "order_invariants",
    "centralizer_invariants",
    "brauer_torsion_sign",
]


class CsaParams(namedtuple("CsaParams", "m d h")):
    """A = M_m(D), deg D = d^2, inv D = h/d with gcd(h, d) = 1, 0 <= h < d.
    A named tuple, hashed and compared in C; it equals the plain tuple of its
    values, and nothing in the library compares values of two types."""

    __slots__ = ()

    def __new__(cls, m: int, d: int, h: int):
        if m < 1 or d < 1:
            raise ValueError(f"m={m}, d={d} must be positive")
        if not 0 <= h < d or gcd(h, d) != 1:
            raise ValueError(f"h={h} invalid for d={d}")
        return tuple.__new__(cls, (m, d, h))

    @property
    def n(self) -> int:
        return self.m * self.d


@lru_cache(maxsize=None)
def split_algebra(n: int) -> CsaParams:
    """The split form M_n(F), one shared instance per n."""
    return CsaParams(n, 1, 0)


@dataclass(frozen=True)
class OrderInvariants:
    """Integer invariants of the E-pure principal order of A.

    r = e / gcd(d, e) and s = gcd(f, m) are the period and multiplicity,
    e_F = d*r is the order's ramification over O_F, and e_E = e_F / e its
    ramification over O_E.  e_E equals both d/gcd(d, e) and f/gcd(m, f).
    """

    r: int
    s: int
    e_F: int
    e_E: int


@lru_cache(maxsize=None)
def order_invariants(X: ExtensionModel, A: CsaParams) -> OrderInvariants:
    if A.n != X.n:
        raise DimensionMismatch(f"m*d={A.n} but e*f={X.n}")
    e, f, m, d = X.e, X.f, A.m, A.d
    r = e // gcd(d, e)
    s = gcd(f, m)
    e_F = d * r
    e_E = e_F // e
    if not e_E == d // gcd(d, e) == f // gcd(m, f) or r != m // gcd(m, f):
        raise InvariantViolation(f"order invariants disagree for {A} in {X.params}")
    return OrderInvariants(r=r, s=s, e_F=e_F, e_E=e_E)


@lru_cache(maxsize=None)
def centralizer_invariants(
    X: ExtensionModel, A: CsaParams, H: frozenset
) -> tuple[int, int, int]:
    """(m_k, d_k, e(A_k/O_E)) for the centralizer A_k of the subfield E_k fixed
    by a tower subgroup H containing Gal(L/E).

    A_k = M_{m_k}(D_k) is central simple over E_k and its E-pure principal
    order ramifies over O_E with index f(E/E_k)/gcd(m, f(E/E_k)).
    """
    if A.n != X.n:
        raise DimensionMismatch(f"m*d={A.n} but e*f={X.n}")
    if not X.gamma_E.issubset(H):
        raise NotASubgroup("tower subgroup must contain Gal(L/E)")
    e_k, f_k = subfield_invariants(X, H)
    deg = e_k * f_k
    over = X.n // deg  # [E : E_k]
    if deg * over != X.n:
        raise InvariantViolation(f"[E_k : F]={deg} does not divide n={X.n}")
    f_rel = X.f // f_k  # f(E/E_k)
    m_k = gcd(A.m, over)
    d_k = A.d // gcd(A.d, deg)
    return m_k, d_k, f_rel // gcd(A.m, f_rel)


def brauer_torsion_sign(A: CsaParams, n_alpha: int) -> int:
    """Sign of the 2-torsion class n_alpha * [A]: +1 if trivial, -1 if the
    nontrivial class; NotTwoTorsion if n_alpha * [A] has larger order.

    n_alpha * [A] = n_alpha * h / d mod 1, so only the residue of n_alpha * h
    mod d matters: 0 is the trivial class and d / 2 the nontrivial 2-torsion
    one."""
    rem = (n_alpha * A.h) % A.d
    if rem == 0:
        return 1
    if 2 * rem == A.d:
        return -1
    g = gcd(rem, A.d)
    raise NotTwoTorsion(f"{n_alpha} * [{A.h}/{A.d}] = {rem // g}/{A.d // g} is not 2-torsion")
