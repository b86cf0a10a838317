"""Quadratic characters of finite fields, in exponent coordinates.

Elements of mu_L are exponents relative to the fixed generator zeta, carried
together with the ambient order in MuExponent, a light slotted value that
normalizes the exponent once and is not hashed.  Subfield reduction divides the
exponent by the index of the subgroup; the three quadratic symbols (the k^x
Legendre symbol, the norm-one k^1 symbol, and the multiplication permutation
sign) are then parity computations on reduced exponents.  Tame quadratic
characters of E^x are determined by their values on a unit generator and on
pi_E, which is all a TameQuadChar stores.

Every field size passed here (Q, Q_alpha, q_pm, Q_sub) must be a prime power.
The functions compute on exponents only and cannot tell whether a field of
that size exists: legendre_kx(6, MuExponent(1, 5)) returns -1 for a field
with 6 elements.  The CLI and GridSpec reject a q that is not an odd prime
power, and every size derived from a valid q is a power of it, so nothing
here checks per call.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from math import gcd

from .errors import NotInSubfield, NotNormOne

__all__ = [
    "MuExponent",
    "TameQuadChar",
    "TRIVIAL_CHAR",
    "reduce_to_subfield",
    "legendre_kx",
    "legendre_k1",
    "perm_sign",
    "perm_sign_bruteforce",
]


@dataclass(init=False, slots=True)
class MuExponent:
    """zeta^val inside the cyclic group mu of the given order."""

    val: int
    order: int

    def __init__(self, val: int, order: int):
        if order < 1:
            raise ValueError(f"order={order} must be positive")
        self.val, self.order = val % order, order


class TameQuadChar(namedtuple("TameQuadChar", "on_unit_gen on_uniformizer")):
    """A character of E^x trivial on 1-units, of order dividing 2, recorded by
    its values on a fixed unit generator and on pi_E.  A named tuple (see
    csa.CsaParams); a product is one of the four characters built once below."""

    __slots__ = ()

    def __new__(cls, on_unit_gen: int, on_uniformizer: int):
        if on_unit_gen not in (1, -1) or on_uniformizer not in (1, -1):
            raise ValueError("character values must be +1 or -1 (quadratic)")
        return tuple.__new__(cls, (on_unit_gen, on_uniformizer))

    def __mul__(self, other: "TameQuadChar") -> "TameQuadChar":
        return _CHARS[self[0] * other[0], self[1] * other[1]]


_CHARS = {(u, v): TameQuadChar(u, v) for u in (1, -1) for v in (1, -1)}
TRIVIAL_CHAR = _CHARS[1, 1]


def reduce_to_subfield(x: MuExponent, Q_sub: int) -> int:
    """Exponent of x relative to the generator of mu of the subfield with
    Q_sub elements, i.e. zeta^{(order)/(Q_sub-1)}.  Q_sub must be a prime
    power (see the module docstring); Q_sub < 2 raises ValueError."""
    if x.order == Q_sub - 1:
        return x.val
    if Q_sub < 2:
        raise ValueError(f"Q_sub={Q_sub} is not a field size")
    if x.order % (Q_sub - 1):
        raise NotInSubfield(f"mu_{Q_sub - 1} is not a subgroup of mu_{x.order}")
    u = x.order // (Q_sub - 1)
    if x.val % u:
        raise NotInSubfield(f"zeta^{x.val} outside mu_{Q_sub - 1}")
    return (x.val // u) % (Q_sub - 1)


def legendre_kx(Q_alpha: int, x: MuExponent) -> int:
    """Quadratic symbol on the multiplicative group of the field with Q_alpha
    elements: -1 exactly on non-squares, i.e. odd reduced exponents.  Q_alpha
    must be a prime power (see the module docstring)."""
    return -1 if reduce_to_subfield(x, Q_alpha) % 2 else 1


def legendre_k1(Q_alpha: int, q_pm: int, x: MuExponent) -> int:
    """Quadratic symbol on the norm-one subgroup k^1 of the quadratic residue
    extension k_alpha / k_pm.

    k^1 = ker(Norm) is cyclic of order q_pm + 1 (even), generated by
    zeta_alpha^{q_pm - 1}; membership means (q_pm - 1) | exponent and the
    symbol is the parity of the index.  q_pm must be a prime power (see the
    module docstring).
    """
    if Q_alpha != q_pm * q_pm:
        raise ValueError(f"Q_alpha={Q_alpha} is not q_pm^2 for q_pm={q_pm}")
    reduced = reduce_to_subfield(x, Q_alpha)
    if reduced % (q_pm - 1):
        raise NotNormOne(f"index {reduced} not divisible by {q_pm - 1}")
    return -1 if (reduced // (q_pm - 1)) % 2 else 1


def perm_sign(Q: int, x: MuExponent) -> int:
    """Sign of multiplication by x as a permutation of the field with Q
    elements.

    Zero is fixed, and with n = Q - 1 and x = zeta^v the group mu splits
    into n/t cycles of the length t = ord(x) = n / gcd(v, n), so
    n/t = gcd(v, n) and the sign is (-1)^{n - gcd(v, n)}.  This stays a
    count of cycles on purpose: for odd Q it equals the parity test of
    legendre_kx, and acceptance criterion 6 compares the two, which would
    prove nothing if both were the same parity formula.  Q must be a prime
    power (see the module docstring).
    """
    n = Q - 1
    return -1 if (n - gcd(reduce_to_subfield(x, Q), n)) % 2 else 1


def perm_sign_bruteforce(Q: int, x: MuExponent) -> int:
    """Oracle for perm_sign: walk the actual cycle decomposition of the
    multiplication action on exponents (plus the fixed zero), assuming nothing
    about cycle lengths."""
    n = Q - 1
    s = reduce_to_subfield(x, Q)
    visited = bytearray(n)
    cycles = 0
    for start in range(n):
        if visited[start]:
            continue
        cycles += 1
        cur = start
        while not visited[cur]:
            visited[cur] = 1
            cur += s
            if cur >= n:
                cur -= n
    return -1 if (n - cycles) % 2 else 1
