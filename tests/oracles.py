"""Second routes that the tests compare the library against.

The library keeps one route per concept; each function here recomputes a
library result another way, from public names only, so a test can check the
two against each other.  Nothing in the package imports this module.
"""

from __future__ import annotations

from tametori.csa import CsaParams, order_invariants
from tametori.errors import NotSymmetric, TametoriError
from tametori.finmod import ModuleClass, v_module
from tametori.localfield import ExtensionModel, GaloisElement, compose, inverse
from tametori.roots import RootClass, RootOrbit, double_coset_labels, enumerate_orbits
from tametori.tower import TowerShape, depth_index, jump_data

__all__ = [
    "CriterionViolation",
    "classify_by_criterion",
    "classify_elementwise",
    "power",
    "graded_piece",
    "v_layer",
    "symp_iso_criterion",
    "GF",
]


class CriterionViolation(TametoriError):
    """A symmetric orbit fell outside the j in {0, f/2} dichotomy."""


def power(X: ExtensionModel, g: GaloisElement, k: int) -> GaloisElement:
    """g^k by repeated compose (k < 0 through inverse)."""
    if k < 0:
        return power(X, inverse(X, g), -k)
    out = GaloisElement(0, 0)
    for _ in range(k):
        out = compose(X, out, g)
    return out


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
            if depth_index(shape, o.rep) == k
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


class GF:
    """The field with p^k elements in real arithmetic, for odd p.

    An element is an int 0 <= x < Q = p^k read as the polynomial
    sum x_i X^i over Z/p, x_i its base-p digits.  Products are reduced modulo
    the first monic irreducible polynomial of degree k in search order, and g
    is the least element of multiplicative order Q - 1.  Nothing here uses an
    exponent picture: g is found by testing orders with real powers, times_g
    tabulates y -> g y, and pw lists the real powers g^0, ..., g^{Q-2}.
    """

    def __init__(self, p: int, k: int):
        self.p, self.k, self.Q = p, k, p**k
        self.modulus = next(
            f for f in (self.digits(c, k) + [1] for c in range(self.Q)) if self.irreducible(f)
        )
        n = self.Q - 1
        primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]
        self.g = next(
            a for a in range(2, self.Q) if all(self.pow(a, n // r) != 1 for r in primes)
        )
        self.times_g = [self.mul(self.g, y) for y in range(self.Q)]
        self.pw = [1]
        for _ in range(n - 1):
            self.pw.append(self.times_g[self.pw[-1]])

    def digits(self, x: int, length: int) -> list[int]:
        """The lowest `length` base-p digits of x, lowest first."""
        out = []
        for _ in range(length):
            x, d = divmod(x, self.p)
            out.append(d)
        return out

    def polymod(self, a: list[int], f: list[int]) -> list[int]:
        """Remainder of a by the monic f, coefficients lowest first."""
        a, d = list(a), len(f) - 1
        for top in range(len(a) - 1, d - 1, -1):
            c = a[top] % self.p
            if c:
                for i in range(d + 1):
                    a[top - d + i] -= c * f[i]
        return [c % self.p for c in a[:d]]

    def irreducible(self, f: list[int]) -> bool:
        """No monic factor of degree 1 .. deg(f) / 2."""
        deg = len(f) - 1
        return all(
            any(self.polymod(f, self.digits(c, d) + [1]))
            for d in range(1, deg // 2 + 1)
            for c in range(self.p**d)
        )

    def mul(self, a: int, b: int) -> int:
        da, db = self.digits(a, self.k), self.digits(b, self.k)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        out = 0
        for c in reversed(self.polymod(prod, self.modulus)):
            out = out * self.p + c
        return out

    def pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def mul_sign(self, a: int) -> int:
        """Sign of y -> a y as a permutation of all Q elements, from its
        cycles.  The images are taken along y = g^0, g^1, ...: a g^{i+1} is
        g times a g^i."""
        image = [0] * self.Q
        z = a
        for y in self.pw:
            image[y] = z
            z = self.times_g[z]
        seen = bytearray(self.Q)
        cycles = 0
        for start in range(self.Q):
            if not seen[start]:
                cycles += 1
                y = start
                while not seen[y]:
                    seen[y] = 1
                    y = image[y]
        return -1 if (self.Q - cycles) % 2 else 1
