"""Exponent-arithmetic model of a tame extension E/F and of Gal(L/F).

E/F is a tame degree-n extension of non-archimedean local fields with
ramification index e, residue degree f and odd residue cardinality q, presented
by a uniformizer pi_E with pi_E^e = z * pi_F for a root of unity
z = zeta_E^w.  L = E[z_e, z'] is the splitting field obtained by adjoining a
primitive e-th root of unity and an e-th root z' of z; it is unramified over E
with residue cardinality Q = q^{f_L}.

Everything is small-integer arithmetic: mu_L is identified with Z/(Q-1) via a
fixed generator zeta, and a Galois element g is the pair (a, c) with
g(pi_E) = zeta^a * pi_E and g(x) = x^{q^c} on mu_L.  No field element is ever
materialized, so all downstream character values are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .errors import InvariantViolation, NotASubgroup, SearchExhausted, TameViolation

__all__ = [
    "ExtensionParams",
    "ExtensionModel",
    "GaloisElement",
    "build_extension",
    "compose",
    "inverse",
    "enumerate_group",
    "inertia_order",
    "subgroup_closure",
    "is_subgroup",
    "subfield_invariants",
    "interval_subgroups",
]


def radical_prime(q: int) -> int:
    """Return p for a prime power q = p^k, else raise ValueError."""
    if q < 2:
        raise ValueError(f"q={q} is not a prime power")
    t = q
    for p in range(2, q + 1):
        if p * p > q:
            return q  # q itself is prime
        if t % p == 0:
            while t % p == 0:
                t //= p
            if t != 1:
                raise ValueError(f"q={q} is not a prime power")
            return p
    raise ValueError(f"q={q} is not a prime power")


class GaloisElement(NamedTuple):
    """g(pi_E) = zeta^a * pi_E and g = (x -> x^{q^c}) on mu_L.

    A named tuple, so hashing, equality and the (a, c) order run in C: every
    per-orbit cache key contains one.
    """

    a: int
    c: int


@dataclass(frozen=True, order=True)
class ExtensionParams:
    """Presentation (q, e, f, w) of E/F with pi_E^e = zeta_E^w * pi_F."""

    q: int
    e: int
    f: int
    w: int = 0


@dataclass(frozen=True)
class ExtensionModel:
    """Derived data of the splitting field L and the group Gal(L/F).

    q, e, f, w are the presentation; params rebuilds it, and the model hashes
    as it does.  M = Q - 1 is the order of mu_L.  sigma generates inertia, phi
    lifts the residue Frobenius, and gamma_E is the subgroup Gal(L/E).
    qpow[c] = q^c mod M and spow[j] = 1 + q + ... + q^{j-1} are lookup tables
    used everywhere.
    """

    q: int
    e: int
    f: int
    w: int
    n: int
    f_L: int
    Q: int
    M: int
    w_L: int
    u_E: int
    sigma: GaloisElement
    phi: GaloisElement
    gamma_E: frozenset[GaloisElement]
    qpow: tuple[int, ...]
    spow: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(self.params))

    def __hash__(self) -> int:
        return self._hash

    @property
    def params(self) -> ExtensionParams:
        return ExtensionParams(self.q, self.e, self.f, self.w)


@lru_cache(maxsize=None)
def build_extension(params: ExtensionParams) -> ExtensionModel:
    """Construct the splitting-field model for a tame presentation.

    f_L is the least multiple f' of f such that e divides q^{f'} - 1 and e
    divides w * (q^{f'} - 1)/(q^f - 1); the search is capped at f * e * e and
    raises SearchExhausted beyond it (the cap is never hit for tame input).
    """
    q, e, f, w = params.q, params.e, params.f, params.w
    if e < 1 or f < 1:
        raise ValueError(f"e={e}, f={f} must be positive")
    p = radical_prime(q)
    if p == 2:
        raise ValueError(f"q={q} must be odd")
    if e % p == 0:
        raise TameViolation(f"residue characteristic {p} divides e={e}")
    if not 0 <= w < q**f - 1:
        raise ValueError(f"w={w} outside 0..q^f-2")

    cap = f * e * e
    f_L = None
    for fp in range(f, cap + 1, f):
        big = q**fp - 1
        if big % e:
            continue
        if (w * (big // (q**f - 1))) % e:
            continue
        f_L = fp
        break
    if f_L is None:
        raise SearchExhausted(f"no splitting degree below cap {cap} for {params}")

    Q = q**f_L
    M = Q - 1
    w_L = (w * (M // (q**f - 1))) % M
    # least nonnegative solution of e * w_e == w_L (mod M); e | M and e | w_L
    w_e = (w_L // e) % (M // e)
    u_E = M // (q**f - 1)
    qpow = tuple(pow(q, c, M) for c in range(f_L))
    spow = tuple((q**j - 1) // (q - 1) for j in range(f))
    sigma = GaloisElement((M // e) % M, 0)
    phi = GaloisElement((w_e * (q - 1)) % M, 1 % f_L)
    gamma_E = frozenset(GaloisElement(0, c) for c in range(0, f_L, f))
    return ExtensionModel(
        q=q,
        e=e,
        f=f,
        w=w,
        n=e * f,
        f_L=f_L,
        Q=Q,
        M=M,
        w_L=w_L,
        u_E=u_E,
        sigma=sigma,
        phi=phi,
        gamma_E=gamma_E,
        qpow=qpow,
        spow=spow,
    )


def compose(X: ExtensionModel, g: GaloisElement, h: GaloisElement) -> GaloisElement:
    """(g h)(pi_E): apply h first, then g."""
    return GaloisElement((g.a + X.qpow[g.c] * h.a) % X.M, (g.c + h.c) % X.f_L)


def inverse(X: ExtensionModel, g: GaloisElement) -> GaloisElement:
    c = (-g.c) % X.f_L
    return GaloisElement((-g.a * X.qpow[c]) % X.M, c)


def enumerate_group(X: ExtensionModel) -> tuple[GaloisElement, ...]:
    """All of Gal(L/F): per Frobenius power c, the e solutions a of the
    uniformizer constraint e*a == (q^c - 1) * w_L (mod Q-1)."""
    out = []
    step = X.M // X.e
    for c in range(X.f_L):
        rhs = ((X.qpow[c] - 1) * X.w_L) % X.M
        # e | M and e | rhs, so the solution set is rhs/e + (M/e) Z
        a0 = (rhs // X.e) % step
        out.extend(GaloisElement((a0 + k * step) % X.M, c) for k in range(X.e))
    if len(out) != X.e * X.f_L:
        raise InvariantViolation(f"{len(out)} elements, not e * f_L, for {X.params}")
    return tuple(sorted(out))


def inertia_order(H) -> int:
    """Order of the inertia subgroup of H: its elements (a, 0), trivial on mu_L."""
    return sum(1 for g in H if g.c == 0)


def _grow(X: ExtensionModel, closed: set, gens, g: GaloisElement):
    """Extend closed = <gens>, a subgroup, in place to <gens, g>, yielding it
    after each right coset closed * r it adds.  The first is closed * g; each
    added coset's r times every generator names a candidate for the next."""
    base = tuple(closed)
    gens = (*gens, g)
    reps = [g]
    closed.update(compose(X, h, g) for h in base)
    yield closed
    for r in reps:  # grows while it is walked
        for s in gens:
            y = compose(X, r, s)
            if y not in closed:
                closed.update(compose(X, h, y) for h in base)
                reps.append(y)
                yield closed


def _generate(X: ExtensionModel, gens):
    """Grow <gens> in place from {1}, yielding the set after every step."""
    closed = {GaloisElement(0, 0)}
    yield closed
    done: list[GaloisElement] = []
    for g in gens:
        if g not in closed:
            yield from _grow(X, closed, done, g)
            done.append(g)


def subgroup_closure(X: ExtensionModel, gens) -> frozenset[GaloisElement]:
    """Subgroup generated by gens."""
    *_, closed = _generate(X, gens)
    return frozenset(closed)


def is_subgroup(X: ExtensionModel, H) -> bool:
    """True when H contains 1 and is closed under compose.

    <H>, grown from H's own elements in sorted order, contains H and 1, so H
    is a subgroup exactly when the growth never outgrows it; it stops as soon
    as it does.  Each growth at least doubles the set, so a subgroup takes
    O(|H| log |H|) composes, not |H|^2.
    """
    S = frozenset(H)
    return all(len(closed) <= len(S) for closed in _generate(X, sorted(S)))


def subfield_invariants(X: ExtensionModel, H) -> tuple[int, int]:
    """(e(M/F), f(M/F)) for the fixed field M of a subgroup H of Gal(L/F).

    Valid for ANY subgroup, not only those containing Gal(L/E); root
    stabilizers need the general case.  L/M is tame, so its inertia is H
    intersected with the inertia of L/F and both indices come from counting.
    """
    H = frozenset(H)
    if not is_subgroup(X, H):
        raise NotASubgroup(f"{sorted(H)!r} is not closed")
    i = inertia_order(H)
    if X.e % i or (X.f_L * i) % len(H):
        raise NotASubgroup(f"inertia {i} incompatible with {sorted(H)!r}")
    return X.e // i, (X.f_L * i) // len(H)


@lru_cache(maxsize=None)
def interval_subgroups(X: ExtensionModel) -> tuple[frozenset[GaloisElement], ...]:
    """All subgroups H with Gal(L/E) <= H <= Gal(L/F), sorted by (order, sorted
    elements).

    BFS over generator extensions, each grown from H itself.  <H, g> =
    <H, h g gamma> for h in H and gamma in Gal(L/E), so H is extended by one
    g per double coset H g Gal(L/E): g (0, c') = (g.a, g.c + c'), so each
    coset g Gal(L/E) has one representative with c < f, and after a try
    those of H g are marked done.
    """
    base_gens = (GaloisElement(0, X.f % X.f_L),)
    base = subgroup_closure(X, base_gens)
    if base != X.gamma_E:
        raise NotASubgroup(f"the closure of {base_gens!r} is not Gal(L/E)")
    reps = [g for g in enumerate_group(X) if g.c < X.f]
    found = {base: base_gens}
    queue = [base]
    while queue:
        H = queue.pop()
        gens = found[H]
        done = set(H)
        for g in reps:
            if g in done:
                continue
            *_, grown = _grow(X, set(H), gens, g)
            H2 = frozenset(grown)
            if H2 not in found:
                found[H2] = gens + (g,)
                queue.append(H2)
            done.update(GaloisElement(y.a, y.c % X.f) for y in (compose(X, h, g) for h in H))
    return tuple(sorted(found, key=lambda H: (len(H), sorted(H))))
