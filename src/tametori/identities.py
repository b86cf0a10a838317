"""The character identities between the zeta side and the epsilon side.

For an instance (E/F presentation, algebra A, tower shape) each nontrivial
orbit is checked exactly: the zeta side evaluates permutation signs of finite
module actions (asymmetric pairs), t-factor cancellations with the transfer
sign iota (symmetric isomorphic), or norm-one symbols (symmetric
non-isomorphic); the epsilon side evaluates order-gated Legendre symbols
twice, gated once by the split algebra and once by the given one.  Each
primary orbit is verified once; the aggregate characters of an instance are
the products of its per-orbit verdicts, so the instance passes when every
per-orbit identity holds.  A mismatch is data in the report, never an
exception.  nu_zeta_total and epsilon_total compute the aggregates on their
own, as the factorization oracle the tests compare the verdict products
with; they stay in the library while the benchmark traces them.

sweep() runs verify_instance over a parameter grid and collects failures in
replayable coordinate rows; an instance whose check raises a TametoriError is
a failure row too, and the sweep goes on.  plan() gives sweep's counts
without verifying.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from . import chartools, finmod, tower
from .chartools import TRIVIAL_CHAR, TameQuadChar
from .csa import CsaParams, brauer_torsion_sign, split_algebra
from .errors import DimensionMismatch, InvariantViolation, IotaIncoherence, NotSymmetric
from .errors import TametoriError
from .localfield import (
    ExtensionModel,
    ExtensionParams,
    build_extension,
    inertia_order,
    radical_prime,
)
from .roots import RootClass, RootOrbit, enumerate_orbits, ord_contains, root_eval
from .tower import TowerShape, subgroup_selector

__all__ = [
    "Instance",
    "OrbitVerdict",
    "Report",
    "GridSpec",
    "SweepSummary",
    "epsilon_alpha",
    "epsilon_total",
    "iota",
    "zeta_restricted",
    "nu_zeta_total",
    "verify_instance",
    "grid_extension_params",
    "grid_algebras",
    "plan",
    "sweep",
]


@dataclass(frozen=True)
class Instance:
    X: ExtensionModel
    A: CsaParams
    shape: TowerShape


@dataclass(frozen=True)
class OrbitVerdict:
    """Per-orbit (or per asymmetric pair) comparison; lhs is the zeta side."""

    ij: tuple[int, int]
    partner_ij: tuple[int, int]
    cls: RootClass
    depth: int
    lhs: TameQuadChar
    rhs: TameQuadChar

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class Report:
    """The verdicts of one instance; each aggregate character is the product
    of one side of the verdicts, so it agrees whenever every verdict passes."""

    instance: Instance
    verdicts: tuple[OrbitVerdict, ...]

    @property
    def aggregate_lhs(self) -> TameQuadChar:
        return prod((v.lhs for v in self.verdicts), start=TRIVIAL_CHAR)

    @property
    def aggregate_rhs(self) -> TameQuadChar:
        return prod((v.rhs for v in self.verdicts), start=TRIVIAL_CHAR)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _is_primary(orbit: RootOrbit) -> bool:
    """Asymmetric pairs are visited once, at the smaller canonical label."""
    return orbit.symmetric or orbit.ij < orbit.partner_ij


def epsilon_alpha(inst: Instance, orbit: RootOrbit, B: CsaParams) -> TameQuadChar:
    """The epsilon character of one orbit for B, the gating algebra (the
    split form or inst.A).

    Symmetric ramified orbits contribute the toral-invariant character
    gamma -> sign^{v_E(gamma)} with B's Brauer 2-torsion sign,
    independently of the tower.  All other orbits are gated by the layer
    membership r_k/2 in ord(alpha) of B's principal order and
    contribute a k^x symbol (asymmetric) or a k^1 symbol (symmetric
    unramified) at alpha(zeta_E) and alpha(pi_E).
    """
    X = inst.X
    if orbit.cls is RootClass.SYMMETRIC_RAMIFIED:
        return TameQuadChar(1, brauer_torsion_sign(B, orbit.n_pm))
    k = tower.depth_index(X, inst.shape, orbit.rep)
    if k == -1:
        return TRIVIAL_CHAR
    r_half = Fraction(inst.shape.levels[k], 2 * X.e)
    if not ord_contains(X, B, orbit, r_half):
        return TRIVIAL_CHAR
    x_unit = root_eval(X, orbit, 1, 0)
    x_pi = root_eval(X, orbit, 0, 1)
    if orbit.cls is RootClass.ASYMMETRIC:
        return TameQuadChar(
            chartools.legendre_kx(orbit.Q_alpha, x_unit),
            chartools.legendre_kx(orbit.Q_alpha, x_pi),
        )
    return TameQuadChar(
        chartools.legendre_k1(orbit.Q_alpha, orbit.q_pm, x_unit),
        chartools.legendre_k1(orbit.Q_alpha, orbit.q_pm, x_pi),
    )


def epsilon_total(inst: Instance, B: CsaParams) -> TameQuadChar:
    """Product of epsilon_alpha for the gating algebra B over asymmetric pairs
    (once per pair) and symmetric orbits."""
    orbits = filter(_is_primary, enumerate_orbits(inst.X))
    return prod((epsilon_alpha(inst, o, B) for o in orbits), start=TRIVIAL_CHAR)


def iota(inst: Instance, orbit: RootOrbit) -> int:
    """Transfer sign of a symmetric orbit: +1 when the representative is a
    power of sigma (j == 0) or fixes pi_E (a == 0), else (-1)^m; symmetric
    ramified orbits always get (-1)^m."""
    if not orbit.symmetric:
        raise NotSymmetric(f"orbit {orbit.ij} is asymmetric")
    m_sign = -1 if inst.A.m % 2 else 1
    if orbit.cls is RootClass.SYMMETRIC_RAMIFIED:
        return m_sign
    if orbit.j == 0 or orbit.rep.a == 0:
        return 1
    return m_sign


def zeta_restricted(inst: Instance, orbit: RootOrbit) -> TameQuadChar:
    """The zeta-side character of one orbit, restricted to E^x.

    Asymmetric: the pair product, a permutation sign of the alpha(gamma)
    action for each side whose module class is U, i.e. that sign raised to
    the number of such sides.  Symmetric with isomorphic modules: the
    t-factors cancel and the value on pi_E is iota (trivial on units); at
    depth -1 both modules vanish and the character is trivial outright, while
    at depth >= 0 a symmetric unramified orbit must have iota = +1
    (IotaIncoherence otherwise).  Symmetric non-isomorphic (only
    unramified, m odd): k^1 symbols on both generators.
    """
    X, A, shape = inst.X, inst.A, inst.shape
    if orbit.cls is RootClass.ASYMMETRIC:
        u_sides = sum(
            finmod.v_module(X, B, shape, orbit.rep) is finmod.ModuleClass.U
            for B in (A, split_algebra(X.n))
        )
        if not u_sides:
            return TRIVIAL_CHAR
        return TameQuadChar(
            chartools.perm_sign(orbit.Q_alpha, root_eval(X, orbit, 1, 0)) ** u_sides,
            chartools.perm_sign(orbit.Q_alpha, root_eval(X, orbit, 0, 1)) ** u_sides,
        )
    iso = finmod.symp_iso_direct(X, A, shape, orbit)
    if iso:
        if orbit.cls is RootClass.SYMMETRIC_RAMIFIED:
            return TameQuadChar(1, iota(inst, orbit))
        if tower.depth_index(X, shape, orbit.rep) == -1:
            return TRIVIAL_CHAR
        sign = iota(inst, orbit)
        if sign != 1:
            raise IotaIncoherence(
                f"iota={sign} on isomorphic symmetric unramified orbit {orbit.ij}"
            )
        return TameQuadChar(1, sign)
    if orbit.cls is not RootClass.SYMMETRIC_UNRAMIFIED:
        raise InvariantViolation(
            f"symmetric ramified orbit {orbit.ij}: module classes differ across sides"
        )
    x_unit = root_eval(X, orbit, 1, 0)
    x_pi = root_eval(X, orbit, 0, 1)
    return TameQuadChar(
        chartools.legendre_k1(orbit.Q_alpha, orbit.q_pm, x_unit),
        chartools.legendre_k1(orbit.Q_alpha, orbit.q_pm, x_pi),
    )


def nu_zeta_total(inst: Instance) -> TameQuadChar:
    """Product of zeta_restricted over asymmetric pairs and symmetric orbits."""
    orbits = filter(_is_primary, enumerate_orbits(inst.X))
    return prod((zeta_restricted(inst, o) for o in orbits), start=TRIVIAL_CHAR)


def verify_instance(inst: Instance) -> Report:
    """Check the identity of every primary orbit, computing each per-orbit
    character once; the report's aggregates are the products of the verdicts.
    """
    X, A = inst.X, inst.A
    if A.n != X.n:
        raise DimensionMismatch(f"m*d={A.n} but e*f={X.n}")
    S = split_algebra(X.n)
    verdicts = tuple(
        OrbitVerdict(
            ij=orbit.ij,
            partner_ij=orbit.partner_ij,
            cls=orbit.cls,
            depth=tower.depth_index(X, inst.shape, orbit.rep),
            lhs=zeta_restricted(inst, orbit),
            rhs=epsilon_alpha(inst, orbit, S) * epsilon_alpha(inst, orbit, A),
        )
        for orbit in enumerate_orbits(X)
        if _is_primary(orbit)
    )
    return Report(instance=inst, verdicts=verdicts)


@dataclass(frozen=True)
class GridSpec:
    """Sweep universe: residue cardinalities, torus degree bound, nonzero-w
    sampling, tower bounds, and the admissibility filter."""

    q_list: tuple[int, ...]
    n_max: int
    w_extra: int = 0
    w_seed: int = 0
    t_max: int = 0
    a_max: int = 0
    strict_admissible: bool = False


@dataclass(frozen=True)
class SweepSummary:
    params_count: int
    instances: int
    orbits_checked: int
    failures: tuple[dict, ...]
    skipped_nonstrict: int = 0

    @property
    def passes(self) -> int:
        return self.instances - len(self.failures)

    @property
    def first_failure(self) -> dict | None:
        return self.failures[0] if self.failures else None


def grid_extension_params(grid: GridSpec) -> tuple[ExtensionParams, ...]:
    """Deterministic parameter list: all tame (e, f) with e*f <= n_max, w = 0
    plus w_extra sampled nonzero presentations per (q, e, f)."""
    rng = random.Random(grid.w_seed)
    out = []
    for q in grid.q_list:
        p = radical_prime(q)
        for e in range(1, grid.n_max + 1):
            if e % p == 0:
                continue
            for f in range(1, grid.n_max // e + 1):
                ws = [0]
                pool = range(1, q**f - 1)
                if grid.w_extra and len(pool):
                    ws += sorted(rng.sample(pool, min(grid.w_extra, len(pool))))
                out.extend(ExtensionParams(q, e, f, w) for w in ws)
    return tuple(out)


def grid_algebras(n: int) -> tuple[CsaParams, ...]:
    """Every inner form of degree n: all (m, d, h) with m*d = n, gcd(h, d) = 1."""
    return tuple(
        CsaParams(n // d, d, h)
        for d in range(1, n + 1)
        if n % d == 0
        for h in range(d)
        if gcd(h, d) == 1
    )


def _coordinates(inst: Instance) -> dict:
    """The `verify` arguments that replay an instance."""
    p, A, shape = inst.X.params, inst.A, inst.shape
    towers = ",".join(subgroup_selector(inst.X, H) for H in shape.subgroups[:-1])
    return {
        "q": p.q,
        "e": p.e,
        "f": p.f,
        "w": p.w,
        "m": A.m,
        "d": A.d,
        "h": A.h,
        "tower": towers or "-",
        "levels": ",".join(str(a) for a in shape.levels) or "-",
    }


def failure_row(report: Report) -> dict:
    """Replayable coordinates plus the mismatching values."""
    bad = [v for v in report.verdicts if not v.passed]
    return {
        **_coordinates(report.instance),
        "orbits": ";".join(f"{v.ij[0]},{v.ij[1]}" for v in bad) or "-",
        "lhs": ";".join(f"{v.lhs.on_unit_gen},{v.lhs.on_uniformizer}" for v in bad),
        "rhs": ";".join(f"{v.rhs.on_unit_gen},{v.rhs.on_uniformizer}" for v in bad),
        "aggregate_lhs": f"{report.aggregate_lhs.on_unit_gen},{report.aggregate_lhs.on_uniformizer}",
        "aggregate_rhs": f"{report.aggregate_rhs.on_unit_gen},{report.aggregate_rhs.on_uniformizer}",
    }


def error_row(inst: Instance, exc: TametoriError) -> dict:
    """Replayable coordinates of an instance whose check raised; the orbits
    cell names the error class."""
    blank = dict.fromkeys(("lhs", "rhs", "aggregate_lhs", "aggregate_rhs"), "-")
    return {**_coordinates(inst), "orbits": f"error:{type(exc).__name__}", **blank}


def _field_shapes(grid: GridSpec, params: ExtensionParams):
    """A field's model, the shapes the grid keeps, its algebras, and the
    number of instances the strict filter skips."""
    X = build_extension(params)
    shapes = tower.enumerate_shapes(X, grid.t_max, grid.a_max)
    algebras = grid_algebras(X.n)
    strict = grid.strict_admissible
    kept = [s for s in shapes if not strict or inertia_order(X, s.subgroups[0]) == 1]
    return X, kept, algebras, (len(shapes) - len(kept)) * len(algebras)


def _sweep_param(args: tuple[GridSpec, ExtensionParams]) -> tuple[int, int, int, list[dict]]:
    X, shapes, algebras, skipped = _field_shapes(*args)
    orbits = 0
    failures: list[dict] = []
    for inst in (Instance(X, A, shape) for shape in shapes for A in algebras):
        try:
            report = verify_instance(inst)
        except TametoriError as exc:
            failures.append(error_row(inst, exc))
            continue
        orbits += len(report.verdicts)
        if not report.passed:
            failures.append(failure_row(report))
    return len(shapes) * len(algebras), orbits, skipped, failures


def sweep(grid: GridSpec, jobs: int = 1) -> SweepSummary:
    """Verify every instance of the grid; deterministic for a fixed grid
    regardless of jobs."""
    params_list = grid_extension_params(grid)
    work = [(grid, p) for p in params_list]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_param, work, chunksize=4))
    else:
        results = [_sweep_param(item) for item in work]
    instances = sum(r[0] for r in results)
    orbits = sum(r[1] for r in results)
    skipped = sum(r[2] for r in results)
    failures = tuple(row for r in results for row in r[3])
    return SweepSummary(
        params_count=len(params_list),
        instances=instances,
        orbits_checked=orbits,
        failures=failures,
        skipped_nonstrict=skipped,
    )


def plan(grid: GridSpec) -> SweepSummary:
    """sweep(grid)'s params, instances and skipped_nonstrict counts, without
    verifying anything."""
    params_list = grid_extension_params(grid)
    fields = [_field_shapes(grid, p)[1:] for p in params_list]
    return SweepSummary(
        params_count=len(params_list),
        instances=sum(len(shapes) * len(algebras) for shapes, algebras, _ in fields),
        orbits_checked=0,
        failures=(),
        skipped_nonstrict=sum(skipped for *_, skipped in fields),
    )
