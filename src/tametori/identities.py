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
exception.  Every per-orbit function is a FieldPass kernel, which does once
per field (or per shape) all the work the algebra does not change.
epsilon_alpha and zeta_restricted are the public one-orbit entry points over
FieldPass; they take any representative of an orbit, which acceptance
criterion 10 relies on.  nu_zeta_total and epsilon_total multiply the
per-orbit characters without a report, as the factorization check the tests
compare the verdict products with; they stay only until the benchmark
retires their trace targets.

sweep() runs verify_instance, with one pass per field, over a parameter grid
and collects failures in replayable coordinate rows; an instance whose check
raises a TametoriError is a failure row too, and the sweep goes on.  plan()
gives sweep's counts without verifying.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, prod
from typing import NamedTuple

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
    "FieldPass",
    "OrbitVerdict",
    "Report",
    "GridSpec",
    "SweepSummary",
    "FAILURE_COLUMNS",
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


class OrbitVerdict(NamedTuple):
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


class ShapeRow(NamedTuple):
    """Per orbit of a shape: depth, split-form class and epsilon; plus the shape's levels."""

    depths: list[int]
    levels: tuple[int, ...]
    split_classes: list[finmod.ModuleClass]
    split_eps: list[TameQuadChar]


class FieldPass:
    """The checks of one field's instances, sharing what the algebra does not
    change: per orbit (by default the primary ones, an asymmetric pair once)
    the symbol and sign characters, evaluated on first need; per shape a
    ShapeRow; per gating algebra and layer level an epsilon table.  A pass
    lives inside one call and reads iota, the chartools symbols and
    finmod.v_module as module attributes when it runs."""

    def __init__(self, X: ExtensionModel, orbits: tuple[RootOrbit, ...] | None = None):
        self.X = X
        primary = (o for o in enumerate_orbits(X) if o.symmetric or o.ij < o.partner_ij)
        self.orbits = tuple(primary) if orbits is None else orbits
        self._chars: dict[tuple[int, object], TameQuadChar] = {}
        self._rows: dict[TowerShape, ShapeRow] = {}
        self._eps: dict[tuple[CsaParams, int], list] = {}

    def _char(self, i: int, symbol) -> TameQuadChar:
        """gamma -> symbol(orbit, alpha(gamma)) for orbit i, on zeta_E and pi_E."""
        char = self._chars.get((i, symbol))
        if char is None:
            o, X = self.orbits[i], self.X
            values = (symbol(o, root_eval(X, o, 1, 0)), symbol(o, root_eval(X, o, 0, 1)))
            char = self._chars[i, symbol] = TameQuadChar(*values)
        return char

    def row(self, shape: TowerShape) -> ShapeRow:
        row = self._rows.get(shape)
        if row is None:
            X, S = self.X, split_algebra(self.X.n)
            row = ShapeRow(
                [tower.depth_index(shape, o.rep) for o in self.orbits],
                shape.levels,
                [finmod.v_module(X, S, shape, o.rep) for o in self.orbits],
                [],
            )
            row.split_eps.extend(self.epsilon(i, row, S) for i in range(len(self.orbits)))
            self._rows[shape] = row
        return row

    def epsilon(self, i: int, row: ShapeRow, B: CsaParams) -> TameQuadChar:
        """The epsilon character of orbit i in row's shape for B, the gating
        algebra (the split form or inst.A).  Symmetric ramified orbits give
        gamma -> sign^{v_E(gamma)} with B's Brauer 2-torsion sign, whatever
        the tower; all others give their symbol character when the half-level
        of their layer lies in ord(alpha) of B's principal order.  The table
        of (B, level a, or -1 at depth -1) is built whole, then stored; it
        holds each orbit's character, or _symbol for _char to evaluate."""
        k = row.depths[i]
        a = -1 if k == -1 else row.levels[k]
        table = self._eps.get((B, a))
        if table is None:
            table = self._eps[B, a] = [
                TameQuadChar(1, brauer_torsion_sign(B, o.n_pm))
                if o.cls is RootClass.SYMMETRIC_RAMIFIED
                else _symbol if a != -1 and ord_contains(self.X, B, o, a) else TRIVIAL_CHAR
                for o in self.orbits
            ]
        eps = table[i]
        return self._char(i, _symbol) if eps is _symbol else eps

    def zeta(self, i: int, row: ShapeRow, inst: Instance) -> TameQuadChar:
        """The zeta-side character of orbit i in inst (row is the row of
        inst.shape), restricted to E^x.  Asymmetric: the sign character raised
        to the number of sides (A, split form) whose module class is U.
        Symmetric with isomorphic modules (equal classes): the t-factors cancel
        and the value on pi_E is iota; an unramified orbit is trivial at depth
        -1, where both modules vanish, and must have iota = +1 at depth >= 0
        (IotaIncoherence otherwise).  Symmetric non-isomorphic (only
        unramified, m odd): the k^1 symbol character."""
        o, split_class = self.orbits[i], row.split_classes[i]
        given = finmod.v_module(self.X, inst.A, inst.shape, o.rep)
        if o.cls is RootClass.ASYMMETRIC:
            u_sides = (given is finmod.ModuleClass.U) + (split_class is finmod.ModuleClass.U)
            return self._char(i, _sign) if u_sides == 1 else TRIVIAL_CHAR  # a sign squared is 1
        if given != split_class:
            if o.cls is not RootClass.SYMMETRIC_UNRAMIFIED:
                raise InvariantViolation(
                    f"symmetric ramified orbit {o.ij}: module classes differ across sides"
                )
            return self._char(i, _symbol)
        if o.cls is RootClass.SYMMETRIC_RAMIFIED:
            return TameQuadChar(1, iota(inst, o))
        if row.depths[i] == -1:
            return TRIVIAL_CHAR
        sign = iota(inst, o)
        if sign != 1:
            raise IotaIncoherence(f"iota={sign} on isomorphic symmetric unramified orbit {o.ij}")
        return TameQuadChar(1, sign)


def _symbol(orbit: RootOrbit, x) -> int:
    """The k^x symbol of an asymmetric orbit, the k^1 symbol of a symmetric one."""
    if orbit.cls is RootClass.ASYMMETRIC:
        return chartools.legendre_kx(orbit.Q_alpha, x)
    return chartools.legendre_k1(orbit.Q_alpha, orbit.q_pm, x)


def _sign(orbit: RootOrbit, x) -> int:
    return chartools.perm_sign(orbit.Q_alpha, x)


def epsilon_alpha(inst: Instance, orbit: RootOrbit, B: CsaParams) -> TameQuadChar:
    """FieldPass.epsilon for one orbit of inst and the gating algebra B."""
    P = FieldPass(inst.X, (orbit,))
    return P.epsilon(0, P.row(inst.shape), B)


def epsilon_total(inst: Instance, B: CsaParams) -> TameQuadChar:
    """Product of the epsilon characters for the gating algebra B over
    asymmetric pairs (once per pair) and symmetric orbits."""
    P = FieldPass(inst.X)
    row = P.row(inst.shape)
    return prod((P.epsilon(i, row, B) for i in range(len(P.orbits))), start=TRIVIAL_CHAR)


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
    """FieldPass.zeta for one orbit of inst."""
    P = FieldPass(inst.X, (orbit,))
    return P.zeta(0, P.row(inst.shape), inst)


def nu_zeta_total(inst: Instance) -> TameQuadChar:
    """Product of the zeta characters over asymmetric pairs and symmetric orbits."""
    P = FieldPass(inst.X)
    row = P.row(inst.shape)
    return prod((P.zeta(i, row, inst) for i in range(len(P.orbits))), start=TRIVIAL_CHAR)


def verify_instance(inst: Instance, field: FieldPass | None = None) -> Report:
    """Check the identity of every primary orbit, computing each per-orbit
    character once; the report's aggregates are the products of the verdicts.
    field is the pass of inst.X that a sweep shares among its instances."""
    X, A = inst.X, inst.A
    if A.n != X.n:
        raise DimensionMismatch(f"m*d={A.n} but e*f={X.n}")
    P = FieldPass(X) if field is None else field
    if P.X is not X and P.X.params != X.params:
        raise ValueError(f"the pass is for {P.X.params}, not {X.params}")
    row = P.row(inst.shape)
    depths, split_eps = row.depths, row.split_eps
    verdicts = tuple(
        OrbitVerdict(o.ij, o.partner_ij, o.cls, depths[i], lhs=P.zeta(i, row, inst),
                     rhs=split_eps[i] * P.epsilon(i, row, A))
        for i, o in enumerate(P.orbits)
    )
    return Report(instance=inst, verdicts=verdicts)


@dataclass(frozen=True)
class GridSpec:
    """Sweep universe: residue cardinalities, torus degree bound, nonzero-w
    sampling, tower bounds, and the admissibility filter.

    A q that is not an odd prime power or repeats, n_max < 1, or a negative
    w_extra, t_max or a_max raises ValueError."""

    q_list: tuple[int, ...]
    n_max: int
    w_extra: int = 0
    w_seed: int = 0
    t_max: int = 0
    a_max: int = 0
    strict_admissible: bool = False

    def __post_init__(self):
        for q in self.q_list:
            if radical_prime(q) == 2:
                raise ValueError(f"q={q} must be odd")
        if len(set(self.q_list)) != len(self.q_list):
            raise ValueError(f"q_list {self.q_list} repeats a value")
        for name, low in (("n_max", 1), ("w_extra", 0), ("t_max", 0), ("a_max", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} = {getattr(self, name)} is below {low}")


@dataclass(frozen=True)
class SweepSummary:
    params_count: int
    instances: int
    orbits_checked: int
    failures: tuple[dict, ...]
    skipped_nonstrict: int = 0


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


FAILURE_COLUMNS = ("q", "e", "f", "w", "m", "d", "h", "tower", "levels",
                   "orbits", "lhs", "rhs", "aggregate_lhs", "aggregate_rhs")


def _cell(char: TameQuadChar) -> str:
    return f"{char.on_unit_gen},{char.on_uniformizer}"


def _row(inst: Instance, *cells: str) -> dict:
    """The `verify` arguments that replay inst, then the given orbits, lhs,
    rhs and aggregate cells, keyed by FAILURE_COLUMNS."""
    p, A, shape = inst.X.params, inst.A, inst.shape
    towers = ",".join(subgroup_selector(inst.X, H) for H in shape.subgroups[:-1])
    levels = ",".join(str(a) for a in shape.levels)
    coords = (p.q, p.e, p.f, p.w, A.m, A.d, A.h, towers or "-", levels or "-")
    return dict(zip(FAILURE_COLUMNS, coords + cells, strict=True))


def failure_row(report: Report) -> dict:
    """Replayable coordinates plus the mismatching values."""
    bad = [v for v in report.verdicts if not v.passed]
    return _row(
        report.instance,
        ";".join(f"{v.ij[0]},{v.ij[1]}" for v in bad) or "-",
        ";".join(_cell(v.lhs) for v in bad),
        ";".join(_cell(v.rhs) for v in bad),
        _cell(report.aggregate_lhs),
        _cell(report.aggregate_rhs),
    )


def error_row(inst: Instance, exc: TametoriError) -> dict:
    """Replayable coordinates of an instance whose check raised; the orbits
    cell names the error class and the value cells are blank."""
    return _row(inst, f"error:{type(exc).__name__}", "-", "-", "-", "-")


def _field_shapes(grid: GridSpec, params: ExtensionParams):
    """A field's model, the shapes the grid keeps, its algebras, and the
    number of instances the strict filter skips."""
    X = build_extension(params)
    shapes = tower.enumerate_shapes(X, grid.t_max, grid.a_max)
    algebras = grid_algebras(X.n)
    strict = grid.strict_admissible
    kept = [s for s in shapes if not strict or inertia_order(s.subgroups[0]) == 1]
    return X, kept, algebras, (len(shapes) - len(kept)) * len(algebras)


def _sweep_param(args: tuple[GridSpec, ExtensionParams]) -> tuple[int, int, int, list[dict]]:
    X, shapes, algebras, skipped = _field_shapes(*args)
    field = FieldPass(X)
    orbits = 0
    failures: list[dict] = []
    for inst in (Instance(X, A, shape) for shape in shapes for A in algebras):
        try:
            report = verify_instance(inst, field)
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
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool
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
