"""Acceptance suite: ten exact criteria over the full verification grid.

Each test prints exactly one `C<k> PASS`/`C<k> FAIL` line (run pytest with -s
to see them on success); every check is integer/sign arithmetic with zero
tolerance.  The grid is ACCEPT_GRID from conftest: q in {3,5,7,9,11}, all tame
e*f <= 8, w = 0 plus two sampled nonzero presentations per field, every inner
form, every tower shape with t <= 2 and levels <= 6.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from tametori.chartools import (
    TRIVIAL_CHAR,
    MuExponent,
    legendre_kx,
    perm_sign,
    perm_sign_bruteforce,
)
from tametori.csa import (
    CsaParams,
    brauer_torsion_sign,
    order_invariants,
    split_algebra,
)
from tametori.errors import NotTwoTorsion
from tametori.finmod import ModuleClass, symp_iso_direct, u_dim, v_module
from tametori.identities import (
    Instance,
    epsilon_alpha,
    grid_algebras,
    grid_extension_params,
    iota,
    sweep,
    verify_instance,
    zeta_restricted,
)
from tametori.localfield import ExtensionParams, build_extension, radical_prime
from tametori.roots import (
    RootClass,
    enumerate_orbits,
    orbit_by_label,
    orbit_with_rep,
    ord_contains,
)
from tametori.tower import TowerShape, depth_index, enumerate_shapes, interval_subgroups

from conftest import ACCEPT_GRID, model, shape_t0
from oracles import classify_by_criterion, graded_piece, symp_iso_criterion


def emit(k: int, ok: bool, detail: str) -> None:
    print(f"C{k} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def main_sweep():
    t0 = time.perf_counter()
    summary = sweep(ACCEPT_GRID)
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="session")
def grid_scan():
    """One pass over every (field, algebra, shape, orbit) of the grid,
    collecting the raw material for criteria 2, 3 and 8."""
    c2 = {"checks": 0, "bad": []}
    c3 = {"checks": 0, "bad": []}
    c8 = {"checks": 0, "bad": []}
    for params in grid_extension_params(ACCEPT_GRID):
        X = build_extension(params)
        orbits = enumerate_orbits(X)
        shapes = enumerate_shapes(X, ACCEPT_GRID.t_max, ACCEPT_GRID.a_max)
        S = split_algebra(X.n)
        for A in grid_algebras(X.n):
            for shape in shapes:
                inst = Instance(X, A, shape)
                for o in orbits:
                    where = (params, (A.m, A.d, A.h), shape.levels, o.ij)
                    k = depth_index(X, shape, o.rep)
                    nonzero = v_module(X, A, shape, o.rep) is not ModuleClass.ZERO
                    if k == -1:
                        in_ord = False
                    else:
                        in_ord = ord_contains(
                            X, A, o, Fraction(shape.levels[k], 2 * X.e)
                        )
                    c3["checks"] += 1
                    if nonzero != in_ord:
                        c3["bad"].append(where)
                    if not o.symmetric:
                        continue
                    direct = symp_iso_direct(X, A, shape, o)
                    c2["checks"] += 1
                    if k == -1:
                        split_zero = (
                            v_module(X, S, shape, o.rep) is ModuleClass.ZERO
                        )
                        if nonzero or not split_zero or not direct:
                            c2["bad"].append(where)
                    else:
                        if direct != symp_iso_criterion(X, A, o):
                            c2["bad"].append(where)
                        if o.cls is RootClass.SYMMETRIC_UNRAMIFIED and direct:
                            c8["checks"] += 1
                            if iota(inst, o) != 1:
                                c8["bad"].append(where)
    return c2, c3, c8


def test_criterion_1_main_theorem_sweep(main_sweep):
    summary, elapsed = main_sweep
    ok = (
        summary.failures == ()
        and summary.instances >= 10_000
        and elapsed < 120.0
    )
    emit(
        1,
        ok,
        f"main-theorem sweep: {summary.instances} instances, "
        f"{summary.orbits_checked} orbit identities, "
        f"{len(summary.failures)} failures, {elapsed:.1f}s",
    )
    assert summary.failures == (), summary.first_failure
    assert summary.instances >= 10_000
    assert elapsed < 120.0


def test_criterion_2_module_dichotomy(grid_scan):
    c2, _, _ = grid_scan
    ok = not c2["bad"]
    emit(
        2,
        ok,
        f"module dichotomy: direct = closed form on {c2['checks']} symmetric "
        f"orbit layers (vacuous below the first jump), {len(c2['bad'])} disagreements",
    )
    assert not c2["bad"], c2["bad"][:3]
    assert c2["checks"] > 100_000


def test_criterion_3_ord_module_dual(grid_scan):
    _, c3, _ = grid_scan
    ok = not c3["bad"]
    emit(
        3,
        ok,
        f"ord/module dual: v nonzero iff half-level in ord support, "
        f"{c3['checks']} orbit layers, {len(c3['bad'])} disagreements",
    )
    assert not c3["bad"], c3["bad"][:3]
    assert c3["checks"] > 300_000


def test_criterion_4_graded_bookkeeping():
    checks = 0
    bad = []
    for params in grid_extension_params(ACCEPT_GRID):
        X = build_extension(params)
        for A in grid_algebras(X.n):
            inv = order_invariants(X, A)
            want = inv.r * inv.s**2 * A.d
            for jp in range(inv.e_F):
                got = sum(
                    u_dim(X, None if ij == (0, 0) else orbit_by_label(X, ij))
                    for ij in graded_piece(X, A, jp)
                )
                checks += 1
                if got != want:
                    bad.append((params, (A.m, A.d, A.h), jp, got, want))
    emit(
        4,
        not bad,
        f"graded bookkeeping: every graded piece has dimension r s^2 [k_D:k_F], "
        f"{checks} pieces, {len(bad)} mismatches",
    )
    assert not bad, bad[:3]


def test_criterion_5_classification_dual():
    checks = 0
    bad = []
    for params in grid_extension_params(ACCEPT_GRID):
        X = build_extension(params)
        ram = 0
        for o in enumerate_orbits(X):
            checks += 1
            if classify_by_criterion(X, o) is not o.cls:
                bad.append(("criterion", params, o.ij))
            if o.symmetric and not (o.j == 0 or 2 * o.j == X.f):
                bad.append(("j-range", params, o.ij))
            if o.cls is RootClass.SYMMETRIC_RAMIFIED:
                ram += 1
        if ram != (1 if X.e % 2 == 0 else 0):
            bad.append(("ram-count", params, ram))
    emit(
        5,
        not bad,
        f"classification dual: both routes agree on {checks} orbits, j in "
        f"{{0, f/2}} for symmetric, one ramified orbit iff e even; "
        f"{len(bad)} violations",
    )
    assert not bad, bad[:3]


@pytest.mark.slow
def test_criterion_6_sign_symbol_identity():
    # part 1: the closed forms agree on every residue field arising in the grid
    qset = set()
    for params in grid_extension_params(ACCEPT_GRID):
        X = build_extension(params)
        qset.update(o.Q_alpha for o in enumerate_orbits(X))
    sym_checks = 0
    bad = []
    for Q in sorted(qset):
        for k in range(Q - 1):
            x = MuExponent(k, Q - 1)
            sym_checks += 1
            if perm_sign(Q, x) != legendre_kx(Q, x):
                bad.append((Q, k))
    # part 2: the closed form against the honest cycle walk, every odd prime
    # power field with at most 2000 elements, every multiplier
    prime_powers = []
    for Q in range(3, 2001, 2):
        try:
            radical_prime(Q)
        except ValueError:
            continue
        prime_powers.append(Q)
    assert len(prime_powers) == 323
    brute_checks = 0
    for Q in prime_powers:
        for k in range(Q - 1):
            x = MuExponent(k, Q - 1)
            brute_checks += 1
            if perm_sign(Q, x) != perm_sign_bruteforce(Q, x):
                bad.append(("brute", Q, k))
    emit(
        6,
        not bad,
        f"sign-symbol identity: perm sign = Legendre on {sym_checks} grid "
        f"values and = brute force on {brute_checks} values over "
        f"{len(prime_powers)} fields; {len(bad)} mismatches",
    )
    assert not bad, bad[:3]


def test_criterion_7_brauer_two_torsion():
    checks = 0
    bad = []
    for params in grid_extension_params(ACCEPT_GRID):
        X = build_extension(params)
        sym = [o for o in enumerate_orbits(X) if o.symmetric]
        for A in grid_algebras(X.n):
            for o in sym:
                checks += 1
                try:
                    brauer_torsion_sign(A, o.n_pm)
                except NotTwoTorsion:
                    bad.append(("torsion", params, (A.m, A.d, A.h), o.ij))
                if o.cls is RootClass.SYMMETRIC_RAMIFIED:
                    if o.n_pm != X.n // 2:
                        bad.append(("n_pm", params, o.ij, o.n_pm))
                    want = -1 if A.m % 2 else 1
                    if brauer_torsion_sign(A, X.n // 2) != want:
                        bad.append(("sign", params, (A.m, A.d, A.h)))
    emit(
        7,
        not bad,
        f"Brauer 2-torsion: n_pm [A] is 2-torsion on {checks} symmetric "
        f"orbit/algebra pairs and the ramified sign is (-1)^m; "
        f"{len(bad)} violations",
    )
    assert not bad, bad[:3]


def test_criterion_8_iota_coherence(grid_scan):
    _, _, c8 = grid_scan
    ok = not c8["bad"]
    emit(
        8,
        ok,
        f"iota coherence: +1 on every isomorphic symmetric unramified orbit "
        f"meeting a layer, {c8['checks']} checks, {len(c8['bad'])} violations",
    )
    assert not c8["bad"], c8["bad"][:3]
    assert c8["checks"] > 10_000


def _mutation_targets():
    def one(qefw, mdh, levels):
        X = model(*qefw)
        full = interval_subgroups(X)[-1]
        shape = (
            TowerShape(subgroups=(X.gamma_E, full), levels=levels)
            if levels
            else shape_t0(X)
        )
        return Instance(X, CsaParams(*mdh), shape)

    return {
        "iota": one((3, 2, 1, 0), (1, 2, 1), (1,)),
        "legendre": one((3, 1, 4, 0), (2, 2, 1), (1,)),
        "module": one((3, 1, 2, 0), (1, 2, 1), (1,)),
    }


def test_criterion_9_controls(monkeypatch):
    import tametori.chartools as ct
    import tametori.finmod as fm
    import tametori.identities as ident

    # degenerate control: n = 1 is all-trivial and passes
    triv = Instance(
        build_extension(ExtensionParams(3, 1, 1, 0)),
        CsaParams(1, 1, 0),
        shape_t0(build_extension(ExtensionParams(3, 1, 1, 0))),
    )
    report = verify_instance(triv)
    degenerate_ok = (
        report.passed
        and report.verdicts == ()
        and report.aggregate_lhs == report.aggregate_rhs == TRIVIAL_CHAR
    )

    # negative controls: each single-point mutation must flip at least one
    # verdict somewhere in the grid; the targets below are minimal witnesses
    targets = _mutation_targets()
    baseline_ok = all(verify_instance(i).passed for i in targets.values())

    detected = {}
    real_iota = ident.iota
    monkeypatch.setattr(ident, "iota", lambda inst, o: -real_iota(inst, o))
    detected["iota"] = not verify_instance(targets["iota"]).passed
    monkeypatch.setattr(ident, "iota", real_iota)

    real_kx = ct.legendre_kx
    monkeypatch.setattr(ct, "legendre_kx", lambda Q, x: -real_kx(Q, x))
    detected["legendre"] = not verify_instance(targets["legendre"]).passed
    monkeypatch.setattr(ct, "legendre_kx", real_kx)

    real_v = fm.v_module

    def flipped(X, A, shape, g):
        out = real_v(X, A, shape, g)
        if A.d == 1:
            return out
        return ModuleClass.U if out is ModuleClass.ZERO else ModuleClass.ZERO

    monkeypatch.setattr(fm, "v_module", flipped)
    detected["module"] = not verify_instance(targets["module"]).passed
    monkeypatch.setattr(fm, "v_module", real_v)

    restored_ok = all(verify_instance(i).passed for i in targets.values())
    ok = degenerate_ok and baseline_ok and restored_ok and all(detected.values())
    emit(
        9,
        ok,
        f"controls: n=1 trivial pass = {degenerate_ok}; mutations detected: "
        + ", ".join(f"{k}={v}" for k, v in sorted(detected.items())),
    )
    assert degenerate_ok
    assert baseline_ok and restored_ok
    assert all(detected.values()), detected


def test_criterion_10_representative_independence():
    rng = random.Random(101)
    params_list = grid_extension_params(ACCEPT_GRID)
    checked = 0
    attempts = 0
    bad = []
    while checked < 100:
        attempts += 1
        assert attempts < 20_000, "not enough multi-label orbits in the grid"
        params = rng.choice(params_list)
        X = build_extension(params)
        orbits = enumerate_orbits(X)
        if not orbits:
            continue
        orbit = rng.choice(orbits)
        others = [ij for ij in orbit.labels if ij != orbit.ij]
        if not others:
            continue
        alt = orbit_with_rep(X, orbit, rng.choice(others))
        A = rng.choice(grid_algebras(X.n))
        shape = rng.choice(
            enumerate_shapes(X, ACCEPT_GRID.t_max, ACCEPT_GRID.a_max)
        )
        inst = Instance(X, A, shape)
        for B in (split_algebra(X.n), A):
            if epsilon_alpha(inst, orbit, B) != epsilon_alpha(inst, alt, B):
                bad.append(("epsilon", params, orbit.ij, alt.ij, B))
        if zeta_restricted(inst, orbit) != zeta_restricted(inst, alt):
            bad.append(("zeta", params, orbit.ij, alt.ij))
        if orbit.symmetric and iota(inst, orbit) != iota(inst, alt):
            bad.append(("iota", params, orbit.ij, alt.ij))
        checked += 1
    emit(
        10,
        not bad,
        f"representative independence: {checked} random orbits recomputed "
        f"from alternative coset labels, {len(bad)} discrepancies",
    )
    assert not bad, bad[:3]
