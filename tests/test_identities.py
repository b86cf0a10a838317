"""Epsilon/zeta character identities: worked examples, sweeps, replays."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tametori.chartools import TRIVIAL_CHAR, TameQuadChar
from tametori.csa import CsaParams, split_algebra
from tametori.errors import IotaIncoherence, NotSymmetric, NotTwoTorsion
from tametori.identities import (
    FAILURE_COLUMNS,
    FieldPass,
    GridSpec,
    Instance,
    Report,
    epsilon_alpha,
    epsilon_total,
    error_row,
    failure_row,
    grid_algebras,
    grid_extension_params,
    iota,
    nu_zeta_total,
    plan,
    sweep,
    verify_instance,
    zeta_restricted,
)
from tametori.localfield import ExtensionParams, build_extension
from tametori.roots import RootClass, enumerate_orbits, ord_contains
from tametori.tower import enumerate_shapes, parse_selector

from conftest import model, orbit_by_label, real_field, shape_from_bottoms, shape_t0


def make_instance(qefw, mdh, bottoms, levels):
    X = model(*qefw)
    shape = (
        shape_t0(X)
        if not levels
        else shape_from_bottoms(X, [parse_selector(X, b) for b in bottoms], levels)
    )
    return Instance(X, CsaParams(*mdh), shape)


def test_worked_example_3_1_2():
    """Quadratic unramified torus in the quaternion-type algebra, one jump at
    level 1: the lone symmetric orbit has non-isomorphic modules and both
    sides evaluate to (-1, +1)."""
    inst = make_instance((3, 1, 2, 0), (1, 2, 1), ["E"], (1,))
    (orbit,) = enumerate_orbits(inst.X)
    lhs = zeta_restricted(inst, orbit)
    assert lhs == TameQuadChar(-1, 1)
    eps_split = epsilon_alpha(inst, orbit, split_algebra(inst.X.n))
    eps_given = epsilon_alpha(inst, orbit, inst.A)
    assert eps_split == TRIVIAL_CHAR
    assert eps_given == TameQuadChar(-1, 1)
    report = verify_instance(inst)
    assert report.passed
    assert report.aggregate_lhs == TameQuadChar(-1, 1)
    assert len(report.verdicts) == 1
    assert report.verdicts[0].depth == 0


def test_worked_example_split_side_trivial():
    """Same torus in the split algebra: everything is trivial."""
    inst = make_instance((3, 1, 2, 0), (2, 1, 0), ["E"], (1,))
    report = verify_instance(inst)
    assert report.passed
    assert report.aggregate_lhs == report.aggregate_rhs == TRIVIAL_CHAR


def test_sym_ram_orbit_3_2_1():
    """Ramified quadratic torus: the symmetric ramified orbit contributes the
    Brauer torsion sign on both sides regardless of tower."""
    inst = make_instance((3, 2, 1, 0), (1, 2, 1), [], ())
    (orbit,) = enumerate_orbits(inst.X)
    assert orbit.cls is RootClass.SYMMETRIC_RAMIFIED
    assert iota(inst, orbit) == -1
    assert zeta_restricted(inst, orbit) == TameQuadChar(1, -1)
    assert epsilon_alpha(inst, orbit, inst.A) == TameQuadChar(1, -1)
    assert epsilon_alpha(inst, orbit, split_algebra(inst.X.n)) == TameQuadChar(1, 1)
    report = verify_instance(inst)
    assert report.passed
    assert report.aggregate_lhs == TameQuadChar(1, -1)


def test_depth_minus_one_iota_can_be_minus_one():
    """(5,2,2) with A = M_1(D_4), t = 0: the symmetric unramified orbit [sigma
    phi] has iota = -1 but sits at depth -1, so zeta is trivial and the
    instance still passes."""
    inst = make_instance((5, 2, 2, 0), (1, 4, 1), [], ())
    orbit = orbit_by_label(inst.X, (1, 1))
    assert orbit.cls is RootClass.SYMMETRIC_UNRAMIFIED
    assert iota(inst, orbit) == -1
    assert zeta_restricted(inst, orbit) == TRIVIAL_CHAR
    report = verify_instance(inst)
    assert report.passed


def test_iota_frozen_values():
    inst = make_instance((5, 2, 2, 0), (1, 4, 1), [], ())
    X = inst.X
    assert iota(inst, orbit_by_label(X, (0, 1))) == 1  # rep = phi has a = 0
    assert iota(inst, orbit_by_label(X, (1, 0))) == -1  # sym-ram, m odd
    assert iota(inst, orbit_by_label(X, (1, 1))) == -1
    even = Instance(X, CsaParams(2, 2, 1), inst.shape)
    assert iota(even, orbit_by_label(X, (1, 1))) == 1  # m even
    inst2 = make_instance((5, 4, 1, 0), (4, 1, 0), [], ())
    with pytest.raises(NotSymmetric):
        iota(inst2, orbit_by_label(inst2.X, (1, 0)))


def test_asymmetric_pair_visited_once():
    inst = make_instance((5, 4, 1, 0), (2, 2, 1), ["E"], (2,))
    report = verify_instance(inst)
    ijs = [v.ij for v in report.verdicts]
    assert ijs == [(1, 0), (2, 0)]
    assert report.passed


def test_trivial_torus_n_1():
    for mdh in [(1, 1, 0)]:
        inst = make_instance((3, 1, 1, 0), mdh, [], ())
        report = verify_instance(inst)
        assert report.passed
        assert report.verdicts == ()
        assert report.aggregate_lhs == report.aggregate_rhs == TRIVIAL_CHAR


def test_grid_algebras_frozen():
    assert grid_algebras(4) == (
        CsaParams(4, 1, 0),
        CsaParams(2, 2, 1),
        CsaParams(1, 4, 1),
        CsaParams(1, 4, 3),
    )
    assert grid_algebras(1) == (CsaParams(1, 1, 0),)
    assert len(grid_algebras(6)) == 1 + 1 + 2 + 2  # d = 1, 2, 3, 6


def test_grid_extension_params_deterministic():
    grid = GridSpec(q_list=(3, 5), n_max=3, w_extra=2, w_seed=11)
    a = grid_extension_params(grid)
    b = grid_extension_params(grid)
    assert a == b
    assert all(p.w == 0 or 0 < p.w < p.q**p.f - 1 for p in a)
    zero_ws = [p for p in a if p.w == 0]
    # every tame (q, e, f) with e*f <= 3 appears with w = 0
    assert ExtensionParams(3, 1, 3, 0) in zero_ws
    assert ExtensionParams(3, 2, 1, 0) in zero_ws
    assert ExtensionParams(5, 2, 1, 0) in zero_ws
    assert all(p.e % 3 for p in a if p.q == 3)
    changed = grid_extension_params(
        GridSpec(q_list=(3, 5), n_max=3, w_extra=2, w_seed=12)
    )
    assert changed != a


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(q_list=(3, 3), n_max=2),  # plan used to count 6 params, not 3
        dict(q_list=(3,), n_max=2, t_max=-1),  # plan used to count 5 instances
        dict(q_list=(3, 4), n_max=2),  # no prime power
        dict(q_list=(9, 2), n_max=2),  # even
        dict(q_list=(3,), n_max=0),
        dict(q_list=(3,), n_max=2, w_extra=-1),
        dict(q_list=(3,), n_max=2, a_max=-1),
    ],
)
def test_gridspec_rejects_malformed_grids(kwargs):
    """Every route to a sweep (the config file, a library caller) gets the
    same checks, before any planning."""
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_mini_sweep_passes():
    grid = GridSpec(q_list=(3, 5), n_max=4, w_extra=0, t_max=1, a_max=4)
    summary = sweep(grid)
    assert summary.failures == ()
    assert summary.instances > 100
    assert summary.skipped_nonstrict == 0


def test_strict_admissible_skips():
    """The strict filter drops instances whose FULL chain starts ramified;
    that is exactly the t = 0 shapes of models with e > 1, once per algebra
    (towers with t >= 1 already have unramified bottoms by construction), as
    the README's `strict = 1` sentence says."""
    base = GridSpec(q_list=(5,), n_max=4, w_extra=0, t_max=1, a_max=2)
    strict = GridSpec(
        q_list=(5,), n_max=4, w_extra=0, t_max=1, a_max=2, strict_admissible=True
    )
    s_base = sweep(base)
    s_strict = sweep(strict)
    assert s_base.skipped_nonstrict == 0
    assert s_strict.failures == ()
    assert s_strict.skipped_nonstrict > 0
    assert s_strict.instances + s_strict.skipped_nonstrict == s_base.instances
    wide = GridSpec((3, 5, 7), 6, w_extra=2, w_seed=5, t_max=2, a_max=3,
                    strict_admissible=True)
    for grid in (strict, wide):
        ramified = sum(
            len(grid_algebras(p.e * p.f)) for p in grid_extension_params(grid) if p.e > 1
        )
        assert plan(grid).skipped_nonstrict == ramified
        # the t = 0 shapes alone account for every skip
        assert plan(replace(grid, t_max=0)).skipped_nonstrict == ramified
    assert plan(wide).skipped_nonstrict == 253


def test_import_loads_no_process_pool():
    """Only sweep(jobs > 1) needs concurrent.futures, so importing the
    package and its CLI loads neither it nor multiprocessing."""
    import tametori

    src = str(Path(tametori.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, tametori, tametori.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sweep_jobs_deterministic():
    grid = GridSpec(q_list=(3,), n_max=4, w_extra=1, w_seed=7, t_max=1, a_max=3)
    seq = sweep(grid, jobs=1)
    par = sweep(grid, jobs=2)
    assert seq == par


def test_failure_row_replay_coordinates():
    """failure_row of any report (passing ones included) carries coordinates
    that reconstruct the exact instance."""
    inst = make_instance((3, 1, 4, 0), (2, 2, 1), ["E", "2.0"], (1, 3))
    report = verify_instance(inst)
    row = failure_row(report)
    assert (row["q"], row["e"], row["f"], row["w"]) == (3, 1, 4, 0)
    assert (row["m"], row["d"], row["h"]) == (2, 2, 1)
    assert row["tower"] == "4.0,2.0"
    assert row["levels"] == "1,3"
    X2 = build_extension(ExtensionParams(row["q"], row["e"], row["f"], row["w"]))
    bottoms = [parse_selector(X2, tok) for tok in row["tower"].split(",")]
    levels = tuple(int(s) for s in row["levels"].split(","))
    shape2 = shape_from_bottoms(X2, bottoms, levels)
    assert Instance(X2, CsaParams(row["m"], row["d"], row["h"]), shape2) == inst
    assert row["orbits"] == "-"  # no failing verdicts on a passing report


def test_raising_instance_is_a_failure_row(monkeypatch):
    """A TametoriError from one instance becomes a failure row with its replay
    coordinates and the error class; the other instances are still checked."""
    import tametori.identities as ident

    grid = GridSpec(q_list=(3,), n_max=4, w_extra=1, w_seed=7, t_max=1, a_max=3)
    clean = sweep(grid)
    target = make_instance((3, 1, 4, 0), (2, 2, 1), ["2.0"], (2,))
    real = ident.verify_instance

    def flaky(inst, *rest):
        if inst == target:
            raise IotaIncoherence("forced")
        return real(inst, *rest)

    monkeypatch.setattr(ident, "verify_instance", flaky)
    summary = sweep(grid)
    assert summary.instances == clean.instances
    assert summary.orbits_checked == clean.orbits_checked - len(real(target).verdicts)
    assert summary.failures == (error_row(target, IotaIncoherence("forced")),)
    row = summary.failures[0]
    assert row["orbits"] == "error:IotaIncoherence"
    assert (row["q"], row["e"], row["f"], row["w"]) == (3, 1, 4, 0)
    assert (row["m"], row["d"], row["h"], row["tower"], row["levels"]) == (2, 2, 1, "2.0", "2")
    assert list(row) == list(failure_row(real(target)))


def test_failure_row_t0():
    inst = make_instance((3, 2, 1, 0), (1, 2, 1), [], ())
    row = failure_row(verify_instance(inst))
    assert row["tower"] == "-" and row["levels"] == "-"


def test_failure_and_error_rows_share_one_schema():
    """Failure rows and error rows have the keys of FAILURE_COLUMNS, in its
    order, on a failing and a passing report."""
    inst = make_instance((3, 1, 4, 0), (2, 2, 1), ["E", "2.0"], (1, 3))
    report = verify_instance(inst)
    bad = Report(inst, tuple(v._replace(lhs=v.lhs * TameQuadChar(-1, 1)) for v in report.verdicts))
    assert not bad.passed
    for r in (report, bad):
        assert tuple(failure_row(r)) == tuple(error_row(inst, IotaIncoherence("x"))) == FAILURE_COLUMNS
    assert failure_row(bad)["lhs"].count(";") == len(bad.verdicts) - 1


def test_aggregate_equals_verdict_product():
    """The aggregates of a report are the verdict products; nu and the two
    epsilon totals, computed orbit by orbit on their own, factor the same way
    on every instance of a small grid."""
    grid = GridSpec((3, 5, 7), n_max=6, w_extra=1, t_max=2, a_max=4)
    checked = nontrivial = 0
    for params in grid_extension_params(grid):
        X = build_extension(params)
        for shape in enumerate_shapes(X, grid.t_max, grid.a_max):
            for A in grid_algebras(X.n):
                inst = Instance(X, A, shape)
                report = verify_instance(inst)
                assert report.aggregate_lhs == nu_zeta_total(inst)
                assert report.aggregate_rhs == epsilon_total(
                    inst, split_algebra(X.n)
                ) * epsilon_total(inst, A)
                checked += 1
                nontrivial += report.aggregate_lhs != TRIVIAL_CHAR
    assert checked == sweep(grid).instances
    assert 0 < nontrivial < checked


def test_epsilon_gate_opens_per_side(monkeypatch):
    """(3,1,4) with A = (2,2,1), E_0 = E, level 1: the half-level 1/2 gives an
    integral graded index only against the order of A (e_F = 2), not of the
    split form (e_F = 1).  The k^x symbol is evaluated exactly for the open
    side."""
    import tametori.chartools as ct

    inst = make_instance((3, 1, 4, 0), (2, 2, 1), ["E"], (1,))
    pair = orbit_by_label(inst.X, (0, 1))
    calls = []

    def counting_kx(Q, x, _real=ct.legendre_kx):
        calls.append(Q)
        return _real(Q, x)

    monkeypatch.setattr(ct, "legendre_kx", counting_kx)
    assert epsilon_alpha(inst, pair, split_algebra(inst.X.n)) == TRIVIAL_CHAR
    assert calls == []  # gate closed: no symbol evaluated
    eps_given = epsilon_alpha(inst, pair, inst.A)
    assert calls == [81, 81]  # gate open: both generators evaluated
    assert eps_given == TameQuadChar(1, 1)  # values happen to be trivial here
    assert verify_instance(inst).passed


def test_report_structure():
    inst = make_instance((5, 2, 2, 0), (1, 4, 1), ["E"], (1,))
    report = verify_instance(inst)
    assert isinstance(report, Report)
    assert {v.cls for v in report.verdicts} <= set(RootClass)
    for v in report.verdicts:
        assert v.passed == (v.lhs == v.rhs)
    assert report.passed


def test_sweep_sees_patched_functions(monkeypatch):
    """A sweep builds its field passes within the call, so it reads iota and
    the k^x symbol when it runs: each negation (criterion 9's mutations, whose
    targets this grid contains) shows up as failures, and the same sweep is
    clean again once they are restored."""
    import tametori.chartools as ct
    import tametori.identities as ident

    grid = GridSpec((3,), n_max=4, t_max=1, a_max=1)
    clean = sweep(grid)
    assert clean.failures == ()
    real_iota, real_kx = ident.iota, ct.legendre_kx
    monkeypatch.setattr(ident, "iota", lambda inst, o: -real_iota(inst, o))
    assert sweep(grid).failures
    monkeypatch.setattr(ident, "iota", real_iota)
    monkeypatch.setattr(ct, "legendre_kx", lambda Q, x: -real_kx(Q, x))
    assert sweep(grid).failures
    monkeypatch.setattr(ct, "legendre_kx", real_kx)
    assert sweep(grid) == clean


BUDGET_GRID = GridSpec((3, 5), n_max=4, w_extra=1, t_max=2, a_max=4)


def test_field_pass_call_budget(monkeypatch):
    """One pass per field: at most two root values per character and two
    characters per primary orbit; one depth lookup from identities per
    (shape, primary orbit), however many algebras share the field; the
    epsilon gate, ord_contains or brauer_torsion_sign, at most once per
    (gating algebra, level, primary orbit), depth -1 counting as a level;
    and finmod.v_module exactly once per (instance, primary orbit) plus once
    per (shape, primary orbit) for the split form, so criterion 9's patch of
    it reaches every instance."""
    import tametori.finmod as fm
    import tametori.identities as ident
    import tametori.tower as tw

    orbits = depth_budget = gate_budget = modules = 0
    for params in grid_extension_params(BUDGET_GRID):
        X = build_extension(params)
        primary = sum(o.symmetric or o.ij < o.partner_ij for o in enumerate_orbits(X))
        shapes = len(enumerate_shapes(X, BUDGET_GRID.t_max, BUDGET_GRID.a_max))
        algebras = len(grid_algebras(X.n))  # the split form among them
        orbits += primary
        depth_budget += shapes * primary
        gate_budget += algebras * (BUDGET_GRID.a_max + 1) * primary
        modules += shapes * (algebras + 1) * primary
    calls = dict.fromkeys(["root_eval", "depth_index", "brauer_torsion_sign", "v_module"], 0)
    gates = []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    count(ident, "root_eval")
    count(tw, "depth_index")
    count(ident, "brauer_torsion_sign")
    count(fm, "v_module")
    real_ord = ident.ord_contains

    def recorded_ord(X, B, o, a):
        gates.append((X.params, B, o.ij, a))
        return real_ord(X, B, o, a)

    monkeypatch.setattr(ident, "ord_contains", recorded_ord)
    assert sweep(BUDGET_GRID).failures == ()
    assert 0 < calls["root_eval"] <= 4 * orbits
    assert 0 < calls["depth_index"] <= depth_budget
    assert len(set(gates)) == len(gates) > 0
    assert 0 < calls["brauer_torsion_sign"] and len(gates) + calls["brauer_torsion_sign"] <= gate_budget
    assert calls["v_module"] == modules


def test_table_build_error_gives_error_rows(monkeypatch):
    """A NotTwoTorsion raised while the epsilon table of one algebra is built
    gives one error row per instance of that algebra on a field with a
    symmetric ramified orbit, as when the sign was read orbit by orbit.  A
    half-built table is not kept, so the next instance raises the same error,
    not an IndexError, and every other instance is still checked."""
    import tametori.identities as ident

    grid = GridSpec((3, 5), n_max=4, w_extra=1, t_max=1, a_max=2)
    target, real = CsaParams(2, 2, 1), ident.brauer_torsion_sign
    clean = sweep(grid)
    expected, lost = [], 0
    for params in grid_extension_params(grid):
        X = build_extension(params)
        if X.n != target.n or all(o.cls is not RootClass.SYMMETRIC_RAMIFIED
                                  for o in enumerate_orbits(X)):
            continue
        for shape in enumerate_shapes(X, grid.t_max, grid.a_max):
            inst = Instance(X, target, shape)
            expected.append(error_row(inst, NotTwoTorsion("forced")))
            lost += len(verify_instance(inst).verdicts)

    def refuse(B, n_alpha):
        if B == target:
            raise NotTwoTorsion("forced")
        return real(B, n_alpha)

    monkeypatch.setattr(ident, "brauer_torsion_sign", refuse)
    summary = sweep(grid)
    assert len(expected) > 1 and summary.failures == tuple(expected)
    assert summary.instances == clean.instances
    assert summary.orbits_checked == clean.orbits_checked - lost


# Fields with more than 729 elements are skipped (oracles.GF works digit by digit).
REAL_EPS_GRID = GridSpec((3, 5, 7, 9), n_max=4, w_extra=2, w_seed=11, t_max=2, a_max=3)


def test_epsilon_symbols_against_real_field():
    """Every symbol character FieldPass.epsilon gives on the fields of
    REAL_EPS_GRID with Q <= 729, recomputed in real GF(Q) with the oracle's g
    as zeta.  alpha(zeta_E) = zeta_E / zeta_E^{q^c} and alpha(pi_E) = zeta^{-a}
    lie in GF(Q_alpha).  The symbol is Euler's criterion: x^{(Q_alpha - 1)/2}
    on k_alpha^x for an asymmetric orbit, x^{(q_pm + 1)/2} on k^1 (where
    x^{q_pm + 1} = 1) for a symmetric unramified one."""
    checked = dict.fromkeys(RootClass, 0)
    fields = 0
    for params in grid_extension_params(REAL_EPS_GRID):
        X = build_extension(params)
        if X.Q > 729:
            continue
        F, fields = real_field(X.Q), fields + 1
        zeta_E = F.pow(F.g, X.u_E)

        def inv(x):
            return F.pow(x, F.Q - 2)

        def euler(o, x):
            assert F.pow(x, o.Q_alpha) == x  # x lies in GF(Q_alpha)
            if o.cls is RootClass.ASYMMETRIC:
                s = F.pow(x, (o.Q_alpha - 1) // 2)
            else:
                assert F.pow(x, o.q_pm + 1) == 1  # x lies in k^1
                s = F.pow(x, (o.q_pm + 1) // 2)
            assert s in (1, F.p - 1)  # 1 or -1 in GF(Q)
            return 1 if s == 1 else -1

        P = FieldPass(X)
        real = {
            i: TameQuadChar(
                euler(o, F.mul(zeta_E, inv(F.pow(zeta_E, X.q**o.rep.c)))),
                euler(o, inv(F.pow(F.g, o.rep.a))),
            )
            for i, o in enumerate(P.orbits)
            if o.cls is not RootClass.SYMMETRIC_RAMIFIED
        }
        for shape in enumerate_shapes(X, REAL_EPS_GRID.t_max, REAL_EPS_GRID.a_max):
            row = P.row(shape)
            for B in grid_algebras(X.n):  # every algebra gates, the split form too
                for i, k in enumerate(row.depths):
                    o = P.orbits[i]
                    if i in real and k != -1 and ord_contains(X, B, o, shape.levels[k]):
                        assert P.epsilon(i, row, B) == real[i], (params, B, shape.levels, o.ij)
                        checked[o.cls] += 1
    assert fields > 10
    assert checked[RootClass.ASYMMETRIC] > 0 and checked[RootClass.SYMMETRIC_UNRAMIFIED] > 0


def test_shared_pass_matches_fresh_pass():
    """verify_instance with the field's shared pass, visited algebra by
    algebra (the sweep goes shape by shape), reports what a fresh pass per
    instance reports; a pass of another field is refused."""
    checked = 0
    for params in grid_extension_params(BUDGET_GRID):
        X = build_extension(params)
        field = FieldPass(X)
        shapes = enumerate_shapes(X, BUDGET_GRID.t_max, BUDGET_GRID.a_max)
        for A in grid_algebras(X.n):
            for shape in shapes:
                inst = Instance(X, A, shape)
                assert verify_instance(inst, field) == verify_instance(inst)
                checked += 1
    assert checked == sweep(BUDGET_GRID).instances
    other = FieldPass(model(3, 2, 2))
    with pytest.raises(ValueError):
        verify_instance(make_instance((3, 1, 4, 0), (2, 2, 1), ["E"], (1,)), other)


def test_pass_of_an_equal_model_is_accepted():
    """A pass of a model that equals inst.X but was built apart from it serves
    the instance and gives the same report; only a pass of another field is
    refused."""
    params = ExtensionParams(3, 1, 4, 0)
    X, rebuilt = build_extension(params), build_extension.__wrapped__(params)
    assert rebuilt is not X and rebuilt == X
    inst = make_instance((3, 1, 4, 0), (2, 2, 1), ["E", "2.0"], (1, 3))
    twin = Instance(rebuilt, inst.A, inst.shape)
    assert verify_instance(twin, FieldPass(X)) == verify_instance(twin)
    assert verify_instance(inst, FieldPass(rebuilt)).verdicts == verify_instance(inst).verdicts
    with pytest.raises(ValueError, match="the pass is for"):
        verify_instance(twin, FieldPass(model(3, 2, 2)))


def test_k1_symbol_is_shared_by_both_sides(monkeypatch):
    """On a symmetric unramified orbit whose module classes differ, the zeta
    side and the epsilon side read the same k^1 symbol, so it cancels: a sweep
    with legendre_k1 negated everywhere evaluates the symbol and still has no
    failure.  The sweep does not check that symbol's values; the oracles.GF
    tests in test_chartools.py do."""
    import tametori.chartools as ct

    real = ct.legendre_k1
    calls = []

    def negated(*args):
        calls.append(args)
        return -real(*args)

    monkeypatch.setattr(ct, "legendre_k1", negated)
    summary = sweep(GridSpec((3,), n_max=4, t_max=1, a_max=2))
    assert summary.instances == 82
    assert calls and summary.failures == ()
