"""Benchmark harness for tametori.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it runs the workload's repetitions, each in a fresh
interpreter, for S seconds and reports the end-to-end metrics, with every
time scaled to the machine's nominal speed as the repetition's speed probe
measured it (child.SpeedProbe).  With
--trace 1 it runs the first TRACE_DRAWS draws once with every layer's public
functions wrapped in spans, once without, and (grid workloads) once with
jobs=2, and reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is the JSON result; every count is
checked against perfbench/expected.json, or against a recount from the grid
definition for seeds not recorded there.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from subprocess import PIPE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
DEFAULT_SEED = 20260817
# Draw i of a run sweeps w_seed = seed + i * SEED_STRIDE: draw 0 is the seed
# itself, and no two seeds below SEED_STRIDE share a draw.
SEED_STRIDE = 10**9
TRACE_DRAWS = 3
CHILD_TIMEOUT_S = 150
# Traced run: the self times of all spans plus the tracer's own bookkeeping
# must add up to the traced work region's wall time within this share of it,
# or within SELF_SUM_FLOOR_S on very short regions.
SELF_SUM_TOLERANCE = 0.01
SELF_SUM_FLOOR_S = 0.001


class BenchError(Exception):
    pass


@dataclass(frozen=True)
class Workload:
    kind: str  # "grid": sweep() the config; "symbols": check its residue fields
    config: str  # flat cli config without w_seed; each draw appends one
    draws: int  # distinct w_seed draws per run


# A single sweep of ACCEPT_GRID's shape on q=5 (n_max=8) moves by 20-28% in
# wall time from one w_seed to the next, because the sampled presentations
# decide the size of the Galois groups.  Each run therefore sweeps `draws`
# smaller grids with distinct w_seeds and aggregates over them.
WORKLOADS = {
    "grid-sweep": Workload(
        "grid",
        "q_list = 3,5,7\nn_max = 4\nw_policy = sample:2\nt_max = 2\na_max = 6\n",
        10,
    ),
    "field-scan": Workload(
        "grid", "q_list = 3,5\nn_max = 12\nw_policy = sample:2\nt_max = 0\n", 10
    ),
    "symbol-scan": Workload(
        "symbols", "q_list = 5\nn_max = 8\nw_policy = sample:2\n", 8
    ),
}

LAYER_FUNCTIONS_TIMED = [
    "localfield.build_extension",
    "localfield.interval_subgroups",
    "localfield.subgroup_closure",
    "localfield.is_subgroup",
    "localfield.compose",
    "roots.enumerate_orbits",
    "roots.root_eval",
    "roots.ord_contains",
    "tower.enumerate_shapes",
    "tower.validate_shape",
    "tower.jump_data",
    "finmod.v_module",
    "finmod.symp_iso_direct",
    "chartools.legendre_kx",
    "chartools.legendre_k1",
    "chartools.perm_sign",
    "identities.verify_instance",
    "identities.zeta_restricted",
    "identities.epsilon_alpha",
]
LAYER_FUNCTIONS_COUNTED = [
    "tower.depth_index",
    "csa.order_invariants",
    "csa.centralizer_invariants",
    "csa.brauer_torsion_sign",
    "chartools.reduce_to_subfield",
    "identities.iota",
]
MODULES = ("localfield", "roots", "tower", "csa", "finmod", "chartools", "identities", "bench")
# Self time that each workload is designed to be dominated by.
SHARES = {
    "verification": ("identities.", "finmod.", "tower.jump_data"),
    "field_setup": ("localfield.", "tower.enumerate_shapes", "tower.validate_shape"),
    "chartools": ("chartools.",),
}


def run_child(wl: Workload, config: Path, jobs: int, trace: bool) -> dict:
    """One repetition in a fresh interpreter; wall_s runs from its start to
    its checked result, less the time its speed probe took."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(CHILD), wl.kind, str(config), str(jobs)]
    cmd += ["1" if trace else "0", str(SRC)]
    t0 = time.perf_counter()
    # A session of its own, so that a timeout also stops the pool workers.
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=PIPE, stderr=PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"repetition ran longer than {CHILD_TIMEOUT_S} s") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"repetition exited {proc.returncode}: {err[-2000:]}")
    rec = json.loads(out.splitlines()[-1])
    rec["wall_s"] = wall - rec.get("probe_s", 0.0)
    return rec


def write_configs(wl: Workload, seed: int, workdir: Path, draws: int) -> list[Path]:
    paths = []
    for i in range(draws):
        path = workdir / f"draw{i}.cfg"
        path.write_text(wl.config + f"w_seed = {seed + i * SEED_STRIDE}\n")
        paths.append(path)
    return paths


def counts(wl: Workload, rec: dict) -> list[int]:
    if wl.kind == "grid":
        return [rec["params"], rec["instances"], rec["orbits"]]
    return [len(rec["q_values"]), rec["values"], rec["brute_checks"]]


def attempts(wl: Workload, rec: dict) -> int:
    return rec["instances"] if wl.kind == "grid" else rec["values"]


def formula_params(grid) -> int:
    """Presentations in the grid, counted from its definition: w = 0 plus
    min(w_extra, q^f - 2) sampled nonzero w per tame (q, e, f)."""
    total = 0
    for q in grid.q_list:
        p = min(d for d in range(2, q + 1) if q % d == 0)
        for e in range(1, grid.n_max + 1):
            if e % p:
                total += sum(
                    1 + min(grid.w_extra, q**f - 2) for f in range(1, grid.n_max // e + 1)
                )
    return total


def recount(wl: Workload, configs: list[Path]) -> list[list[int]]:
    """Expected counts of each draw, computed without sweep() or the symbol
    loop: instances are shapes x inner forms per field, orbit identities add
    the primary orbits of each instance."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from tametori import cli, identities, localfield, roots, tower

    from child import BRUTE_MAX_Q, residue_fields

    out = []
    for config in configs:
        grid = cli.load_config(str(config))
        if wl.kind == "symbols":
            qs, pairs = residue_fields(grid)
            values = sum(Q - 1 for Q in qs) + sum(q_pm + 1 for _, q_pm in pairs)
            brute = sum(Q - 1 for Q in qs if Q <= BRUTE_MAX_Q)
            out.append([len(qs), values, brute])
            continue
        instances = orbits = 0
        for params in identities.grid_extension_params(grid):
            X = localfield.build_extension(params)
            n = len(tower.enumerate_shapes(X, grid.t_max, grid.a_max))
            n *= len(identities.grid_algebras(X.n))
            primary = sum(
                1 for o in roots.enumerate_orbits(X) if o.symmetric or o.ij < o.partner_ij
            )
            instances += n
            orbits += n * primary
        out.append([formula_params(grid), instances, orbits])
    return out


def expected_counts(name: str, seed: int, configs: list[Path]) -> list[list[int]]:
    wl = WORKLOADS[name]
    recorded = json.loads((HERE / "expected.json").read_text())["counts"]
    draws = recorded.get(name, {}).get(str(seed))
    if draws is not None:
        return draws[: len(configs)]
    return recount(wl, configs)


def gate(wl: Workload, reps: dict[int, list[dict]], expected) -> tuple[int, int, list]:
    """(attempted, failed, problems).  A repetition whose counts differ from
    the expected ones fails as a whole; otherwise its own failures count."""
    attempted = failed = 0
    problems = []
    for i, recs in reps.items():
        for rec in recs:
            n = max(attempts(wl, rec), 1)
            attempted += n
            got = counts(wl, rec)
            if got != expected[i] or rec.get("params_listed", got[0]) != got[0]:
                failed += n
                problems.append(f"draw {i}: counts {got}, expected {expected[i]}")
            elif rec["failed"]:
                failed += rec["failed"]
                problems.append(f"draw {i}: {rec['failed']} failed checks")
    return attempted, failed, problems


def mean_of_draws(reps: dict[int, list[dict]], value) -> float:
    """Mean over draws of each draw's median over its repetitions."""
    return statistics.fmean(
        statistics.median(value(rec) for rec in recs) for recs in reps.values() if recs
    )


def describe(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    xs = sorted(values)
    n = len(xs)
    text = f"median={statistics.median(xs):.6g}"
    if n >= 11:
        text += f" p{100 * (n - 10) // n}={xs[n - 11]:.6g}"
    return text + f" n={n}"


def timed_run(name: str, seed: int, seconds: float, workdir: Path):
    wl = WORKLOADS[name]
    configs = write_configs(wl, seed, workdir, wl.draws)
    reps: dict[int, list[dict]] = {i: [] for i in range(wl.draws)}
    start = time.perf_counter()
    i = 0
    while i < wl.draws or time.perf_counter() - start < seconds:
        reps[i % wl.draws].append(run_child(wl, configs[i % wl.draws], 1, False))
        i += 1
    attempted, failed, problems = gate(wl, reps, expected_counts(name, seed, configs))
    # Times are scaled to the machine's nominal speed (child.SpeedProbe).
    per_rep = {
        "wall_s": lambda r: r["wall_s"] * r["speed"],
        "setup_s": lambda r: r["setup_s"] * r["speed"],
        "verified_per_s": lambda r: attempts(wl, r) / (r["work_s"] * r["speed"]),
        "peak_rss_mb": lambda r: r["peak_rss_mb"],
    }
    values = {
        name: mean_of_draws(reps, per_rep[name]) for name in ("wall_s", "setup_s", "peak_rss_mb")
    }
    # throughput: the draws' attempts over their (median, scaled) seconds
    # inside the timed call
    values["verified_per_s"] = sum(attempts(wl, recs[0]) for recs in reps.values()) / sum(
        statistics.median(r["work_s"] * r["speed"] for r in recs) for recs in reps.values()
    )
    all_recs = [rec for recs in reps.values() for rec in recs]
    details = [f"{name}: {describe([fn(r) for r in all_recs])}" for name, fn in per_rep.items()]
    details.append(f"unscaled wall_s: {describe([r['wall_s'] for r in all_recs])}")
    details.append(f"machine speed: {describe([r['speed'] for r in all_recs])}")
    return values, attempted, failed, problems, details


def merge_traces(recs: list[dict]) -> tuple[dict, dict, list[float]]:
    totals: dict[str, list] = {}
    outcomes: dict[str, int] = {}
    samples: list[float] = []
    for rec in recs:
        trace = rec["trace"]
        for name, rt in trace["totals"].items():
            acc = totals.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rt[k]
        for name, n in trace["outcomes"].items():
            outcomes[name] = outcomes.get(name, 0) + n
        samples += trace["samples"].get("identities.verify_instance", [])
    return totals, outcomes, samples


def rate(wl: Workload, recs: list[dict]) -> float:
    return sum(attempts(wl, r) for r in recs) / sum(r["work_s"] for r in recs)


def layer_metrics(wl: Workload, traced, plain, parallel) -> tuple[dict, dict]:
    totals, outcomes, samples = merge_traces(traced)

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict = {}
    for name in LAYER_FUNCTIONS_TIMED:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in LAYER_FUNCTIONS_COUNTED:
        m[f"{name}.calls"] = calls(name)
    for name in traced[0]["trace"]["cache_hits"]:
        hits = [rec["trace"]["cache_hits"][name] for rec in traced]
        m[f"{name}.cache_hits"] = None if None in hits else sum(hits)
    m["roots.ord_contains.pass_ratio"] = ratio(
        outcomes["roots.ord_contains"], calls("roots.ord_contains")
    )
    m["tower.enumerate_shapes.shapes"] = outcomes["tower.enumerate_shapes"]
    m["finmod.v_module.u_ratio"] = ratio(outcomes["finmod.v_module"], calls("finmod.v_module"))
    chartools_self = sum(rec[2] for n, rec in totals.items() if n.startswith("chartools."))
    symbols = sum(calls(f"chartools.{n}") for n in ("legendre_kx", "legendre_k1", "perm_sign"))
    m["chartools.ns_per_value"] = ratio(1e9 * chartools_self, symbols)
    if samples:
        cuts = statistics.quantiles(samples, n=100) if len(samples) > 1 else samples * 99
        m["identities.verify_instance.p50_us"] = 1e6 * statistics.median(samples)
        m["identities.verify_instance.p99_us"] = 1e6 * cuts[98]
    else:
        m["identities.verify_instance.p50_us"] = 0.0
        m["identities.verify_instance.p99_us"] = 0.0
    m["identities.aggregate.self_s"] = self_s("identities.nu_zeta_total") + self_s(
        "identities.epsilon_total"
    )
    m["identities.sweep.parallel_efficiency"] = (
        rate(wl, parallel) / (2 * rate(wl, plain)) if parallel else 0.0
    )
    m["trace.overhead_ratio"] = sum(r["wall_s"] for r in traced) / sum(
        r["wall_s"] for r in plain
    )
    # Shares of the traced work with the tracer's bookkeeping taken out.
    work = sum(r["trace"]["work_wall_s"] - r["trace"]["bookkeeping_s"] for r in traced)
    groups = dict(SHARES)
    groups.update({mod: (mod + ".",) for mod in MODULES})
    shares = {
        key: sum(rec[2] for n, rec in totals.items() if n.startswith(prefixes)) / work
        for key, prefixes in groups.items()
    }
    # everything beneath verify_instance: all but the per-field setup, the
    # sweep loop itself and the benchmark's own code
    shares["verification_path"] = (
        1 - shares["field_setup"] - shares["bench"] - self_s("identities.sweep") / work
    )
    return m, shares


def traced_run(name: str, seed: int, workdir: Path):
    wl = WORKLOADS[name]
    configs = write_configs(wl, seed, workdir, min(TRACE_DRAWS, wl.draws))
    reps: dict[int, list[dict]] = {}
    traced, plain, parallel = [], [], []
    for i, config in enumerate(configs):
        traced.append(run_child(wl, config, 1, True))
        plain.append(run_child(wl, config, 1, False))
        reps[i] = [traced[-1], plain[-1]]
        if wl.kind == "grid":
            parallel.append(run_child(wl, config, 2, False))
            reps[i].append(parallel[-1])
    attempted, failed, problems = gate(wl, reps, expected_counts(name, seed, configs))
    details = []
    for i, rec in enumerate(traced):
        trace = rec["trace"]
        self_sum = sum(t[2] for t in trace["totals"].values()) + trace["bookkeeping_s"]
        wall = trace["work_wall_s"]
        details.append(f"draw {i}: span self sum {self_sum:.6f} s, traced work {wall:.6f} s")
        if abs(self_sum - wall) > max(SELF_SUM_TOLERANCE * wall, SELF_SUM_FLOOR_S):
            problems.append(f"draw {i}: span self times do not add up to the traced wall")
    values, shares = layer_metrics(wl, traced, plain, parallel)
    details.append(
        "self-time shares of the traced work: "
        + " ".join(f"{k}={v:.3f}" for k, v in shares.items())
    )
    return values, attempted, failed, problems, details


def result(spec_metrics: list[dict], values: dict, attempted, failed, problems) -> dict:
    names = [m["name"] for m in spec_metrics]
    if set(names) != set(values):
        raise BenchError(f"metric names differ from BENCHMARK.json: {set(names) ^ set(values)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tametori" / "__init__.py").is_file():
        print(f"error: no tametori sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as tmp:
            if args.trace:
                run = traced_run(args.workload, args.seed, Path(tmp))
            else:
                run = timed_run(args.workload, args.seed, args.seconds, Path(tmp))
        values, attempted, failed, problems, details = run
        out = result(
            spec["per_layer" if args.trace else "end_to_end"],
            values,
            attempted,
            failed,
            problems,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in details + problems:
        print(line)
    print(f"failed_fraction: {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
