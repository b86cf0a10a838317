"""One benchmark repetition, run in a fresh interpreter by run.py.

    python3 child.py KIND CONFIG JOBS TRACE SRC

KIND is `grid` (load the config, sweep it) or `symbols` (check the
sign/symbol identities on every residue field of the config's grid).  The
last line of stdout is one JSON object with the counts, the timings and, when
TRACE is 1, the span aggregates.  Starting each repetition in a new
interpreter keeps the package's module-level caches cold, so every
repetition measures the same program.  Untraced repetitions also sample the
machine's speed while they run (SpeedProbe) and report it with their times.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Oracle slice: every field of the Q list with at most this many elements is
# also checked against the brute-force cycle walk, outside the timed loop.
BRUTE_MAX_Q = 625

# (module, function, tracer options) for the traced run; cli.load_config is
# the only cli function on the benchmark's path.
TRACE_TARGETS = [
    ("localfield", "build_extension", {}),
    ("localfield", "interval_subgroups", {}),
    ("localfield", "subgroup_closure", {}),
    ("localfield", "is_subgroup", {}),
    ("localfield", "compose", {}),
    ("roots", "enumerate_orbits", {}),
    ("roots", "root_eval", {}),
    ("roots", "ord_contains", {"outcome": bool}),
    ("tower", "enumerate_shapes", {"outcome": len}),
    ("tower", "validate_shape", {}),
    ("tower", "depth_index", {}),
    ("tower", "jump_data", {}),
    ("csa", "order_invariants", {}),
    ("csa", "centralizer_invariants", {}),
    ("csa", "brauer_torsion_sign", {}),
    ("finmod", "v_module", {"outcome": lambda m: m.name == "U"}),
    ("finmod", "symp_iso_direct", {}),
    ("chartools", "legendre_kx", {}),
    ("chartools", "legendre_k1", {}),
    ("chartools", "perm_sign", {}),
    ("chartools", "reduce_to_subfield", {}),
    # the exponent type: constructing one is a call into chartools
    ("chartools", "MuExponent", {}),
    ("identities", "verify_instance", {"sample": True}),
    ("identities", "zeta_restricted", {}),
    ("identities", "epsilon_alpha", {}),
    ("identities", "nu_zeta_total", {}),
    ("identities", "epsilon_total", {}),
    ("identities", "iota", {}),
    ("identities", "sweep", {}),
    ("cli", "load_config", {}),
]

# Caches whose hit counts are reported while they exist.
CACHED = [
    ("roots", "enumerate_orbits"),
    ("tower", "depth_index"),
    ("csa", "order_invariants"),
    ("csa", "centralizer_invariants"),
]


class SpeedProbe:
    """Samples the machine's speed while an untraced repetition runs.

    The host's cores are shared, and its speed moves by up to 3x in phases of
    a second to minutes, for tametori and any other Python code alike.  Every
    INTERVAL_S of wall time a timer signal runs one round of a fixed
    reference kernel in this process, between two bytecodes of whatever
    tametori is doing, and times it.  The kernel is this file's own code, so
    no change to tametori moves it.  `speed()` is the mean of NOMINAL_S over
    the round times: the share of its nominal speed at which the machine ran.
    Time spent in the handler is counted in `spent_s` and taken out of the
    repetition's timings.
    """

    INTERVAL_S = 0.05
    # one kernel round on an idle core of the 2-vCPU host the baseline was taken on
    NOMINAL_S = 0.0005

    def __init__(self) -> None:
        self.rounds: list[float] = []
        self.spent_s = 0.0
        self._keys = [(i % 7, i % 11) for i in range(64)]
        self._table = {k: i for i, k in enumerate(self._keys)}

    def _step(self, i: int) -> int:
        return (i * 2654435761) % 1009

    def kernel_round(self) -> float:
        t0 = time.perf_counter()
        table, keys, step = self._table, self._keys, self._step
        s = 0
        for i in range(2000):
            key = keys[i & 63]
            s += table[key] + step(i) + (hash(key) & 7)
        t1 = time.perf_counter()
        self.rounds.append(t1 - t0)
        return s

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        # The first round brings the kernel back into the caches that
        # tametori's own work evicted; only the second one is kept.
        self.kernel_round()
        self.rounds.pop()
        self.kernel_round()
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.rounds:  # a repetition shorter than one interval
            self.kernel_round()

    def speed(self) -> float:
        return sum(self.NOMINAL_S / r for r in self.rounds) / len(self.rounds)


PROBE: SpeedProbe | None = None


def clock() -> float:
    """perf_counter() less the time spent in the speed probe so far."""
    return time.perf_counter() - (PROBE.spent_s if PROBE else 0.0)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it waited for
    (the pool workers of a jobs > 1 sweep)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def grid_rep(config: str, jobs: int, trace) -> dict:
    from tametori import cli, identities

    def setup():
        grid = cli.load_config(config)
        return grid, identities.grid_extension_params(grid)

    grid, params = trace("bench.setup", setup)
    setup_s = clock() - T_START
    t0 = clock()
    summary = trace("bench.work", lambda: identities.sweep(grid, jobs=jobs))
    work_s = clock() - t0
    return {
        "params": summary.params_count,
        "params_listed": len(params),
        "instances": summary.instances,
        "orbits": summary.orbits_checked,
        "failed": len(summary.failures),
        "setup_s": setup_s,
        "work_s": work_s,
    }


def euler_k1(Q: int, q_pm: int, val: int) -> int:
    """Quadratic character of the cyclic group k^1 (order q_pm + 1) at
    zeta^val, by Euler's criterion: x is a square iff x^((q_pm + 1) / 2) = 1."""
    return 1 if (val * ((q_pm + 1) // 2)) % (Q - 1) == 0 else -1


def residue_fields(grid) -> tuple[list[int], list[tuple[int, int]]]:
    """The sorted Q_alpha of every orbit of every field of the grid, and the
    sorted (Q_alpha, q_pm) of every symmetric unramified orbit."""
    from tametori import identities, localfield, roots

    qs, pairs = set(), set()
    for p in identities.grid_extension_params(grid):
        for o in roots.enumerate_orbits(localfield.build_extension(p)):
            qs.add(o.Q_alpha)
            if o.cls is roots.RootClass.SYMMETRIC_UNRAMIFIED:
                pairs.add((o.Q_alpha, o.q_pm))
    return sorted(qs), sorted(pairs)


def symbol_rep(config: str, jobs: int, trace) -> dict:
    from tametori import chartools, cli

    qs, pairs = trace("bench.setup", lambda: residue_fields(cli.load_config(config)))
    setup_s = clock() - T_START
    MuExponent = chartools.MuExponent

    def work():
        perm_sign, legendre_kx = chartools.perm_sign, chartools.legendre_kx
        legendre_k1 = chartools.legendre_k1
        values = mismatches = 0
        for Q in qs:
            for k in range(Q - 1):
                x = MuExponent(k, Q - 1)
                if perm_sign(Q, x) != legendre_kx(Q, x):
                    mismatches += 1
            values += Q - 1
        for Q, q_pm in pairs:
            for i in range(q_pm + 1):
                x = MuExponent((q_pm - 1) * i, Q - 1)
                if legendre_k1(Q, q_pm, x) != euler_k1(Q, q_pm, x.val):
                    mismatches += 1
            values += q_pm + 1
        return values, mismatches

    t0 = clock()
    values, mismatches = trace("bench.work", work)
    work_s = clock() - t0
    brute = 0
    for Q in qs:
        if Q > BRUTE_MAX_Q:
            continue
        for k in range(Q - 1):
            x = MuExponent(k, Q - 1)
            brute += 1
            if chartools.perm_sign(Q, x) != chartools.perm_sign_bruteforce(Q, x):
                mismatches += 1
    return {
        "q_values": qs,
        "values": values,
        "brute_checks": brute,
        "failed": mismatches,
        "setup_s": setup_s,
        "work_s": work_s,
    }


def install_tracer():
    # cli is not imported by the package itself; load it before wrapping.
    from tametori import cli  # noqa: F401

    from tracer import Tracer

    tracer = Tracer()
    tracer.calibrate()
    tracer.install("tametori", TRACE_TARGETS)
    return tracer


def cache_hits() -> dict:
    out = {}
    for module, attr in CACHED:
        fn = getattr(sys.modules[f"tametori.{module}"], attr)
        fn = getattr(fn, "__wrapped__", fn)
        info = getattr(fn, "cache_info", None)
        out[f"{module}.{attr}"] = info().hits if info else None
    return out


def main(argv: list[str]) -> int:
    global PROBE
    kind, config, jobs, trace_flag, src = argv[1:6]
    if trace_flag == "0":
        PROBE = SpeedProbe()
        PROBE.start()
    import tametori

    if not Path(tametori.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"tametori imported from {tametori.__file__}, not {src}", file=sys.stderr)
        return 3
    tracer = install_tracer() if trace_flag == "1" else None
    # region name -> (wall seconds, span totals and bookkeeping at its end)
    regions: dict[str, tuple] = {}

    def trace(name, fn):
        if tracer is None:
            return fn()
        t0 = time.perf_counter()
        result = tracer.wrap(name, fn)()
        regions[name] = (
            time.perf_counter() - t0,
            tracer.totals(),
            tracer.bookkeeping_s,
            dict(tracer.outcomes),
            cache_hits(),
        )
        return result

    rep = grid_rep if kind == "grid" else symbol_rep
    out = rep(config, int(jobs), trace)
    out["peak_rss_mb"] = peak_rss_mb()
    if PROBE is not None:
        PROBE.stop()
        out["speed"] = PROBE.speed()
        out["probe_s"] = PROBE.spent_s
    if tracer is not None:
        # Only the work region (the sweep, or the symbol loop) is reported.
        _, before, bk_before, oc_before, hits_before = regions["bench.setup"]
        wall, after, bk_after, oc_after, hits_after = regions["bench.work"]
        zero = [0, 0.0, 0.0]
        work = {
            name: [a - b for a, b in zip(rec, before.get(name, zero))]
            for name, rec in after.items()
            if name != "bench.setup"
        }
        out["trace"] = {
            "work_wall_s": wall,
            "totals": work,
            "bookkeeping_s": bk_after - bk_before,
            "outcomes": {k: v - oc_before.get(k, 0) for k, v in oc_after.items()},
            "samples": tracer.samples,
            # None once a cache no longer exists
            "cache_hits": {
                k: None if v is None else v - hits_before[k]
                for k, v in hits_after.items()
            },
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
