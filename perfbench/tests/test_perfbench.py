"""Self-test of the benchmark harness on tiny grids (q_list=3, n_max=2).

Run with:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

TINY = "q_list = 3\nn_max = 2\nw_policy = sample:2\n"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every workload on a tiny grid, two draws each."""
    towers = {"grid": "t_max = 1\na_max = 2\n", "symbols": ""}
    workloads = {
        name: replace(wl, config=TINY + towers[wl.kind], draws=2)
        for name, wl in run.WORKLOADS.items()
    }
    monkeypatch.setattr(run, "WORKLOADS", workloads)
    return workloads


def invoke(capsys, workload: str, trace: int, seed: int = 5) -> tuple[int, dict | None]:
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, (json.loads(lines[-1]) if code == 0 else None)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(tiny, capsys, workload, trace):
    code, out = invoke(capsys, workload, trace)
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in listed)


@pytest.mark.parametrize("workload", ["grid-sweep", "symbol-scan"])
def test_mutated_result_trips_the_gate(tiny, capsys, monkeypatch, workload):
    honest = run.run_child

    def mutated(wl, config, jobs, trace):
        rec = honest(wl, config, jobs, trace)
        rec["instances" if wl.kind == "grid" else "values"] += 1
        return rec

    monkeypatch.setattr(run, "run_child", mutated)
    code, out = invoke(capsys, workload, 0)
    assert code == 0
    assert out["correct"] is False
    assert out["failed"] == out["attempted"]


def test_reported_failures_count():
    wl = run.WORKLOADS["grid-sweep"]
    rec = {"params": 3, "params_listed": 3, "instances": 10, "orbits": 20, "failed": 2}
    assert run.gate(wl, {0: [rec]}, [[3, 10, 20]])[:2] == (10, 2)
    assert run.gate(wl, {0: [dict(rec, failed=0)]}, [[3, 10, 20]])[:2] == (10, 0)
    assert run.gate(wl, {0: [dict(rec, failed=0)]}, [[3, 10, 21]])[:2] == (10, 10)


def test_recorded_counts_match_recount(tmp_path):
    recorded = json.loads((run.HERE / "expected.json").read_text())["counts"]
    wl = run.WORKLOADS["grid-sweep"]
    for seed, draws in recorded["grid-sweep"].items():
        configs = run.write_configs(wl, int(seed), tmp_path, 1)
        assert run.recount(wl, configs) == draws[:1]


def test_refuses_to_run_without_sources(tiny, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "grid-sweep", "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_a_repetition_that_hangs_stops_the_run(tiny, capsys, monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.01)
    code = run.main(["--workload", "grid-sweep", "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_speed_probe_samples_and_keeps_its_time_apart():
    import time

    import child

    probe = child.SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.3:
        pass
    probe.stop()
    assert len(probe.rounds) >= 3
    assert probe.speed() > 0
    assert 0 < probe.spent_s < 0.3
