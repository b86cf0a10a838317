"""The benchmark harness's hold on the package.

perfbench/child.py wraps every TRACE_TARGETS function by name and reads the
hit counts of every CACHED function through cache_info; a name that no longer
resolves, or a cache that was dropped, would end a traced benchmark run with
a malformed result, and so would a traced function whose return value its
outcome option can no longer read.  These tests catch that in the unit suite.
child.py is imported read-only: no bytecode is written next to it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from tametori.csa import CsaParams
from tametori.roots import enumerate_orbits
from tametori.tower import enumerate_shapes

from conftest import model

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_child():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("child")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


child = _load_child()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in child.TRACE_TARGETS],
    ids=lambda v: v,
)
def test_trace_target_resolves(module, attr):
    fn = getattr(importlib.import_module(f"tametori.{module}"), attr, None)
    assert callable(fn), f"tametori.{module}.{attr} is traced but does not exist"


@pytest.mark.parametrize("module, attr", child.CACHED, ids=lambda v: v)
def test_cached_function_exposes_cache_info(module, attr):
    fn = getattr(importlib.import_module(f"tametori.{module}"), attr)
    assert callable(getattr(fn, "cache_info", None)), (
        f"tametori.{module}.{attr} has no cache_info; its hit count would be null"
    )


def _outcome_args():
    """Arguments for one small call of each function traced with an outcome."""
    X = model(5, 2, 2)
    A = CsaParams(2, 2, 1)
    shape = enumerate_shapes(X, 1, 2)[-1]
    orbit = enumerate_orbits(X)[0]
    return {
        ("roots", "ord_contains"): (X, A, orbit, 1),
        ("tower", "enumerate_shapes"): (X, 1, 2),
        ("finmod", "v_module"): (X, A, shape, orbit.rep),
    }


OUTCOMES = [
    (module, attr, opts["outcome"])
    for module, attr, opts in child.TRACE_TARGETS
    if "outcome" in opts
]


@pytest.mark.parametrize(
    "module, attr, outcome", OUTCOMES, ids=[f"{m}.{a}" for m, a, _ in OUTCOMES]
)
def test_trace_outcome_reads_a_real_result(module, attr, outcome):
    """The tracer adds outcome(result) to an integer count on every call; a
    return-type change must fail here, not in a traced benchmark run."""
    args = _outcome_args()[(module, attr)]
    result = getattr(importlib.import_module(f"tametori.{module}"), attr)(*args)
    assert isinstance(outcome(result), int)
