"""The kernel builds no GE trace and keeps no compiled plan past a call.

A GE program is large (a ~12 MB trace at n=480, b=10; its plan is a
fraction of that), so a process that kept programs across calls would
hold several times the memory of the simulation itself.  The kernel
compiles each configuration's plan straight from the wavefront recurrence
per call, builds no trace at all, and shares the plan only among the
lanes of that call.  These tests pin that with weak references: once the
call returns, every plan it built must be gone.
"""

from __future__ import annotations

import weakref

import pytest

from repro.apps import PAPER_BLOCK_SIZES, gauss
from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.kernel import tracecache, vector
from repro.kernel.vector import evaluate_ge_points_batch
from repro.sweep import SweepPoint, expand_grid, run_sweep

CM = CalibratedCostModel()


@pytest.fixture
def built(monkeypatch):
    """Weak references to every trace and plan built while a test runs."""
    refs = {"traces": [], "plans": []}
    build = tracecache.build_ge_trace

    def tracked_build(cfg):
        trace = build(cfg)
        refs["traces"].append(weakref.ref(trace))
        return trace

    class TrackedPlan(vector.ProgramPlan):
        def __init__(self, *args):
            super().__init__(*args)
            refs["plans"].append(weakref.ref(self))

    monkeypatch.setattr(tracecache, "build_ge_trace", tracked_build)
    monkeypatch.setattr(gauss, "build_ge_trace", tracked_build)
    monkeypatch.setattr(vector, "ProgramPlan", TrackedPlan)
    return refs


def _alive(refs) -> int:
    return sum(ref() is not None for ref in refs)


def test_batch_call_keeps_no_trace_or_plan(built):
    points = [
        SweepPoint(n=60, b=10, layout="diagonal", seed=0, with_measured=True),
        SweepPoint(n=60, b=20, layout="stripped", seed=0, with_measured=True),
        SweepPoint(n=60, b=10, layout="diagonal", seed=1, with_measured=True),
    ]
    summaries = evaluate_ge_points_batch(points, MEIKO_CS2, CM)
    assert len(summaries) == 3
    # one plan per configuration, shared by its lanes, and no trace
    assert len(built["plans"]) == 2
    assert built["traces"] == []
    assert _alive(built["plans"]) == 0


def test_fig7_sweep_keeps_no_trace(built):
    """The n=480 Figure 7 grid (the benchmark's fig7-sweep workload)."""
    blocks = [b for b in PAPER_BLOCK_SIZES if 480 % b == 0]
    grid = expand_grid(480, blocks, ["diagonal", "stripped"])
    result = run_sweep(grid, MEIKO_CS2, CM, workers=1)
    assert result.stats.computed == len(grid)
    assert len(built["plans"]) == len(grid)
    assert built["traces"] == []
    assert _alive(built["plans"]) == 0
