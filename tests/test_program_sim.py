"""Tests for the whole-program simulator (repro.core.program_sim)."""

import pytest

from repro.core import (
    CachePredictionModel,
    CommPattern,
    LogGPParameters,
    ProgramSimulator,
    TableCostModel,
)
from repro.trace import ProgramTrace, Step, Work

PARAMS = LogGPParameters(L=10.0, o=2.0, g=5.0, G=0.5, P=4)
COSTS = TableCostModel({"op1": {4: 100.0}, "op2": {4: 50.0}, "op4": {4: 30.0}})


def one_step_trace():
    """P0 computes 100us then sends one byte to P1."""
    trace = ProgramTrace(num_procs=2)
    trace.add_step(
        Step(
            work={0: [Work(op="op1", b=4)]},
            pattern=CommPattern(2, edges=[(0, 1, 1)]),
        )
    )
    return trace


class TestSingleStep:
    def test_exact_total(self):
        sim = ProgramSimulator(PARAMS, COSTS)
        report = sim.run(one_step_trace())
        # comp 100, send 100..102, arrival 112, recv ends 114
        assert report.total_us == pytest.approx(114.0)

    def test_comp_comm_split(self):
        report = ProgramSimulator(PARAMS, COSTS).run(one_step_trace())
        assert report.comp_us == pytest.approx(100.0)
        # P1 did no compute; its whole 114 is communication time
        assert report.comm_us == pytest.approx(114.0)

    def test_per_proc_values(self):
        report = ProgramSimulator(PARAMS, COSTS).run(one_step_trace())
        assert report.per_proc_comp_us == {0: 100.0, 1: 0.0}
        assert report.per_proc_total_us[0] == pytest.approx(102.0)
        assert report.per_proc_total_us[1] == pytest.approx(114.0)
        assert report.per_proc_comm_busy_us[0] == pytest.approx(2.0)
        assert report.per_proc_comm_busy_us[1] == pytest.approx(2.0)

    def test_breakdown_dict(self):
        report = ProgramSimulator(PARAMS, COSTS).run(one_step_trace())
        assert set(report.breakdown()) == {"total", "comp", "comm"}


class TestMultiStepClockCarrying:
    def test_clocks_carry_across_steps(self):
        trace = ProgramTrace(num_procs=2)
        trace.add_step(Step(work={0: [Work(op="op1", b=4)]}))
        trace.add_step(Step(work={0: [Work(op="op2", b=4)]},
                            pattern=CommPattern(2, edges=[(0, 1, 1)])))
        report = ProgramSimulator(PARAMS, COSTS).run(trace)
        # P0: 100 + 50 compute, send ends 152; arrival 162; recv ends 164
        assert report.total_us == pytest.approx(164.0)
        assert report.comp_us == pytest.approx(150.0)

    def test_unbalanced_compute_shifts_comm_start(self):
        """A processor that computes longer sends later — the paper's
        motivation for carrying per-processor clocks."""
        trace = ProgramTrace(num_procs=2)
        trace.add_step(
            Step(
                work={0: [Work(op="op1", b=4)], 1: [Work(op="op4", b=4)]},
                pattern=CommPattern(2, edges=[(1, 0, 1)]),
            )
        )
        report = ProgramSimulator(PARAMS, COSTS).run(trace)
        # P1 sends at its own 30, not at P0's 100: arrival 42 but P0 is
        # busy computing until 100, so the receive starts at 100.
        assert report.per_proc_total_us[0] == pytest.approx(102.0)


class TestModes:
    def test_worstcase_never_faster(self):
        trace = ProgramTrace(num_procs=3)
        trace.add_step(
            Step(
                work={0: [Work(op="op1", b=4)]},
                pattern=CommPattern(3, edges=[(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
            )
        )
        std = ProgramSimulator(PARAMS, COSTS, mode="standard").run(trace)
        wc = ProgramSimulator(PARAMS, COSTS, mode="worstcase").run(trace)
        assert wc.total_us >= std.total_us - 1e-9

    def test_causal_matches_standard_here(self):
        trace = one_step_trace()
        std = ProgramSimulator(PARAMS, COSTS, mode="standard").run(trace)
        ca = ProgramSimulator(PARAMS, COSTS, mode="causal").run(trace)
        assert ca.total_us == pytest.approx(std.total_us)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ProgramSimulator(PARAMS, COSTS, mode="bogus")


class TestOverlapExtension:
    def test_overlap_never_slower(self):
        trace = ProgramTrace(num_procs=2)
        for _ in range(3):
            trace.add_step(
                Step(
                    work={0: [Work(op="op1", b=4)], 1: [Work(op="op2", b=4)]},
                    pattern=CommPattern(2, edges=[(0, 1, 100), (1, 0, 100)]),
                )
            )
        plain = ProgramSimulator(PARAMS, COSTS).run(trace)
        overlap = ProgramSimulator(PARAMS, COSTS, overlap=True).run(trace)
        assert overlap.total_us <= plain.total_us + 1e-9

    def test_overlap_sender_pays_only_busy_time(self):
        trace = ProgramTrace(num_procs=2)
        trace.add_step(
            Step(work={0: [Work(op="op1", b=4)]}, pattern=CommPattern(2, edges=[(0, 1, 1)]))
        )
        report = ProgramSimulator(PARAMS, COSTS, overlap=True).run(trace)
        # sender: comp 100 + send busy 2 (no waiting)
        assert report.per_proc_total_us[0] == pytest.approx(102.0)
        # receiver still pinned to its receive end
        assert report.per_proc_total_us[1] == pytest.approx(114.0)


class TestCacheExtension:
    def test_cache_model_adds_cost_only_when_set_overflows(self):
        cache = CachePredictionModel(cache_bytes=1024, line_bytes=32, miss_penalty_us=1.0)
        trace = ProgramTrace(num_procs=1)
        # 40 distinct 4x4 blocks = 40*128B = 5120B resident >> 1KiB cache
        step_work = [Work(op="op4", b=4, block=(i, 0)) for i in range(40)]
        trace.add_step(Step(work={0: step_work}))
        base = ProgramSimulator(PARAMS, COSTS).run(trace)
        cached = ProgramSimulator(PARAMS, COSTS, cache_model=cache).run(trace)
        assert cached.total_us > base.total_us

    def test_cache_model_noop_when_fits(self):
        cache = CachePredictionModel(cache_bytes=10**9)
        trace = one_step_trace()
        base = ProgramSimulator(PARAMS, COSTS).run(trace)
        cached = ProgramSimulator(PARAMS, COSTS, cache_model=cache).run(trace)
        assert cached.total_us == pytest.approx(base.total_us)


class TestIterOverheadExtension:
    def test_adds_per_op_cost(self):
        trace = one_step_trace()
        base = ProgramSimulator(PARAMS, COSTS).run(trace)
        loaded = ProgramSimulator(PARAMS, COSTS, iter_overhead_us=7.0).run(trace)
        assert loaded.comp_us == pytest.approx(base.comp_us + 7.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ProgramSimulator(PARAMS, COSTS, iter_overhead_us=-1.0)


class TestEmptyTrace:
    def test_empty_trace(self):
        report = ProgramSimulator(PARAMS, COSTS).run(ProgramTrace(num_procs=2))
        assert report.total_us == 0.0
        assert report.comp_us == 0.0
