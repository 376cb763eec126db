"""Tests for the overestimation (worst-case) algorithm (paper section 4.2)."""

import pytest

from repro.apps import random_pattern, ring_pattern, sample_pattern
from repro.core import (
    MEIKO_CS2,
    CommPattern,
    LogGPParameters,
    OpKind,
    simulate_standard,
    simulate_worstcase,
)

PARAMS = LogGPParameters(L=10.0, o=2.0, g=5.0, G=0.5, P=8)


class TestBasics:
    def test_single_message_equals_standard(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        wc = simulate_worstcase(PARAMS, pat)
        std = simulate_standard(PARAMS, pat)
        assert wc.completion_time == pytest.approx(std.completion_time)

    def test_invariants_on_sample_pattern(self):
        pat = sample_pattern()
        res = simulate_worstcase(MEIKO_CS2, pat)
        res.timeline.validate(pat.messages)

    def test_empty_pattern(self):
        res = simulate_worstcase(PARAMS, CommPattern(3))
        assert res.completion_time == 0.0
        assert res.timeline.events == []

    def test_local_messages_skipped(self):
        pat = CommPattern(2, edges=[(1, 1, 5)])
        res = simulate_worstcase(PARAMS, pat)
        assert res.completion_time == 0.0
        assert len(res.skipped_local) == 1


class TestWaitForAllReceives:
    def test_sends_happen_after_all_receives(self):
        """Core section 4.2 semantics: on a DAG, a processor transmits only
        after it has performed every receive it expects."""
        pat = sample_pattern()
        res = simulate_worstcase(MEIKO_CS2, pat)
        expected = {p: pat.in_degree(p) for p in range(pat.num_procs)}
        for p in res.timeline.participants():
            ops = res.timeline.events_of(p)
            first_send = next((e for e in ops if e.kind is OpKind.SEND), None)
            if first_send is None:
                continue
            recvs_before = sum(
                1 for e in ops if e.kind is OpKind.RECV and e.end <= first_send.start
            )
            assert recvs_before == expected[p], f"P{p} sent before receiving all"

    def test_chain_is_fully_serialised(self):
        # 0 -> 1 -> 2: under worst case, P1 sends only after its receive.
        pat = CommPattern(3, edges=[(0, 1, 1), (1, 2, 1)])
        res = simulate_worstcase(PARAMS, pat)
        p1_ops = res.timeline.events_of(1)
        assert [e.kind for e in p1_ops] == [OpKind.RECV, OpKind.SEND]
        # recv ends at 14; send at 14 + (max(o,g)-o) = 17; arrival 29; done 31
        assert res.completion_time == pytest.approx(31.0)

    def test_worstcase_exceeds_standard_on_sample(self):
        pat = sample_pattern()
        std = simulate_standard(MEIKO_CS2, pat)
        wc = simulate_worstcase(MEIKO_CS2, pat)
        assert wc.completion_time > std.completion_time

    def test_gap_between_concurrent_arrivals(self):
        """Paper: a processor receiving two concurrently arriving messages
        delays the second to fulfil the gap requirement."""
        pat = CommPattern(3, edges=[(0, 2, 1), (1, 2, 1)])
        res = simulate_worstcase(PARAMS, pat)
        r1, r2 = res.timeline.recvs()
        assert r2.start >= r1.end + PARAMS.g - 1e-9


class TestDeadlockBreaking:
    def test_ring_completes(self):
        """A cycle would deadlock the wait-for-all rule; forced random
        transmissions must break it (paper section 4.2)."""
        pat = ring_pattern(5, size=1)
        res = simulate_worstcase(PARAMS, pat, seed=3)
        res.timeline.validate(pat.messages)
        assert len(res.timeline.sends()) == 5
        assert len(res.timeline.recvs()) == 5

    def test_two_cycle_completes(self):
        pat = CommPattern(2, edges=[(0, 1, 1), (1, 0, 1)])
        res = simulate_worstcase(PARAMS, pat)
        res.timeline.validate(pat.messages)

    def test_mixed_cycle_and_dag_completes(self):
        pat = CommPattern(4, edges=[(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 3, 1)])
        res = simulate_worstcase(PARAMS, pat, seed=11)
        res.timeline.validate(pat.messages)

    def test_deterministic_under_seed(self):
        pat = ring_pattern(6, size=8)
        a = simulate_worstcase(PARAMS, pat, seed=5)
        b = simulate_worstcase(PARAMS, pat, seed=5)
        assert a.completion_time == b.completion_time


class TestUpperBoundProperty:
    @pytest.mark.parametrize("trial", range(25))
    def test_never_below_standard_on_random_patterns(self, trial):
        pat = random_pattern(6, 12, seed=trial)
        std = simulate_standard(PARAMS, pat, seed=trial)
        wc = simulate_worstcase(PARAMS, pat, seed=trial)
        assert wc.completion_time >= std.completion_time - 1e-9
