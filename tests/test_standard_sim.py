"""Tests for the Figure 2 standard simulation algorithm."""

import numpy as np
import pytest

from repro.apps import sample_pattern
from repro.core import (
    MEIKO_CS2,
    CommPattern,
    LogGPParameters,
    OpKind,
    simulate_standard,
)

PARAMS = LogGPParameters(L=10.0, o=2.0, g=5.0, G=0.5, P=8)


class TestSingleMessage:
    def test_exact_timing(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        res = simulate_standard(PARAMS, pat)
        (send,) = res.timeline.sends()
        (recv,) = res.timeline.recvs()
        assert send.start == 0.0
        assert send.end == pytest.approx(2.0)
        assert recv.arrival == pytest.approx(12.0)
        assert recv.start == pytest.approx(12.0)  # received as soon as it lands
        assert recv.end == pytest.approx(14.0)
        assert res.completion_time == pytest.approx(14.0)

    def test_long_message_timing(self):
        pat = CommPattern(2, edges=[(0, 1, 101)])
        res = simulate_standard(PARAMS, pat)
        # send busy o + 100*G = 52; arrival 52+10 = 62; recv end 64
        assert res.completion_time == pytest.approx(64.0)

    def test_ctimes(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        res = simulate_standard(PARAMS, pat)
        assert res.ctimes[0] == pytest.approx(2.0)
        assert res.ctimes[1] == pytest.approx(14.0)


class TestGapEnforcement:
    def test_consecutive_sends_spaced_by_gap(self):
        pat = CommPattern(3, edges=[(0, 1, 1), (0, 2, 1)])
        res = simulate_standard(PARAMS, pat)
        s1, s2 = res.timeline.sends()
        assert s1.start == 0.0
        assert s2.start == pytest.approx(s1.end + 5.0)

    def test_consecutive_receives_spaced_by_gap(self):
        # two senders hit the same receiver at the same moment
        pat = CommPattern(3, edges=[(0, 2, 1), (1, 2, 1)])
        res = simulate_standard(PARAMS, pat)
        r1, r2 = res.timeline.recvs()
        assert r1.start == pytest.approx(12.0)
        # second receive delayed to honour the gap: end(14) + g(5)
        assert r2.start == pytest.approx(19.0)

    def test_receive_then_send_gap(self):
        # P1 receives from P0 then sends to P2; start clocks make the
        # message arrive before P1 considers sending.
        pat = CommPattern(3)
        pat.add(0, 1, 1)
        pat.add(1, 2, 1)
        res = simulate_standard(PARAMS, pat, start_times={1: 20.0})
        recv_p1 = [e for e in res.timeline.events_of(1) if e.kind is OpKind.RECV][0]
        send_p1 = [e for e in res.timeline.events_of(1) if e.kind is OpKind.SEND][0]
        # recv at 20..22; send after max(o,g)-o = 3 more units
        assert recv_p1.start == pytest.approx(20.0)
        assert send_p1.start == pytest.approx(25.0)


class TestReceivePriority:
    def test_receive_performed_before_send_when_message_waiting(self):
        pat = CommPattern(3)
        pat.add(0, 1, 1)  # arrives at P1 at t=12
        pat.add(1, 2, 1)  # P1 wants to send this
        res = simulate_standard(PARAMS, pat, start_times={1: 15.0})
        ops = res.timeline.events_of(1)
        assert [e.kind for e in ops] == [OpKind.RECV, OpKind.SEND]

    def test_tie_prefers_receive(self):
        # Arrange exact equality of candidate start times.
        params = LogGPParameters(L=10.0, o=2.0, g=5.0, G=0.5, P=3)
        pat = CommPattern(3)
        pat.add(0, 1, 1)  # arrives at 12
        pat.add(1, 2, 1)
        res = simulate_standard(params, pat, start_times={1: 12.0})
        ops = res.timeline.events_of(1)
        # start_recv == start_send == 12: strict '<' favours the receive
        assert ops[0].kind is OpKind.RECV

    def test_send_goes_first_when_no_message_arrived(self):
        pat = CommPattern(3)
        pat.add(0, 1, 1)  # arrives at 12
        pat.add(1, 2, 1)  # P1 is free at t=0, sends long before arrival
        res = simulate_standard(PARAMS, pat)
        ops = res.timeline.events_of(1)
        assert ops[0].kind is OpKind.SEND
        assert ops[0].start == 0.0


class TestSelfMessages:
    def test_local_messages_skipped_and_reported(self):
        pat = CommPattern(2, edges=[(0, 0, 10), (0, 1, 1)])
        res = simulate_standard(PARAMS, pat)
        assert len(res.skipped_local) == 1
        assert len(res.timeline.events) == 2  # one send + one recv

    def test_pure_local_pattern_is_free(self):
        pat = CommPattern(2, edges=[(1, 1, 10)])
        res = simulate_standard(PARAMS, pat)
        assert res.completion_time == 0.0
        assert res.timeline.events == []


class TestStartTimes:
    def test_start_times_shift_everything(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        base = simulate_standard(PARAMS, pat)
        shifted = simulate_standard(PARAMS, pat, start_times={0: 100.0, 1: 100.0})
        assert shifted.completion_time == pytest.approx(base.completion_time + 100.0)

    def test_heterogeneous_start_times(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        res = simulate_standard(PARAMS, pat, start_times={0: 50.0, 1: 0.0})
        (recv,) = res.timeline.recvs()
        assert recv.start == pytest.approx(62.0)

    def test_idle_proc_keeps_its_clock(self):
        pat = CommPattern(3, edges=[(0, 1, 1)])
        res = simulate_standard(PARAMS, pat, start_times={2: 33.0})
        assert res.ctimes[2] == 33.0


class TestDeterminismAndInvariants:
    def test_same_seed_same_result(self):
        pat = sample_pattern()
        a = simulate_standard(MEIKO_CS2, pat, seed=42)
        b = simulate_standard(MEIKO_CS2, pat, seed=42)
        assert a.completion_time == b.completion_time
        assert [str(e) for e in a.timeline.events] == [str(e) for e in b.timeline.events]

    def test_explicit_rng_used(self):
        pat = sample_pattern()
        rng = np.random.default_rng(7)
        res = simulate_standard(MEIKO_CS2, pat, rng=rng)
        res.timeline.validate(pat.messages)

    def test_sample_pattern_invariants(self):
        pat = sample_pattern()
        res = simulate_standard(MEIKO_CS2, pat)
        res.timeline.validate(pat.messages)

    def test_empty_pattern(self):
        res = simulate_standard(PARAMS, CommPattern(4))
        assert res.completion_time == 0.0

    def test_elapsed_relative_to_start(self):
        pat = CommPattern(2, edges=[(0, 1, 1)])
        res = simulate_standard(PARAMS, pat, start_times={0: 10.0, 1: 10.0})
        assert res.elapsed() == pytest.approx(14.0)
