"""Tests for messages and communication patterns (repro.core.message)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommPattern, Message


class TestMessage:
    def test_fields(self):
        m = Message(src=1, dst=2, size=64, uid=0, seq=3)
        assert (m.src, m.dst, m.size, m.seq) == (1, 2, 64, 3)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Message(src=0, dst=1, size=0, uid=0)

    def test_negative_proc_rejected(self):
        with pytest.raises(ValueError):
            Message(src=-1, dst=1, size=1, uid=0)

    def test_is_local(self):
        assert Message(src=2, dst=2, size=1, uid=0).is_local
        assert not Message(src=2, dst=3, size=1, uid=0).is_local

    def test_str_mentions_endpoints(self):
        text = str(Message(src=1, dst=2, size=64, uid=7))
        assert "P1" in text and "P2" in text and "64" in text


class TestCommPatternConstruction:
    def test_empty(self):
        pat = CommPattern(4)
        assert len(pat) == 0
        assert not pat

    def test_add_returns_message(self):
        pat = CommPattern(4)
        m = pat.add(0, 1, 128)
        assert isinstance(m, Message)
        assert m.size == 128

    def test_out_of_range_src_rejected(self):
        with pytest.raises(ValueError):
            CommPattern(4).add(4, 0)

    def test_out_of_range_dst_rejected(self):
        with pytest.raises(ValueError):
            CommPattern(4).add(0, 4)

    def test_edges_constructor_two_and_three_tuples(self):
        pat = CommPattern(3, edges=[(0, 1), (1, 2, 99)], default_size=7)
        sizes = [m.size for m in pat]
        assert sizes == [7, 99]

    def test_bad_edge_tuple_rejected(self):
        with pytest.raises(ValueError):
            CommPattern(3, edges=[(0, 1, 2, 3)])

    def test_zero_procs_rejected(self):
        with pytest.raises(ValueError):
            CommPattern(0)

    def test_program_order_per_sender(self):
        pat = CommPattern(4)
        pat.add(0, 1)
        pat.add(2, 3)
        pat.add(0, 2)
        seqs = [m.seq for m in pat.sends_of(0)]
        assert seqs == [0, 1]
        assert pat.sends_of(2)[0].seq == 0

    def test_uids_unique(self):
        pat = CommPattern(3, edges=[(0, 1)] * 5)
        assert len({m.uid for m in pat}) == 5


class TestCommPatternQueries:
    @pytest.fixture
    def pat(self):
        return CommPattern(4, edges=[(0, 1, 10), (0, 2, 20), (1, 1, 30), (2, 0, 40)])

    def test_degrees(self, pat):
        assert pat.out_degree(0) == 2
        assert pat.in_degree(1) == 2  # one remote + one local
        assert pat.in_degree(3) == 0

    def test_remote_and_local_split(self, pat):
        assert len(pat.remote_messages()) == 3
        assert len(pat.local_messages()) == 1
        assert pat.local_messages()[0].src == 1

    def test_participants(self, pat):
        assert pat.participants() == (0, 1, 2)

    def test_total_bytes(self, pat):
        assert pat.total_bytes() == 100

    def test_recvs_of(self, pat):
        assert [m.size for m in pat.recvs_of(0)] == [40]

    def test_scaled(self, pat):
        doubled = pat.scaled(2.0)
        assert doubled.total_bytes() == 200
        tiny = pat.scaled(0.0001)
        assert all(m.size == 1 for m in tiny)

    def test_scaled_zero_rejected(self, pat):
        with pytest.raises(ValueError):
            pat.scaled(0)

    def test_validate_accepts_well_formed(self, pat):
        pat.validate()

    def test_from_adjacency(self):
        pat = CommPattern.from_adjacency({0: [(1, 5), (2, 6)], 2: [(0, 7)]}, num_procs=3)
        assert len(pat) == 3
        assert [m.size for m in pat.sends_of(0)] == [5, 6]


class TestGraphAnalysis:
    def test_acyclic_pattern(self):
        pat = CommPattern(3, edges=[(0, 1), (1, 2)])
        assert not pat.has_cycle()

    def test_cycle_detected(self):
        pat = CommPattern(3, edges=[(0, 1), (1, 2), (2, 0)])
        assert pat.has_cycle()

    def test_self_loop_not_counted_by_default(self):
        pat = CommPattern(3, edges=[(0, 0), (0, 1)])
        assert not pat.has_cycle()

    @settings(max_examples=200, deadline=None)
    @given(
        num_procs=st.integers(min_value=1, max_value=7),
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=14
        ),
    )
    def test_has_cycle_agrees_with_networkx(self, num_procs, edges):
        """Random multigraphs (self-loops, parallel edges, isolated
        processors): the topological sort agrees with networkx."""
        pat = CommPattern(
            num_procs, edges=[(s % num_procs, d % num_procs) for s, d in edges]
        )
        assert pat.has_cycle() == (
            not nx.is_directed_acyclic_graph(pat.to_networkx())
        )

    def test_to_networkx_structure(self):
        pat = CommPattern(3, edges=[(0, 1, 10), (0, 1, 20), (2, 2, 5)])
        g = pat.to_networkx()
        assert isinstance(g, nx.MultiDiGraph)
        assert g.number_of_nodes() == 3
        assert g.number_of_edges(0, 1) == 2  # multigraph keeps both
        assert g.number_of_edges(2, 2) == 0  # local excluded by default
        g_local = pat.to_networkx(include_local=True)
        assert g_local.number_of_edges(2, 2) == 1

    def test_edge_sizes_preserved(self):
        pat = CommPattern(2, edges=[(0, 1, 123)])
        g = pat.to_networkx()
        (_, _, data), = g.edges(data=True)
        assert data["size"] == 123
