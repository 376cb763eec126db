"""The emulated node's computation phase draws its noise in one call.

``NodeCPU.run_phase`` draws a whole phase's log-normal noise factors as
one vector; ``run_phase_reference`` (``tests/oracle.py``) is the per-op
loop it replaced, one scalar draw per operation.  Both must return the
same :class:`CompPhaseResult` bit for bit and consume the node
generator identically, with and without a cache, for every noise level
(σ = 0 draws nothing at all).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockops import OP_NAMES
from repro.core import CalibratedCostModel
from repro.machine import BlockCache, NodeCPU
from repro.trace import Work

from .oracle import run_phase_reference

CM = CalibratedCostModel()

_work = st.builds(
    Work,
    op=st.sampled_from(OP_NAMES),
    b=st.sampled_from([4, 8, 16, 40]),
    block=st.tuples(st.integers(0, 5), st.integers(0, 5)),
    iteration=st.integers(0, 5),
)


def _cpu(sigma: float, cache_bytes, seed: int) -> NodeCPU:
    return NodeCPU(
        cost_model=CM,
        cache=BlockCache(cache_bytes) if cache_bytes else None,
        assigned_blocks=7,
        noise_sigma=sigma,
        rng=np.random.default_rng((seed, 1)),
    )


def _result(phase):
    return (
        repr(phase.total_us),
        repr(phase.warm_us),
        repr(phase.cache_us),
        repr(phase.scan_us),
    )


@pytest.mark.parametrize("sigma", [0.0, 0.02, 0.3])
@pytest.mark.parametrize("cache_bytes", [None, 4096, 1 << 20], ids=["nocache", "small", "big"])
@settings(max_examples=40, deadline=None)
@given(
    phases=st.lists(st.lists(_work, max_size=12), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_run_phase_equals_per_op_reference(sigma, cache_bytes, phases, seed):
    """Same results phase after phase, and the same next draw afterwards."""
    fast = _cpu(sigma, cache_bytes, seed)
    ref = _cpu(sigma, cache_bytes, seed)
    for ops in phases:
        assert _result(fast.run_phase(ops)) == _result(run_phase_reference(ref, ops))
    assert fast.rng.random() == ref.rng.random()


def test_zero_sigma_draws_nothing():
    cpu = _cpu(0.0, None, 0)
    cpu.run_phase([Work(op="op1", b=8), Work(op="op4", b=8)])
    assert cpu.rng.random() == np.random.default_rng((0, 1)).random()
