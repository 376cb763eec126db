"""Cache-correctness tests for the kernel memo layer.

The memo's safety argument is *structural invalidation*: every machine
perturbation changes the cache key, so a stale hit is impossible by
construction.  These tests exercise each clause of that argument — the
sharing direction (equal machines hit one bucket), the invalidation
direction (perturbed machines miss), and the regression that motivated
the design: two UQ replicates evaluated back-to-back in one worker
process must not see each other's costs.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.core import MEIKO_CS2, CalibratedCostModel, ProgramSimulator
from repro.core.costmodel import FlopCostModel, TableCostModel
from repro.kernel import clear_all_caches, memoize, send_durations
from repro.kernel.memo import _COST_CACHES, _SEND_TABLES, MemoizedCostModel
from repro.machine.perturbed import PerturbedMachine, ScaledCostModel
from repro.trace import TraceBuilder
from repro.uq import UQSpec

from .oracle import reference_engine


class CountingModel:
    """A fingerprintable model that counts base evaluations."""

    def __init__(self, tag="counting:v1"):
        self.tag = tag
        self.calls = 0

    def cost(self, op, b):
        self.calls += 1
        return 1.5 * b

    def fingerprint(self):
        return self.tag


class UnfingerprintableModel:
    """No ``fingerprint`` method — the memo must refuse to cache it."""

    def cost(self, op, b):
        return 2.0 * b


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all_caches()
    yield
    clear_all_caches()


# -- sharing -----------------------------------------------------------------

def test_equal_fingerprints_share_one_bucket():
    a, b = CountingModel(), CountingModel()
    ma, mb = memoize(a), memoize(b)
    assert isinstance(ma, MemoizedCostModel)
    assert ma._cache is mb._cache
    assert ma.cost("op1", 16) == 1.5 * 16
    assert mb.cost("op1", 16) == 1.5 * 16
    # the second instance hit the shared bucket: its base never ran
    assert a.calls == 1
    assert b.calls == 0


def test_memoize_is_idempotent():
    m = memoize(CountingModel())
    assert memoize(m) is m


def test_hit_returns_bitwise_identical_value():
    cm = CalibratedCostModel()
    m = memoize(cm)
    miss = m.cost("op3", 24)
    hit = m.cost("op3", 24)
    assert repr(miss) == repr(hit) == repr(cm.cost("op3", 24))


def test_invalid_inputs_raise_like_the_base():
    m = memoize(TableCostModel({"op1": {16: 3.0}}))
    with pytest.raises(ValueError):
        m.cost("nope", 16)


def test_same_fingerprint_subclass_gets_its_own_bucket():
    """A subclass that keeps its parent's fingerprint but overrides
    ``cost`` must still be called: it is not served the parent's prices."""

    class Doubling(CalibratedCostModel):
        def __init__(self):
            super().__init__()
            self.calls = 0

        def cost(self, op, b):
            self.calls += 1
            return 2.0 * super().cost(op, b)

    clean = CalibratedCostModel()
    sub = Doubling()
    assert sub.fingerprint() == clean.fingerprint()
    price = memoize(clean).cost("op1", 16)
    got = memoize(sub).cost("op1", 16)
    assert sub.calls == 1
    assert got == 2.0 * price
    assert memoize(sub)._cache is not memoize(clean)._cache


# -- bypass ------------------------------------------------------------------

def test_unfingerprintable_model_bypasses_the_memo():
    model = UnfingerprintableModel()
    assert memoize(model) is model
    assert not _COST_CACHES


def test_scaled_model_over_unfingerprintable_base_bypasses():
    scaled = ScaledCostModel(UnfingerprintableModel(), {"op1": 2.0})
    assert scaled.fingerprint() is None
    assert memoize(scaled) is scaled


# -- invalidation ------------------------------------------------------------

def test_scaled_cost_model_misses_per_factor_table():
    base = CalibratedCostModel()
    s1 = ScaledCostModel(base, {"op1": 1.1})
    s2 = ScaledCostModel(base, {"op1": 1.2})
    m0, m1, m2 = memoize(base), memoize(s1), memoize(s2)
    assert len({id(m._cache) for m in (m0, m1, m2)}) == 3
    assert m1.cost("op1", 16) != m2.cost("op1", 16)
    # same factors → same fingerprint → shared bucket again
    assert memoize(ScaledCostModel(base, {"op1": 1.1}))._cache is m1._cache


def test_perturbed_machine_replicates_get_distinct_buckets():
    spec = UQSpec(sigma=0.1, op_sigma=0.1)
    machine = PerturbedMachine(MEIKO_CS2, CalibratedCostModel(), spec)
    (p1, c1), (p2, c2) = machine.sample(1), machine.sample(2)
    assert (p1.L, p1.o, p1.g, p1.G) != (p2.L, p2.o, p2.g, p2.G)
    m1, m2 = memoize(c1), memoize(c2)
    assert m1._cache is not m2._cache
    assert send_durations(p1) is not send_durations(p2)


def test_deterministic_spec_returns_base_objects():
    machine = PerturbedMachine(MEIKO_CS2, CalibratedCostModel(), UQSpec())
    params, cm = machine.sample(7)
    assert params is MEIKO_CS2
    assert cm is machine.cost_model


def test_mutated_params_miss_the_send_table():
    t0 = send_durations(MEIKO_CS2)
    assert send_durations(MEIKO_CS2) is t0          # value-identity: hit
    assert send_durations(MEIKO_CS2.with_(G=MEIKO_CS2.G * 1.01)) is not t0
    assert send_durations(MEIKO_CS2.with_(L=11.0)) is not t0
    # P is structural, not part of the (L, o, g, G) timing identity
    assert send_durations(MEIKO_CS2.with_(P=16)) is t0


def test_clear_caches_empties_every_table():
    memoize(CountingModel()).cost("op1", 8)
    send_durations(MEIKO_CS2)
    assert _COST_CACHES and _SEND_TABLES
    clear_all_caches()
    assert not _COST_CACHES and not _SEND_TABLES


# -- the motivating regression ----------------------------------------------

def _tiny_trace():
    builder = TraceBuilder(4)
    for p in range(4):
        builder.work(p, "op1", 16)
        builder.work(p, "op4", 16)
    for p in range(1, 4):
        builder.message(p, 0, 1024)
    builder.end_step()
    return builder.build()


def test_two_uq_replicates_in_one_process_stay_bit_exact():
    """Replicates sharing a worker process must not cross-contaminate.

    Evaluate replicate A then replicate B on the kernel (warm caches
    from each other), and compare each against its own fresh-
    process-equivalent run (cold caches, reference simulators).  A stale hit —
    replicate B receiving replicate A's scaled costs — would show up as
    a numeric difference here.
    """
    trace = _tiny_trace()
    spec = UQSpec(sigma=0.1, op_sigma=0.1)
    machine = PerturbedMachine(MEIKO_CS2, CalibratedCostModel(), spec)

    def run(seed, fast):
        params, cm = machine.sample(seed)
        with nullcontext() if fast else reference_engine():
            report = ProgramSimulator(params, cm, mode="standard", seed=0).run(trace)
        return repr(report.total_us), repr(report.per_proc_comp_us)

    cold = {}
    for seed in (1, 2):
        clear_all_caches()
        cold[seed] = run(seed, fast=False)

    clear_all_caches()
    warm_1 = run(1, fast=True)
    warm_2 = run(2, fast=True)          # caches warm from replicate 1
    warm_1_again = run(1, fast=True)    # caches warm from both

    assert warm_1 == cold[1]
    assert warm_2 == cold[2]
    assert warm_1_again == cold[1]


def test_flop_model_fingerprint_reflects_rate():
    assert memoize(FlopCostModel(0.01))._cache is memoize(FlopCostModel(0.01))._cache
    assert (
        memoize(FlopCostModel(0.01))._cache
        is not memoize(FlopCostModel(0.02))._cache
    )
