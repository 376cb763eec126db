"""Direct unit tests for the shared seeded-sampler layer (`repro.uq.sampler`).

The jitter/straggler draw powering :class:`JitteredNetwork` lived inline
in the network for two PRs without its own tests; now that it is the
shared primitive under both the emulator and the UQ engine, it gets the
battery it always needed: seed determinism, distribution sanity,
straggler frequency bounds, and bit-compatibility with the original
inline implementation.
"""

import numpy as np
import pytest

from repro.core import MEIKO_CS2
from repro.core.message import Message
from repro.machine import JitteredNetwork
from repro.uq import (
    apply_jitter,
    child_rng,
    derive_seed,
    jitter_normalizer,
    lognormal_multiplier,
    replicate_seeds,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("a", 1, "b") == derive_seed("a", 1, "b")

    def test_key_sensitivity(self):
        assert derive_seed("a", 1) != derive_seed("a", 2)
        assert derive_seed("a", 1) != derive_seed("b", 1)

    def test_no_concatenation_collision(self):
        assert derive_seed("ab", "c") != derive_seed("a", "bc")

    def test_range_is_uint64(self):
        for keys in (("x",), (0,), ("uq", 123, "L")):
            s = derive_seed(*keys)
            assert 0 <= s < 2**64

    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            derive_seed()
        with pytest.raises(TypeError):
            derive_seed(1.5)

    def test_child_rng_streams_independent(self):
        a = child_rng("s", 0, "L").random(4)
        b = child_rng("s", 0, "G").random(4)
        assert not np.allclose(a, b)
        again = child_rng("s", 0, "L").random(4)
        assert np.array_equal(a, again)


class TestReplicateSeeds:
    def test_deterministic_spec_collapses_to_base(self):
        assert replicate_seeds(7, 5, deterministic=True) == (7,) * 5

    def test_stochastic_seeds_distinct_and_stable(self):
        seeds = replicate_seeds(7, 16)
        assert len(set(seeds)) == 16
        assert seeds == replicate_seeds(7, 16)

    def test_base_seed_changes_everything(self):
        assert not set(replicate_seeds(0, 8)) & set(replicate_seeds(1, 8))

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            replicate_seeds(0, 0)


class TestLognormalMultiplier:
    def test_sigma_zero_is_exactly_one_without_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert lognormal_multiplier(rng, 0.0) == 1.0
        assert rng.bit_generator.state == state

    def test_mean_is_one(self):
        rng = np.random.default_rng(42)
        draws = [lognormal_multiplier(rng, 0.3) for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(1.0, rel=0.02)

    def test_spread_grows_with_sigma(self):
        lo = np.std([lognormal_multiplier(child_rng("m", i), 0.05) for i in range(4000)])
        hi = np.std([lognormal_multiplier(child_rng("m", i), 0.30) for i in range(4000)])
        assert hi > lo

    def test_positive(self):
        rng = np.random.default_rng(3)
        assert all(lognormal_multiplier(rng, 1.0) > 0 for _ in range(1000))

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            lognormal_multiplier(np.random.default_rng(0), -0.1)


class TestApplyJitter:
    def test_zero_knobs_identity_and_no_draws(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert apply_jitter(9.0, rng, 0.0) == 9.0
        assert rng.bit_generator.state == state

    def test_seed_determinism(self):
        a = [apply_jitter(1.0, np.random.default_rng(5), 0.2, 0.1, 2.0)]
        b = [apply_jitter(1.0, np.random.default_rng(5), 0.2, 0.1, 2.0)]
        assert a == b

    def test_straggler_frequency_matches_probability(self):
        rng = np.random.default_rng(11)
        prob, factor = 0.25, 3.0
        hits = sum(
            apply_jitter(1.0, rng, 0.0, prob, factor) == factor
            for _ in range(20000)
        )
        assert hits / 20000 == pytest.approx(prob, abs=0.02)

    def test_straggler_prob_bounds(self):
        rng = np.random.default_rng(0)
        assert all(apply_jitter(1.0, rng, 0.0, 0.0, 5.0) == 1.0 for _ in range(100))
        rng = np.random.default_rng(0)
        assert all(apply_jitter(1.0, rng, 0.0, 1.0, 5.0) == 5.0 for _ in range(100))

    def test_normalized_mean_preserved(self):
        sigma, prob, factor = 0.2, 0.1, 2.5
        norm = jitter_normalizer(sigma, prob, factor)
        rng = np.random.default_rng(123)
        draws = [
            apply_jitter(9.0 * norm, rng, sigma, prob, factor) for _ in range(40000)
        ]
        assert np.mean(draws) == pytest.approx(9.0, rel=0.02)


class TestNetworkUsesSharedSampler:
    """The extraction must be bit-invisible to the emulated network."""

    def _reference_latency(self, net, rng):
        """The pre-extraction inline implementation, verbatim."""
        lat = net.params.L * net._norm
        if net.jitter_sigma:
            lat *= float(np.exp(rng.normal(0.0, net.jitter_sigma)))
        if net.straggler_prob and rng.random() < net.straggler_prob:
            lat *= net.straggler_factor
        return lat

    def test_latency_bit_identical_to_inline_implementation(self):
        msg = Message(src=0, dst=1, size=1160, uid=0)
        net = JitteredNetwork(params=MEIKO_CS2, seed=42)
        ref_rng = np.random.default_rng(42)
        ref_net = JitteredNetwork(params=MEIKO_CS2, seed=42)
        for _ in range(500):
            assert net.latency_of(msg) == self._reference_latency(ref_net, ref_rng)

    @pytest.mark.parametrize("sigma", [0.0, 0.1])
    @pytest.mark.parametrize("prob", [0.0, 0.01, 1.0])
    @pytest.mark.parametrize("k", [0, 1, 500])
    def test_latencies_equal_successive_latency_of(self, sigma, prob, k):
        """The per-step batch is ``k`` scalar draws, state included."""
        knobs = dict(params=MEIKO_CS2, jitter_sigma=sigma, straggler_prob=prob, seed=42)
        batch = JitteredNetwork(**knobs)
        scalar = JitteredNetwork(**knobs)
        got = batch.latencies(k)
        assert type(got) is list and all(type(x) is float for x in got)
        assert got == [scalar.latency_of(None) for _ in range(k)]
        assert batch._rng.bit_generator.state == scalar._rng.bit_generator.state

    def test_latencies_and_latency_of_continue_one_stream(self):
        batch = JitteredNetwork(params=MEIKO_CS2, seed=7)
        scalar = JitteredNetwork(params=MEIKO_CS2, seed=7)
        got = []
        for k in (3, 0, 1, 40, 2):
            got += batch.latencies(k)
            got.append(batch.latency_of(None))
        assert got == [scalar.latency_of(None) for _ in range(len(got))]
        assert batch._rng.bit_generator.state == scalar._rng.bit_generator.state

    def test_normalizer_matches_inline_formula(self):
        net = JitteredNetwork(
            params=MEIKO_CS2, jitter_sigma=0.2, straggler_prob=0.05,
            straggler_factor=3.0,
        )
        lognormal_mean = float(np.exp(0.2**2 / 2.0))
        straggler_mean = 1.0 + 0.05 * (3.0 - 1.0)
        assert net._norm == 1.0 / (lognormal_mean * straggler_mean)
