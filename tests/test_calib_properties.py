"""Property-based tests for the Bayesian calibrator (`repro.calib`).

The three properties the issue pins:

* **Point-fit convergence.**  As the injected measurement noise goes to
  zero, the posterior mean converges to the classical point fit — and at
  exactly zero it *is* the point fit, bit for bit.
* **Width monotonicity.**  The credible intervals never narrow when the
  injected jitter sigma grows.  The measurement layer keys its noise
  draws independently of sigma, so scaling sigma scales every
  log-residual exactly linearly — the property is a construction, not a
  hope.
* **Digest invariance.**  Replaying a posterior through the UQ engine
  gives identical digests whatever the worker count, and on the kernel
  and the reference simulators (``tests/oracle.py``) alike.

Calibrations here use deliberately short chains — the properties are
about structure (convergence, ordering, invariance), not about posterior
quality, which ``test_calib_recovery.py`` gates separately.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calib import calibrate_emulator, measure_emulator
from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.uq import run_uq
from repro.uq.spec import LOGGP_PARAMS

from .oracle import reference_engine

PARAMS = MEIKO_CS2
CM = CalibratedCostModel()

#: short-chain settings shared by the structural properties
FAST_CHAIN = dict(repeats=5, draws=40, burn=60, thin=1)


def quick_posterior(noise_sigma, seed, **overrides):
    return calibrate_emulator(
        PARAMS, CM, noise_sigma=noise_sigma, seed=seed,
        **{**FAST_CHAIN, **overrides},
    )


class TestPointFitConvergence:
    @given(seed=st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=5, deadline=None)
    def test_zero_noise_is_the_point_fit_bit_for_bit(self, seed):
        posterior = quick_posterior(0.0, seed)
        assert posterior.degenerate
        assert posterior.draws == (posterior.point_fit,)

    @given(
        sigma=st.sampled_from([0.01, 0.02, 0.04]),
        seed=st.integers(min_value=0, max_value=2**10 - 1),
    )
    @settings(max_examples=5, deadline=None)
    def test_posterior_mean_within_a_few_sigma_of_the_fit(self, sigma, seed):
        """Mean-to-fit distance is O(sigma) in log space, every parameter."""
        posterior = quick_posterior(sigma, seed)
        summary = posterior.summary()
        point = posterior.point_fit
        for name in LOGGP_PARAMS:
            gap = abs(np.log(summary[name]["mean"]) - np.log(getattr(point, name)))
            assert gap < 5 * sigma, (name, gap, sigma)

    def test_means_converge_as_noise_shrinks(self):
        """Halving sigma (same underlying draws) tightens the worst gap."""
        gaps = []
        for sigma in (0.08, 0.02, 0.005):
            posterior = quick_posterior(sigma, seed=9)
            point = posterior.point_fit
            gaps.append(max(
                abs(np.log(posterior.summary()[n]["mean"])
                    - np.log(getattr(point, n)))
                for n in LOGGP_PARAMS
            ))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.01


class TestWidthMonotonicity:
    @given(
        sigma=st.sampled_from([0.01, 0.02, 0.05]),
        seed=st.integers(min_value=0, max_value=2**10 - 1),
    )
    @settings(max_examples=5, deadline=None)
    def test_tripling_sigma_never_narrows_any_interval(self, sigma, seed):
        narrow = quick_posterior(sigma, seed)
        wide = quick_posterior(3 * sigma, seed)
        for name in LOGGP_PARAMS:
            lo_n, hi_n = narrow.credible_interval(name, 0.9)
            lo_w, hi_w = wide.credible_interval(name, 0.9)
            assert hi_w - lo_w >= hi_n - lo_n, name

    @given(seed=st.integers(min_value=0, max_value=2**10 - 1))
    @settings(max_examples=5, deadline=None)
    def test_residuals_scale_exactly_with_sigma(self, seed):
        """The construction behind monotonicity: shared z-draws."""
        m0 = measure_emulator(PARAMS, noise_sigma=0.0, repeats=3, seed=seed)
        m1 = measure_emulator(PARAMS, noise_sigma=0.03, repeats=3, seed=seed)
        m2 = measure_emulator(PARAMS, noise_sigma=0.09, repeats=3, seed=seed)
        for a, b, c in zip(m0.measurements, m1.measurements, m2.measurements):
            r1 = np.log(b.value) - np.log(a.value)
            r2 = np.log(c.value) - np.log(a.value)
            assert r2 == pytest.approx(3.0 * r1, rel=1e-9, abs=1e-12)


class TestDigestInvariance:
    @pytest.fixture(scope="class")
    def spec(self):
        return quick_posterior(0.05, seed=13).to_spec(max_draws=8)

    def run(self, spec, workers):
        return run_uq(
            [128], [16], ["column"], PARAMS, CM,
            spec=spec, replicates=6, base_seed=0, workers=workers,
        )

    @given(base_seed=st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=3, deadline=None)
    def test_digest_identical_across_worker_counts(self, spec, base_seed):
        serial = run_uq(
            [128], [16], ["column"], PARAMS, CM,
            spec=spec, replicates=6, base_seed=base_seed, workers=1,
        )
        pooled = run_uq(
            [128], [16], ["column"], PARAMS, CM,
            spec=spec, replicates=6, base_seed=base_seed, workers=2,
        )
        assert serial.replicate_digest() == pooled.replicate_digest()
        assert serial.summary_digest() == pooled.summary_digest()

    def test_digest_identical_across_repro_fast(self, spec):
        with reference_engine():
            slow = self.run(spec, workers=1)
        fast = self.run(spec, workers=1)
        assert slow.replicate_digest() == fast.replicate_digest()
        assert slow.summary_digest() == fast.summary_digest()
