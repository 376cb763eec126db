"""A seeded componentwise Metropolis sampler for the calibration posterior.

Pure Python + numpy, no new dependencies: a random-walk Metropolis chain
that updates one dimension at a time.  Componentwise (single-site)
updates matter here because measurement groups can have wildly different
spreads — a zero-noise group pins its parameter (zero proposal scale)
without freezing the whole chain, which a joint proposal would.

Everything is a pure function of the seed: the chain's RNG comes from
:func:`repro.uq.sampler.child_rng` with a dedicated key, so the same
measurement set and configuration reproduce the same posterior draws on
any platform, in any process — which is what lets golden tests assert
posterior summaries with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..uq.sampler import child_rng
from .likelihood import CalibModel

__all__ = ["MCMCConfig", "MCMCResult", "run_mcmc"]


@dataclass(frozen=True)
class MCMCConfig:
    """Chain configuration: length, thinning and the seed."""

    draws: int = 200  # posterior samples to keep
    burn: int = 200  # sweeps discarded before collection
    thin: int = 2  # sweeps per kept sample
    seed: int = 0

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ValueError(f"draws must be >= 1, got {self.draws}")
        if self.burn < 0:
            raise ValueError(f"burn must be >= 0, got {self.burn}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")

    def to_dict(self) -> dict:
        return {
            "draws": self.draws, "burn": self.burn,
            "thin": self.thin, "seed": self.seed,
        }


@dataclass(frozen=True)
class MCMCResult:
    """The chain's output: kept samples plus acceptance diagnostics."""

    samples: np.ndarray  # (draws, dim) log-parameter vectors
    accept_rate: float  # proposals accepted / proposals made, all dims
    accept_by_dim: tuple  # per-dimension acceptance rates


def run_mcmc(model: CalibModel, config: MCMCConfig) -> MCMCResult:
    """Sample the calibration posterior with single-site Metropolis.

    One *sweep* proposes a Gaussian step in every dimension in turn
    (scales from :meth:`CalibModel.proposal_scales`); after ``burn``
    sweeps, every ``thin``-th sweep's state is kept.  Dimensions with a
    zero proposal scale never move — their groups have no spread, so the
    posterior conditional is (numerically) a point mass at the start.
    """
    rng = child_rng("calib-mcmc", config.seed)
    theta = model.initial()
    dim = theta.shape[0]
    steps = model.proposal_scales()
    if steps.shape != (dim,):
        raise ValueError(
            f"proposal scales shape {steps.shape} != parameter dim {dim}"
        )
    lp = model.log_posterior(theta)
    normal, uniform = rng.standard_normal, rng.random
    step_list = steps.tolist()
    accepts = [0] * dim
    proposals = [0] * dim
    samples = np.empty((config.draws, dim), dtype=float)
    kept = 0
    total_sweeps = config.burn + config.draws * config.thin
    for sweep in range(total_sweeps):
        for j, step in enumerate(step_list):
            z = normal()
            if step == 0.0:
                continue  # pinned dimension (zero-spread group)
            proposals[j] += 1
            prop = theta.copy()
            prop[j] += step * z
            lp_prop = model.log_posterior(prop)
            if uniform() < np.exp(min(0.0, lp_prop - lp)):
                theta, lp = prop, lp_prop
                accepts[j] += 1
        if sweep >= config.burn and (sweep - config.burn) % config.thin == 0:
            samples[kept] = theta
            kept += 1
    assert kept == config.draws
    total = sum(proposals)
    by_dim = tuple(
        a / p if p else 0.0 for a, p in zip(accepts, proposals)
    )
    return MCMCResult(
        samples=samples,
        accept_rate=sum(accepts) / total if total else 0.0,
        accept_by_dim=by_dim,
    )
