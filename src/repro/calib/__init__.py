"""Bayesian calibration of the LogGP machine from measured timings.

The paper predicts running times from *fitted* machine parameters; this
package quantifies how sure that fit is.  Given raw timing measurements
— emulator runs via :func:`measure_emulator`, or imported JSON traces —
:func:`calibrate` produces a joint posterior over ``(L, o, g, G)`` and
per-op cost factors:

1. :mod:`repro.calib.measure` collects per-repeat observations (the
   spread the point fit's medians throw away);
2. :mod:`repro.calib.likelihood` scores candidate machines against them
   using the *same* closed forms the point fit inverts
   (:func:`repro.core.fitting.microbench_model`);
3. :mod:`repro.calib.mcmc` samples the posterior with a seeded,
   dependency-free componentwise Metropolis chain;
4. the resulting :class:`Posterior` hands its draws to the UQ engine as
   an :class:`repro.uq.EmpiricalSpec` — predicted runtimes then carry
   credible intervals derived from data instead of hand-picked sigmas.

Two anchors make the whole stochastic pipeline testable exactly:

* **zero-noise collapse** — measurements with no spread produce a
  degenerate posterior equal to the point fit bit for bit, whose
  ``EmpiricalSpec`` is deterministic, so ``repro calibrate`` followed by
  ``repro uq --posterior`` reproduces the plain sweep digest;
* **seeded everything** — measurement noise and the chain both draw
  from :func:`repro.uq.sampler.child_rng` streams, so posterior
  summaries are exact-equality golden-testable across platforms and
  worker counts.

CLI front-end: ``python -m repro calibrate --noise-sigma 0.05``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..obs.events import get_tracer
from ..uq.spec import LOGGP_PARAMS, MachineDraw
from .likelihood import CalibModel, GroupStats, group_stats
from .measure import DEFAULT_OP_SIZES, Measurement, MeasurementSet, measure_emulator
from .mcmc import MCMCConfig, MCMCResult, run_mcmc
from .posterior import Posterior

__all__ = [
    "DEFAULT_OP_SIZES",
    "CalibModel",
    "GroupStats",
    "MCMCConfig",
    "MCMCResult",
    "Measurement",
    "MeasurementSet",
    "Posterior",
    "calibrate",
    "calibrate_emulator",
    "group_stats",
    "measure_emulator",
    "run_mcmc",
]


def _point_fit_draw(model: CalibModel) -> MachineDraw:
    """The classical point estimate as a :class:`MachineDraw`.

    Network parameters come straight from the median inversion; each
    op's factor is the geometric-mean observed/base ratio (the prior
    centre), computed from the raw group values so that measurements
    matching the base cost model give a factor of exactly ``1.0``.
    """
    fit = model.point
    ops = {}
    for op in model.ops:
        # raw per-(op, size) ratios: identical observations divide the
        # base cost exactly (1.0 bit for bit when they match it)
        raw = [
            (values, size)
            for (kind, size, gop), values in model.mset.groups().items()
            if kind == "op" and gop == op
        ]
        per_size = []
        for values, size in raw:
            base = model.base_cost_model.cost(op, size)
            if all(v == values[0] for v in values):
                per_size.append(values[0] / base)
            else:
                per_size.append(
                    float(np.exp(np.mean(np.log(np.asarray(values) / base))))
                )
        first = per_size[0]
        if all(r == first for r in per_size):
            ops[op] = first
        else:
            ops[op] = float(np.exp(np.mean(np.log(per_size))))
    return MachineDraw(L=fit.L, o=fit.o, g=fit.g, G=fit.G, ops=ops)


def calibrate(
    mset: MeasurementSet,
    *,
    base_cost_model=None,
    draws: int = 200,
    burn: int = 200,
    thin: int = 2,
    prior_tau: float = 1.0,
    seed: int = 0,
) -> Posterior:
    """Posterior inference over the machine from one measurement set.

    Builds the likelihood (``calib.fit`` span), then either collapses —
    measurements with no spread anywhere yield the degenerate posterior
    at the point fit, bit for bit, without running a chain
    (``calib.collapse`` span) — or samples with the seeded Metropolis
    chain (``calib.mcmc`` span).  ``base_cost_model`` is required iff
    the set contains op timings.
    """
    tracer = get_tracer()
    with tracer.span("calib.fit", measurements=len(mset.measurements)):
        model = CalibModel(mset, base_cost_model, prior_tau=prior_tau)
        point = _point_fit_draw(model)
    config_doc = {
        "draws": draws, "burn": burn, "thin": thin,
        "prior_tau": prior_tau, "seed": seed,
        "noise_sigma": mset.noise_sigma,
        "measurements": len(mset.measurements),
    }
    if model.is_degenerate():
        with tracer.span("calib.collapse"):
            return Posterior(
                draws=(point,),
                point_fit=point,
                degenerate=True,
                accept_rate=0.0,
                config=config_doc,
            )
    with tracer.span("calib.mcmc", draws=draws, dims=len(model.names)):
        result = run_mcmc(
            model, MCMCConfig(draws=draws, burn=burn, thin=thin, seed=seed)
        )
        machine_draws = tuple(
            MachineDraw(
                L=float(np.exp(row[0])),
                o=float(np.exp(row[1])),
                g=float(np.exp(row[2])),
                G=float(np.exp(row[3])),
                ops={
                    op: float(np.exp(row[len(LOGGP_PARAMS) + i]))
                    for i, op in enumerate(model.ops)
                },
            )
            for row in result.samples
        )
    return Posterior(
        draws=machine_draws,
        point_fit=point,
        degenerate=False,
        accept_rate=result.accept_rate,
        config=config_doc,
    )


def calibrate_emulator(
    params,
    cost_model=None,
    *,
    noise_sigma: float = 0.0,
    repeats: int = 5,
    large_bytes: int = 65536,
    burst_count: int = 16,
    op_sizes=DEFAULT_OP_SIZES,
    draws: int = 200,
    burn: int = 200,
    thin: int = 2,
    prior_tau: float = 1.0,
    seed: int = 0,
) -> Posterior:
    """Measure the emulator with injected jitter, then :func:`calibrate`.

    The self-validation entrypoint: ``params`` is the *known* ground
    truth, and the harness gates that the posterior's credible intervals
    cover it.  One ``calib.measure`` span wraps the collection.
    """
    tracer = get_tracer()
    with tracer.span("calib.measure", repeats=repeats):
        mset = measure_emulator(
            params,
            cost_model,
            noise_sigma=noise_sigma,
            repeats=repeats,
            large_bytes=large_bytes,
            burst_count=burst_count,
            op_sizes=op_sizes,
            seed=seed,
        )
    return calibrate(
        mset,
        base_cost_model=cost_model,
        draws=draws,
        burn=burn,
        thin=thin,
        prior_tau=prior_tau,
        seed=seed,
    )
