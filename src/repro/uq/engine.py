"""The Monte Carlo UQ engine: replicated sweeps plus OAT sensitivity.

:func:`run_uq` is the uncertainty analogue of
:func:`repro.sweep.run_sweep`: it expands a (n, block sizes, layouts)
study into ``replicates`` seeded machine perturbations per point, runs
the resulting grid through the parallel sweep runner (worker pools,
chunking, store resume and digests all come for free — a replicate *is*
a grid point), and reduces the ensemble to per-point uncertainty
summaries.

:func:`oat_sensitivity` is the deterministic companion study: a
one-at-a-time ±step on each LogGP parameter at each block size, ranking
which parameter the predicted time is most elastic to (reusing
:mod:`repro.analysis.sensitivity`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..analysis.sensitivity import parameter_elasticities
from ..core.costmodel import CostModel
from ..core.loggp import LogGPParameters
from ..experiments import PointSummary
from ..kernel.vector import ge_plan, simulate_programs_batch
from ..layouts import LAYOUTS
from ..sweep import SweepResult, expand_grid, run_sweep
from .reduce import (
    METRIC_FIELDS,
    UQPointSummary,
    reduce_replicates,
    summary_digest,
)
from .sampler import replicate_seeds
from .spec import UQSpec

__all__ = ["UQResult", "run_uq", "oat_sensitivity"]

# the reduction hardcodes the PointSummary metric names to stay
# import-light; fail loudly here if the dataclass ever drifts
_POINT_FIELDS = set(PointSummary.__dataclass_fields__)
assert set(METRIC_FIELDS) <= _POINT_FIELDS, (
    "repro.uq.reduce.METRIC_FIELDS is out of sync with PointSummary: "
    f"{set(METRIC_FIELDS) - _POINT_FIELDS}"
)


@dataclass
class UQResult:
    """A completed Monte Carlo study.

    ``sweep`` is the underlying replicate-level sweep result (grid order:
    replicates of one point are adjacent); ``summaries`` the reduced
    per-point uncertainty summaries in point order.
    """

    spec: UQSpec
    replicates: int
    ci: float
    base_seed: int
    sweep: SweepResult
    summaries: List[UQPointSummary] = field(default_factory=list)

    def replicate_digest(self) -> str:
        """SHA-256 over the replicate-level rows.

        For a deterministic (``sigma=0``) spec the replicate grid
        collapses onto the base seed, so this digest equals the plain
        ``repro sweep`` ``results_sha256`` bit for bit — the acceptance
        anchor of the UQ test harness.
        """
        return self.sweep.digest()

    def summary_digest(self) -> str:
        """SHA-256 over the reduced summaries (worker-equivalence gate)."""
        return summary_digest(self.summaries)

    def to_rows(self) -> list[dict]:
        """JSON-ready summary documents in point order."""
        return [s.to_dict() for s in self.summaries]


def run_uq(
    ns: Union[int, Sequence[int]],
    block_sizes: Sequence[int],
    layouts: Sequence[str],
    params: LogGPParameters,
    cost_model: CostModel,
    *,
    spec: Optional[UQSpec] = None,
    replicates: int = 32,
    ci: float = 0.95,
    base_seed: int = 0,
    with_measured: bool = True,
    workers: Union[int, str] = 1,
    store=None,
    resume: bool = True,
    chunk_size: Optional[int] = None,
    progress=None,
    mp_context: Optional[str] = None,
    trace_shard_dir=None,
) -> UQResult:
    """Monte Carlo uncertainty study of a GE sweep.

    Each replicate derives its own seed from ``base_seed``
    (:func:`repro.uq.sampler.replicate_seeds`); the seed fully determines
    the perturbed machine and the emulated network's draws, so the study
    is reproducible across worker counts and resumable through an
    experiment store.  A deterministic ``spec`` maps every replicate to
    the base seed, and the grid's duplicate-dropping collapses the
    ensemble to exactly the deterministic sweep.

    See :func:`repro.sweep.run_sweep` for the execution parameters.
    """
    if spec is None:
        spec = UQSpec()
    if not 0.0 < ci < 1.0:
        raise ValueError(f"ci must be in (0, 1), got {ci}")
    seeds = replicate_seeds(base_seed, replicates, spec.is_deterministic())
    grid = expand_grid(
        ns, block_sizes, layouts, seeds=seeds, with_measured=with_measured
    )
    result = run_sweep(
        grid, params, cost_model,
        workers=workers, store=store, resume=resume,
        chunk_size=chunk_size, progress=progress,
        mp_context=mp_context, uq=spec, trace_shard_dir=trace_shard_dir,
    )
    summaries = reduce_replicates(result.points, result.summaries, ci=ci)
    return UQResult(
        spec=spec,
        replicates=replicates,
        ci=ci,
        base_seed=base_seed,
        sweep=result,
        summaries=summaries,
    )


def oat_sensitivity(
    n: int,
    block_sizes: Sequence[int],
    layout_name: str,
    params: LogGPParameters,
    cost_model: CostModel,
    rel_step: float = 0.05,
    mode: str = "standard",
) -> list[dict]:
    """One-at-a-time LogGP sensitivity at each block size.

    For each ``b``, perturbs each of ``L, o, g, G`` by ``±rel_step`` and
    reports the elasticity of the predicted running time plus which
    parameter dominates — the designer-facing ranking of the UQ report.
    Deterministic (no sampling), so it complements the Monte Carlo bands.

    Each block size compiles one plan (:func:`~repro.kernel.vector.ge_plan`),
    and each of its nine predictions prices that plan as a width-1
    ``mode`` lane with tie-break seed 0: what
    :meth:`~repro.core.predictor.RunningTimePredictor.predict` returns
    on the configuration's trace, bit for bit.
    """
    if layout_name not in LAYOUTS:
        raise ValueError(f"unknown layout {layout_name!r}; known: {sorted(LAYOUTS)}")
    out = []
    for b in block_sizes:
        if n % b:
            raise ValueError(f"block size {b} does not divide n={n}")
        plan = ge_plan(n, b, layout_name, params.P)

        def predict(p: LogGPParameters, _plan=plan) -> float:
            lane = simulate_programs_batch(_plan, [(p, cost_model)], [0], modes=(mode,))
            return lane[0][mode].total_us

        res = parameter_elasticities(predict, params, rel_step=rel_step)
        out.append(
            {
                "b": b,
                "layout": layout_name,
                "base_us": res.base_us,
                "elasticity": dict(res.elasticity),
                "dominant": res.dominant(),
            }
        )
    return out
