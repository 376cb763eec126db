"""High-level prediction API: run the paper's experiments in one call.

This is the layer the benchmarks, examples and integration tests use.  It
wires together trace generation (:mod:`repro.apps`), the whole-program
LogGP simulation (:mod:`repro.core.program_sim`; GE points run it, both
the standard and the worst-case algorithm, as the batch kernel's lanes in
:mod:`repro.kernel.vector`) and — optionally — the machine emulator
standing in for the real Meiko CS-2 (:mod:`repro.machine.emulator`).

One :class:`GERow` is one point of Figures 7-9: a (block size, layout)
pair with its predicted and "measured" breakdowns.  :func:`run_ge_sweep`
produces the full figure series; :func:`predicted_optimum` extracts the
paper's "locally optimal block size" answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..layouts import LAYOUTS
from ..machine.emulator import MachineEmulator, MeasuredReport
from ..trace.program import ProgramTrace
from .cache_extension import CachePredictionModel
from .costmodel import CostModel
from .loggp import LogGPParameters
from .program_sim import PredictionReport, ProgramSimulator

__all__ = [
    "RunningTimePredictor",
    "GERow",
    "run_ge_point",
    "run_ge_sweep",
    "summarize_ge_point",
    "summarize_uq_point",
    "predicted_optimum",
]


class RunningTimePredictor:
    """Predicts program running times from traces (the paper's tool).

    Bundles the machine parameters and cost model; exposes the standard
    and worst-case predictions plus the optional extensions (overlap,
    cache model) as keyword switches.
    """

    def __init__(
        self,
        params: LogGPParameters,
        cost_model: CostModel,
        seed: int = 0,
    ):
        self.params = params
        self.cost_model = cost_model
        self.seed = seed

    def predict(
        self,
        trace: ProgramTrace,
        mode: str = "standard",
        overlap: bool = False,
        cache_model: Optional[CachePredictionModel] = None,
        iter_overhead_us: float = 0.0,
    ) -> PredictionReport:
        """One prediction run; see :class:`ProgramSimulator` for knobs."""
        sim = ProgramSimulator(
            params=self.params,
            cost_model=self.cost_model,
            mode=mode,
            seed=self.seed,
            overlap=overlap,
            cache_model=cache_model,
            iter_overhead_us=iter_overhead_us,
        )
        return sim.run(trace)

    def predict_both(self, trace: ProgramTrace) -> tuple[PredictionReport, PredictionReport]:
        """``(standard, worst-case)`` predictions of one trace."""
        return self.predict(trace, "standard"), self.predict(trace, "worstcase")


@dataclass
class GERow:
    """One (block size, layout) point of the GE evaluation."""

    n: int
    b: int
    layout: str
    pred_standard: PredictionReport
    pred_worstcase: PredictionReport
    measured: Optional[MeasuredReport] = None

    def series(self) -> dict[str, float]:
        """The Figure 7 series of this point, in µs."""
        out = {
            "simulated_standard": self.pred_standard.total_us,
            "simulated_worstcase": self.pred_worstcase.total_us,
        }
        if self.measured is not None:
            out["measured_with_caching"] = self.measured.total_us
            out["measured_without_caching"] = self.measured.total_without_cache_us
        return out


def run_ge_point(
    n: int,
    b: int,
    layout_name: str,
    params: LogGPParameters,
    cost_model: CostModel,
    with_measured: bool = True,
    seed: int = 0,
    emulator: Optional[MachineEmulator] = None,
) -> GERow:
    """Evaluate one GE configuration: both predictions plus the emulator.

    ``layout_name`` is a key of :data:`repro.layouts.LAYOUTS`.
    """
    if layout_name not in LAYOUTS:
        raise ValueError(f"unknown layout {layout_name!r}; known: {sorted(LAYOUTS)}")
    from ..kernel.vector import ge_plan, simulate_programs_batch

    # the batch kernel's width-1 lane: traced, it emits the same events a
    # ProgramSimulator run of each engine would
    plan = ge_plan(n, b, layout_name, params.P)
    reports = simulate_programs_batch(plan, [(params, cost_model)], [seed])[0]
    measured = None
    if with_measured:
        measured = _measured_report(
            plan, params, cost_model, seed, emulator=emulator
        )
    return GERow(
        n=n,
        b=b,
        layout=layout_name,
        pred_standard=reports["standard"],
        pred_worstcase=reports["worstcase"],
        measured=measured,
    )


def _measured_report(
    plan,
    params: LogGPParameters,
    cost_model: CostModel,
    seed: int,
    emulator: Optional[MachineEmulator] = None,
) -> MeasuredReport:
    """The emulated "measured" run of one point's compiled plan."""
    if emulator is None:
        emulator = MachineEmulator(params=params, cost_model=cost_model, seed=seed)
    return emulator.run(plan)


def _uq_machine(
    params: LogGPParameters,
    cost_model: CostModel,
    spec,
    seed: int,
    with_measured: bool = True,
):
    """The perturbed ``(params, cost_model, emulator)`` of one UQ replicate.

    Single source of the replicate's machine for
    :func:`summarize_uq_point` and
    :func:`repro.kernel.vector.evaluate_ge_points_batch`.
    ``emulator`` is ``None`` unless the spec overrides the network (the
    default emulator is built later, against the perturbed machine).
    """
    from ..machine.perturbed import PerturbedMachine

    p_params, p_cost = PerturbedMachine(params, cost_model, spec).sample(seed)
    emulator = None
    if with_measured:
        overrides = spec.network_overrides()
        if overrides:
            from ..machine.network import JitteredNetwork

            emulator = MachineEmulator(
                params=p_params,
                cost_model=p_cost,
                network=JitteredNetwork(params=p_params, seed=seed, **overrides),
                seed=seed,
            )
    return p_params, p_cost, emulator


def summarize_ge_point(
    n: int,
    b: int,
    layout_name: str,
    params: LogGPParameters,
    cost_model: CostModel,
    with_measured: bool = True,
    seed: int = 0,
) -> dict:
    """One GE point as a flat, JSON/pickle-ready dict of totals and breakdowns.

    The one-point reference the sweep engine's batch evaluator
    (:func:`repro.kernel.vector.evaluate_ge_points_batch`) matches bit
    for bit; both flatten a :class:`GERow` into the shape
    :class:`repro.experiments.PointSummary` stores on disk.  The keys are
    exactly the ``PointSummary`` fields.
    """
    row = run_ge_point(
        n, b, layout_name, params, cost_model,
        with_measured=with_measured, seed=seed,
    )
    return _flatten_ge_row(row, seed)


def _flatten_ge_row(row: GERow, seed: int) -> dict:
    """A :class:`GERow` as the flat ``PointSummary``-shaped dict."""
    return {
        "n": row.n,
        "b": row.b,
        "layout": row.layout,
        "seed": seed,
        "pred_standard_total": row.pred_standard.total_us,
        "pred_standard_comp": row.pred_standard.comp_us,
        "pred_standard_comm": row.pred_standard.comm_us,
        "pred_worstcase_total": row.pred_worstcase.total_us,
        "pred_worstcase_comm": row.pred_worstcase.comm_us,
        "measured_total": row.measured.total_us if row.measured else None,
        "measured_total_wo_cache": (
            row.measured.total_without_cache_us if row.measured else None
        ),
        "measured_comp": row.measured.comp_us if row.measured else None,
        "measured_comm": row.measured.comm_us if row.measured else None,
    }


def summarize_uq_point(
    n: int,
    b: int,
    layout_name: str,
    params: LogGPParameters,
    cost_model: CostModel,
    spec,
    with_measured: bool = True,
    seed: int = 0,
) -> dict:
    """One Monte Carlo replicate of a GE point, as the flat summary dict.

    The replicate-aware sibling of :func:`summarize_ge_point`: ``spec``
    is a :class:`repro.uq.UQSpec`, and ``seed`` is the *replicate* seed —
    it determines the perturbed machine (via
    :class:`repro.machine.PerturbedMachine`), the emulated network's
    draws, and the simulators' tie-breaking, so the whole evaluation is a
    pure function of ``(configuration, spec, seed)``.  An identity spec
    (or ``spec=None``) takes the exact :func:`summarize_ge_point` code
    path, which is what makes zero-noise UQ runs bit-identical to the
    deterministic sweep.
    """
    if spec is None or spec.is_identity():
        return summarize_ge_point(
            n, b, layout_name, params, cost_model,
            with_measured=with_measured, seed=seed,
        )
    p_params, p_cost, emulator = _uq_machine(
        params, cost_model, spec, seed, with_measured=with_measured
    )
    row = run_ge_point(
        n, b, layout_name, p_params, p_cost,
        with_measured=with_measured, seed=seed, emulator=emulator,
    )
    return _flatten_ge_row(row, seed)


def run_ge_sweep(
    n: int,
    block_sizes: Sequence[int],
    layout_names: Sequence[str],
    params: LogGPParameters,
    cost_model: CostModel,
    with_measured: bool = True,
    seed: int = 0,
    progress=None,
) -> list[GERow]:
    """All (block size, layout) points of the paper's GE evaluation.

    ``progress`` is an optional callable ``(layout, b) -> None`` invoked
    before each point (benchmarks print status with it).
    """
    rows = []
    for layout_name in layout_names:
        for b in block_sizes:
            if n % b:
                raise ValueError(f"block size {b} does not divide n={n}")
            if progress is not None:
                progress(layout_name, b)
            rows.append(
                run_ge_point(
                    n,
                    b,
                    layout_name,
                    params,
                    cost_model,
                    with_measured=with_measured,
                    seed=seed,
                )
            )
    return rows


def predicted_optimum(
    rows: Sequence[GERow], layout: str, series: str = "simulated_standard"
) -> int:
    """The block size minimising ``series`` among a layout's rows."""
    candidates = [r for r in rows if r.layout == layout]
    if not candidates:
        raise ValueError(f"no rows for layout {layout!r}")
    best = min(candidates, key=lambda r: r.series()[series])
    return best.b
