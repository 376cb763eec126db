"""The paper's core contribution: LogGP-based running-time prediction.

* :mod:`.loggp` — the machine model and Figure 1 gap rules;
* :mod:`.message` — messages and communication patterns;
* :mod:`.standard_sim` — the Figure 2 communication-simulation algorithm;
* :mod:`.worstcase_sim` — the section 4.2 overestimation algorithm;
* :mod:`.des_check` — causal DES cross-check / active-message model;
* :mod:`.costmodel` — basic-operation cost tables (Figure 6);
* :mod:`.program_sim` — whole-program alternating-step simulation;
* :mod:`.predictor` — the end-to-end experiment API (Figures 7-9);
* :mod:`.cache_extension`, :mod:`.optimizer` — the paper's future work.
"""

from .bounds import RunningTimeBounds, compute_bounds
from .cache_extension import CachePredictionModel
from .collectives import (
    BroadcastSchedule,
    binomial_broadcast_pattern,
    binomial_broadcast_time,
    gather_pattern,
    gather_time,
    linear_broadcast_pattern,
    linear_broadcast_time,
    optimal_broadcast_schedule,
    reduction_pattern,
    ring_allgather_round,
    scatter_pattern,
    simulate_tree_broadcast,
)
from .costmodel import (
    CalibratedCostModel,
    CostModel,
    FlopCostModel,
    MeasuredCostModel,
    TableCostModel,
)
from .des_check import simulate_causal
from .fitting import assess_fit, emulator_runner, fit_loggp
from .events import CommEvent, StepTimeline
from .loggp import (
    ETHERNET_CLUSTER,
    LOW_OVERHEAD_NIC,
    MEIKO_CS2,
    LogGPParameters,
    OpKind,
)
from .message import CommPattern, Message
from .optimizer import (
    SearchResult,
    exhaustive_search,
    local_descent,
    search_block_size_and_layout,
    ternary_search,
)
from .predictor import (
    GERow,
    RunningTimePredictor,
    predicted_optimum,
    run_ge_point,
    run_ge_sweep,
    summarize_ge_point,
)
from .program_sim import PredictionReport, ProgramSimulator
from .standard_sim import SimulationResult, simulate_standard
from .worstcase_sim import simulate_worstcase

__all__ = [
    "LogGPParameters",
    "OpKind",
    "MEIKO_CS2",
    "ETHERNET_CLUSTER",
    "LOW_OVERHEAD_NIC",
    "CommPattern",
    "Message",
    "CommEvent",
    "StepTimeline",
    "SimulationResult",
    "simulate_standard",
    "simulate_worstcase",
    "simulate_causal",
    "CostModel",
    "TableCostModel",
    "CalibratedCostModel",
    "MeasuredCostModel",
    "FlopCostModel",
    "CachePredictionModel",
    "ProgramSimulator",
    "PredictionReport",
    "RunningTimePredictor",
    "GERow",
    "run_ge_point",
    "run_ge_sweep",
    "summarize_ge_point",
    "predicted_optimum",
    "SearchResult",
    "exhaustive_search",
    "local_descent",
    "ternary_search",
    "search_block_size_and_layout",
    "BroadcastSchedule",
    "optimal_broadcast_schedule",
    "simulate_tree_broadcast",
    "linear_broadcast_pattern",
    "binomial_broadcast_pattern",
    "scatter_pattern",
    "gather_pattern",
    "reduction_pattern",
    "ring_allgather_round",
    "linear_broadcast_time",
    "binomial_broadcast_time",
    "gather_time",
    "fit_loggp",
    "assess_fit",
    "emulator_runner",
    "RunningTimeBounds",
    "compute_bounds",
]
