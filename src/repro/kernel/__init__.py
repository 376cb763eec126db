"""The simulation kernel: the engine every prediction runs on.

The public simulators (:func:`repro.core.standard_sim.simulate_standard`,
:func:`repro.core.worstcase_sim.simulate_worstcase`,
:func:`repro.core.des_check.simulate_causal`) and the pipelines above
them (:mod:`repro.core.program_sim`, :mod:`repro.machine.emulator`,
:mod:`repro.core.predictor`, :mod:`repro.sweep`) all run here.  The
kernel computes exactly what the paper's algorithms specify, with the
interpreter overhead taken out: tight loops instead of per-operation
objects, a flat event slab instead of DES coroutines, memoised pure cost
functions, and a structure-of-arrays batch simulator for sweep grids.

Bit-identity is not an aspiration but a gate.  The readable reference
simulators — the clearest transcription of Figure 2, section 4.2 and the
causal model — live under ``tests/oracle.py`` as the specification; the
differential oracle (``tests/test_kernel_differential.py``) and the
hypothesis suites (``tests/test_kernel_property.py``,
``tests/test_vector_property.py``) compare the kernel against them
event by event on every application, layout and engine, and the
sweep/UQ digests must equal the checked-in golden digests.

Nothing is cached across calls except the small, fingerprint-keyed cost
memos: a GE configuration's compiled plan is built per call, straight
from the wavefront recurrence, and shared only by the lanes of that
call.

Submodules
----------
memo
    Fingerprint-keyed memoisation of pure cost functions.
fastsim
    The two Figure 2-style step simulators, one function each.
fastdes
    Flat-heap, sequence-exact replay of the causal DES model.
tracecache
    The GE program trace of one configuration, as objects.
vector
    Compiled program plans (flat per-step records) and the
    structure-of-arrays batch simulator: many sweep points per step.

``fastsim``/``fastdes``/``tracecache``/``vector`` import the modules they
serve, so this ``__init__`` loads them lazily — those modules can import
``repro.kernel`` at module scope without a cycle.
"""

from __future__ import annotations

from .memo import MemoizedCostModel, clear_caches, memoize, send_durations

__all__ = [
    "MemoizedCostModel",
    "memoize",
    "send_durations",
    "clear_caches",
    "clear_all_caches",
    "ge_trace",
    "standard_step",
    "worstcase_step",
    "causal_step",
    "ge_plan",
    "compile_plan",
    "simulate_programs_batch",
    "evaluate_ge_points_batch",
]

_LAZY = {
    "ge_trace": "tracecache",
    "standard_step": "fastsim",
    "worstcase_step": "fastsim",
    "causal_step": "fastdes",
    "ge_plan": "vector",
    "compile_plan": "vector",
    "simulate_programs_batch": "vector",
    "evaluate_ge_points_batch": "vector",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def clear_all_caches() -> None:
    """Reset every kernel cache (cost memos and send tables)."""
    clear_caches()
