"""Shared infrastructure for the figure-reproduction benchmarks.

Scale control
-------------
``REPRO_BENCH_REDUCED=1`` in the environment switches from the paper's full scale
(960x960, all 14 block sizes — a few minutes of simulation) to a reduced
480x480 sweep (seconds).  The claims checked are the same; the
``BENCH_*.json`` records land apart (see :func:`bench_json`).

The expensive GE sweep is computed once per pytest session and shared by
the Figure 7/8/9 benches; each bench prints the exact series the paper
plots and also writes it to ``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

import os
import pathlib
from functools import lru_cache

from repro import MEIKO_CS2, CalibratedCostModel
from repro.apps import PAPER_BLOCK_SIZES, PAPER_MATRIX_N
from repro.blockops import CS2_CACHE_BYTES
from repro.core.predictor import GERow, run_ge_point
from repro.machine import MachineEmulator
from repro.obs import RunRecord, loggp_dict

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"
REPO_ROOT = RESULTS_DIR.parent.parent

REDUCED = os.environ.get("REPRO_BENCH_REDUCED", "0") == "1"


def bench_json(name: str) -> pathlib.Path:
    """Where a bench writes its ``BENCH_<name>.json`` record.

    Paper scale writes the checked-in record at the repo root; reduced
    scale writes ``benchmarks/results/BENCH_<name>.reduced.json``
    (git-ignored), so a quick run never overwrites the paper-scale one.
    """
    if REDUCED:
        return RESULTS_DIR / f"BENCH_{name}.reduced.json"
    return REPO_ROOT / f"BENCH_{name}.json"

#: the paper's configuration (full) or the reduced one
MATRIX_N = 480 if REDUCED else PAPER_MATRIX_N
BLOCK_SIZES = (
    tuple(b for b in PAPER_BLOCK_SIZES if MATRIX_N % b == 0 and b >= 15)
    if REDUCED
    else PAPER_BLOCK_SIZES
)
LAYOUTS = ("diagonal", "stripped")
PARAMS = MEIKO_CS2
COST_MODEL = CalibratedCostModel()

#: per-node cache.  Each processor holds n^2*8/P bytes of blocks no matter
#: the block size; the reduced scale shrinks that footprint 4x, so the cache
#: shrinks with it to keep the paper's overflow regime (and hence all the
#: cache-effect claims) intact.
CACHE_BYTES = CS2_CACHE_BYTES // 4 if REDUCED else CS2_CACHE_BYTES


def make_emulator(seed: int = 0) -> MachineEmulator:
    """A fresh emulated Meiko CS-2 at the active scale."""
    return MachineEmulator(
        params=PARAMS, cost_model=COST_MODEL, cache_bytes=CACHE_BYTES, seed=seed
    )


@lru_cache(maxsize=1)
def ge_sweep() -> tuple[GERow, ...]:
    """The full GE evaluation sweep (cached for the whole session)."""
    rows = []
    for layout in LAYOUTS:
        for b in BLOCK_SIZES:
            rows.append(
                run_ge_point(
                    MATRIX_N,
                    b,
                    layout,
                    PARAMS,
                    COST_MODEL,
                    with_measured=True,
                    seed=0,
                    emulator=make_emulator(seed=0),
                )
            )
    return tuple(rows)


def rows_for(layout: str) -> list[GERow]:
    """Sweep rows of one layout, ordered by block size."""
    return sorted((r for r in ge_sweep() if r.layout == layout), key=lambda r: r.b)


def emit(name: str, text: str, **run_facts) -> None:
    """Print a figure table and persist it under benchmarks/results/.

    Also writes a :class:`repro.obs.RunRecord` manifest for the bench run
    (to ``$REPRO_RUNS_DIR`` or ``.repro/runs``), so the benchmark suite
    leaves the same machine-readable trail the CLI does.  ``run_facts``
    are merged into the record (e.g. ``makespan_us=...``).
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    record = RunRecord.begin(f"bench:{name}")
    record.note(
        params=loggp_dict(PARAMS),
        workload={"n": MATRIX_N, "block_sizes": list(BLOCK_SIZES), "fast": REDUCED},
        results_txt=str(RESULTS_DIR / f"{name}.txt"),
        **run_facts,
    )
    record.finish().write()


def scale_banner() -> str:
    """One line describing the active scale (prefixed to every figure)."""
    mode = "REPRO_BENCH_REDUCED reduced scale" if REDUCED else "paper scale"
    return (
        f"{mode}: n={MATRIX_N}, P={PARAMS.P}, block sizes {list(BLOCK_SIZES)}, "
        f"{PARAMS.describe()}"
    )
