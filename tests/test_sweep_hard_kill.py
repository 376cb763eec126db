"""A pool worker killed by a signal fails the sweep instead of hanging it.

An exception inside a worker travels back as that chunk's result, but a
worker killed outright (SIGKILL, the OOM killer) returns nothing.  The
sweep must notice the dead process and raise
:class:`~concurrent.futures.process.BrokenProcessPool`, and the points
finished before the kill must stay in the store, so a clean resumed run
completes the grid with the cold digest.

The killing sweep runs in a subprocess with a timeout, so a regression
to a pool that waits for the lost chunk fails this test instead of
hanging the suite.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.core import MEIKO_CS2, CalibratedCostModel
from repro.experiments import ExperimentStore
from repro.kernel import clear_all_caches
from repro.sweep import expand_grid, run_sweep

PARAMS = MEIKO_CS2
CM = CalibratedCostModel()
GRID = expand_grid(120, [20, 30], ["diagonal", "stripped"], with_measured=False)
#: the block size whose first evaluation kills its worker
KILL_B = 30
#: seconds the killing sweep may take; it finishes in about one
TIMEOUT_S = 60
REPO = Path(__file__).resolve().parents[1]

#: exit code of the subprocess when the sweep raised BrokenProcessPool
BROKEN_POOL_EXIT = 3
SCRIPT = f"""
import sys
from concurrent.futures.process import BrokenProcessPool

from repro.sweep import run_sweep
from tests.test_sweep_hard_kill import GRID, PARAMS, KillingCostModel

store, marker = sys.argv[1:]
try:
    run_sweep(
        GRID, PARAMS, KillingCostModel(marker),
        workers=2, chunk_size=1, store=store,
    )
except BrokenProcessPool:
    sys.exit({BROKEN_POOL_EXIT})
"""


class KillingCostModel(CalibratedCostModel):
    """Picklable cost model that SIGKILLs its own process, exactly once.

    The first process to price block size :data:`KILL_B` creates
    ``marker`` and kills itself; every later lookup prices normally, so
    one worker dies however the chunks are scheduled.  Inherits the
    calibrated model's fingerprint: entries written before the kill are
    hits for the clean model that resumes the sweep.
    """

    def __init__(self, marker: str):
        self.marker = marker

    def cost(self, op: str, b: int) -> float:
        if b == KILL_B:
            try:
                os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return super().cost(op, b)


def _run_killing_sweep(store: Path, marker: Path) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, str(store), str(marker)],
        cwd=REPO, env=env, start_new_session=True,
    )
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # the hang this test guards against: take the pool down with it
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise AssertionError(
            f"sweep with a killed worker still running after {TIMEOUT_S}s"
        ) from None


def test_killed_worker_fails_and_resume_completes(tmp_path):
    clear_all_caches()
    cold = run_sweep(GRID, PARAMS, CM)
    store_dir, marker = tmp_path / "store", tmp_path / "killed"

    code = _run_killing_sweep(store_dir, marker)

    assert marker.exists(), "no worker reached the killing block size"
    assert code == BROKEN_POOL_EXIT, f"expected BrokenProcessPool, exit {code}"
    persisted = ExperimentStore(store_dir, PARAMS, CM).cached_count()
    assert persisted < len(GRID)
    clear_all_caches()
    resumed = run_sweep(GRID, PARAMS, CM, store=store_dir)
    assert resumed.digest() == cold.digest()
    assert resumed.stats.cached == persisted
    assert resumed.stats.computed == len(GRID) - persisted
