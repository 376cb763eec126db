"""Experiment orchestration with a persistent, concurrency-safe result store.

Running the full GE evaluation is expensive (minutes at paper scale), and
a study typically revisits the same (n, b, layout, seed) points many
times — from benchmarks, notebooks, the CLI and the prediction service.
:class:`ExperimentStore` keeps GE point summaries on disk as JSON, keyed
by the full configuration.  It never computes: the sweep engine
(:func:`repro.sweep.run_sweep`, the one path that evaluates points)
reads it before dispatch and writes every point it computes, so repeated
studies are free and interrupted sweeps resume where they stopped.

Stored values are *summaries* (totals and breakdowns, not per-event
timelines), versioned with :data:`STORE_VERSION`; changing the underlying
models bumps the version and silently invalidates old entries.

Concurrency model
-----------------
The store is safe for many processes at once (the sweep engine fans one
store out across workers):

* **Atomic entries.**  :meth:`ExperimentStore.put` writes to a temporary
  file in the store directory and publishes it with :func:`os.replace`,
  so a reader can never observe a truncated entry — a crash mid-write
  leaves the previous value (or nothing) behind, never garbage.
* **Advisory per-entry locks.**  Writers serialise on a ``fcntl.flock``
  side-car lock per entry (a no-op on platforms without ``fcntl``), so
  two workers racing on one key settle on one complete value and never
  duplicate entries — the key fully determines the file name.
* **Self-healing reads.**  :meth:`ExperimentStore.get` treats an
  unreadable or stale-schema entry as a miss, so a corrupt file (e.g.
  hand-edited) costs one recomputation, not a crash.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Union

try:  # advisory locking is POSIX-only; the store degrades gracefully
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from .core.costmodel import CostModel
from .core.fingerprint import machine_fingerprint
from .core.loggp import LogGPParameters
from .obs.events import get_tracer

__all__ = ["STORE_VERSION", "PointSummary", "ExperimentStore"]

#: v2: keys use the canonical machine fingerprint (repr-exact LogGP floats
#: plus the cost model's own identity) shared with the kernel memo and the
#: UQ engine, replacing the lossy describe()+probe hash of v1.
STORE_VERSION = 2


@dataclass(frozen=True)
class PointSummary:
    """Flat summary of one GE evaluation point (all times µs)."""

    n: int
    b: int
    layout: str
    seed: int
    pred_standard_total: float
    pred_standard_comp: float
    pred_standard_comm: float
    pred_worstcase_total: float
    pred_worstcase_comm: float
    measured_total: Optional[float] = None
    measured_total_wo_cache: Optional[float] = None
    measured_comp: Optional[float] = None
    measured_comm: Optional[float] = None

    def series(self) -> dict[str, float]:
        """The Figure 7 series of this point (like :meth:`GERow.series`)."""
        out = {
            "simulated_standard": self.pred_standard_total,
            "simulated_worstcase": self.pred_worstcase_total,
        }
        if self.measured_total is not None:
            out["measured_with_caching"] = self.measured_total
            out["measured_without_caching"] = self.measured_total_wo_cache
        return out


class ExperimentStore:
    """Disk-backed memo of GE evaluation points.

    Parameters
    ----------
    directory:
        Where the JSON entries live (created on demand).
    params, cost_model:
        The machine and cost model every point in this store uses; they
        are part of the cache key (via the machine description and the
        cost model's class name + probe costs).
    extra_tag:
        Optional extra fingerprint component for callers whose
        evaluations depend on more than (machine, cost model) — the UQ
        engine passes its perturbation spec's tag so perturbed ensembles
        never collide with deterministic entries (``None``: unchanged
        legacy keyspace).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        params: LogGPParameters,
        cost_model: CostModel,
        extra_tag: Optional[str] = None,
    ):
        self.directory = Path(directory)
        self.params = params
        self.cost_model = cost_model
        self.extra_tag = extra_tag
        self._model_tag = self._fingerprint()

    def _fingerprint(self) -> str:
        """Stable tag for (machine, cost model) so stale entries miss.

        Composes the canonical :func:`repro.core.fingerprint.machine_fingerprint`
        — the same identity the kernel cost memo keys on — with the store
        version and the caller's extra tag.  Fingerprintable cost models
        hash their own exact contents; models without a ``fingerprint()``
        method fall back to the probe costs, as the v1 store did.
        """
        extra = "|".join(
            part
            for part in (f"store-v{STORE_VERSION}", self.extra_tag)
            if part is not None
        )
        return machine_fingerprint(self.params, self.cost_model, extra=extra)

    # -- keys and paths ------------------------------------------------------
    def key(
        self, n: int, b: int, layout: str, seed: int = 0, with_measured: bool = True
    ) -> str:
        """The entry file name of one configuration.

        Purely a function of the configuration values and the store's
        model fingerprint — stable under keyword reordering and across
        processes, which is what lets concurrent sweep workers agree on
        what is already done.
        """
        measured = "m1" if with_measured else "m0"
        return f"ge_n{n}_b{b}_{layout}_s{seed}_{measured}_{self._model_tag}.json"

    def _path(self, n: int, b: int, layout: str, seed: int, measured: bool) -> Path:
        return self.directory / self.key(n, b, layout, seed, with_measured=measured)

    @contextmanager
    def _entry_lock(self, path: Path) -> Iterator[None]:
        """Advisory exclusive lock for one entry (no-op without fcntl)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        lock_path = path.with_suffix(".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "w") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(fh, fcntl.LOCK_UN)

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        """Write ``text`` to ``path`` via a same-directory temp + rename.

        ``os.replace`` is atomic on POSIX and Windows, so readers see
        either the old entry or the complete new one — never a prefix.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- coordination API (what the parallel sweep engine builds on) --------
    def get(
        self,
        n: int,
        b: int,
        layout: str,
        seed: int = 0,
        with_measured: bool = True,
    ) -> Optional[PointSummary]:
        """The stored summary, or ``None`` on a miss (never computes).

        Unreadable entries (truncated by hand, wrong schema) read as
        misses so a damaged store heals itself on the next compute.
        """
        path = self._path(n, b, layout, seed, with_measured)
        try:
            return PointSummary(**json.loads(path.read_text()))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, TypeError, ValueError):
            return None

    def put(self, summary: PointSummary, with_measured: bool = True) -> Path:
        """Persist one summary atomically; returns the entry path.

        Safe to call from many processes at once: writers serialise on
        the entry's advisory lock and publish with an atomic rename.
        """
        path = self._path(
            summary.n, summary.b, summary.layout, summary.seed, with_measured
        )
        tracer = get_tracer()
        with tracer.span("store.put", n=summary.n, b=summary.b):
            with self._entry_lock(path):
                self._atomic_write(path, json.dumps(summary.__dict__))
        return path

    def contains(
        self,
        n: int,
        b: int,
        layout: str,
        seed: int = 0,
        with_measured: bool = True,
    ) -> bool:
        """Whether a *readable* entry exists for this configuration."""
        return self.get(n, b, layout, seed=seed, with_measured=with_measured) is not None

    # -- inspection -----------------------------------------------------------
    def cached_count(self) -> int:
        """Entries on disk for the current model fingerprint."""
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob(f"*_{self._model_tag}.json"))

    def clear(self) -> int:
        """Delete entries for the current fingerprint; returns the count."""
        if not self.directory.exists():
            return 0
        removed = 0
        for path in self.directory.glob(f"*_{self._model_tag}.json"):
            path.unlink()
            removed += 1
        for lock in self.directory.glob(f"*_{self._model_tag}.lock"):
            lock.unlink(missing_ok=True)
        return removed
