"""The calibration result: a posterior over machines, ready for the UQ engine.

A :class:`Posterior` holds the kept draws as
:class:`repro.uq.spec.MachineDraw` values — the exact currency the UQ
engine's :class:`repro.uq.EmpiricalSpec` replays — plus the point fit,
chain diagnostics and the generating configuration.  It is a frozen
value object with an exact JSON round-trip (the ``repro calibrate``
output file), a canonical fingerprint
(:func:`repro.core.fingerprint.posterior_fingerprint`, which also keys
experiment-store entries downstream) and the summary/credible-interval
arithmetic the validation harness gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.fingerprint import posterior_fingerprint
from ..core.loggp import LogGPParameters
from ..uq.spec import LOGGP_PARAMS, EmpiricalSpec, MachineDraw

__all__ = ["Posterior"]


@dataclass(frozen=True)
class Posterior:
    """A joint posterior over (L, o, g, G, op factors).

    ``draws`` are the kept MCMC samples (a single repeated draw for the
    degenerate zero-noise case); ``point_fit`` is the classical median
    inversion of the same measurements.  ``config`` records how the
    posterior was produced (chain settings, measurement provenance) for
    the manifest ``calib`` block — it is provenance, excluded from the
    fingerprint.
    """

    draws: Sequence
    point_fit: MachineDraw
    degenerate: bool = False
    accept_rate: float = 0.0
    config: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        draws = tuple(
            d if isinstance(d, MachineDraw) else MachineDraw.from_dict(d)
            for d in self.draws
        )
        if not draws:
            raise ValueError("Posterior needs at least one draw")
        pf = self.point_fit
        if not isinstance(pf, MachineDraw):
            pf = MachineDraw.from_dict(pf)
        object.__setattr__(self, "draws", draws)
        object.__setattr__(self, "point_fit", pf)
        object.__setattr__(self, "config", dict(self.config))

    # -- access --------------------------------------------------------------
    def parameter_names(self) -> Tuple[str, ...]:
        """The summarised dimensions: network params then ``op:<name>``."""
        ops = sorted({op for d in self.draws for op, _ in d.ops})
        return LOGGP_PARAMS + tuple(f"op:{op}" for op in ops)

    def samples(self, name: str) -> np.ndarray:
        """All draws of one dimension (``"L"``..``"G"`` or ``"op:op1"``)."""
        if name in LOGGP_PARAMS:
            return np.asarray([getattr(d, name) for d in self.draws], dtype=float)
        if name.startswith("op:"):
            op = name[3:]
            return np.asarray(
                [d.op_factors().get(op, 1.0) for d in self.draws], dtype=float
            )
        raise ValueError(f"unknown posterior dimension {name!r}")

    # -- summaries -----------------------------------------------------------
    def credible_interval(self, name: str, level: float = 0.9) -> Tuple[float, float]:
        """The central ``level`` credible interval of one dimension."""
        if not (0 < level < 1):
            raise ValueError(f"level must be in (0, 1), got {level}")
        values = self.samples(name)
        alpha = (1.0 - level) / 2.0
        return (
            float(np.quantile(values, alpha)),
            float(np.quantile(values, 1.0 - alpha)),
        )

    def summary(self, level: float = 0.9) -> dict:
        """Per-dimension ``{mean, sd, median, lo, hi}`` (µs / factors)."""
        out = {}
        for name in self.parameter_names():
            values = self.samples(name)
            lo, hi = self.credible_interval(name, level)
            out[name] = {
                "mean": float(np.mean(values)),
                "sd": float(np.std(values)),
                "median": float(np.median(values)),
                "lo": lo,
                "hi": hi,
            }
        return out

    def covers(self, truth: LogGPParameters, level: float = 0.9) -> dict:
        """Whether each network parameter's CI contains the true value."""
        out = {}
        for name in LOGGP_PARAMS:
            lo, hi = self.credible_interval(name, level)
            out[name] = bool(lo <= getattr(truth, name) <= hi)
        return out

    def coverage_count(self, truth: LogGPParameters, level: float = 0.9) -> int:
        """How many of (L, o, g, G) the credible intervals cover."""
        return sum(self.covers(truth, level).values())

    # -- downstream hand-off -------------------------------------------------
    def fingerprint(self) -> str:
        """Canonical tag of the draw set (manifests, store keys)."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # hashed once per instance; the cached value pickles with it
        return posterior_fingerprint(self.draws)

    def to_spec(self, max_draws: Optional[int] = None) -> EmpiricalSpec:
        """The :class:`repro.uq.EmpiricalSpec` replaying this posterior.

        ``max_draws`` subsamples evenly-strided draws (deterministic, no
        RNG) to bound UQ cost; the spec's ``source`` records this
        posterior's fingerprint for provenance.
        """
        draws = self.draws
        if max_draws is not None:
            if max_draws < 1:
                raise ValueError(f"max_draws must be >= 1, got {max_draws}")
            if max_draws < len(draws):
                idx = np.linspace(0, len(draws) - 1, max_draws).astype(int)
                draws = tuple(draws[i] for i in idx)
        return EmpiricalSpec(draws=draws, source=f"calib-{self.fingerprint()}")

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; ``from_dict`` inverts it bit-exactly."""
        return {
            "draws": [d.to_dict() for d in self.draws],
            "point_fit": self.point_fit.to_dict(),
            "degenerate": self.degenerate,
            "accept_rate": self.accept_rate,
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "Posterior":
        known = {"draws", "point_fit", "degenerate", "accept_rate", "config"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown Posterior keys: {sorted(unknown)}")
        return cls(**dict(doc))
