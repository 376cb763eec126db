"""The parameter-distribution spec: *what* the UQ engine perturbs.

A :class:`UQSpec` describes one uncertainty model over the machine:
relative log-normal noise on the LogGP network parameters (globally or
per parameter), relative noise on the per-op block timings, and optional
overrides of the emulated network's jitter/straggler knobs.  It is a
frozen, picklable value object with an exact JSON round-trip — the same
spec document lands in run manifests, experiment-store fingerprints and
golden test files, and ``from_dict(to_dict(s)) == s`` bit for bit.

Two predicates drive the engine's determinism guarantees:

* :meth:`UQSpec.is_deterministic` — no sampled noise at all, so every
  replicate of a point is the same evaluation and the ensemble collapses
  to the plain deterministic sweep;
* :meth:`UQSpec.is_identity` — deterministic *and* no network-knob
  overrides, so evaluation can take the exact
  :func:`repro.core.predictor.summarize_ge_point` code path (the
  bit-for-bit anchor of the test harness).

:class:`EmpiricalSpec` is the data-driven sibling: instead of sampling
relative log-normal noise around the base machine, it carries an explicit
set of :class:`MachineDraw` values — typically the posterior draws of a
Bayesian calibration (:mod:`repro.calib`) — and each replicate seed
selects one draw deterministically.  A degenerate draw set (every draw
identical) is a deterministic spec, so a posterior collapsed onto the
point fit collapses the UQ ensemble exactly like ``sigma=0`` does.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

__all__ = ["LOGGP_PARAMS", "UQSpec", "MachineDraw", "EmpiricalSpec", "spec_from_dict"]

#: the perturbable LogGP network parameters (P is structural, never noised)
LOGGP_PARAMS = ("L", "o", "g", "G")


@dataclass(frozen=True)
class UQSpec:
    """Distribution over machine parameters for one Monte Carlo study.

    Parameters
    ----------
    sigma:
        Relative log-normal sigma applied to each of ``L, o, g, G``
        (mean-preserving, see :func:`repro.uq.sampler.lognormal_multiplier`).
    param_sigma:
        Per-parameter overrides of ``sigma``, e.g. ``{"G": 0.3}`` to
        study bandwidth uncertainty alone (set ``sigma=0`` then).
    op_sigma:
        Relative log-normal sigma on the per-op block-timing costs: each
        replicate draws one multiplier per basic operation.
    jitter_sigma, straggler_prob, straggler_factor:
        Overrides for the emulated network's knobs during measured runs;
        ``None`` keeps the emulator's defaults.  These are fixed settings,
        not sampled quantities — replicate-to-replicate network
        variability comes from the per-replicate seeds.
    """

    sigma: float = 0.0
    param_sigma: Mapping[str, float] = field(default_factory=dict)
    op_sigma: float = 0.0
    jitter_sigma: Optional[float] = None
    straggler_prob: Optional[float] = None
    straggler_factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.op_sigma < 0:
            raise ValueError(f"op_sigma must be >= 0, got {self.op_sigma}")
        for name, value in self.param_sigma.items():
            if name not in LOGGP_PARAMS:
                raise ValueError(
                    f"unknown parameter {name!r} in param_sigma; "
                    f"perturbable: {LOGGP_PARAMS}"
                )
            if value < 0:
                raise ValueError(f"param_sigma[{name!r}] must be >= 0, got {value}")
        if self.jitter_sigma is not None and self.jitter_sigma < 0:
            raise ValueError("jitter_sigma override must be >= 0")
        if self.straggler_prob is not None and not (0.0 <= self.straggler_prob <= 1.0):
            raise ValueError("straggler_prob override must be in [0, 1]")
        if self.straggler_factor is not None and self.straggler_factor < 1.0:
            raise ValueError("straggler_factor override must be >= 1")
        # freeze the mapping so the frozen dataclass is deeply immutable
        object.__setattr__(self, "param_sigma", dict(self.param_sigma))

    # -- predicates ----------------------------------------------------------
    def effective_sigma(self, param: str) -> float:
        """The sigma actually applied to one LogGP parameter."""
        if param not in LOGGP_PARAMS:
            raise ValueError(f"unknown parameter {param!r}")
        return float(self.param_sigma.get(param, self.sigma))

    def is_deterministic(self) -> bool:
        """No sampled noise: every replicate evaluates identically.

        Network-knob *overrides* don't break determinism — with one seed
        shared by all replicates they change the value, not its spread.
        """
        return (
            self.sigma == 0
            and self.op_sigma == 0
            and all(v == 0 for v in self.param_sigma.values())
        )

    def is_identity(self) -> bool:
        """Deterministic *and* override-free: the exact plain-sweep path."""
        return (
            self.is_deterministic()
            and self.jitter_sigma is None
            and self.straggler_prob is None
            and self.straggler_factor is None
        )

    def network_overrides(self) -> dict:
        """The non-``None`` emulator network overrides as kwargs."""
        return {
            key: value
            for key, value in (
                ("jitter_sigma", self.jitter_sigma),
                ("straggler_prob", self.straggler_prob),
                ("straggler_factor", self.straggler_factor),
            )
            if value is not None
        }

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; ``from_dict`` inverts it bit-exactly."""
        return {
            "sigma": self.sigma,
            "param_sigma": dict(self.param_sigma),
            "op_sigma": self.op_sigma,
            "jitter_sigma": self.jitter_sigma,
            "straggler_prob": self.straggler_prob,
            "straggler_factor": self.straggler_factor,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "UQSpec":
        """Reconstruct a spec; unknown keys are an error (schema drift)."""
        known = {
            "sigma", "param_sigma", "op_sigma",
            "jitter_sigma", "straggler_prob", "straggler_factor",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown UQSpec keys: {sorted(unknown)}")
        return cls(**dict(doc))

    def fingerprint(self) -> str:
        """Short stable hash of the spec (store tags, manifests)."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def store_tag(self) -> Optional[str]:
        """The :class:`repro.experiments.ExperimentStore` extra tag.

        ``None`` for the identity spec so a zero-noise UQ run *shares*
        entries with plain sweeps (same evaluations, same cache); any
        real perturbation gets its own keyspace.
        """
        if self.is_identity():
            return None
        return f"uq-{self.fingerprint()}"


@dataclass(frozen=True)
class MachineDraw:
    """One sampled machine: explicit LogGP values plus per-op cost factors.

    The unit an :class:`EmpiricalSpec` replays — typically one posterior
    draw of :mod:`repro.calib`.  Unlike :class:`UQSpec`'s relative
    sigmas, a draw carries *absolute* ``L, o, g, G`` values (µs) that
    replace the base machine's, plus multiplicative per-op cost factors
    applied via :class:`repro.machine.perturbed.ScaledCostModel`.

    ``ops`` accepts a mapping at construction and is normalised to a
    sorted tuple of ``(op, factor)`` pairs, so draws are hashable (the
    degenerate-posterior predicate needs set semantics) and their JSON
    and fingerprint forms are canonical.
    """

    L: float
    o: float
    g: float
    G: float
    ops: Union[Mapping[str, float], Sequence] = ()

    def __post_init__(self) -> None:
        for name in LOGGP_PARAMS:
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"draw {name} must be a float >= 0, got {value!r}")
        pairs = (
            tuple(sorted(self.ops.items()))
            if isinstance(self.ops, Mapping)
            else tuple(sorted((str(op), float(f)) for op, f in self.ops))
        )
        for op, factor in pairs:
            if factor <= 0:
                raise ValueError(f"draw factor for {op!r} must be > 0, got {factor}")
        object.__setattr__(self, "ops", pairs)

    def op_factors(self) -> dict:
        """The per-op cost factors as a plain dict."""
        return dict(self.ops)

    def to_dict(self) -> dict:
        """JSON-ready dict; ``from_dict`` inverts it bit-exactly."""
        return {"L": self.L, "o": self.o, "g": self.g, "G": self.G,
                "ops": dict(self.ops)}

    @classmethod
    def from_dict(cls, doc: Mapping) -> "MachineDraw":
        known = {"L", "o", "g", "G", "ops"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown MachineDraw keys: {sorted(unknown)}")
        return cls(**dict(doc))


@dataclass(frozen=True)
class EmpiricalSpec:
    """A UQ spec that replays an explicit draw set (a calibrated posterior).

    Implements the same protocol surface the engine, the sweep runner and
    the perturbation layer use on :class:`UQSpec` — the predicates, the
    network overrides, the fingerprint/store tag and the JSON round-trip
    — so ``run_uq(spec=EmpiricalSpec(...))`` needs no engine changes.

    Each replicate's machine is ``draws[i]`` where ``i`` is a stable hash
    of the replicate seed (:meth:`draw_for`): a pure function of the
    seed, so worker processes reproduce the same machine and the ensemble
    is identical across worker counts.  ``source`` is a provenance label
    (e.g. the calibration's posterior fingerprint) carried into manifests
    but excluded from :meth:`fingerprint` — two specs with equal draws
    mean equal evaluations and must share cache entries.
    """

    draws: Sequence
    source: str = ""

    def __post_init__(self) -> None:
        draws = tuple(
            d if isinstance(d, MachineDraw) else MachineDraw.from_dict(d)
            for d in self.draws
        )
        if not draws:
            raise ValueError("EmpiricalSpec needs at least one draw")
        object.__setattr__(self, "draws", draws)

    # -- predicates (the UQSpec protocol) ------------------------------------
    def is_deterministic(self) -> bool:
        """True when every draw is identical: replicates collapse."""
        return len(set(self.draws)) == 1

    def is_identity(self) -> bool:
        """Never the identity: the draw replaces the base machine."""
        return False

    def network_overrides(self) -> dict:
        """Empirical specs never override the emulated network's knobs."""
        return {}

    # -- draw selection ------------------------------------------------------
    def draw_for(self, seed: int) -> MachineDraw:
        """The draw replicate ``seed`` sees (stable hash, uniform over draws)."""
        from .sampler import derive_seed

        return self.draws[derive_seed("uq-empirical-draw", seed) % len(self.draws)]

    # -- serialisation -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict; ``kind`` discriminates from a plain UQSpec."""
        return {
            "kind": "empirical",
            "source": self.source,
            "draws": [d.to_dict() for d in self.draws],
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "EmpiricalSpec":
        """Reconstruct a spec; unknown keys are an error (schema drift)."""
        known = {"kind", "source", "draws"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown EmpiricalSpec keys: {sorted(unknown)}")
        if doc.get("kind", "empirical") != "empirical":
            raise ValueError(f"not an empirical spec: kind={doc.get('kind')!r}")
        return cls(
            draws=tuple(MachineDraw.from_dict(d) for d in doc.get("draws", ())),
            source=str(doc.get("source", "")),
        )

    def fingerprint(self) -> str:
        """Short stable hash of the draw set (store tags, manifests)."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        # hashed once per instance; the cached value pickles with it, so
        # sweep chunks dispatched to pool workers do not hash it again
        from ..core.fingerprint import posterior_fingerprint

        return posterior_fingerprint(self.draws)

    def store_tag(self) -> str:
        """Empirical ensembles always get their own store keyspace."""
        return f"uq-{self.fingerprint()}"


def spec_from_dict(doc: Mapping) -> Union[UQSpec, EmpiricalSpec]:
    """Reconstruct either spec flavour from its JSON document.

    Dispatches on the ``kind`` discriminator: ``"empirical"`` documents
    become :class:`EmpiricalSpec`; documents without a ``kind`` are plain
    :class:`UQSpec` (whose strict ``from_dict`` still rejects drift).
    """
    if doc.get("kind") == "empirical":
        return EmpiricalSpec.from_dict(doc)
    return UQSpec.from_dict(doc)
