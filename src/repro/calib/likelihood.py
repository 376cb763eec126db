"""The calibration likelihood: measurements vs the micro-benchmark model.

The forward model is the *same* closed form the point fit inverts —
:func:`repro.core.fitting.microbench_model` — so the posterior and the
point estimate can never disagree about what an observable means.  Per-op
computation costs enter as one multiplicative factor per operation on
the base cost model, matching exactly what
:class:`repro.machine.perturbed.ScaledCostModel` applies downstream.

Parameterisation: the sampled vector is ``log(L), log(o), log(g),
log(G)`` followed by ``log(factor_op)`` for each op with measurements —
log space keeps every machine positive and makes the multiplicative
timer noise of :func:`repro.calib.measure.measure_emulator` additive.

Likelihood: within each observable group ``(kind, size, op)`` the log
observations scatter around the log model value with the group's own
empirical sigma (an empirical-Bayes plug-in, floored to keep degenerate
groups finite).  The prior is a weak log-normal centred on the point fit
(``prior_tau`` wide), which regularises parameters that a noisy group
barely identifies without visibly shrinking well-measured ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.fitting import microbench_model
from ..core.loggp import LogGPParameters
from ..uq.spec import LOGGP_PARAMS
from .measure import MeasurementSet

__all__ = ["GroupStats", "CalibModel", "group_stats"]

#: lower bound on a group's plug-in sigma: keeps the log-likelihood
#: finite for zero-spread groups without letting them dominate
_SIGMA_FLOOR = 1e-9

#: lower bound when taking logs of point-fit values that clamped to zero
_LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class GroupStats:
    """Sufficient statistics of one observable group (log space)."""

    kind: str
    size: Optional[int]
    op: Optional[str]
    n: int
    mean_log: float  # mean of log observations
    ss_log: float  # sum of squared deviations from mean_log
    sd_log: float  # population sd of log observations


def group_stats(mset: MeasurementSet) -> Tuple[GroupStats, ...]:
    """Per-observable sufficient statistics, in first-seen group order."""
    out = []
    for (kind, size, op), values in mset.groups().items():
        logs = np.log(np.asarray(values, dtype=float))
        if np.all(logs == logs[0]):
            # identical observations: zero spread *exactly* (np.mean of
            # n equal floats can be off by an ulp, which would break the
            # degenerate-collapse detection)
            mean, ss = float(logs[0]), 0.0
        else:
            mean = float(np.mean(logs))
            ss = float(np.sum((logs - mean) ** 2))
        out.append(
            GroupStats(
                kind=kind, size=size, op=op, n=len(values),
                mean_log=mean, ss_log=ss,
                sd_log=float(np.sqrt(ss / len(values))),
            )
        )
    return tuple(out)


class CalibModel:
    """Log-posterior of the machine parameters given a measurement set.

    Binds the sufficient statistics, the base cost model (needed to
    interpret op timings as factors) and the prior width.  The instance
    exposes the pieces the sampler needs: the parameter ordering
    (:attr:`names`), the initial vector (:meth:`initial`), per-dimension
    proposal scales (:meth:`proposal_scales`) and
    :meth:`log_posterior`.
    """

    def __init__(
        self,
        mset: MeasurementSet,
        base_cost_model=None,
        prior_tau: float = 1.0,
    ):
        if prior_tau <= 0:
            raise ValueError(f"prior_tau must be > 0, got {prior_tau}")
        self.mset = mset
        self.stats = group_stats(mset)
        self.ops = mset.ops_present()
        if self.ops and base_cost_model is None:
            raise ValueError(
                "measurement set contains op timings; a base cost model "
                "is required to interpret them as factors"
            )
        self.base_cost_model = base_cost_model
        self.prior_tau = float(prior_tau)
        self.point = mset.point_fit()
        #: sampled dimensions, in order: network params then op factors
        self.names: Tuple[str, ...] = LOGGP_PARAMS + tuple(
            f"op:{op}" for op in self.ops
        )
        # log of the base op cost per op group, precomputed once
        self._base_log = {
            (s.op, s.size): float(np.log(base_cost_model.cost(s.op, s.size)))
            for s in self.stats
            if s.kind == "op"
        }
        self._center = self._prior_center()
        # Per-group constants of the density, bound once.  Network groups
        # read theta[:4]; an op group reads only its own op's factor.
        self._net_groups = tuple(
            (i, s.kind, s.size, s.n, s.mean_log, s.ss_log, max(s.sd_log, _SIGMA_FLOOR))
            for i, s in enumerate(self.stats)
            if s.kind != "op"
        )
        #: op groups by the dimension of their factor
        self._op_groups = {
            len(LOGGP_PARAMS) + k: tuple(
                (i, self._base_log[(s.op, s.size)], s.n, s.mean_log, s.ss_log,
                 max(s.sd_log, _SIGMA_FLOOR))
                for i, s in enumerate(self.stats)
                if s.kind == "op" and s.op == op
            )
            for k, op in enumerate(self.ops)
        }
        #: the last vector evaluated (floats) and its group terms: one
        #: immutable pair, replaced whole, so concurrent callers can cost
        #: each other recomputations but never mix two vectors' terms
        self._last: Optional[Tuple[tuple, tuple]] = None

    # -- construction helpers ------------------------------------------------
    def _prior_center(self) -> np.ndarray:
        """Prior mean in log space: the point fit, factors from the data.

        Each op's centre is the mean over its groups of ``mean_log -
        log(base cost)`` — the geometric-mean observed/base ratio, which
        is exactly ``0`` (factor 1) when the measurements match the base
        model.
        """
        center = [
            float(np.log(max(getattr(self.point, name), _LOG_FLOOR)))
            for name in LOGGP_PARAMS
        ]
        for op in self.ops:
            offsets = [
                s.mean_log - self._base_log[(s.op, s.size)]
                for s in self.stats
                if s.kind == "op" and s.op == op
            ]
            center.append(float(np.mean(offsets)))
        return np.asarray(center, dtype=float)

    def initial(self) -> np.ndarray:
        """The chain's starting vector: the prior centre (the point fit)."""
        return self._center.copy()

    def is_degenerate(self) -> bool:
        """True when no group has any spread: the posterior is the fit.

        Zero spread everywhere means the data carry no scale for the
        noise, so the only defensible posterior is the point estimate
        itself — the collapse the test harness gates bit for bit.
        """
        return all(s.ss_log == 0.0 for s in self.stats)

    def proposal_scales(self) -> np.ndarray:
        """Per-dimension random-walk steps ``~ 2.4 x`` the posterior sd guess.

        Each parameter's scale comes from the group that identifies it
        most directly (``o`` from ``send_small``, ``G`` from
        ``send_large``, ``g`` from ``burst``, ``L`` from ``one_way``, an
        op factor from its own timing groups): ``sd_log / sqrt(n)`` is
        the posterior sd the group alone would give.  Zero-spread groups
        yield zero steps — those dimensions stay pinned at the point
        fit, which is what partially-degenerate data support.  Steps are
        capped at the prior sd so an uninformative group cannot produce
        a runaway walk.
        """
        informing = {"o": "send_small", "G": "send_large", "g": "burst", "L": "one_way"}
        by_kind = {}
        for s in self.stats:
            if s.kind != "op":
                by_kind.setdefault(s.kind, []).append(s)
        scales = []
        for name in LOGGP_PARAMS:
            group = by_kind.get(informing[name], [])
            sd = max((s.sd_log / np.sqrt(s.n) for s in group), default=0.0)
            scales.append(min(sd, self.prior_tau))
        for op in self.ops:
            own = [s for s in self.stats if s.kind == "op" and s.op == op]
            sd = max((s.sd_log / np.sqrt(s.n) for s in own), default=0.0)
            scales.append(min(sd, self.prior_tau))
        return 2.4 * np.asarray(scales, dtype=float)

    # -- the density ---------------------------------------------------------
    # A group's term is its negative log likelihood,
    # sum_i (log v_i - log m)^2 / (2 sigma^2) = (n*(mean - log m)^2 + ss) / (2 sigma^2).
    def _set_net_terms(self, theta, terms: list) -> None:
        """The network groups' terms at ``theta``, from one parameter set."""
        params = LogGPParameters(
            L=float(np.exp(theta[0])),
            o=float(np.exp(theta[1])),
            g=float(np.exp(theta[2])),
            G=float(np.exp(theta[3])),
            P=self.mset.num_procs,
        )
        for i, kind, size, n, mean, ss, sigma in self._net_groups:
            resid = mean - float(np.log(microbench_model(params, kind, size)))
            terms[i] = (n * resid * resid + ss) / (2.0 * sigma * sigma)

    def _set_op_terms(self, theta, j: int, terms: list) -> None:
        """The terms of the op groups whose factor is dimension ``j``."""
        for i, base, n, mean, ss, sigma in self._op_groups[j]:
            resid = mean - (float(theta[j]) + base)
            terms[i] = (n * resid * resid + ss) / (2.0 * sigma * sigma)

    def log_posterior(self, theta: np.ndarray) -> float:
        """Unnormalised log posterior density at one log-parameter vector.

        A group term depends only on the dimensions its group reads, so
        the terms of the last vector evaluated are kept and only the
        groups reading a dimension that differs from it are recomputed:
        a componentwise Metropolis step moves one dimension, so it pays
        for the 4 network groups (one :class:`LogGPParameters`) or for
        one op's groups.  A reused term is the same expression of the
        same inputs, and the terms are still subtracted in group order,
        so every result is the bit pattern a full evaluation gives,
        whatever was evaluated before.  (``-0.0`` and ``0.0`` compare
        equal and may share terms: every term maps them to the same
        bits.)
        """
        theta = np.asarray(theta)
        if theta.shape != self._center.shape:
            raise ValueError(
                f"theta has shape {theta.shape}, expected {self._center.shape}"
            )
        now = tuple(theta.tolist())
        # nothing evaluated yet: every dimension differs from None
        prev, kept = self._last or ((None,) * len(now), (0.0,) * len(self.stats))
        terms = list(kept)
        net = False
        for j, (x, y) in enumerate(zip(now, prev)):
            if x != y:
                if j < len(LOGGP_PARAMS):
                    net = True
                else:
                    self._set_op_terms(theta, j, terms)
        if net:
            self._set_net_terms(theta, terms)
        lp = 0.0
        for term in terms:
            lp -= term
        dev = theta - self._center
        # np.sum(dev * dev) is exactly this reduction, minus its dispatch
        lp -= float(np.add.reduce(dev * dev, axis=None)) / (2.0 * self.prior_tau**2)
        self._last = (now, tuple(terms))
        return lp
