"""The emulated machine's network: LogGP means with seeded jitter.

The paper observes that "the LogGP model gives an average behavior of the
transmission of messages over the network, and not a precise one" and that
a single late message can reshuffle the whole send/receive sequence
(section 4.1).  The emulated network therefore draws each message's wire
latency from a log-normal distribution around the LogGP ``L``, plus an
occasional straggler — enough variability to land the "measured"
communication times strictly inside the standard/worst-case band of
Figure 8, as the paper reports.

Local (same-processor) transfers are memory copies, charged per byte.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..blockops.calibration import LOCAL_COPY_US_PER_BYTE
from ..core.loggp import LogGPParameters
from ..core.message import Message
from ..uq.sampler import apply_jitter, jitter_normalizer

__all__ = ["JitteredNetwork"]


@dataclass
class JitteredNetwork:
    """Per-message latency sampler and local-copy pricer.

    Parameters
    ----------
    params:
        The LogGP means.
    jitter_sigma:
        Std-dev of the log-normal multiplier on ``L`` (0 = deterministic).
    straggler_prob, straggler_factor:
        With probability ``straggler_prob`` a message's latency is further
        multiplied by ``straggler_factor`` (network contention spikes).
    local_copy_us_per_byte:
        Cost of self-messages (local memory transfers).
    """

    params: LogGPParameters
    jitter_sigma: float = 0.10
    straggler_prob: float = 0.01
    straggler_factor: float = 2.5
    local_copy_us_per_byte: float = LOCAL_COPY_US_PER_BYTE
    seed: int = 0

    def __post_init__(self) -> None:
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if not (0.0 <= self.straggler_prob <= 1.0):
            raise ValueError("straggler_prob must be in [0, 1]")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        self._rng = np.random.default_rng(self.seed)
        # Normalise so E[multiplier] == 1: the LogGP L is the *mean*
        # latency ("the model gives an average behavior", section 4.1),
        # so jitter must not systematically inflate it.
        self._norm = jitter_normalizer(
            self.jitter_sigma, self.straggler_prob, self.straggler_factor
        )

    def latency_of(self, message) -> float:
        """Sampled wire latency (µs) for one message (mean ``params.L``).

        The draw ignores ``message``.  :meth:`latencies` draws the next
        ``k`` of these at once, and the untraced emulator uses it, so a
        subclass whose latency depends on the message must override both.
        """
        return apply_jitter(
            self.params.L * self._norm,
            self._rng,
            self.jitter_sigma,
            self.straggler_prob,
            self.straggler_factor,
        )

    def latencies(self, k: int) -> list[float]:
        """What ``k`` successive :meth:`latency_of` calls return, bit for bit.

        The generator is advanced exactly as those calls would advance it:
        one scalar normal and then one uniform per message, interleaved,
        and no draw for a zero ``jitter_sigma`` or ``straggler_prob``.
        Only the ``np.exp`` and the multiplies run as vectors; a vector
        ``np.exp`` equals the scalar one element for element (``math.exp``
        does not).
        """
        rng = self._rng
        sigma = self.jitter_sigma
        prob = self.straggler_prob
        z = []
        u = []
        for _ in range(k):
            if sigma:
                z.append(rng.normal(0.0, sigma))
            if prob:
                u.append(rng.random())
        lat = np.full(k, self.params.L * self._norm)
        if sigma:
            lat = lat * np.exp(z)
        if prob:
            lat = np.where(np.array(u) < prob, lat * self.straggler_factor, lat)
        return lat.tolist()

    def local_copy_us(self, message: Message) -> float:
        """Cost of a same-processor transfer (µs)."""
        if not message.is_local:
            raise ValueError("local_copy_us() expects a self-message")
        return self.copy_us(message.size)

    def copy_us(self, size: int) -> float:
        """Cost of copying ``size`` bytes locally (µs)."""
        return size * self.local_copy_us_per_byte
