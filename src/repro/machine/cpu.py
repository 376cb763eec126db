"""Emulated node CPU: basic-op execution with cache and iteration overheads.

Computes how long one processor's computation phase *really* takes on the
emulated machine: the warm-cache operation cost (same cost model the
predictor uses — the emulator and the predictor disagree only about the
effects the paper says the simple prediction omits), plus:

* **cache penalties** — each operand block is looked up in the node's
  :class:`~repro.machine.cache.BlockCache`; a miss costs a line-fill per
  operand line;
* **iteration overhead** — every step, the processor scans all of its
  assigned blocks to find the active ones (the Split-C implementation's
  loop structure), at :data:`~repro.blockops.calibration.SCAN_US_PER_BLOCK`
  per block;
* optional multiplicative **timing noise** (real machines are not exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from ..blockops.calibration import (
    CS2_LINE_BYTES,
    CS2_MISS_PENALTY_US,
    SCAN_US_PER_BLOCK,
)
from ..core.costmodel import CostModel
from ..trace.program import Work
from .cache import BlockCache

__all__ = ["touched_blocks", "NodeCPU", "CompPhaseResult"]


def touched_blocks(work: Work) -> list[tuple[Hashable, int]]:
    """Operand blocks (key, bytes) one basic-op invocation touches.

    Keys distinguish matrix blocks from the factor/stream buffers flowing
    through the wavefront; byte sizes are float64 footprints.
    """
    i, j = work.block
    keys = _operand_keys(work.op, i, j, work.iteration)
    return list(zip(keys, _operand_bytes(work.op, work.b)))


def _operand_keys(op: str, i: int, j: int, k: int) -> tuple:
    """Cache keys of the operand blocks of the work record ``(op, b, i, j, k)``."""
    if op == "op1":
        return (("blk", i, j),)
    if op == "op2":
        return (("blk", i, j), ("factL", k))
    if op == "op3":
        return (("blk", i, j), ("factU", k))
    if op == "op4":
        return (("blk", i, j), ("col", i, k), ("row", k, j))
    # non-GE op: charge its own block only
    return (("blk", i, j),)


def _operand_bytes(op: str, b: int) -> tuple[int, ...]:
    """Byte sizes of the operands :func:`_operand_keys` names, in order."""
    block_bytes = b * b * 8
    if op == "op2" or op == "op3":
        return (block_bytes, b * (b + 1) // 2 * 8)
    if op == "op4":
        return (block_bytes, block_bytes, block_bytes)
    return (block_bytes,)


@dataclass(frozen=True)
class CompPhaseResult:
    """Outcome of one computation phase on one emulated node."""

    total_us: float
    warm_us: float
    cache_us: float
    scan_us: float


class NodeCPU:
    """One emulated processor's execution engine.

    Parameters
    ----------
    cost_model:
        Warm-cache basic-op costs (shared with the predictor).
    cache:
        The node's block cache, or ``None`` to emulate a machine without
        cache effects (the paper's "measured w/o caching" series).
    assigned_blocks:
        How many blocks this processor owns (drives the per-step scan
        overhead); 0 disables the scan term.
    noise_sigma:
        Std-dev of the multiplicative log-normal timing noise (0 = exact).
    rng:
        Randomness source for the noise.
    """

    def __init__(
        self,
        cost_model: CostModel,
        cache: Optional[BlockCache] = None,
        assigned_blocks: int = 0,
        line_bytes: int = CS2_LINE_BYTES,
        miss_penalty_us: float = CS2_MISS_PENALTY_US,
        scan_us_per_block: float = SCAN_US_PER_BLOCK,
        noise_sigma: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ):
        if assigned_blocks < 0:
            raise ValueError("assigned_blocks must be >= 0")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        self.cost_model = cost_model
        self.cache = cache
        self.assigned_blocks = assigned_blocks
        self.line_bytes = line_bytes
        self.miss_penalty_us = miss_penalty_us
        self.scan_us_per_block = scan_us_per_block
        self.noise_sigma = noise_sigma
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: ``(op, b) -> (operand bytes, miss charges or None)``; see
        #: :meth:`_price_operands`
        self._miss_charges: dict[tuple[str, int], tuple] = {}

    def _price_operands(self, op: str, b: int) -> tuple:
        """Operand sizes and per-operand miss charges of one ``(op, b)``.

        Footprint, cacheability and each operand's charge depend only on
        ``(op, b)``, so each is computed once per node.  The charges are
        ``None`` when the operation is not cacheable: its misses cost
        nothing extra.
        """
        sizes = _operand_bytes(op, b)
        footprint = sum(sizes)
        cacheable = max(0.0, 1.0 - footprint / self.cache.capacity_bytes)
        miss = (
            tuple(
                (nbytes / self.line_bytes) * self.miss_penalty_us * cacheable
                for nbytes in sizes
            )
            if cacheable > 0.0
            else None
        )
        priced = self._miss_charges[(op, b)] = (sizes, miss)
        return priced

    def run_phase(self, ops: Sequence[Work]) -> CompPhaseResult:
        """Execute one computation phase of :class:`Work` records.

        :meth:`run_records` over the phase's own warm costs.
        """
        cost = self.cost_model.cost
        return self.run_records(
            [cost(w.op, w.b) for w in ops],
            range(len(ops)),
            [(w.op, w.b, w.block[0], w.block[1], w.iteration) for w in ops],
        )

    def run_records(
        self,
        table: Sequence[float],
        slots: Sequence[int],
        records: Sequence[tuple],
    ) -> CompPhaseResult:
        """Execute one computation phase; returns its timing breakdown.

        Operation ``n`` of the phase costs ``table[slots[n]]`` warm (a
        compiled plan's op table priced by this node's cost model) and
        touches the operand blocks of its ``(op, b, i, j, k)`` work
        record ``records[n]``.

        Miss penalties are scaled by a *cacheability factor*
        ``max(0, 1 - footprint/capacity)``: an operation whose operands
        could never be co-resident streams from memory regardless of the
        cache state, and that streaming cost is already inside the warm
        (Figure 6) cost — the paper's cache distortion is specifically a
        small-block effect ("many non-adjacent small blocks", §6.3).

        The phase's noise factors are drawn in one vector call: the node's
        generator feeds nothing else, and a vector of normals (and its
        ``np.exp``) equals the same number of scalar draws, bit for bit.
        """
        n_ops = len(records)
        if self.noise_sigma == 0.0:
            noise = [1.0] * n_ops
        else:
            noise = np.exp(self.rng.normal(0.0, self.noise_sigma, size=n_ops)).tolist()
        cache = self.cache
        warm = 0.0
        cache_extra = 0.0
        if cache is None:
            for slot, factor in zip(slots, noise):
                warm += table[slot] * factor
        else:
            touch = cache.touch
            charges = self._miss_charges
            for slot, (op, b, i, j, k), factor in zip(slots, records, noise):
                warm += table[slot] * factor
                sizes, miss = charges.get((op, b)) or self._price_operands(op, b)
                keys = _operand_keys(op, i, j, k)
                if miss is None:
                    for key, nbytes in zip(keys, sizes):
                        touch(key, nbytes)
                else:
                    for key, nbytes, extra in zip(keys, sizes, miss):
                        if not touch(key, nbytes):
                            cache_extra += extra
        scan = self.scan_us_per_block * self.assigned_blocks if n_ops else 0.0
        return CompPhaseResult(
            total_us=warm + cache_extra + scan,
            warm_us=warm,
            cache_us=cache_extra,
            scan_us=scan,
        )
