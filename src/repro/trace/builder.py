"""Helpers for constructing program traces step by step."""

from __future__ import annotations

from typing import Optional

from ..core.message import CommPattern
from .program import ProgramTrace, Step, Work

__all__ = ["TraceBuilder"]


class TraceBuilder:
    """Incremental construction of a :class:`ProgramTrace`.

    Usage::

        tb = TraceBuilder(num_procs=8)
        tb.work(proc=0, op="op1", b=40, block=(0, 0), iteration=0)
        tb.send(src_block=(0, 0), dst_block=(0, 1), owner=layout.owner, size=12800)
        tb.end_step(label="iter 0 wave 0")
        trace = tb.build(meta={"n": 960})
    """

    def __init__(self, num_procs: int):
        self.num_procs = num_procs
        self._trace = ProgramTrace(num_procs=num_procs)
        self._work: dict[int, list[Work]] = {}
        self._comm: Optional[CommPattern] = None
        self._built = False

    def work(
        self,
        proc: int,
        op: str,
        b: int,
        block: tuple[int, int] = (-1, -1),
        iteration: int = -1,
    ) -> "TraceBuilder":
        """Record one basic-op invocation for ``proc`` in the current step."""
        self._work.setdefault(proc, []).append(
            Work(op=op, b=b, block=block, iteration=iteration)
        )
        return self

    def message(self, src_proc: int, dst_proc: int, size: int) -> "TraceBuilder":
        """Record one message in the current step's communication phase."""
        if self._comm is None:
            self._comm = CommPattern(self.num_procs)
        self._comm.add(src_proc, dst_proc, size)
        return self

    def send(
        self,
        src_block: tuple[int, int],
        dst_block: tuple[int, int],
        owner,
        size: int,
    ) -> "TraceBuilder":
        """Record a block→block transfer, resolving owners via ``owner(i, j)``."""
        return self.message(owner(*src_block), owner(*dst_block), size)

    def end_step(self, label: str = "") -> "TraceBuilder":
        """Close the current step (kept even if empty, preserving cadence)."""
        self._trace.add_step(Step(work=self._work, pattern=self._comm, label=label))
        self._work = {}
        self._comm = None
        return self

    def build(self, meta: Optional[dict] = None) -> ProgramTrace:
        """Finalize; flushes a trailing unfinished step if one exists."""
        if self._built:
            raise RuntimeError("build() called twice")
        if self._work or self._comm is not None:
            self.end_step()
        if meta:
            self._trace.meta.update(meta)
        self._built = True
        return self._trace
