"""Blocked parallel Gaussian Elimination (paper section 5).

The parallel GE without pivoting is based on the observation that each
iteration of the sequential algorithm can be regarded as a diagonal wave
traversing the matrix from the upper-left to the lower-right corner, so
several (anti-)diagonals of blocks are active at the same time [Kumar et
al.].  The blocked version raises the granularity to ``b x b`` basic
blocks operated on by the four basic operations of
:mod:`repro.blockops.ops`.

Wavefront schedule
------------------
With ``nb = n / b`` blocks per side, iteration ``k``'s wave reaches block
``(i, j)`` (``i, j >= k``) at *global step* ``t = 3k + (i-k) + (j-k)``:

* iteration ``k`` starts (Op1 at ``(k,k)``) three steps after iteration
  ``k-1`` started — one step after Op4 of iteration ``k-1`` finished on
  ``(k,k)``;
* each step is one computation phase followed by one communication phase,
  matching the paper's alternating non-overlapping restriction.

Data movement per active block (systolic, neighbour-to-neighbour):

* ``(k,k)`` after Op1 sends ``L^-1`` right to ``(k,k+1)`` and ``U^-1``
  down to ``(k+1,k)``;
* ``(k,j)`` after Op2 forwards ``L^-1`` right and sends its transformed
  row block down;
* ``(i,k)`` after Op3 forwards ``U^-1`` down and sends its transformed
  column block right;
* ``(i,j)`` after Op4 forwards the column block right and the row block
  down.

Messages between blocks owned by the same processor are *local* — real
executions do them as memory copies; the simple LogGP prediction skips
them (paper section 6.3) while the machine emulator charges a copy cost.

This module provides the **wavefront recurrence** (:func:`ge_steps`,
compiled straight into the batch kernel's plan by
:func:`repro.kernel.vector.ge_plan`, and wrapped as a
:class:`~repro.trace.program.ProgramTrace` by :func:`build_ge_trace`)
and a **numerical executor** that actually factorises a
matrix with the four basic ops, verified against ``L @ U = A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..blockops import ops as bops
from ..core.message import CommPattern
from ..layouts.base import DataLayout
from ..trace.program import ProgramTrace, Step, Work

__all__ = [
    "GEConfig",
    "build_ge_trace",
    "ge_steps",
    "ge_meta",
    "execute_blocked_ge",
    "verify_lu",
    "random_spd_like_matrix",
    "PAPER_MATRIX_N",
    "PAPER_BLOCK_SIZES",
]

#: the paper's matrix order (reconstructed; see DESIGN.md)
PAPER_MATRIX_N = 960

#: the paper's 14 block sizes (reconstructed; all divide 960)
PAPER_BLOCK_SIZES = (10, 12, 15, 20, 24, 30, 40, 48, 60, 64, 80, 96, 120, 160)


@dataclass(frozen=True)
class GEConfig:
    """One GE experiment configuration."""

    n: int
    b: int
    layout: DataLayout

    def __post_init__(self) -> None:
        if self.n < 1 or self.b < 1:
            raise ValueError("matrix and block sizes must be >= 1")
        if self.n % self.b:
            raise ValueError(f"block size {self.b} does not divide n={self.n}")
        if self.layout.nb != self.n // self.b:
            raise ValueError(
                f"layout grid {self.layout.nb} != n/b = {self.n // self.b}"
            )

    @property
    def nb(self) -> int:
        """Blocks per matrix side."""
        return self.n // self.b


def ge_meta(config: GEConfig) -> dict:
    """The report metadata of one configuration's program."""
    b = config.b
    return {
        "app": "gauss",
        "n": config.n,
        "b": b,
        "nb": config.nb,
        "layout": config.layout.name,
        "num_procs": config.layout.num_procs,
        "block_bytes": b * b * 8,
        "factor_bytes": b * (b + 1) // 2 * 8,
    }


def ge_steps(
    config: GEConfig,
) -> Iterator[tuple[dict[int, list[tuple]], list[tuple[int, int, int]]]]:
    """The wavefront recurrence, one program step at a time.

    Yields ``(work, messages)`` for each of the ``3*(nb-1) + 1`` steps:
    step ``t`` computes every block ``(i, j, k)`` with
    ``3k + (i-k) + (j-k) == t``.  ``work`` maps each processor, in the
    order it first computes this step, to its ``(op, b, i, j, k)``
    records; ``messages`` lists the ``(src, dst, size)`` sends the
    step's blocks emit, in program order.  :func:`build_ge_trace` wraps
    the records as objects; :func:`repro.kernel.vector.ge_plan` compiles
    them as they are.
    """
    nb = config.nb
    b = config.b
    owner = config.layout.owner
    owners = [[owner(i, j) for j in range(nb)] for i in range(nb)]
    block_bytes = b * b * 8
    factor_bytes = b * (b + 1) // 2 * 8  # one triangular factor

    last = nb - 1
    for t in range(3 * last + 1):
        work: dict[int, list[tuple]] = {}
        msgs: list[tuple[int, int, int]] = []
        send = msgs.append
        # iterations whose wave is alive at step t
        for k in range(min(t // 3, last) + 1):
            s = t - 3 * k
            if s > 2 * (last - k):
                continue
            # blocks (i, j) with i,j >= k and (i-k) + (j-k) == s
            for di in range(max(0, s - (last - k)), min(s, last - k) + 1):
                i = k + di
                j = k + (s - di)
                row = owners[i]
                me = row[j]
                # outgoing data (systolic forwarding): right, then down —
                # except Op3, which forwards its factor down first
                if i == k:
                    op = "op1" if j == k else "op2"
                    if j < last:
                        send((me, row[j + 1], factor_bytes))
                    if i < last:
                        send((me, owners[i + 1][j], factor_bytes if j == k else block_bytes))
                elif j == k:
                    op = "op3"
                    if i < last:
                        send((me, owners[i + 1][j], factor_bytes))
                    if j < last:
                        send((me, row[j + 1], block_bytes))
                else:  # op4 forwards both streams
                    op = "op4"
                    if j < last:
                        send((me, row[j + 1], block_bytes))
                    if i < last:
                        send((me, owners[i + 1][j], block_bytes))
                records = work.get(me)
                if records is None:
                    records = work[me] = []
                records.append((op, b, i, j, k))
        yield work, msgs


def build_ge_trace(config: GEConfig) -> ProgramTrace:
    """Generate the wavefront GE program trace for one configuration.

    The trace has ``3*(nb-1) + 1`` steps; step ``t`` holds the computation
    of every block ``(i, j, k)`` with ``3k + (i-k) + (j-k) == t`` and the
    communication pattern of the data those blocks emit
    (:func:`ge_steps`, as :class:`Work` and :class:`CommPattern` objects).
    """
    P = config.layout.num_procs
    trace = ProgramTrace(num_procs=P)
    for t, (work, msgs) in enumerate(ge_steps(config)):
        trace.add_step(Step(
            work={
                proc: [
                    Work(op=op, b=b, block=(i, j), iteration=k)
                    for op, b, i, j, k in records
                ]
                for proc, records in work.items()
            },
            pattern=CommPattern(P, msgs),
            label=f"t={t}",
        ))
    trace.meta.update(ge_meta(config))
    return trace


def random_spd_like_matrix(n: int, seed: int = 0) -> np.ndarray:
    """A random diagonally dominant matrix (safe for GE without pivoting)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += n * np.eye(n)
    return a


def execute_blocked_ge(
    matrix: np.ndarray, b: int
) -> tuple[np.ndarray, np.ndarray]:
    """Numerically run the blocked GE with the four basic operations.

    Returns ``(L, U)`` with ``L`` unit lower triangular and ``U`` upper
    triangular such that ``L @ U`` equals the input (up to round-off).
    This executes the same arithmetic the distributed wavefront performs,
    in dependency order, validating that the trace's operation set is a
    correct factorisation (paper section 5.1's basic-op decomposition).
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("matrix must be square")
    if n % b:
        raise ValueError(f"block size {b} does not divide n={n}")
    nb = n // b
    a = np.array(matrix, dtype=np.float64, copy=True)

    def blk(i: int, j: int) -> np.ndarray:
        return a[i * b : (i + 1) * b, j * b : (j + 1) * b]

    lower = np.eye(n)
    upper = np.zeros((n, n))

    for k in range(nb):
        factors = bops.op1_factor(blk(k, k))  # Op1
        lower[k * b : (k + 1) * b, k * b : (k + 1) * b] = factors.lower
        upper[k * b : (k + 1) * b, k * b : (k + 1) * b] = factors.upper
        for j in range(k + 1, nb):  # Op2 across the pivot row
            u_kj = bops.op2_row(factors.lower_inv, blk(k, j))
            blk(k, j)[:] = u_kj
            upper[k * b : (k + 1) * b, j * b : (j + 1) * b] = u_kj
        for i in range(k + 1, nb):  # Op3 down the pivot column
            l_ik = bops.op3_col(blk(i, k), factors.upper_inv)
            blk(i, k)[:] = l_ik
            lower[i * b : (i + 1) * b, k * b : (k + 1) * b] = l_ik
        for i in range(k + 1, nb):  # Op4 on the trailing submatrix
            for j in range(k + 1, nb):
                blk(i, j)[:] = bops.op4_update(blk(i, j), blk(i, k), blk(k, j))

    return lower, upper


def verify_lu(
    matrix: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rtol: float = 1e-8,
    atol: float = 1e-6,
) -> bool:
    """Check ``L @ U == A`` (within tolerance) and triangularity."""
    n = matrix.shape[0]
    if not np.allclose(lower, np.tril(lower), atol=atol):
        return False
    if not np.allclose(np.diag(lower), np.ones(n), atol=atol):
        return False
    if not np.allclose(upper, np.triu(upper), atol=atol):
        return False
    return np.allclose(lower @ upper, matrix, rtol=rtol, atol=atol)
