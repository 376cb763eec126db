"""The GE program trace of one sweep configuration, as objects.

:func:`ge_trace` builds the :class:`~repro.trace.program.ProgramTrace`
of one ``(n, b, layout, P)`` configuration on every call, for callers
that want the program as ``Work``/``CommPattern`` objects.  Sweeps do
not call it: :func:`repro.kernel.vector.ge_plan` compiles the same
wavefront recurrence (:func:`repro.apps.gauss.ge_steps`) straight into
flat per-step records, and a batch call shares one *plan* among the
lanes of each configuration.

Nothing is kept across calls: at n=480, b=10 a trace is ~12 MB, and a
process that cached a few dozen of them held several times the memory
of the simulation itself.  Rebuilds are bit-identical
(:class:`repro.core.message.CommPattern` allocates message uids from a
per-pattern counter), so rebuilding never changes a result.
"""

from __future__ import annotations

from ..apps.gauss import GEConfig, build_ge_trace
from ..layouts import LAYOUTS
from ..trace.program import ProgramTrace

__all__ = ["ge_trace"]


def ge_trace(n: int, b: int, layout_name: str, P: int) -> ProgramTrace:
    """The GE trace of one configuration, freshly built."""
    layout = LAYOUTS[layout_name](n // b, P)
    return build_ge_trace(GEConfig(n=n, b=b, layout=layout))
