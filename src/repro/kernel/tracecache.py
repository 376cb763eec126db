"""The GE program trace of one sweep configuration.

:func:`ge_trace` builds the trace of one ``(n, b, layout, P)``
configuration on every call.  Nothing is kept across calls: at n=480,
b=10 a trace is ~12 MB, and a process that cached a few dozen of them
held several times the memory of the simulation itself.  Callers that
evaluate many points of one configuration share a trace *within* a call
instead — :func:`repro.kernel.vector.evaluate_ge_points_batch` groups
its lanes by configuration and builds each group's trace once.

Rebuilds are bit-identical (:class:`repro.core.message.CommPattern`
allocates message uids from a per-pattern counter), so sharing or not
sharing a trace never changes a result.
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
