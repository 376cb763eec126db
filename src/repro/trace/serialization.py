"""JSON (de)serialization of traces, patterns and reports.

A production prediction tool needs its inputs and outputs on disk: traces
are expensive to regenerate, cost tables are measured once per machine,
and prediction reports feed downstream tooling.  The format is plain
JSON — versioned, self-describing, stable across sessions — with
round-trip guarantees covered by the test suite (including
hypothesis-generated traces).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from ..core.message import CommPattern
from ..core.program_sim import PredictionReport
from .program import ProgramTrace, Step, Work

__all__ = [
    "FORMAT_VERSION",
    "pattern_to_dict",
    "pattern_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "save_trace",
    "load_trace",
    "report_to_dict",
    "save_report",
    "cost_table_to_json",
    "cost_table_from_json",
]

FORMAT_VERSION = 1


def _require(data: dict, kind: str) -> None:
    if data.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} document, got {data.get('kind')!r}")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {data.get('version')!r}")


# -- communication patterns --------------------------------------------------

def pattern_to_dict(pattern: CommPattern) -> dict:
    """Serialisable form of a pattern (insertion order preserved)."""
    return {
        "kind": "comm_pattern",
        "version": FORMAT_VERSION,
        "num_procs": pattern.num_procs,
        "messages": [[m.src, m.dst, m.size] for m in pattern],
    }


def pattern_from_dict(data: dict) -> CommPattern:
    """Inverse of :func:`pattern_to_dict`."""
    _require(data, "comm_pattern")
    return CommPattern(data["num_procs"], edges=[tuple(e) for e in data["messages"]])


# -- traces -------------------------------------------------------------------

def trace_to_dict(trace: ProgramTrace) -> dict:
    """Serialisable form of a whole program trace."""
    steps = []
    for step in trace.steps:
        steps.append(
            {
                "label": step.label,
                "work": {
                    str(proc): [[w.op, w.b, list(w.block), w.iteration] for w in ops]
                    for proc, ops in step.work.items()
                },
                "pattern": pattern_to_dict(step.pattern) if step.pattern is not None else None,
            }
        )
    return {
        "kind": "program_trace",
        "version": FORMAT_VERSION,
        "num_procs": trace.num_procs,
        "meta": trace.meta,
        "steps": steps,
    }


def trace_from_dict(data: dict) -> ProgramTrace:
    """Inverse of :func:`trace_to_dict` (validates as it builds)."""
    _require(data, "program_trace")
    trace = ProgramTrace(num_procs=data["num_procs"])
    trace.meta.update(data.get("meta", {}))
    for raw in data["steps"]:
        work = {
            int(proc): [
                Work(op=op, b=b, block=tuple(block), iteration=iteration)
                for op, b, block, iteration in ops
            ]
            for proc, ops in raw.get("work", {}).items()
        }
        pattern = (
            pattern_from_dict(raw["pattern"]) if raw.get("pattern") is not None else None
        )
        trace.add_step(Step(work=work, pattern=pattern, label=raw.get("label", "")))
    return trace


def save_trace(trace: ProgramTrace, path: Union[str, Path]) -> None:
    """Write a trace as JSON."""
    Path(path).write_text(json.dumps(trace_to_dict(trace)))


def load_trace(path: Union[str, Path]) -> ProgramTrace:
    """Read a trace written by :func:`save_trace`."""
    return trace_from_dict(json.loads(Path(path).read_text()))


# -- prediction reports --------------------------------------------------------

def report_to_dict(report: PredictionReport) -> dict:
    """Serialisable summary of a prediction."""
    return {
        "kind": "prediction_report",
        "version": FORMAT_VERSION,
        "total_us": report.total_us,
        "comp_us": report.comp_us,
        "comm_us": report.comm_us,
        "per_proc_total_us": {str(p): v for p, v in report.per_proc_total_us.items()},
        "per_proc_comp_us": {str(p): v for p, v in report.per_proc_comp_us.items()},
        "meta": report.meta,
    }


def save_report(report: PredictionReport, path: Union[str, Path]) -> None:
    """Write a prediction report as JSON."""
    Path(path).write_text(json.dumps(report_to_dict(report)))


# -- cost tables ----------------------------------------------------------------

def cost_table_to_json(table: dict[str, dict[int, float]]) -> str:
    """Serialise a ``{op: {b: us}}`` cost table (e.g. a host measurement)."""
    doc: dict[str, Any] = {
        "kind": "cost_table",
        "version": FORMAT_VERSION,
        "ops": {op: {str(b): cost for b, cost in entries.items()} for op, entries in table.items()},
    }
    return json.dumps(doc)


def cost_table_from_json(text: str) -> dict[str, dict[int, float]]:
    """Inverse of :func:`cost_table_to_json`."""
    data = json.loads(text)
    _require(data, "cost_table")
    return {
        op: {int(b): float(cost) for b, cost in entries.items()}
        for op, entries in data["ops"].items()
    }
