"""Child bootstrap: run one ``repro`` CLI command as ``python -m repro`` would.

Usage (the harness builds these command lines; nothing else needs to)::

    python benchmarks/e2e/boot.py STAMP [--probe] [--spans DIR] -- <repro args>

``STAMP`` receives a JSON object of ``time.monotonic()`` readings taken
in this process — ``t_start`` (first line of this file), ``t_import``
(``repro.cli`` imported), ``t_main`` (``repro.cli.main`` about to run)
and ``t_end`` — which the harness compares with its own spawn time.
``CLOCK_MONOTONIC`` is system-wide on Linux, so the readings of parent
and child share one clock.  ``--probe`` stops after the import: the
set-up cost of one command, without running it.

``--spans DIR`` is the traced pass.  Before ``main`` runs, the public
callables of each layer (the :data:`FUNCTIONS` and :data:`METHODS`
tables) are replaced by timing wrappers *where callers look them up*:
class attributes, and every ``repro.*`` module attribute bound to the
original function (which covers ``from x import f``).  Each wrapper
records a span ``(name, start, end, self, parent, thread)`` on a
per-thread stack; a span's self time is its duration minus the time its
direct children took.  Forked pool workers inherit the wrappers; because
the pool terminates them without running exit handlers, a worker appends
its spans to ``DIR/spans-<pid>.jsonl`` whenever its outermost span
closes.  The main process writes its file when ``main`` returns.
"""

import os
import sys
import time

T_START = time.monotonic()

import functools  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

#: ``(module, function, span)``: module-level callables of each layer
FUNCTIONS = (
    ("repro.apps.gauss", "build_ge_trace", "apps.build_ge_trace"),
    ("repro.kernel.tracecache", "ge_trace", "kernel.ge_trace"),
    ("repro.kernel.vector", "ge_plan", "kernel.ge_plan"),
    ("repro.kernel.vector", "simulate_programs_batch", "kernel.simulate_programs_batch"),
    ("repro.kernel.vector", "evaluate_ge_points_batch", "kernel.evaluate_ge_points_batch"),
    ("repro.sweep.runner", "run_sweep", "sweep.run_sweep"),
    ("repro.sweep.executor", "decide_executor", "sweep.decide_executor"),
    ("repro.sweep.batch", "run_point_batch", "sweep.run_point_batch"),
    ("repro.sweep.runner", "_evaluate_point", "sweep.point"),
    ("repro.sweep.runner", "_run_chunk", "sweep.chunk"),
    ("repro.uq.reduce", "reduce_replicates", "uq.reduce_replicates"),
    ("repro.calib.measure", "measure_emulator", "calib.measure_emulator"),
    ("repro.calib.mcmc", "run_mcmc", "calib.run_mcmc"),
    ("repro.obs.export", "write_chrome_trace", "obs.write_chrome_trace"),
)

#: ``(module, class, method, span)``; a callable span names itself from
#: the call's arguments
METHODS = (
    ("repro.core.program_sim", "ProgramSimulator", "run",
     lambda args: f"core.program_sim.{args[0].mode}"),
    ("repro.machine.emulator", "MachineEmulator", "run", "machine.emulator"),
    ("repro.machine.perturbed", "PerturbedMachine", "sample", "machine.perturbed_sample"),
    ("repro.experiments", "ExperimentStore", "get", "experiments.store_get"),
    ("repro.experiments", "ExperimentStore", "put", "experiments.store_put"),
    ("repro.serve.server", "PredictionService", "handle", "serve.handle"),
    ("repro.serve.server", "PredictionService", "_execute_batch", "serve.batch"),
    ("repro.serve.server", "_ServeHandler", "do_POST", "serve.http"),
    ("repro.serve.protocol", "PredictRequest", "from_doc", "serve.protocol_from_doc"),
    ("repro.serve.protocol", "PredictRequest", "fingerprint", "serve.protocol_fingerprint"),
    ("repro.calib.likelihood", "CalibModel", "__init__", "calib.model_init"),
    ("repro.obs.events", "Tracer", "absorb_rows", "obs.absorb_rows"),
    ("repro.obs.events", "Tracer", "_materialize", "obs.materialize"),
    ("repro.obs.manifest", "RunRecord", "finish", "obs.manifest_finish"),
    ("repro.obs.manifest", "RunRecord", "write", "obs.manifest_write"),
)


class Recorder:
    """The spans and counters of one process, flushed to a JSONL sidecar."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.worker = False
        self._lock = threading.Lock()
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.local = threading.local()
        self.spans: list = []
        self.counts: dict = {}
        self.values: dict = {}

    def _forked(self) -> None:
        self.worker = True
        self._lock = threading.Lock()
        self._reset()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, span, fn, after=None):
        """``fn`` timed as ``span``; ``after(recorder, args, result)`` on success."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(self.local, "stack", None)
            if stack is None:
                stack = self.local.stack = []
            name = span(args) if callable(span) else span
            frame = [name, 0.0]  # [name, time covered by direct children]
            stack.append(frame)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                if after is not None:  # before a worker's flush below
                    after(self, args, result)
                return result
            finally:
                t1 = time.monotonic()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.spans.append((
                    name, t0, t1, t1 - t0 - frame[1],
                    stack[-1][0] if stack else None, threading.get_ident(),
                ))
                if self.worker and not stack:
                    self.flush()

        return timed

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def flush(self, **extra) -> None:
        """Append everything recorded since the last flush, then forget it."""
        with self._lock:
            doc = {
                "pid": self.pid, "spans": self.spans,
                "counts": self.counts, "values": self.values, **extra,
            }
            self.spans, self.counts, self.values = [], {}, {}
        with open(self.directory / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(doc) + "\n")


def _rebind(original, replacement) -> None:
    """Point every ``repro.*`` module attribute bound to ``original`` at
    ``replacement`` (the definition site and every ``from x import f``)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _after_store_get(rec, args, result):
    if result is not None:
        rec.count("experiments.store_get.hits")


def _after_run_sweep(rec, args, result):
    stats = result.stats
    rec.count("sweep.points_computed", stats.computed)
    rec.count("sweep.points_cached", stats.cached)
    rec.count("sweep.chunks", stats.chunks)


def _after_run_mcmc(rec, args, result):
    rec.values["calib.accept_rate"] = result.accept_rate


def _after_reduce(rec, args, result):
    rec.count("uq.replicates", len(args[1]))


def _after_chrome(rec, args, result):
    rec.count("obs.events", len(args[0]))


def _after_batch(rec, args, result):
    rec.count("serve.batch.points", len(args[1]))


AFTER = {
    "experiments.store_get": _after_store_get,
    "sweep.run_sweep": _after_run_sweep,
    "calib.run_mcmc": _after_run_mcmc,
    "uq.reduce_replicates": _after_reduce,
    "obs.write_chrome_trace": _after_chrome,
    "serve.batch": _after_batch,
}


def install(rec: Recorder) -> None:
    """Import every instrumented module and swap in the timing wrappers."""
    import importlib

    for module, attr, span in FUNCTIONS:
        original = getattr(importlib.import_module(module), attr)
        _rebind(original, rec.wrap(span, original, AFTER.get(span)))
    for module, cls_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(rec.wrap(span, raw.__func__)))
        else:
            setattr(cls, attr, rec.wrap(span, raw, AFTER.get(span)))
    likelihood = importlib.import_module("repro.calib.likelihood")
    model = likelihood.CalibModel
    model.log_posterior = rec.counted("calib.log_posterior.calls", model.log_posterior)
    # the program simulator looks its step simulators up in this table
    program_sim = importlib.import_module("repro.core.program_sim")
    for mode in ("standard", "worstcase"):
        program_sim._SIMULATORS[mode] = rec.wrap(
            f"core.comm_step.{mode}", program_sim._SIMULATORS[mode]
        )


def main(argv: list) -> int:
    if "REPRO_FAST" in os.environ:
        print("boot: REPRO_FAST leaked into the benchmark child", file=sys.stderr)
        return 3
    # a child started with SIGINT ignored would never shut `repro serve` down
    signal.signal(signal.SIGINT, signal.default_int_handler)
    split = argv.index("--") if "--" in argv else len(argv)
    own, cli_args = argv[:split], argv[split + 1:]
    stamp_path = Path(own[0])
    probe = "--probe" in own
    spans_dir = Path(own[own.index("--spans") + 1]) if "--spans" in own else None

    import repro.cli

    stamps = {"t_start": T_START, "t_import": time.monotonic(), "pid": os.getpid()}
    rec = None
    if spans_dir is not None:
        rec = Recorder(spans_dir)
        install(rec)
    stamps["t_main"] = time.monotonic()
    code = 0
    try:
        if not probe:
            code = repro.cli.main(cli_args)
    finally:
        stamps["t_end"] = time.monotonic()
        if rec is not None:
            rec.flush(main=True, stamps=stamps)
        stamp_path.write_text(json.dumps(stamps))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
