"""Spans and counters for the benchmark's traced run.

Spans are recorded from the benchmark's own files, around the calls it
makes into each layer of the simulator.  Where a layer is entered from
inside the program (the execution engines, a mechanism's interval hook,
Prosper's checkpoint engine), :func:`instrumented` wraps that entry point
for the duration of the traced phase and restores it afterwards.  The
interval hook is overridden on the mechanism *instance*, so the
mechanism's type, which the batched engine inspects, is unchanged.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

from repro.cpu.engine import ExecutionEngine
from repro.cpu.engine_fast import BatchedExecutionEngine

_NULL = nullcontext()


class NullTracer:
    """Tracing off: spans and counts cost one method call each."""

    enabled = False

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer:
    """In-memory spans ``(id, parent, trace, name, start, end)`` and
    per-trace counters.  ``trace`` groups the spans of one set-up repetition
    or one timed pass."""

    enabled = True

    def __init__(self, origin: float) -> None:
        self.origin = origin
        self.trace = "setup-0"
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._open: list[int] = []
        self.engine_depth = 0

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans) + len(self._open)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans.append((span_id, parent, self.trace, name, start, end))

    def count(self, name: str, n: float = 1) -> None:
        self.counts[self.trace][name] += n

    # ------------------------------------------------------------------ #
    # Reading the spans
    # ------------------------------------------------------------------ #

    def layer_times(self, trace: str) -> dict[str, dict[str, float]]:
        """Per span name in *trace*: calls, inclusive and self seconds.

        Self time is a span's duration minus the part its direct children
        cover (spans nest and do not overlap: the run is single-threaded).
        """
        spans = [s for s in self.spans if s[2] == trace]
        child_time: Counter = Counter()
        for _sid, parent, _t, _n, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for sid, _p, _t, name, start, end in spans:
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span; times in seconds from process start."""
        with open(path, "w") as handle:
            for sid, parent, trace, name, start, end in sorted(
                self.spans, key=lambda s: s[4]
            ):
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "trace": trace, "name": name,
                    "start": round(start - self.origin, 9),
                    "end": round(end - self.origin, 9),
                }) + "\n")


# ---------------------------------------------------------------------- #
# Entry points wrapped during the traced phase
# ---------------------------------------------------------------------- #


def _wrap_interval_end(tracer: Tracer, mechanism) -> None:
    if mechanism is None or "on_interval_end" in vars(mechanism):
        return
    original = mechanism.on_interval_end

    def on_interval_end(ctx):
        with tracer.span("persistence.interval_end"):
            return original(ctx)

    mechanism.on_interval_end = on_interval_end


def _wrap_checkpoint(tracer: Tracer, checkpoint_engine) -> None:
    if checkpoint_engine is None or "checkpoint" in vars(checkpoint_engine):
        return
    original = checkpoint_engine.checkpoint

    def checkpoint(*args, **kwargs):
        result = original(*args, **kwargs)
        tracer.count("core.ckpt_runs", result.runs)
        tracer.count("core.words_inspected", result.words_inspected)
        tracer.count("core.ckpts", 1)
        tracer.count("core.ckpt_bytes", result.copied_bytes)
        return result

    checkpoint_engine.checkpoint = checkpoint


def record_memory(tracer: Tracer, hierarchy) -> None:
    """Exact cache and device counts of one finished simulated run."""
    tracer.count("memory.l1_hits", hierarchy.l1.stats.hits)
    tracer.count("memory.l1_accesses", hierarchy.l1.stats.accesses)
    tracer.count("memory.l2_misses", hierarchy.l2.stats.misses)
    tracer.count("memory.dram_reads", hierarchy.dram.stats.reads)
    if hierarchy.nvm is not None:
        tracer.count("memory.nvm_writes", hierarchy.nvm.stats.writes)
        tracer.count("memory.nvm_write_bytes", hierarchy.nvm.stats.write_bytes)


def record_table(tracer: Tracer, tracker) -> None:
    stats = tracker.stats
    tracer.count("core.table_hits", stats.hits)
    tracer.count("core.table_lookups", stats.hits + stats.misses)
    tracer.count("core.bitmap_stores", stats.bitmap_stores)
    tracer.count("core.hwm_writeouts", stats.hwm_writeouts)


def _instrument_engine(tracer: Tracer, engine) -> None:
    for mechanism in (engine.mechanism, engine.heap_mechanism):
        _wrap_interval_end(tracer, mechanism)
        inner = getattr(mechanism, "inner", mechanism)
        _wrap_checkpoint(tracer, getattr(inner, "checkpoint_engine", None))


def _record_engine(tracer: Tracer, engine) -> None:
    record_memory(tracer, engine.hierarchy)
    for mechanism in (engine.mechanism, engine.heap_mechanism):
        if mechanism is None:
            continue
        inner = getattr(mechanism, "inner", mechanism)
        tracer.count("persistence.intervals", inner.stats.intervals)
        tracer.count("persistence.inline_cycles", inner.stats.inline_overhead_cycles)
        tracer.count("persistence.ckpt_cycles", sum(inner.stats.checkpoint_cycles))
        if hasattr(inner, "tracker"):
            record_table(tracer, inner.tracker)


def _engine_run_wrapper(tracer: Tracer, original, layer: str):
    def run(engine, ops, *args, **kwargs):
        outer = tracer.engine_depth == 0
        if outer:
            _instrument_engine(tracer, engine)
        before = engine.stats.ops_executed
        tracer.engine_depth += 1
        try:
            with tracer.span(f"{layer}.run"):
                return original(engine, ops, *args, **kwargs)
        finally:
            # Also on a crash: the fuzzer's schedules end in an exception.
            tracer.engine_depth -= 1
            tracer.count(f"{layer}.ops", engine.stats.ops_executed - before)
            if outer:
                _record_engine(tracer, engine)

    return run


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap both engines' ``run`` for the duration of the block."""
    originals = [
        (cls, cls.__dict__["run"], layer)
        for cls, layer in (
            (ExecutionEngine, "cpu.engine"),
            (BatchedExecutionEngine, "cpu.engine_fast"),
        )
    ]
    for cls, original, layer in originals:
        cls.run = _engine_run_wrapper(tracer, original, layer)
    try:
        yield
    finally:
        for cls, original, _layer in originals:
            cls.run = original
