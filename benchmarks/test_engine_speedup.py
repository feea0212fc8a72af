"""Execution-engine speedup matrix — scalar reference vs batched fast path.

Runs the reference trace (quicksort, the call-dense stack workload at the
heart of the paper's stack-persistence studies) through both engine
implementations under every mechanism family and records wall-clock times
plus the speedup ratios:

* **vanilla** (no persistence) and **prosper** are the gated rows: vanilla
  is the exact shape of the ``vanilla_cycles`` baseline every figure
  computes, and Prosper is the paper's headline mechanism, whose per-store
  hooks now ride the batched delivery path.  Both must be at least
  ``MIN_SPEEDUP`` faster batched than scalar.
* the remaining mechanisms (dirtybit, ssp, flush, undo, redo) are
  informational: ssp and the logging family are deliberately *not*
  batch-eligible (their store costs are cycle-dependent), so their rows
  document what the fallback path costs.

A second, smaller matrix runs an L1-thrashing app trace (gapbs_pr, one of
the paper's Figure 8 workloads) under vanilla and Prosper.  Its chunks are
miss-dense, so the batched engine's walk leaves C on most ops; the gate
there is only that batched is no slower than scalar (``MIN_APP_SPEEDUP``),
guarding against the engine losing to its own reference on the apps.

Timing uses the **minimum over ``reps`` repetitions** on both sides of
each gated ratio — the minimum is the standard noise-robust estimator for
CI runners with unpredictable scheduling jitter.

Every row must produce identical engine stats between the two engines —
the fast path is only allowed to change *how fast* the simulation runs,
never what it computes (the exhaustive check lives in
``tests/test_engine_equivalence.py``).

The full matrix is exported as one JSON document
(``results/engine_speedup.json`` by default, override with
``REPRO_BENCH_OUT``) so CI can archive it.
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.analysis.export import write_json
from repro.cpu.engine import ExecutionEngine
from repro.cpu.engine_fast import BatchedExecutionEngine
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.none import NoPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.ssp import SspPersistence
from repro.workloads.apps import gapbs_pr
from repro.workloads.callstack import quicksort_workload

INTERVAL_CYCLES = 60_000
#: Acceptance floor for the batched engine on the gated rows.
MIN_SPEEDUP = 6.0
#: Acceptance floor on the L1-thrashing app rows: never slower than scalar.
MIN_APP_SPEEDUP = 1.0
#: Ops of the app trace (the length at which the batched engine used to
#: run about 1.8x slower than scalar).
APP_OPS = 80_000
#: Mechanisms of the app rows, all gated and timed min-of-GATED_REPS.
APP_MECHANISMS = ("vanilla", "prosper")
#: Repetitions per (mechanism, engine) cell on gated rows; the reported
#: time is the minimum, which shrugs off scheduler noise.
GATED_REPS = 3

MECHANISMS = {
    "vanilla": NoPersistence,
    "prosper": ProsperPersistence,
    "dirtybit": DirtyBitPersistence,
    "ssp": SspPersistence,
    "flush": FlushPersistence,
    "undo": UndoLogPersistence,
    "redo": RedoLogPersistence,
}
#: Rows whose speedup is asserted against MIN_SPEEDUP.
GATED = ("vanilla", "prosper")

_TRACE = None


def _reference_trace():
    """Build the reference trace once; reused by every matrix row."""
    global _TRACE
    if _TRACE is None:
        _TRACE = quicksort_workload(elements=4096, repeats=6, seed=42)
    return _TRACE


def _app_trace():
    return gapbs_pr(APP_OPS, 42)


def _run_once(engine_cls, mechanism_factory, trace) -> tuple[float, dict]:
    engine = engine_cls(
        stack_range=trace.stack_range,
        mechanism=mechanism_factory(),
        heap_range=trace.heap_range,
    )
    start = time.perf_counter()
    result = engine.run(trace, interval_cycles=INTERVAL_CYCLES)
    return time.perf_counter() - start, dataclasses.asdict(result)


def _time_row(name: str, mechanism_factory, trace=None, reps=None) -> dict:
    trace = trace if trace is not None else _reference_trace()
    if reps is None:
        reps = GATED_REPS if name in GATED else 1
    best = {}
    stats = {}
    for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
        times = []
        for _ in range(reps):
            elapsed, result = _run_once(engine_cls, mechanism_factory, trace)
            times.append(elapsed)
        best[engine_cls] = min(times)
        stats[engine_cls] = result
    identical = stats[BatchedExecutionEngine] == stats[ExecutionEngine]
    assert identical, f"{name}: batched stats diverged from scalar"
    scalar_s = best[ExecutionEngine]
    batched_s = best[BatchedExecutionEngine]
    ops = stats[ExecutionEngine]["ops_executed"]
    return {
        "ops": ops,
        "reps": reps,
        "scalar_s": round(scalar_s, 4),
        "batched_s": round(batched_s, 4),
        "scalar_us_per_op": round(scalar_s / ops * 1e6, 4),
        "batched_us_per_op": round(batched_s / ops * 1e6, 4),
        "speedup": round(scalar_s / batched_s, 2) if batched_s else float("inf"),
        "stats_identical": identical,
        "gated": name in GATED,
    }


def _app_rows() -> dict:
    trace = _app_trace()
    return {
        name: _time_row(name, MECHANISMS[name], trace, GATED_REPS)
        for name in APP_MECHANISMS
    }


def test_engine_speedup_matrix():
    matrix = {name: _time_row(name, factory) for name, factory in MECHANISMS.items()}
    apps = _app_rows()

    report = {
        "trace": "quicksort",
        "interval_cycles": INTERVAL_CYCLES,
        "min_speedup": MIN_SPEEDUP,
        "gated": list(GATED),
        "mechanisms": matrix,
        "apps": {
            "trace": f"gapbs_pr({APP_OPS}, 42)",
            "min_speedup": MIN_APP_SPEEDUP,
            "mechanisms": apps,
        },
    }
    out = os.environ.get("REPRO_BENCH_OUT", "results/engine_speedup.json")
    path = write_json(report, out)

    summary = ", ".join(
        f"{name} {row['speedup']:.1f}x" for name, row in matrix.items()
    )
    app_summary = ", ".join(
        f"{name} {row['speedup']:.1f}x" for name, row in apps.items()
    )
    print(f"\nengine speedup (quicksort): {summary} (report: {path})")
    print(f"engine speedup (gapbs_pr): {app_summary}")

    for name, row in [*matrix.items(), *apps.items()]:
        assert row["stats_identical"], f"{name}: stats diverged"
    for name in GATED:
        row = matrix[name]
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{name}: batched engine only {row['speedup']:.2f}x faster "
            f"(need {MIN_SPEEDUP}x): scalar {row['scalar_s']:.3f}s "
            f"vs batched {row['batched_s']:.3f}s"
        )
    for name, row in apps.items():
        assert row["speedup"] >= MIN_APP_SPEEDUP, (
            f"gapbs_pr/{name}: batched engine slower than scalar "
            f"({row['speedup']:.2f}x): scalar {row['scalar_s']:.3f}s "
            f"vs batched {row['batched_s']:.3f}s"
        )
