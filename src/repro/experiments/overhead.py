"""Shared helpers for the Setup-II overhead studies (Figures 12-13), plus
the context-switch and energy/area measurements.

The figures themselves — their grids, per-unit computation and tables —
are defined in :mod:`repro.harness.figures`.

* **Context switch** — the ~870-cycle Prosper save/restore overhead,
  measured with a two-thread micro-benchmark.
* **Energy** — lookup-table dynamic/leakage energy from the CACTI-P numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TrackerConfig
from repro.core.bitmap import DirtyBitmap
from repro.core.energy import EnergyModel, EnergyReport
from repro.core.policies import AllocationPolicy
from repro.core.tracker import ProsperTracker
from repro.cpu.ops import OpKind
from repro.kernel.process import Process
from repro.kernel.scheduler import Scheduler
from repro.workloads.apps import gapbs_pr
from repro.workloads.trace import Trace

#: Granularities of the Figure 12 sweep (bytes).
FIG12_GRANULARITIES = (8, 64, 128)


def replay_tracker(
    trace: Trace,
    config: TrackerConfig,
    policy: AllocationPolicy = AllocationPolicy.ACCUMULATE_AND_APPLY,
    num_intervals: int = 20,
) -> tuple[int, int]:
    """Drive a bare tracker with the trace's stack stores; (loads, stores).

    Timing-independent: Figure 13 and the policy/table-size ablations
    count tracker-issued bitmap loads and stores, which depend only on the
    store stream, the table parameters and the allocation *policy*.  The
    lookup table is flushed at interval boundaries as the OS would.
    """
    bitmap = DirtyBitmap(trace.stack_range, config.granularity_bytes)
    tracker = ProsperTracker(config, policy)
    tracker.configure(bitmap)
    boundary = max(1, len(trace.ops) // num_intervals)
    for i, op in enumerate(trace.ops):
        if op.kind == OpKind.WRITE and trace.stack_range.contains(op.address):
            tracker.observe_store(op.address, op.size)
        if (i + 1) % boundary == 0:
            tracker.request_flush()
            tracker.poll_quiescent()
            bitmap.clear()
            tracker.begin_interval()
    tracker.request_flush()
    tracker.poll_quiescent()
    return tracker.stats.bitmap_loads, tracker.stats.bitmap_stores


# --------------------------------------------------------------------- #
# Context-switch overhead
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ContextSwitchResult:
    switches: int
    mean_prosper_cycles: float
    total_prosper_cycles: int


def context_switch_overhead(
    switches: int = 200,
    writes_per_slice: int = 400,
    seed: int = 3,
) -> ContextSwitchResult:
    """Two persistent threads alternating on one CPU (Section V study).

    Each thread performs random writes to its own stack between switches;
    the measured quantity is the extra save/restore work the scheduler does
    for the Prosper tracker state.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    process = Process()
    t1 = process.spawn_thread(stack_bytes=256 * 1024, persistent=True)
    t2 = process.spawn_thread(stack_bytes=256 * 1024, persistent=True)
    tracker = ProsperTracker(process.tracker_config)
    scheduler = Scheduler(tracker)

    threads = (t1, t2)
    for i in range(switches):
        incoming = threads[i % 2]
        scheduler.switch_to(incoming)
        span = incoming.stack.size - 64
        offsets = rng.integers(0, span // 8, size=writes_per_slice) * 8
        for off in offsets:
            tracker.observe_store(incoming.stack.start + int(off), 8)

    stats = scheduler.stats
    return ContextSwitchResult(
        stats.switches, stats.mean_prosper_overhead, stats.prosper_cycles
    )


# --------------------------------------------------------------------- #
# Energy / area
# --------------------------------------------------------------------- #

def energy_report(target_ops: int = 50_000, seed: int = 42) -> EnergyReport:
    """Lookup-table energy for a gapbs_pr run (CACTI-P numbers)."""
    trace = gapbs_pr(target_ops, seed)
    config = TrackerConfig()
    bitmap = DirtyBitmap(trace.stack_range, config.granularity_bytes)
    tracker = ProsperTracker(config)
    tracker.configure(bitmap)
    cycles = 0
    for op in trace.ops:
        if op.kind == OpKind.WRITE and trace.stack_range.contains(op.address):
            tracker.observe_store(op.address, op.size)
        cycles += 4  # nominal per-op cycle cost for the leakage window
    tracker.request_flush()
    tracker.poll_quiescent()
    return EnergyModel().report_for_tracker(tracker, cycles)
