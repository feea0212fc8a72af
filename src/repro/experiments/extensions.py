"""Extension experiments beyond the paper's figures.

* **Prosper on the heap** — Section III: "its generic design can be
  leveraged to track modifications to any virtual address range.  For
  example, we can use Prosper to track modifications to dynamically
  allocated virtual address range in the heap."  The experiment protects
  the heap with Prosper instead of SSP and compares full-memory-state
  persistence cost.
* **Adaptive granularity** — the OS-driven granularity loop of
  :mod:`repro.persistence.adaptive`, evaluated on the workloads where a
  fixed granularity is wrong somewhere: Sparse (wants 8 B), Stream (wants
  the page fallback).
* **Adaptive watermarks** — the HWM hill-climb on mcf vs SSSP, checking it
  walks toward each workload's preferred end of the HWM range.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.adaptive import WatermarkController
from repro.experiments.runner import run_mechanism, vanilla_cycles
from repro.persistence.adaptive import AdaptiveProsperPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.ssp import SspPersistence
from repro.workloads.apps import gapbs_pr, ycsb_mem
from repro.workloads.spec import spec_workload
from repro.workloads.synthetic import sparse_workload, stream_workload
from repro.workloads.apps import g500_sssp

DEFAULT_OPS = 60_000


# --------------------------------------------------------------------- #
# Prosper on the heap
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class HeapProsperCell:
    workload: str
    heap_mechanism: str
    normalized_time: float


def prosper_heap_experiment(
    target_ops: int = DEFAULT_OPS,
    interval_paper_ms: float = 10.0,
    seed: int = 42,
) -> list[HeapProsperCell]:
    """Full memory-state persistence: SSP heap vs Prosper heap (stack always Prosper)."""
    cells = []
    for trace in (gapbs_pr(target_ops, seed), ycsb_mem(target_ops, seed)):
        base = vanilla_cycles(trace)
        for heap_label, heap_factory in (
            ("ssp-10us", lambda: SspPersistence(10.0)),
            ("prosper", ProsperPersistence),
        ):
            result = run_mechanism(
                trace,
                ProsperPersistence(),
                interval_paper_ms,
                heap_mechanism=heap_factory(),
                baseline_cycles=base,
                mechanism_label=f"prosper+{heap_label}",
            )
            cells.append(
                HeapProsperCell(trace.name, heap_label, result.normalized_time)
            )
    return cells


# --------------------------------------------------------------------- #
# Adaptive granularity
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class AdaptiveCell:
    workload: str
    mechanism: str
    normalized_time: float
    mean_checkpoint_bytes: float
    final_granularity: int
    transitions: int


def adaptive_granularity_experiment(
    interval_paper_ms: float = 10.0, seed: int = 11
) -> list[AdaptiveCell]:
    """Adaptive Prosper vs fixed 8 B Prosper on sparse and streaming writers."""
    traces = [
        sparse_workload(pages=48, rounds=100, seed=seed),
        stream_workload(array_bytes=96 * 1024, passes=3, seed=seed),
    ]
    cells = []
    for trace in traces:
        base = vanilla_cycles(trace)
        for label, factory in (
            ("prosper-8B", ProsperPersistence),
            ("prosper-adaptive", AdaptiveProsperPersistence),
        ):
            mech = factory()
            result = run_mechanism(
                trace, mech, interval_paper_ms, baseline_cycles=base,
                mechanism_label=label,
            )
            if isinstance(mech, AdaptiveProsperPersistence):
                final = mech.current_granularity
                transitions = len(mech.controller.transitions)
            else:
                final = 8
                transitions = 0
            cells.append(
                AdaptiveCell(
                    trace.name,
                    label,
                    result.normalized_time,
                    mech.stats.mean_checkpoint_bytes,
                    final,
                    transitions,
                )
            )
    return cells


# --------------------------------------------------------------------- #
# Adaptive watermarks
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class WatermarkWalkResult:
    workload: str
    initial_hwm: int
    final_hwm: int
    history: tuple[int, ...]


def adaptive_watermark_experiment(
    target_ops: int = 40_000,
    num_intervals: int = 40,
    seed: int = 42,
) -> list[WatermarkWalkResult]:
    """Let the HWM hill-climb on mcf and SSSP; directions should diverge.

    Each interval replays the next slice of the store stream through a
    tracker configured with the controller's current HWM.
    """
    from repro.config import TrackerConfig
    from repro.core.bitmap import DirtyBitmap
    from repro.core.tracker import ProsperTracker
    from repro.experiments.overhead import replay_stores

    results = []
    for trace in (
        spec_workload("605.mcf_s", target_ops, seed=seed),
        g500_sssp(target_ops, seed),
    ):
        controller = WatermarkController(initial_hwm=20)
        bitmap = DirtyBitmap(trace.stack_range, 8)
        chunk = max(1, len(trace) // num_intervals)
        runs = trace.stack_write_runs(range(chunk, (num_intervals + 1) * chunk, chunk))
        for run in runs[:num_intervals]:
            config = TrackerConfig(high_water_mark=controller.hwm)
            tracker = ProsperTracker(config)
            tracker.configure(bitmap)
            replay_stores(tracker, run)
            tracker.request_flush()
            tracker.poll_quiescent()
            controller.observe(tracker.interval_memory_ops, len(run[0]))
            bitmap.clear()
        results.append(
            WatermarkWalkResult(
                trace.name, 20, controller.hwm, tuple(controller.history)
            )
        )
    return results


# --------------------------------------------------------------------- #
# Inter-thread stack writes (Section III-C)
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class CrossThreadCell:
    cross_write_fraction: float
    cycles: int
    cross_writes: int

    def overhead_vs(self, baseline: "CrossThreadCell") -> float:
        return self.cycles / baseline.cycles


def cross_thread_write_experiment(
    fractions: tuple[float, ...] = (0.0, 0.01, 0.05, 0.20),
    writes_per_thread: int = 2_000,
    seed: int = 5,
) -> list[CrossThreadCell]:
    """Cost of the page-permission scheme for inter-thread stack writes.

    Section III-C argues such writes are rare and can be handled by
    faulting them into the OS, which records the dirty bits in the victim
    thread's bitmap.  This experiment sweeps the fraction of writes that
    target the *other* thread's stack and measures total execution cycles:
    at the paper's "rare" regime (~1 %) the overhead should be small, and
    it should grow roughly linearly with the fraction.
    """
    import numpy as np

    from repro.cpu.ops import NO_OPS, OpKind, TraceBuilder
    from repro.kernel.simulation import MultiThreadSimulation

    cells = []
    for fraction in fractions:
        # Placeholder streams: the stacks are known once the threads exist.
        sim = MultiThreadSimulation(
            [NO_OPS, NO_OPS],
            quantum_ops=200,
            checkpoint_every_quanta=8,
        )
        rng = np.random.default_rng(seed)
        threads = [t for t, _, _ in sim.cores[0].queue]
        streams = []
        cross_total = 0
        for me, other in ((threads[0], threads[1]), (threads[1], threads[0])):
            frame = me.stack.size // 2
            ops = TraceBuilder()
            ops.call(frame)
            my_base = me.stack.end - frame
            other_base = other.stack.end - frame
            offsets = rng.integers(0, frame // 8, size=writes_per_thread) * 8
            is_cross = rng.random(writes_per_thread) < fraction
            bases = np.where(is_cross, other_base, my_base)
            ops.extend(OpKind.WRITE, bases + offsets, 8)
            cross_total += int(np.count_nonzero(is_cross))
            streams.append((me, ops.to_array(), 0))
        sim.cores[0].queue = streams
        stats = sim.run()
        cells.append(CrossThreadCell(fraction, stats.cycles, cross_total))
    return cells
