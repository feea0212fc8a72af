"""Ablations of Prosper's design choices.

The paper argues for several design decisions without always quantifying
them; these studies do:

* **Allocation policy** (Section III-B, design question i) —
  Accumulate-and-Apply (chosen) vs Load-and-Update: bitmap memory traffic
  for both, across workloads.
* **Lookup-table size** — the 16-entry table vs smaller/larger tables:
  how much coalescing a few entries buy.
* **Active-region bounding** (Section III-A) — the tracker sharing the
  maximum active stack address with the OS: checkpoint cycles with and
  without the bound (without it, the OS walks the whole bitmap).
* **Page-granularity tracking flavour** (Section II-B) — PTE dirty bits
  (LDT-style) vs write-protection faults: same checkpoint contents,
  different tracking overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import TrackerConfig, setup_i
from repro.core.bitmap import DirtyBitmap
from repro.core.checkpoint import ProsperCheckpointEngine
from repro.core.policies import AllocationPolicy
from repro.core.tracker import ProsperTracker
from repro.experiments.overhead import replay_stores, replay_tracker
from repro.experiments.runner import run_mechanism, vanilla_cycles
from repro.memory.hierarchy import MemoryHierarchy
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.writeprotect import WriteProtectPersistence
from repro.workloads.apps import g500_sssp, gapbs_pr, ycsb_mem
from repro.workloads.spec import spec_workload

DEFAULT_OPS = 60_000


# --------------------------------------------------------------------- #
# Allocation policy
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class PolicyCell:
    workload: str
    policy: str
    bitmap_loads: int
    bitmap_stores: int

    @property
    def memory_ops(self) -> int:
        return self.bitmap_loads + self.bitmap_stores


def allocation_policy_ablation(target_ops: int = DEFAULT_OPS, seed: int = 42) -> list[PolicyCell]:
    """Accumulate-and-Apply vs Load-and-Update bitmap traffic."""
    traces = [
        gapbs_pr(target_ops, seed),
        g500_sssp(target_ops, seed),
        spec_workload("605.mcf_s", target_ops, seed=seed),
    ]
    cells = []
    for trace in traces:
        for policy in AllocationPolicy:
            loads, stores = replay_tracker(trace, TrackerConfig(), policy)
            cells.append(PolicyCell(trace.name, policy.value, loads, stores))
    return cells


# --------------------------------------------------------------------- #
# Lookup-table size
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class TableSizeCell:
    workload: str
    entries: int
    memory_ops: int


def table_size_ablation(
    sizes: tuple[int, ...] = (4, 8, 16, 32, 64),
    target_ops: int = DEFAULT_OPS,
    seed: int = 42,
) -> list[TableSizeCell]:
    """Bitmap traffic as the lookup table shrinks or grows around 16."""
    traces = [gapbs_pr(target_ops, seed), spec_workload("605.mcf_s", target_ops, seed=seed)]
    cells = []
    for trace in traces:
        for entries in sizes:
            cfg = TrackerConfig(lookup_table_entries=entries)
            loads, stores = replay_tracker(trace, cfg)
            cells.append(TableSizeCell(trace.name, entries, loads + stores))
    return cells


# --------------------------------------------------------------------- #
# Active-region bounding
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class BoundingCell:
    workload: str
    bounded_cycles: float
    unbounded_cycles: float

    @property
    def speedup(self) -> float:
        return self.unbounded_cycles / self.bounded_cycles


def active_region_bounding_ablation(
    target_ops: int = 30_000, seed: int = 42
) -> list[BoundingCell]:
    """Checkpoint cycles with vs without the tracker's active-region hint.

    Without the hint the OS must inspect (and clear) the bitmap for the
    entire stack reservation — exactly the walk Section III-A avoids.
    """
    cells = []
    for trace in (gapbs_pr(target_ops, seed), ycsb_mem(target_ops, seed)):
        boundary = max(1, len(trace) // 20)
        ends = range(boundary, len(trace) + 1, boundary)
        *intervals, rest = trace.stack_write_runs(ends)
        # Lowest SP of each interval, counting the SP it starts from.
        path = trace.sp_path()
        starts = [trace.stack_range.end] + [int(path[hi - 1]) for hi in ends]
        min_sps = [min(sp, int(path[hi - boundary:hi].min())) for sp, hi in zip(starts, ends)]
        results = []
        for bounded in (True, False):
            tracker = ProsperTracker(TrackerConfig())
            bitmap = DirtyBitmap(trace.stack_range, 8)
            tracker.configure(bitmap)
            engine = ProsperCheckpointEngine(
                tracker, bitmap, MemoryHierarchy(setup_i())
            )
            cycles = 0
            for interval, (run, min_sp) in enumerate(zip(intervals, min_sps)):
                replay_stores(tracker, run)
                hint = min_sp if bounded else trace.stack_range.start
                cycles += engine.checkpoint(interval, active_low_hint=hint).cycles
            replay_stores(tracker, rest)
            results.append(cycles / max(1, len(intervals)))
        cells.append(BoundingCell(trace.name, results[0], results[1]))
    return cells


# --------------------------------------------------------------------- #
# Dirty-bit vs write-protection page tracking
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class PageTrackingCell:
    workload: str
    mechanism: str
    normalized_time: float
    faults: int


def page_tracking_ablation(target_ops: int = DEFAULT_OPS, seed: int = 42) -> list[PageTrackingCell]:
    """LDT-style dirty bits vs soft-dirty write-protection faults."""
    cells = []
    for trace in (gapbs_pr(target_ops, seed), ycsb_mem(target_ops, seed)):
        base = vanilla_cycles(trace)
        for mech in (DirtyBitPersistence(), WriteProtectPersistence()):
            result = run_mechanism(trace, mech, 10.0, baseline_cycles=base)
            cells.append(
                PageTrackingCell(
                    trace.name,
                    mech.name,
                    result.normalized_time,
                    getattr(mech, "faults", 0),
                )
            )
    return cells
