"""repro — a reproduction of *Prosper: Program Stack Persistence in Hybrid
Memory Systems* (HPCA 2024).

The package implements the paper's hardware-software co-designed stack
checkpoint mechanism (Prosper), every baseline it is evaluated against
(Dirtybit, write-protection tracking, flush/undo/redo, Romulus, SSP), and
the substrate they all run on: a trace-driven CPU model, a three-level
cache hierarchy over hybrid DRAM+NVM memory, and a GemOS-like kernel with
processes, virtual memory, scheduling, periodic checkpoints, and crash
recovery.

Quickstart::

    from repro import ProsperPersistence, run_mechanism
    from repro.workloads import gapbs_pr

    trace = gapbs_pr(target_ops=50_000)
    result = run_mechanism(trace, ProsperPersistence(), interval_paper_ms=10)
    print(result.normalized_time)   # execution-time overhead of persistence
"""

from repro.config import (
    CacheConfig,
    DramConfig,
    NvmConfig,
    SystemConfig,
    TrackerConfig,
    setup_i,
    setup_ii,
)
from repro.core import (
    DirtyBitmap,
    EnergyModel,
    LookupTable,
    MsrBank,
    ProsperCheckpointEngine,
    ProsperTracker,
)
from repro.core.policies import AllocationPolicy
from repro.cpu import ExecutionEngine, Op, OpKind
from repro.memory import AddressRange, MemoryHierarchy
from repro.persistence import (
    AdaptiveProsperPersistence,
    DirtyBitPersistence,
    FlushPersistence,
    NoPersistence,
    PersistenceMechanism,
    ProsperPersistence,
    RedoLogPersistence,
    RomulusPersistence,
    SspPersistence,
    UndoLogPersistence,
    WriteProtectPersistence,
)
from repro.experiments.runner import RunResult, run_mechanism
from repro.workloads import Trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configs
    "CacheConfig",
    "DramConfig",
    "NvmConfig",
    "SystemConfig",
    "TrackerConfig",
    "setup_i",
    "setup_ii",
    # core
    "MsrBank",
    "DirtyBitmap",
    "LookupTable",
    "ProsperTracker",
    "ProsperCheckpointEngine",
    "EnergyModel",
    "AllocationPolicy",
    # substrate
    "ExecutionEngine",
    "Op",
    "OpKind",
    "AddressRange",
    "MemoryHierarchy",
    "Trace",
    # mechanisms
    "PersistenceMechanism",
    "NoPersistence",
    "DirtyBitPersistence",
    "WriteProtectPersistence",
    "FlushPersistence",
    "UndoLogPersistence",
    "RedoLogPersistence",
    "RomulusPersistence",
    "SspPersistence",
    "ProsperPersistence",
    "AdaptiveProsperPersistence",
    # harness
    "RunResult",
    "run_mechanism",
]
