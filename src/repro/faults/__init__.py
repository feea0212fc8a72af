"""Fault injection and crash-consistency verification.

Four cooperating layers (see ``docs/FAULTS.md``):

* :mod:`repro.faults.injector` — named crash points threaded through the
  checkpoint pipeline, armed deterministically per (point, occurrence);
* :mod:`repro.faults.nvm_errors` — a seeded NVM media error model
  (transient failures, torn writes, sticky bad blocks) consulted by the
  device's reliable-write path;
* :mod:`repro.faults.order` — the persist-order oracle: pending durable
  writes become guaranteed-durable only at a flush/commit barrier, and a
  crash may persist any subset of the pending set (torn tail optional);
* :mod:`repro.faults.fuzzer` — the crash checker: one runner crashes a
  target (an execution engine under a golden-image recorder, or the
  kernel machine's single-core and multicore workloads) at a crash spec
  (a cycle offset or a named point) under a persist plan, recovers, and
  verifies the recovered state.  ``repro faults sweep`` runs every named
  point of the kernel targets under the neat plan; ``repro faults fuzz``
  runs seeded campaigns of sampled specs and plans, shrinking failures.

``fuzzer`` is intentionally *not* imported here: it pulls in the
kernel/engine layers, which in turn reach back down to
:mod:`repro.memory.devices` — a module that imports this package for the
error model and the order oracle.  Import it as ``repro.faults.fuzzer``
directly.
"""

from repro.faults.injector import (
    BITMAP_CLEAR,
    COMMIT_FLAG_WRITE,
    CRASH_POINT_FAMILIES,
    METADATA_WRITE,
    PERSIST_BARRIER,
    STAGE_BEGIN,
    STAGE_COMPLETE,
    CrashInjected,
    FaultInjector,
    cycle_point,
    is_cycle_point,
    stage_run_copy,
)
from repro.faults.order import (
    CrashOutcome,
    PendingWrite,
    PersistOrderOracle,
    PersistPlan,
)
from repro.faults.nvm_errors import (
    WRITE_BAD_BLOCK,
    WRITE_OK,
    WRITE_TORN,
    WRITE_TRANSIENT,
    NvmErrorModel,
    NvmMediaError,
)

__all__ = [
    "BITMAP_CLEAR",
    "COMMIT_FLAG_WRITE",
    "CRASH_POINT_FAMILIES",
    "METADATA_WRITE",
    "PERSIST_BARRIER",
    "STAGE_BEGIN",
    "STAGE_COMPLETE",
    "CrashInjected",
    "CrashOutcome",
    "FaultInjector",
    "PendingWrite",
    "PersistOrderOracle",
    "PersistPlan",
    "cycle_point",
    "is_cycle_point",
    "stage_run_copy",
    "WRITE_BAD_BLOCK",
    "WRITE_OK",
    "WRITE_TORN",
    "WRITE_TRANSIENT",
    "NvmErrorModel",
    "NvmMediaError",
]
