"""Fault injection and crash-consistency verification.

Three cooperating layers (see ``docs/FAULTS.md``):

* :mod:`repro.faults.injector` — named crash points threaded through the
  checkpoint pipeline, armed deterministically per (point, occurrence);
* :mod:`repro.faults.nvm_errors` — a seeded NVM media error model
  (transient failures, torn writes, sticky bad blocks) consulted by the
  device's reliable-write path;
* :mod:`repro.faults.order` — the persist-order oracle: pending durable
  writes become guaranteed-durable only at a flush/commit barrier, and a
  crash may persist any subset of the pending set (torn tail optional);
* :mod:`repro.faults.sweep` — the crash-consistency sweeps (single-core
  staging/commit protocol, and ``MulticoreCrashChecker`` for context-switch
  and quiesce-barrier points) that crash at every enumerated point and
  assert the recovery invariant;
* :mod:`repro.faults.fuzzer` — seeded crash-schedule campaigns over
  arbitrary-cycle crashes x sampled persist orders, verified against a
  golden-image recovery oracle and shrunk on violation.

``sweep`` and ``fuzzer`` are intentionally *not* imported here: they pull
in the kernel/engine layers, which in turn reach back down to
:mod:`repro.memory.devices` — a module that imports this package for the
error model and the order oracle.  Import them as ``repro.faults.sweep``
/ ``repro.faults.fuzzer`` directly.
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
