"""GemOS-like operating-system layer.

The paper builds its end-to-end checkpoint solution on GemOS, a small
teaching OS for gem5, extended with hybrid-memory support and the Prosper
software component.  This subpackage provides the equivalent substrate:

* :mod:`repro.kernel.layout` — process address-space layout (stack, heap,
  bitmap areas) over hybrid DRAM+NVM;
* :mod:`repro.kernel.vmem` — page tables with dirty / write-protect bits and
  on-demand stack growth;
* :mod:`repro.kernel.process` — processes and threads (per-thread stacks,
  register state, persistent-stack handles);
* :mod:`repro.kernel.scheduler` — round-robin scheduling with Prosper
  tracker state save/restore on context switches (Section III-C);
* :mod:`repro.kernel.checkpoint_mgr` — the periodic whole-process
  checkpoint procedure (registers + memory segments), the crash model
  and the recovery path;
* :mod:`repro.kernel.multicore` — the kernel machine that ties them
  together (per-core trackers, quanta run as slices on each core's
  batched engine, quiesce-then-checkpoint, crash/recover) and its N-threads-on-M-cores run loop;
  :mod:`repro.kernel.simulation` is its one-core run loop.
"""

from repro.kernel.layout import AddressSpaceLayout
from repro.kernel.vmem import PageTable, PageTableEntry
from repro.kernel.process import Process, Thread
from repro.kernel.scheduler import ContextSwitchStats, Scheduler
from repro.kernel.checkpoint_mgr import (
    CheckpointManager,
    ProcessCheckpoint,
    RecoveryReport,
)
from repro.kernel.simulation import MultiThreadSimulation, SimulationStats
from repro.kernel.multicore import MultiCoreSimulation, MultiCoreStats

__all__ = [
    "AddressSpaceLayout",
    "PageTable",
    "PageTableEntry",
    "Process",
    "Thread",
    "Scheduler",
    "ContextSwitchStats",
    "CheckpointManager",
    "ProcessCheckpoint",
    "RecoveryReport",
    "MultiThreadSimulation",
    "SimulationStats",
    "MultiCoreSimulation",
    "MultiCoreStats",
]
