"""Per-store persistence primitives: flush, undo logging, redo logging.

These are the generic NVM-persistence mechanisms of Section II-A, used in
the motivation study (Figure 3).  All three keep the protected region in NVM
and perform non-trivial work on *every* store during a consistency interval:

* **flush** — a ``clwb`` after every store pushes the dirty line into the
  NVM write path immediately;
* **undo** — the first store to a location per interval first persists the
  old value into an undo log (NVM read + NVM log append + ordering);
* **redo** — every store appends ``<address, value>`` to a redo log in NVM;
  loads must check the log (an indirection cost), and at commit the log is
  applied to the home locations.

None of these can be SP-aware by construction — they must act at store
time, before the end-of-interval SP is known.  To quantify what SP awareness
*would* save (the paper's trace-replay analysis), each mechanism accepts an
``sp_oracle`` giving the final SP of each interval in advance; with the
oracle installed, work for stores below that SP (dead frames) is skipped.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.persistence.base import (
    Capabilities,
    IntervalContext,
    PersistenceMechanism,
)

#: Pipeline cost of issuing clwb + the occasional sfence amortized in.
CLWB_ISSUE_CYCLES = 6
#: Software cost of forming one log entry (address/size bookkeeping).
LOG_ENTRY_SETUP_CYCLES = 10
#: Bytes of metadata per log entry (address + size + sequence).
LOG_ENTRY_HEADER_BYTES = 16
#: Cost for a load to consult the redo-log index before reading home data.
REDO_LOOKUP_CYCLES = 8


class _SpAwareMixin:
    """Shared oracle plumbing for the three primitives."""

    def __init__(self, sp_oracle: Callable[[int], int] | None = None) -> None:
        self._sp_oracle = sp_oracle
        self._current_interval = 0

    @property
    def sp_aware(self) -> bool:
        return self._sp_oracle is not None

    def _skip_store(self, address: int) -> bool:
        """True when SP awareness says this store is to a dead frame."""
        if self._sp_oracle is None:
            return False
        final_sp = self._sp_oracle(self._current_interval)
        return address < final_sp

    def _kept(self, addresses: np.ndarray) -> np.ndarray:
        """The stores of *addresses* that :meth:`_skip_store` keeps."""
        if self._sp_oracle is None:
            return addresses
        return addresses[addresses >= self._sp_oracle(self._current_interval)]

    def _advance_interval(self) -> None:
        self._current_interval += 1


class FlushPersistence(_SpAwareMixin, PersistenceMechanism):
    """clwb-per-store persistence with the stack resident in NVM."""

    name = "flush"
    capabilities = Capabilities(
        achieves_process_persistence=False,
        works_without_compiler_support=True,
        stack_pointer_aware=False,
        allows_stack_in_dram=False,
    )
    region_in_nvm = True
    # No on_store_batch: the stack lives in NVM, so every store's cost flows
    # through the NVM write buffer at the current cycle count (clwb latency
    # depends on ``now``); deferred delivery would drift the timing.

    def __init__(self, sp_oracle: Callable[[int], int] | None = None) -> None:
        _SpAwareMixin.__init__(self, sp_oracle)
        PersistenceMechanism.__init__(self)
        self.flushes = 0
        self.skipped = 0

    def on_store(self, address: int, size: int, now: int) -> int:
        if self._skip_store(address):
            self.skipped += 1
            return 0
        self.flushes += 1
        return CLWB_ISSUE_CYCLES + self.hierarchy.clwb(address, size)

    def on_interval_end(self, ctx: IntervalContext) -> int:
        cycles = self.hierarchy.persist_barrier()
        self.stats.checkpoint_bytes.append(0)
        self._advance_interval()
        return cycles



class UndoLogPersistence(_SpAwareMixin, PersistenceMechanism):
    """Undo logging: persist the old value before the first overwrite."""

    name = "undo"
    capabilities = Capabilities(
        achieves_process_persistence=False,
        works_without_compiler_support=False,
        stack_pointer_aware=False,
        allows_stack_in_dram=False,
    )
    region_in_nvm = True
    # No on_store_batch: log appends are NVM writes priced at the current
    # cycle count (write-buffer occupancy is now-dependent).

    def __init__(self, sp_oracle: Callable[[int], int] | None = None) -> None:
        _SpAwareMixin.__init__(self, sp_oracle)
        PersistenceMechanism.__init__(self)
        self.log_entries = 0
        self.log_bytes = 0
        self.skipped = 0
        self._logged_this_interval: set[int] = set()

    def on_store(self, address: int, size: int, now: int) -> int:
        if self._skip_store(address):
            self.skipped += 1
            return 0
        # Undo logs once per (8-byte) location per interval.
        key = address // 8
        if key in self._logged_this_interval:
            return 0
        self._logged_this_interval.add(key)
        self.log_entries += 1
        entry_bytes = LOG_ENTRY_HEADER_BYTES + size
        self.log_bytes += entry_bytes
        nvm = self.hierarchy.nvm
        # Read the old value from NVM, append it to the log, order the log
        # ahead of the data store (fence modeled inside write/persist costs).
        return LOG_ENTRY_SETUP_CYCLES + nvm.read(size) + nvm.write(entry_bytes, now)

    def on_interval_end(self, ctx: IntervalContext) -> int:
        # Commit: drain persists, then truncate the log (a small NVM write).
        cycles = self.hierarchy.persist_barrier()
        cycles += self.hierarchy.nvm.write(LOG_ENTRY_HEADER_BYTES, ctx.now)
        self.stats.checkpoint_bytes.append(0)
        self._logged_this_interval.clear()
        self._advance_interval()
        return cycles



class RedoLogPersistence(_SpAwareMixin, PersistenceMechanism):
    """Redo logging: stores append to a log, applied to home at commit."""

    name = "redo"
    capabilities = Capabilities(
        achieves_process_persistence=False,
        works_without_compiler_support=False,
        stack_pointer_aware=False,
        allows_stack_in_dram=False,
    )
    region_in_nvm = True
    # No on_store_batch: like undo logging, appends hit the NVM write
    # buffer at the current cycle count.

    def __init__(self, sp_oracle: Callable[[int], int] | None = None) -> None:
        _SpAwareMixin.__init__(self, sp_oracle)
        PersistenceMechanism.__init__(self)
        self.log_entries = 0
        self.log_bytes = 0
        self.skipped = 0

    def on_load(self, address: int, size: int, now: int) -> int:
        # Loads must consult the redo log for not-yet-applied data.
        return REDO_LOOKUP_CYCLES

    def on_store(self, address: int, size: int, now: int) -> int:
        if self._skip_store(address):
            self.skipped += 1
            return 0
        self.log_entries += 1
        entry_bytes = LOG_ENTRY_HEADER_BYTES + size
        self.log_bytes += entry_bytes
        return LOG_ENTRY_SETUP_CYCLES + self.hierarchy.nvm.write(entry_bytes, now)

    def on_interval_end(self, ctx: IntervalContext) -> int:
        # Apply the log: copy every unique 8-byte location written by the
        # interval's stores that SP awareness kept, from log to home.
        kept = self._kept(ctx.stores.addresses)
        apply_bytes = len(np.unique(kept // 8)) * 8
        hierarchy = self.hierarchy
        cycles = hierarchy.reliable_copy_to_nvm(hierarchy.nvm, apply_bytes).cycles
        cycles += hierarchy.persist_barrier()
        cycles += hierarchy.nvm.write(LOG_ENTRY_HEADER_BYTES, ctx.now)
        self.stats.checkpoint_bytes.append(apply_bytes)
        self._advance_interval()
        return cycles
