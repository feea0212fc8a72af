"""Romulus adapted to the stack, as the paper implements it (Section IV-A).

Romulus keeps *twin copies* of the protected data in NVM — a *main* copy the
application works on and a *backup* copy that always holds the last
consistent state.  The original is a user-space library; because the stack
is compiler-managed, the paper re-casts it as a hardware-software co-design:

* a hardware component logs ``<address, size>`` for every stack
  modification (a log append per store — into NVM so the log survives);
* at the end of each consistency interval, software walks the log and
  copies each logged range from main to backup.

The store hook charges the record's NVM append; the records themselves
are the engine's interval store log (``IntervalContext.stores``), which
holds every stack store's address and size in op order, so the interval
end walks that log's sizes.

Crucially the paper notes their implementation performs **no coalescing**:
the software "may copy overlapping addresses" repeatedly, which — combined
with the stack living in NVM — is why Romulus shows the largest overheads in
Figure 8.
"""

from __future__ import annotations

from repro.persistence.base import (
    Capabilities,
    IntervalContext,
    PersistenceMechanism,
)

#: Bytes per hardware log record (<address, size> plus sequencing).
LOG_RECORD_BYTES = 16
#: Software cycles to decode one log record during the copy pass.
LOG_DECODE_CYCLES = 8


class RomulusPersistence(PersistenceMechanism):
    """Twin-copy persistence with a hardware modification log."""

    name = "romulus"
    capabilities = Capabilities(
        achieves_process_persistence=False,
        works_without_compiler_support=True,  # via the hardware interposer
        stack_pointer_aware=False,
        allows_stack_in_dram=False,
    )
    region_in_nvm = True

    def on_store(self, address: int, size: int, now: int) -> int:
        # Hardware appends the record to the NVM-resident log.  The append
        # shares the store's path; charge the NVM write of the record.
        return self.hierarchy.nvm.write(LOG_RECORD_BYTES, now)

    def on_interval_end(self, ctx: IntervalContext) -> int:
        cycles = 0
        copied = 0
        # Software pass: copy every logged range main -> backup, in log
        # order, without coalescing or de-duplication (per the paper).  Each
        # record is a dependent small NVM read followed by an NVM write —
        # the per-record latency cannot be pipelined away, which is exactly
        # the inefficiency the paper attributes to its Romulus adaptation
        # and why it shows the largest overheads in Figure 8.
        nvm = self.hierarchy.nvm
        for size in ctx.stores.sizes.tolist():
            cycles += LOG_DECODE_CYCLES
            cycles += nvm.read(size)
            cycles += nvm.write(size, ctx.now + cycles)
            copied += size
        cycles += self.hierarchy.persist_barrier()
        self.stats.checkpoint_bytes.append(copied)
        return cycles
