"""Backing-store device models: DRAM and PCM-like NVM.

The paper's hybrid machine (Setup-I) keeps application state in DRAM and
checkpoints in NVM.  The NVM model captures the two properties that matter
for the evaluation:

* **asymmetric latency** — reads a few times slower than DRAM, writes far
  slower still, so mechanisms that keep the stack in NVM (Romulus, SSP,
  flush/undo/redo) pay dearly for the stack's write intensity;
* **limited write buffering** — a 48-entry write buffer absorbs bursts but
  back-pressures when full, so bursty persist traffic degrades further.

Both devices account simple statistics (access counts, bytes moved) used by
the analysis layer.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.config import CACHE_LINE_BYTES, DramConfig, NvmConfig
from repro.faults.nvm_errors import (
    WRITE_BAD_BLOCK,
    WRITE_OK,
    WRITE_TORN,
    NvmErrorModel,
    NvmMediaError,
)
from repro.memory.counters import SharedCounter, zero


#: Slots of :attr:`DeviceStats.counts` (the native walk uses the same order).
READS, WRITES, READ_BYTES, WRITE_BYTES = range(4)


@dataclass(init=False)
class DeviceStats:
    """Counters accumulated by a memory device, held in ``counts``."""

    reads: int = SharedCounter(READS)
    writes: int = SharedCounter(WRITES)
    read_bytes: int = SharedCounter(READ_BYTES)
    write_bytes: int = SharedCounter(WRITE_BYTES)

    def __init__(
        self, reads: int = 0, writes: int = 0, read_bytes: int = 0, write_bytes: int = 0
    ) -> None:
        self.counts = array("q", (reads, writes, read_bytes, write_bytes))

    def reset(self) -> None:
        zero(self.counts)


@dataclass(frozen=True)
class ReliableWriteResult:
    """Outcome of one checkpoint write through the reliable-write path.

    *cycles* includes every retried write and its exponential backoff, so
    media errors show up in the reported checkpoint cost.  *torn* flags a
    silently corrupted write — the device reported success, and only the
    checkpoint layer's checksums can catch it at recovery.
    """

    cycles: int
    retries: int = 0
    torn: bool = False
    remapped_blocks: int = 0


class MemoryDevice:
    """Base class for timing models of a memory device.

    Subclasses provide fixed per-access latencies; :meth:`read` / :meth:`write`
    return the latency in CPU cycles for an access of the given size and
    update statistics.  Bulk transfers (checkpoint copies) should use
    :meth:`bulk_read` / :meth:`bulk_write`, which charge a bandwidth-based
    cost instead of a per-line latency chain.
    """

    name = "memory"

    def __init__(
        self,
        read_latency_cycles: int,
        write_latency_cycles: int,
        bandwidth_gbps: float,
        freq_hz: int = 3_000_000_000,
    ) -> None:
        self.read_latency_cycles = read_latency_cycles
        self.write_latency_cycles = write_latency_cycles
        self.bandwidth_gbps = bandwidth_gbps
        self.freq_hz = freq_hz
        self.stats = DeviceStats()
        # Cycles needed to stream one byte at peak bandwidth.
        self._cycles_per_byte = freq_hz / (bandwidth_gbps * 1e9)

    def read(self, size: int = CACHE_LINE_BYTES) -> int:
        """Latency in cycles of a demand read of *size* bytes."""
        counts = self.stats.counts
        counts[READS] += 1
        counts[READ_BYTES] += size
        return self.read_latency_cycles

    def write(self, size: int = CACHE_LINE_BYTES) -> int:
        """Latency in cycles of a demand write of *size* bytes."""
        counts = self.stats.counts
        counts[WRITES] += 1
        counts[WRITE_BYTES] += size
        return self.write_latency_cycles

    def stream_cycles(self, size: int) -> int:
        """Bandwidth-limited cycles to stream *size* bytes (no latency part)."""
        if size <= 0:
            return 0
        return round(size * self._cycles_per_byte)

    def bulk_read(self, size: int, latency_scale: float = 1.0) -> int:
        """Cycles to stream *size* bytes out of the device.

        Charged as one access latency plus bandwidth-limited streaming; this
        models the OS copying a coalesced dirty run during a checkpoint.
        *latency_scale* rescales the fixed latency portion — the experiment
        runner uses it to keep fixed per-event costs consistent with its
        compressed wall clock (see repro.experiments.runner).
        """
        if size <= 0:
            return 0
        self.stats.reads += 1
        self.stats.read_bytes += size
        return round(self.read_latency_cycles * latency_scale) + self.stream_cycles(size)

    def bulk_write(self, size: int, latency_scale: float = 1.0) -> int:
        """Cycles to stream *size* bytes into the device."""
        if size <= 0:
            return 0
        self.stats.writes += 1
        self.stats.write_bytes += size
        return round(self.write_latency_cycles * latency_scale) + self.stream_cycles(size)


class DramDevice(MemoryDevice):
    """DDR4-2400-like volatile memory (Table II)."""

    name = "dram"

    def __init__(self, config: DramConfig | None = None, freq_hz: int = 3_000_000_000):
        config = config or DramConfig()
        super().__init__(
            config.read_latency_cycles,
            config.write_latency_cycles,
            config.bandwidth_gbps,
            freq_hz,
        )
        self.config = config


#: Slots of :attr:`_WriteBuffer.counts` (the native walk uses the same order).
OCCUPANCY, NEXT_DRAIN_AT, STALL_CYCLES_TOTAL = range(3)


@dataclass(init=False)
class _WriteBuffer:
    """Drain-rate model of the NVM write buffer.

    Writes enter the buffer instantly while it has space; the device drains
    one entry per write latency.  When the buffer is full an incoming write
    stalls until an entry drains, which is how bursty persist traffic (e.g.
    per-store clwb in the flush baseline) sees far worse latency than the
    nominal device write time.  The mutable state lives in ``counts``, which
    the native walk updates for dirty lines it evicts into NVM, while
    persistence hooks write through :meth:`push` between native stretches.
    """

    entries: int
    drain_cycles: int
    occupancy: int = SharedCounter(OCCUPANCY)
    next_drain_at: int = SharedCounter(NEXT_DRAIN_AT)
    stall_cycles_total: int = SharedCounter(STALL_CYCLES_TOTAL)

    def __init__(self, entries: int, drain_cycles: int) -> None:
        self.entries = entries
        self.drain_cycles = drain_cycles
        self.counts = array("q", (0, 0, 0))

    def push(self, now: int) -> int:
        """Admit one write at cycle *now*; return the stall cycles incurred."""
        state = self.counts
        occupancy = state[OCCUPANCY]
        next_drain_at = state[NEXT_DRAIN_AT]
        drain = self.drain_cycles
        # Drain completed entries since we last looked.
        if occupancy and now >= next_drain_at:
            drained = 1 + (now - next_drain_at) // drain
            occupancy = max(0, occupancy - drained)
            next_drain_at = now + drain
        stall = 0
        if occupancy >= self.entries:
            # Wait for the oldest entry to drain.
            stall = max(0, next_drain_at - now)
            occupancy -= 1
            next_drain_at += drain
        if occupancy == 0:
            next_drain_at = now + stall + drain
        state[OCCUPANCY] = occupancy + 1
        state[NEXT_DRAIN_AT] = next_drain_at
        state[STALL_CYCLES_TOTAL] += stall
        return stall


class NvmDevice(MemoryDevice):
    """PCM-like byte-addressable NVM with read/write buffering (Table II)."""

    name = "nvm"

    def __init__(
        self,
        config: NvmConfig | None = None,
        freq_hz: int = 3_000_000_000,
        error_model: NvmErrorModel | None = None,
    ):
        config = config or NvmConfig()
        super().__init__(
            config.read_latency_cycles,
            config.write_latency_cycles,
            config.bandwidth_gbps,
            freq_hz,
        )
        self.config = config
        self._write_buffer = _WriteBuffer(
            entries=config.write_buffer_entries,
            drain_cycles=max(1, config.write_latency_cycles // config.write_banks),
        )
        #: Optional media fault oracle; None = perfect media (the default,
        #: preserving the timing behaviour every experiment was built on).
        self.error_model = error_model
        #: Optional persist-order oracle (:mod:`repro.faults.order`); when
        #: attached, demand writes are noted for accounting and every
        #: persist barrier retires the oracle's pending set to
        #: guaranteed-durable.  None (the default) changes nothing.
        self.order_oracle = None
        #: Lifetime accounting of the reliable-write path.
        self.retry_count_total = 0
        self.torn_writes_total = 0
        self.remapped_blocks_total = 0

    def write(self, size: int = CACHE_LINE_BYTES, now: int = 0) -> int:
        """Latency of a persist write, including write-buffer back-pressure.

        *now* is the current simulation cycle; callers that do not track
        global time may leave it at 0, degrading gracefully to a
        buffer-occupancy-only model.
        """
        counts = self.stats.counts
        counts[WRITES] += 1
        counts[WRITE_BYTES] += size
        if self.order_oracle is not None:
            self.order_oracle.note_write(size)
        stall = self._write_buffer.push(now)
        # Entering the buffer is fast; the visible cost is buffer admission
        # plus any stall.  A small constant admission cost stands in for the
        # on-DIMM controller path.
        admission = max(4, self.write_latency_cycles // 8)
        return admission + stall

    def persist_barrier(self, now: int = 0) -> int:
        """Cycles to drain the write buffer (sfence + pending persists).

        A barrier is also the durability point of the persist-order model:
        an attached order oracle retires its pending writes here, whether
        or not the timing-level write buffer happens to be occupied.
        """
        if self.order_oracle is not None:
            self.order_oracle.barrier()
        buf = self._write_buffer
        if buf.occupancy == 0:
            return 0
        done_at = buf.next_drain_at + (buf.occupancy - 1) * buf.drain_cycles
        wait = max(0, done_at - now)
        buf.occupancy = 0
        return wait

    def reliable_bulk_write(
        self, size: int, latency_scale: float = 1.0
    ) -> ReliableWriteResult:
        """Checkpoint-path bulk write with media-error handling.

        With no :attr:`error_model` attached this is exactly
        :meth:`bulk_write` (same cycles, same statistics).  With one, each
        write is classified by the model:

        * **transient** failures are retried with bounded exponential
          backoff; the retried traffic and backoff cycles are charged (and
          do show up in NVM endurance accounting — retries are real writes);
        * **sticky bad blocks** are remapped onto the spare pool and the
          write retried; spare exhaustion raises :class:`NvmMediaError`;
        * **torn** writes succeed as far as the device can tell — the
          result's ``torn`` flag models corruption the checkpoint layer
          must catch via its checksums;
        * spending the whole retry budget raises :class:`NvmMediaError`.
        """
        if size <= 0:
            return ReliableWriteResult(0)
        cycles = self.bulk_write(size, latency_scale)
        model = self.error_model
        if model is None:
            return ReliableWriteResult(cycles)
        retries = 0
        remapped = 0
        torn = False
        attempt = 0
        while True:
            outcome, block = model.draw_write()
            if outcome == WRITE_OK:
                break
            if outcome == WRITE_TORN:
                torn = True
                self.torn_writes_total += 1
                break
            if outcome == WRITE_BAD_BLOCK:
                model.remap(block)  # NvmMediaError once spares run out
                remapped += 1
                self.remapped_blocks_total += 1
            attempt += 1
            if attempt > model.max_retries:
                raise NvmMediaError(
                    f"NVM write of {size} bytes still failing after "
                    f"{model.max_retries} retries"
                )
            retries += 1
            self.retry_count_total += 1
            cycles += model.backoff_cycles(attempt)
            cycles += self.bulk_write(size, latency_scale)
        return ReliableWriteResult(cycles, retries, torn, remapped)

    @property
    def write_buffer_stalls(self) -> int:
        return self._write_buffer.stall_cycles_total
