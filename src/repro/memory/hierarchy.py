"""The full memory hierarchy: L1D → L2 → L3 → {DRAM, NVM}.

The hierarchy decides which device backs an address from caller-supplied
``(start, end)`` ranges (the kernel's address-space layout knows which
regions live in NVM); the native walk of :mod:`repro.memory.native` reads
the same ranges.  Demand accesses walk the cache levels and return a
latency; persist operations (``clwb``) force a line out to the NVM write
path, which is how the flush/undo/redo and SSP baselines pay their
per-store costs.  Bulk
copies into NVM — checkpoint staging and apply, SSP consolidation, the
redo-log apply — all take one path, :meth:`MemoryHierarchy.reliable_copy_to_nvm`,
whose reliable write sees the NVM device's media-error model.  Checkpoint
staging and the kernel's metadata record act on a torn copy; SSP and the
redo log keep no checksum and ignore it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.config import CACHE_LINE_BYTES, SystemConfig
from repro.memory.address import span_lines
from repro.memory.cache import Cache
from repro.memory.devices import (
    DramDevice,
    MemoryDevice,
    NvmDevice,
    ReliableWriteResult,
)


class AccessResult(NamedTuple):
    """Outcome of one demand access."""

    latency_cycles: int
    hit_level: str  # "L1", "L2", "L3", "mem"


#: Ordering of hit levels, outermost = slowest; shared by every access.
_LEVEL_RANK = {"L1": 0, "L2": 1, "L3": 2, "mem": 3}


class MemoryHierarchy:
    """Three-level cache hierarchy over a hybrid DRAM+NVM backing store.

    Parameters
    ----------
    config:
        Machine configuration (cache geometry, device timings).
    nvm_resident:
        Half-open ``(start, end)`` ranges of *virtual* addresses backed by
        NVM rather than DRAM.  Defaults to "nothing in NVM" — the vanilla
        configuration where all application state is in DRAM and only
        explicit checkpoint traffic touches NVM.
    """

    def __init__(
        self,
        config: SystemConfig,
        nvm_resident: Iterable[tuple[int, int]] = (),
    ) -> None:
        self.config = config
        self.l1 = Cache(config.l1d, "L1D")
        self.l2 = Cache(config.l2, "L2")
        self.l3 = Cache(config.l3, "L3")
        self.dram = DramDevice(config.dram, config.freq_hz)
        self.nvm = NvmDevice(config.nvm, config.freq_hz) if config.nvm else None
        #: NVM-resident ``(start, end)`` ranges (ignored without an NVM device).
        self.nvm_ranges: tuple[tuple[int, int], ...] = tuple(
            (int(start), int(end)) for start, end in nvm_resident
        )
        # Results of demand hits, per level (latencies are cumulative).
        l1_latency = config.l1d.latency_cycles
        l2_latency = l1_latency + config.l2.latency_cycles
        self._l1_hit = AccessResult(l1_latency, "L1")
        self._l2_hit = AccessResult(l2_latency, "L2")
        self._l3_hit = AccessResult(l2_latency + config.l3.latency_cycles, "L3")
        self.now = 0  # advanced by callers that track global time

    # ------------------------------------------------------------------ #
    # Demand path
    # ------------------------------------------------------------------ #

    def _device_for(self, address: int):
        if self.nvm is not None:
            for start, end in self.nvm_ranges:
                if start <= address < end:
                    return self.nvm
        return self.dram

    def access(self, address: int, size: int, is_write: bool) -> AccessResult:
        """Perform a demand load/store covering ``[address, address+size)``.

        Multi-line accesses are charged per line; the returned latency is the
        serial sum, a deliberately pessimistic but simple model.  Each line
        is read from the device backing that line's own bytes, so an access
        straddling a DRAM/NVM region boundary charges each side correctly.
        """
        if 0 < size and (address % CACHE_LINE_BYTES) + size <= CACHE_LINE_BYTES:
            # Common case: the access stays within one cache line.
            return self._access_line(
                address // CACHE_LINE_BYTES, address, is_write
            )
        total = 0
        worst_rank = 0
        worst_level = "L1"
        level_rank = _LEVEL_RANK
        for line in span_lines(address, size):
            # The first line starts at the access; later lines at their
            # own first byte.
            line_address = max(address, line * CACHE_LINE_BYTES)
            result = self._access_line(line, line_address, is_write)
            total += result.latency_cycles
            rank = level_rank[result.hit_level]
            if rank > worst_rank:
                worst_rank = rank
                worst_level = result.hit_level
        return AccessResult(total, worst_level)

    def _access_line(self, line: int, address: int, is_write: bool) -> AccessResult:
        # Dirty victims are installed in the next level before the demand
        # access continues down; hits return the prebuilt per-level result.
        hit, victim = self.l1.access(line, is_write)
        if victim is not None:
            self._write_back_to_l2(victim)
        if hit:
            return self._l1_hit

        hit, victim = self.l2.access(line, False)
        if victim is not None:
            self._write_back_to_l3(victim)
        if hit:
            return self._l2_hit

        hit, victim = self.l3.access(line, False)
        if victim is not None:
            self._write_back_to_memory(victim)
        if hit:
            return self._l3_hit

        device = self._device_for(address)
        return AccessResult(
            self._l3_hit.latency_cycles + device.read(CACHE_LINE_BYTES), "mem"
        )

    def _write_back_to_l2(self, victim: int) -> None:
        # Install the dirty victim in the next level (write-back).
        _, next_victim = self.l2.access(victim, True)
        if next_victim is not None:
            self._write_back_to_l3(next_victim)

    def _write_back_to_l3(self, victim: int) -> None:
        _, next_victim = self.l3.access(victim, True)
        if next_victim is not None:
            self._write_back_to_memory(next_victim)

    def _write_back_to_memory(self, line: int) -> None:
        """A dirty L3 victim goes to its backing device."""
        device = self._device_for(line * CACHE_LINE_BYTES)
        if device is self.nvm:
            device.write(CACHE_LINE_BYTES, self.now)
        else:
            device.write(CACHE_LINE_BYTES)

    # ------------------------------------------------------------------ #
    # Persistence path
    # ------------------------------------------------------------------ #

    def clwb(self, address: int, size: int = CACHE_LINE_BYTES, now: int | None = None) -> int:
        """Write back (without invalidating) the lines covering the access.

        Models the ``clwb`` instruction used by flush-based persistence: each
        covered line that is dirty anywhere in the hierarchy is pushed to the
        NVM write buffer.  Returns the cycles charged to the issuing core.
        Callers issuing bursts of clwb in one logical instant should pass a
        *now* that advances by the returned cost between calls, so the write
        buffer sees forward-moving time.
        """
        if self.nvm is None:
            raise RuntimeError("clwb issued on a machine without NVM")
        base_now = self.now if now is None else now
        total = 0
        for line in span_lines(address, size):
            dirty = self.l1.clean(line) | self.l2.clean(line) | self.l3.clean(line)
            if dirty:
                total += self.nvm.write(CACHE_LINE_BYTES, base_now + total)
            else:
                # clwb of a clean/absent line still costs the pipeline a few
                # cycles to issue.
                total += 2
        return total

    def persist_barrier(self) -> int:
        """Drain pending NVM writes (sfence semantics)."""
        if self.nvm is None:
            return 0
        return self.nvm.persist_barrier(self.now)

    # ------------------------------------------------------------------ #
    # Bulk copy path (checkpoints)
    # ------------------------------------------------------------------ #

    def reliable_copy_to_nvm(
        self, source: MemoryDevice, size: int, latency_scale: float = 1.0
    ) -> ReliableWriteResult:
        """Copy *size* bytes from *source* (``self.dram``, or ``self.nvm``
        for an NVM-internal copy) into NVM through the reliable-write path.

        One bulk read and one bulk write, each a device latency plus
        bandwidth streaming.  With an error model on the NVM device,
        transient failures are retried (with backoff charged) and torn
        writes are flagged for the checkpoint layer's checksums.
        """
        if self.nvm is None:
            raise RuntimeError("checkpoint copy issued on a machine without NVM")
        if size <= 0:
            return ReliableWriteResult(0)
        read_cycles = source.bulk_read(size, latency_scale)
        result = self.nvm.reliable_bulk_write(size, latency_scale)
        return ReliableWriteResult(
            read_cycles + result.cycles,
            result.retries,
            result.torn,
            result.remapped_blocks,
        )

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #

    def reset_stats(self) -> None:
        for cache in (self.l1, self.l2, self.l3):
            cache.stats.reset()
        self.dram.stats.reset()
        if self.nvm is not None:
            self.nvm.stats.reset()
