"""System configurations for the two experimental setups of the paper.

The paper (Table II) evaluates on gem5 with two configurations:

* **Setup-I** — hybrid memory (3 GB DRAM + 2 GB NVM/PCM), used for the
  end-to-end checkpoint-performance experiments (Figures 8-11 and the
  context-switch study) with a GemOS-like kernel.
* **Setup-II** — DRAM-only 32 GB, used for the dirty-tracking-overhead
  experiments (Figures 12-13) with a modified Linux kernel.

Both setups share the core and cache parameters.  This module encodes those
parameters as frozen dataclasses so every component of the simulator draws
its timing from a single place.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tlb uses config)
    from repro.memory.tlb import TlbConfig

#: CPU clock frequency used in both setups (Table II).
CPU_FREQ_HZ = 3_000_000_000

#: Cache line size in bytes for every level of the hierarchy (Table II).
CACHE_LINE_BYTES = 64

#: OS page size; the paper's page-granularity baselines track at 4 KiB.
PAGE_BYTES = 4096


def ns_to_cycles(ns: float, freq_hz: int = CPU_FREQ_HZ) -> int:
    """Convert a duration in nanoseconds to (rounded) CPU cycles."""
    return max(0, round(ns * freq_hz / 1e9))


def cycles_to_ns(cycles: float, freq_hz: int = CPU_FREQ_HZ) -> float:
    """Convert CPU cycles to nanoseconds."""
    return cycles * 1e9 / freq_hz


def ms_to_cycles(ms: float, freq_hz: int = CPU_FREQ_HZ) -> int:
    """Convert a duration in milliseconds to CPU cycles."""
    return round(ms * freq_hz / 1e3)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    associativity: int
    latency_cycles: int
    mshrs: int
    line_bytes: int = CACHE_LINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class DramConfig:
    """DDR4-2400-like DRAM timing (simplified closed-page model)."""

    read_latency_ns: float = 60.0
    write_latency_ns: float = 60.0
    #: Peak per-channel bandwidth used to charge bulk copies (GB/s).
    bandwidth_gbps: float = 19.2

    @property
    def read_latency_cycles(self) -> int:
        return ns_to_cycles(self.read_latency_ns)

    @property
    def write_latency_cycles(self) -> int:
        return ns_to_cycles(self.write_latency_ns)


@dataclass(frozen=True)
class NvmConfig:
    """PCM-like NVM timing.

    Read/write latencies follow the PCM parameters the paper adopts from the
    literature (reads a few times slower than DRAM, writes substantially
    slower still).  The device has separate read/write buffers whose
    occupancy creates back-pressure on bursts (Table II: 64 read entries /
    48 write entries).
    """

    read_latency_ns: float = 150.0
    write_latency_ns: float = 450.0
    read_buffer_entries: int = 64
    write_buffer_entries: int = 48
    bandwidth_gbps: float = 9.6
    #: Independent write banks draining the write buffer in parallel; the
    #: sustained write throughput is banks/write_latency lines per cycle.
    write_banks: int = 4

    @property
    def read_latency_cycles(self) -> int:
        return ns_to_cycles(self.read_latency_ns)

    @property
    def write_latency_cycles(self) -> int:
        return ns_to_cycles(self.write_latency_ns)


@dataclass(frozen=True)
class TrackerConfig:
    """Prosper dirty-tracker hardware parameters (Section III-D defaults)."""

    lookup_table_entries: int = 16
    high_water_mark: int = 24
    low_water_mark: int = 8
    granularity_bytes: int = 8
    #: Bits in the bitmap value of one lookup-table entry (Figure 7).
    bitmap_word_bits: int = 32

    def __post_init__(self) -> None:
        if self.granularity_bytes % 8 != 0 or self.granularity_bytes <= 0:
            raise ValueError(
                "tracking granularity must be a positive multiple of 8 bytes, "
                f"got {self.granularity_bytes}"
            )
        if not 0 <= self.low_water_mark <= self.bitmap_word_bits:
            raise ValueError(f"LWM out of range: {self.low_water_mark}")
        if not 0 < self.high_water_mark <= self.bitmap_word_bits:
            raise ValueError(f"HWM out of range: {self.high_water_mark}")
        if self.lookup_table_entries <= 0:
            raise ValueError("lookup table needs at least one entry")

    def with_granularity(self, granularity_bytes: int) -> "TrackerConfig":
        """Return a copy of this config with a different tracking granularity."""
        return replace(self, granularity_bytes=granularity_bytes)


@dataclass(frozen=True)
class SystemConfig:
    """A full machine configuration (one of the paper's two setups).

    ``tlb`` optionally enables the TLB/page-table-walker timing model
    (:mod:`repro.memory.tlb`); the calibrated paper experiments run without
    it since normalized results divide the translation costs out.
    """

    name: str
    freq_hz: int = CPU_FREQ_HZ
    tlb: "TlbConfig | None" = None
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 3, 16)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(512 * 1024, 16, 12, 32)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 16, 20, 32)
    )
    dram: DramConfig = field(default_factory=DramConfig)
    nvm: NvmConfig | None = field(default_factory=NvmConfig)
    dram_capacity_bytes: int = 3 * 1024**3
    nvm_capacity_bytes: int = 2 * 1024**3
    tracker: TrackerConfig = field(default_factory=TrackerConfig)

    @property
    def has_nvm(self) -> bool:
        return self.nvm is not None


def setup_i() -> SystemConfig:
    """Setup-I: hybrid 3 GB DRAM + 2 GB PCM NVM (checkpoint performance)."""
    return SystemConfig(name="setup-I")


def setup_ii() -> SystemConfig:
    """Setup-II: 32 GB DRAM-only (dirty-tracking overhead studies).

    NVM timing is still instantiated so checkpoint copies can be charged;
    the paper's Setup-II machine stores checkpoints through the same
    interface.
    """
    return SystemConfig(
        name="setup-II",
        dram_capacity_bytes=32 * 1024**3,
        nvm_capacity_bytes=2 * 1024**3,
    )
