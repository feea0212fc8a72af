"""Hybrid-memory substrate: addresses, devices, caches, and the hierarchy.

This subpackage models the memory system of Table II in the paper: a cache
hierarchy (L1D/L2/L3, 64-byte lines) in front of a DRAM device and a PCM-like
NVM device.  Timing is a simple but consistent latency/bandwidth model —
sufficient for the paper's metrics, which are ratios of event counts times
latencies rather than cycle-accurate pipeline behaviour.
"""

from repro.memory.address import (
    AddressRange,
    align_down,
    align_up,
    granule_index,
    line_index,
    page_index,
    span_granules,
    span_lines,
    span_pages,
)
from repro.memory.devices import DramDevice, MemoryDevice, NvmDevice
from repro.memory.cache import Cache
from repro.memory.hierarchy import AccessResult, MemoryHierarchy
from repro.memory.image import ByteImage

__all__ = [
    "AddressRange",
    "align_down",
    "align_up",
    "granule_index",
    "line_index",
    "page_index",
    "span_granules",
    "span_lines",
    "span_pages",
    "MemoryDevice",
    "DramDevice",
    "NvmDevice",
    "Cache",
    "AccessResult",
    "MemoryHierarchy",
    "ByteImage",
]
