"""Function-invocation micro-benchmarks: Quicksort and Recursive (Table III).

These exercise the grow/shrink usage pattern that makes the stack special:

* **Quicksort** sorts a heap-allocated array; the trace is the real
  recursion tree of quicksort (frames pushed/popped, partition locals
  written on the stack, element reads/writes on the heap).  Its stack
  footprint revisits the same shallow frames over and over — the pattern
  the paper shows benefits from longer checkpoint intervals (Figure 11).
* **Recursive** performs repeated recursive descents to a parameterized
  depth (Rec-4/Rec-8/Rec-16), writing locals at each level.  New frames are
  dirtied on the way down with little re-use, so larger intervals *grow*
  its checkpoint size — the opposite trend.
"""

from __future__ import annotations

import numpy as np

from repro.cpu.ops import OpKind, TraceBuilder
from repro.memory.address import AddressRange
from repro.workloads.synthetic import DEFAULT_HEAP, DEFAULT_STACK
from repro.workloads.trace import Trace

#: Stack frame of one quicksort invocation: saved registers, lo/hi/pivot
#: locals, return address.
QSORT_FRAME_BYTES = 96
#: Locals written per quicksort invocation (within the frame).
QSORT_LOCAL_WRITES = 6

#: Frame size of one Recursive level.
RECURSIVE_FRAME_BYTES = 256

_READ = int(OpKind.READ)
_WRITE = int(OpKind.WRITE)
_CALL = int(OpKind.CALL)
_RET = int(OpKind.RET)
_COMPUTE = int(OpKind.COMPUTE)


def quicksort_workload(
    elements: int = 2048,
    element_bytes: int = 8,
    repeats: int = 3,
    stack: AddressRange = DEFAULT_STACK,
    heap: AddressRange = DEFAULT_HEAP,
    seed: int = 7,
) -> Trace:
    """Trace of quicksort over random heap arrays, *repeats* times.

    Repeated sorts re-dirty the same shallow stack frames; a long
    checkpoint interval spanning several sorts therefore coalesces their
    modifications — the effect behind Quicksort's checkpoint size
    *shrinking* at 10 ms in Figure 11.
    """
    rng = np.random.default_rng(seed)
    rng.integers(0, 1_000_000, size=elements)  # discarded: each round draws its own
    # One column per TRACE_DTYPE field; every frame appends its ops here.
    kinds: list[int] = []
    addrs: list[int] = []
    sizes: list[int] = []
    element_addr = [heap.start + k * element_bytes for k in range(elements)]
    # CALL, the frame's local writes, the pivot read.
    prologue_kinds = (_CALL,) + (_WRITE,) * QSORT_LOCAL_WRITES + (_READ,)
    prologue_sizes = (QSORT_FRAME_BYTES,) + (8,) * QSORT_LOCAL_WRITES + (element_bytes,)
    swap_kinds = (_WRITE, _WRITE)
    swap_sizes = (element_bytes, element_bytes)

    def qsort(values: list[int], lo: int, hi: int, sp: int) -> None:
        if lo >= hi:
            return
        sp -= QSORT_FRAME_BYTES
        if sp < stack.start:
            raise RuntimeError("quicksort recursion exceeded the stack region")
        kinds.extend(prologue_kinds)
        addrs.append(0)
        addrs.extend(range(sp + 8, sp + 8 + 8 * QSORT_LOCAL_WRITES, 8))
        addrs.append(element_addr[hi])
        sizes.extend(prologue_sizes)

        # Lomuto partition: read every element, swap when needed.
        pivot = values[hi]
        i = lo - 1
        for j in range(lo, hi):
            kinds.append(_READ)
            addrs.append(element_addr[j])
            sizes.append(element_bytes)
            value = values[j]
            if value <= pivot:
                i += 1
                if i != j:
                    values[i], values[j] = value, values[i]
                    kinds.extend(swap_kinds)
                    addrs.extend((element_addr[i], element_addr[j]))
                    sizes.extend(swap_sizes)
        p = i + 1
        values[p], values[hi] = values[hi], values[p]
        kinds.extend(swap_kinds)
        addrs.extend((element_addr[p], element_addr[hi]))
        sizes.extend(swap_sizes)

        qsort(values, lo, p - 1, sp)
        qsort(values, p + 1, hi, sp)

        kinds.append(_RET)
        addrs.append(0)
        sizes.append(QSORT_FRAME_BYTES)

    for _round in range(max(1, repeats)):
        values = rng.integers(0, 1_000_000, size=elements).tolist()
        qsort(values, 0, elements - 1, stack.end)
        assert values == sorted(values), "quicksort trace did not sort"
        kinds.append(_COMPUTE)
        addrs.append(0)
        sizes.append(200)
    ops = TraceBuilder()
    ops.extend(kinds, addrs, sizes)
    return Trace(ops.to_array(), stack, heap_range=heap, name="quicksort")


def recursive_workload(
    depth: int = 8,
    descents: int = 400,
    writes_per_level: int = 8,
    frame_bytes: int = RECURSIVE_FRAME_BYTES,
    compute_gap_cycles: int = 20_000,
    stack: AddressRange = DEFAULT_STACK,
    seed: int = 7,
) -> Trace:
    """Steadily deepening recursion (Rec-4 / Rec-8 / Rec-16 in the paper).

    Each cycle descends *depth* levels writing locals, then unwinds only
    ``depth - 1`` levels before the next descent: the stack deepens by one
    frame per cycle and **never shrinks back** within a checkpoint
    interval (the paper's stated Recursive behaviour) — so every dirtied
    frame is still live at the interval end, checkpoint size grows with
    the interval, and nothing coalesces.  Compute gaps between cycles make
    very short checkpoint intervals land on intervals with no stack
    modification, reproducing the paper's per-byte-cost note.
    """
    if depth * frame_bytes > stack.size:
        raise ValueError("recursion does not fit in the stack region")
    max_cycles = stack.size // frame_bytes - depth - 1
    if descents > max_cycles:
        raise ValueError(
            f"{descents} deepening cycles of {frame_bytes}B frames exceed "
            f"the stack region (max {max_cycles})"
        )
    ops = TraceBuilder()
    sp = stack.end
    net_depth = 0
    for _ in range(descents):
        for _level in range(depth):
            ops.call(frame_bytes)
            sp -= frame_bytes
            for k in range(writes_per_level):
                ops.write(sp + 8 + k * 8, 8)
        for _level in range(depth - 1):
            ops.ret(frame_bytes)
            sp += frame_bytes
        net_depth += 1
        ops.compute(compute_gap_cycles)
    for _ in range(net_depth):
        ops.ret(frame_bytes)
    return Trace(ops.to_array(), stack, name=f"rec-{depth}")
