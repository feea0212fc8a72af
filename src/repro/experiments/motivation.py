"""Shared helpers for the motivation studies (Section II: Figures 1-4).

The figures themselves — their grids, per-unit computation and tables —
are defined in :mod:`repro.harness.figures`.
"""

from __future__ import annotations

from repro.workloads.trace import Trace


def stack_only(trace: Trace) -> Trace:
    """Reduce a trace to its stack activity (memory ops + CALL/RET).

    Mirrors the paper's replay methodology for Figure 3: the custom program
    replays only the stack accesses of the trace, so the no-persistence
    baseline is the cost of those accesses with the stack in DRAM.
    """
    from repro.cpu.ops import OpKind

    arr = trace.array
    kinds = arr["kind"]
    addrs = arr["address"]
    stack = trace.stack_range
    keep = (
        (kinds == int(OpKind.CALL))
        | (kinds == int(OpKind.RET))
        | (
            (kinds <= int(OpKind.WRITE))
            & (addrs >= stack.start)
            & (addrs < stack.end)
        )
    )
    return Trace(
        arr[keep],
        trace.stack_range,
        heap_range=trace.heap_range,
        name=trace.name,
        initial_sp=trace.initial_sp,
    )
