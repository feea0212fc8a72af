"""Figure 3 — flush/undo/redo with and without SP awareness.

Replays the stack activity of each application with the three per-store
persistence primitives, with the stack resident in NVM, and compares
execution time with and without the SP oracle, normalized to stack-in-DRAM
execution with no persistence.
Paper shape: SP awareness improves all three mechanisms (~30 % on average),
yet even SP-aware variants stay >35x slower than no persistence.
"""

from repro.harness.figures import run_inline


def test_fig3_sp_awareness(benchmark):
    out = benchmark.pedantic(run_inline, args=("fig3", 60_000), rounds=1, iterations=1)
    print()
    print(out.text)
    time = {
        (c["workload"], c["mechanism"], c["sp_aware"]): c["normalized_time"]
        for c in out.raw_rows
    }
    # SP awareness helps every (workload, mechanism) pair.
    for workload in {c["workload"] for c in out.raw_rows}:
        for mech in ("flush", "undo", "redo"):
            assert time[workload, mech, True] <= time[workload, mech, False]
            assert time[workload, mech, True] > 2.0  # still far from free
