"""Figure 9 — full memory-state persistence (heap + stack).

Runs each application with SSP protecting the heap and one of {SSP,
Dirtybit, Prosper} protecting the stack, across the three SSP
consolidation-thread invocation intervals.
Paper shape: SSP+Prosper best under every setting (up to 2.6x, ~2x average
vs SSP-everything at 10 us); all combinations improve as the consolidation
interval grows.
"""

from collections import defaultdict

from repro.harness.figures import run_inline


def test_fig9_memory_persistence(benchmark):
    out = benchmark.pedantic(run_inline, args=("fig9", 60_000), rounds=1, iterations=1)
    print()
    print(out.text)
    table = defaultdict(dict)
    for c in out.raw_rows:
        table[(c["workload"], c["ssp_interval_us"])][c["combination"]] = c["normalized_time"]
    for row in table.values():
        assert row["ssp+prosper"] <= row["ssp+dirtybit"] * 1.001
        assert row["ssp+prosper"] <= row["ssp"] * 1.001
