"""Figure 8 — stack persistence: Prosper vs Romulus, SSP, Dirtybit.

Runs each application under every mechanism with 10 ms checkpoint intervals
and reports execution time normalized to no-persistence execution.
Paper shape: Prosper lowest everywhere; Dirtybit close behind (Prosper up to
1.27x better); SSP overhead shrinking as the consolidation interval grows
from 10 us to 1 ms; Romulus worst across all workloads.
"""

from collections import defaultdict

from repro.harness.figures import run_inline


def test_fig8_stack_persistence(benchmark):
    out = benchmark.pedantic(run_inline, args=("fig8", 80_000), rounds=1, iterations=1)
    print()
    print(out.text)
    table = defaultdict(dict)
    for r in out.raw_rows:
        table[r["workload"]][r["mechanism"]] = r["normalized_time"]
    for w, row in table.items():
        assert row["prosper"] == min(row.values()), f"prosper not best on {w}"
        assert row["romulus"] == max(row.values()), f"romulus not worst on {w}"
        assert row["ssp-10us"] >= row["ssp-1ms"] * 0.98
    # Paper: up to 3.6x reduction vs SSP-10us, 2.1x average.
    ratios = [row["ssp-10us"] / row["prosper"] for row in table.values()]
    assert max(ratios) > 1.5
