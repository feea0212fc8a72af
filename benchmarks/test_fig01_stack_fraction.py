"""Figure 1 — fraction of memory operations in the stack region.

Regenerates the motivation bar chart: for Gapbs_pr, G500_sssp and Ycsb_mem,
the share of memory operations (and of writes) hitting the stack.
Paper shape: Gapbs_pr ~70 %, G500_sssp in between, Ycsb_mem ~15 %.
"""

from repro.harness.figures import run_inline


def test_fig1_stack_fraction(benchmark):
    out = benchmark.pedantic(run_inline, args=("fig1", 120_000), rounds=1, iterations=1)
    print()
    print(out.text)
    by_name = {r["workload"]: r["stack_fraction"] for r in out.raw_rows}
    assert by_name["gapbs_pr"] > by_name["g500_sssp"] > by_name["ycsb_mem"]
