"""Figure 4 — checkpoint copy size: page (4 KiB) vs 8-byte dirty tracking.

Post-processes each application trace at 10 ms intervals and compares the
data that would be copied under page-granularity vs byte-granularity dirty
tracking of the stack region.
Paper shape: large reductions (300x Gapbs_pr, 56x G500_sssp, 33x Ycsb_mem),
ordered gapbs > g500 > ycsb.
"""

from repro.harness.figures import run_inline


def test_fig4_copy_size(benchmark):
    out = benchmark.pedantic(run_inline, args=("fig4", 120_000), rounds=1, iterations=1)
    print()
    print(out.text)
    by_name = {r["workload"]: r["reduction"] for r in out.raw_rows}
    assert by_name["gapbs_pr"] > by_name["g500_sssp"] > by_name["ycsb_mem"] > 1
    assert by_name["gapbs_pr"] > 20
