"""Figure 2 — stack writes beyond the interval-final SP.

Regenerates the per-interval series of total stack writes vs writes landing
below the SP value at the interval end (wasted work for SP-unaware
mechanisms), aggregated over 100 intervals as in the paper.
Paper shape: >36 % of Ycsb_mem stack writes land beyond the final SP; the
other workloads behave similarly.
"""

from repro.harness.figures import run_inline


def test_fig2_beyond_final_sp(benchmark):
    out = benchmark.pedantic(run_inline, args=("fig2", 120_000), rounds=1, iterations=1)
    print()
    print(out.text)
    ycsb = next(r for r in out.raw_rows if r["workload"] == "ycsb_mem")
    assert ycsb["beyond_fraction"] > 0.1
    for r in out.raw_rows:
        assert 0 <= r["beyond_fraction"] <= 1
