"""Figure 12 — dirty-tracking overhead of the Prosper hardware.

Runs the SPEC CPU 2017 models, the graph workloads and Stream under the
Prosper tracker at 8/64/128-byte granularity (Setup-II, DRAM-only demand
path) and reports user-IPC speedup relative to no tracking.
Paper shape: less than 1 % average overhead, about 3 % worst case
(G500_sssp), roughly flat across granularities.
"""

from repro.harness.figures import run_inline


def test_fig12_tracking_overhead(benchmark):
    out = benchmark.pedantic(run_inline, args=("fig12", 80_000), rounds=1, iterations=1)
    print()
    print(out.text)
    overheads = [1.0 - c["speedup"] for c in out.raw_rows]
    mean_overhead = sum(overheads) / len(overheads)
    print(f"mean overhead: {mean_overhead * 100:.2f}%  "
          f"max overhead: {max(overheads) * 100:.2f}%")
    assert mean_overhead < 0.02  # paper: <1 % average
    assert max(overheads) < 0.08  # paper: ~3 % worst case
