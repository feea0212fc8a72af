"""Figure 10 — Prosper across stack usage patterns and tracking granularity.

Runs the seven Table III micro-benchmarks under Prosper at 8/16/32/64/128
byte granularity and under the page-level Dirtybit baseline, reporting
(a) mean checkpoint size and (b) checkpoint time normalized to Dirtybit.
Paper shape: Sparse benefits most (~99 % size reduction, ~22x faster
checkpoints); Stream gains nothing; granularity trades metadata against
copy size.
"""

from collections import defaultdict

from repro.harness.figures import run_inline


def test_fig10_usage_patterns(benchmark):
    # 60k ops -> micro-benchmark scale 0.6.
    out = benchmark.pedantic(run_inline, args=("fig10", 60_000), rounds=1, iterations=1)
    print()
    print(out.text)
    sizes = defaultdict(dict)
    times = defaultdict(dict)
    for c in out.raw_rows:
        sizes[c["workload"]][c["granularity"]] = c["mean_checkpoint_bytes"]
        times[c["workload"]][c["granularity"]] = c["checkpoint_time_vs_dirtybit"]
    # Sparse: huge size reduction and much faster checkpoints at 8B.
    assert sizes["sparse"][8] < sizes["sparse"]["page"] * 0.02
    assert times["sparse"][8] < 0.5
    # Stream: no meaningful size benefit from fine tracking (page rounding
    # at the interval edges is the only slack).
    assert sizes["stream"][8] >= sizes["stream"]["page"] * 0.4
