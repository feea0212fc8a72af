"""Figure 11 — checkpoint size vs checkpoint interval (1/5/10 ms).

Runs Quicksort and Recursive (depths 4/8/16) under Prosper at three
checkpoint intervals, reporting mean checkpoint size and the per-byte
checkpoint cost.
Paper shape: Recursive checkpoint size grows with the interval (no
coalescing, no shrink within the interval) while Quicksort shrinks at 10 ms;
Recursive's per-byte checkpoint time is highest at 1 ms because many
checkpoints carry no data yet still pay the bitmap inspection.
"""

from collections import defaultdict

from repro.harness.figures import run_inline


def test_fig11_interval_sweep(benchmark):
    # Fixed-size traces: the figure ignores the ops scale.
    out = benchmark.pedantic(run_inline, args=("fig11", 60_000), rounds=1, iterations=1)
    print()
    print(out.text)
    sizes = defaultdict(dict)
    per_byte = defaultdict(dict)
    for c in out.raw_rows:
        sizes[c["workload"]][c["interval_paper_ms"]] = c["mean_checkpoint_bytes"]
        per_byte[c["workload"]][c["interval_paper_ms"]] = c["ns_per_byte"]
    for depth in (4, 8, 16):
        name = f"rec-{depth}"
        # Recursive: the stack never shrinks in-interval -> size grows
        # roughly with the interval (no coalescing opportunity).
        assert sizes[name][10.0] > sizes[name][1.0] * 2
        # Per-byte checkpoint cost is highest at 1 ms (empty checkpoints
        # still pay bitmap inspection; paper: 22 ns vs 11 ns for Rec-4).
        assert per_byte[name][1.0] > per_byte[name][10.0]
    # Quicksort: repeated sorts re-dirty the same shallow frames, so the
    # size saturates with the interval (coalescing benefit), in contrast
    # to Recursive's near-linear growth.
    qs_growth = sizes["quicksort"][10.0] / sizes["quicksort"][5.0]
    rec_growth = sizes["rec-8"][10.0] / sizes["rec-8"][5.0]
    assert qs_growth < rec_growth * 1.05
