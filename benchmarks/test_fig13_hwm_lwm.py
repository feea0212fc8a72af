"""Figure 13 — lookup-table sensitivity to the HWM and LWM thresholds.

Replays the mcf and SSSP stack store streams through the bare tracker,
sweeping the high-water mark (LWM fixed at 4) and the low-water mark
(HWM fixed at 24), and counts tracker-issued bitmap loads and stores.
Paper shape: SSSP (spatial locality) issues fewer ops as HWM grows and is
insensitive to LWM; mcf (scattered temporaries) issues more ops as HWM
grows and benefits from a larger LWM.
"""

from collections import defaultdict

from repro.harness.figures import run_inline


def test_fig13_watermarks(benchmark):
    out = benchmark.pedantic(run_inline, args=("fig13", 80_000), rounds=1, iterations=1)
    print()
    print(out.text)
    by_hwm = defaultdict(dict)
    by_lwm = defaultdict(dict)
    for c in out.raw_rows:
        if c["lwm"] == 4:
            by_hwm[c["workload"]][c["hwm"]] = c["memory_ops"]
        if c["hwm"] == 24:
            by_lwm[c["workload"]][c["lwm"]] = c["memory_ops"]

    sssp = by_hwm["g500_sssp"]
    mcf = by_hwm["605.mcf_s"]
    assert sssp[max(sssp)] < sssp[min(sssp)], "SSSP should improve with HWM"
    assert mcf[max(mcf)] > mcf[min(mcf)] * 0.95, "mcf should not improve with HWM"

    mcf_lwm = by_lwm["605.mcf_s"]
    assert mcf_lwm[max(mcf_lwm)] <= mcf_lwm[min(mcf_lwm)] * 1.05
