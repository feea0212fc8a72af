"""NVM endurance comparison across stack-persistence mechanisms.

Not a paper figure, but the quantification of the paper's motivation that
"maintaining the stack in NVM leads to performance and endurance issues":
the per-store mechanisms (flush, Romulus, SSP) push every stack write plus
metadata into NVM, while the checkpoint mechanisms (Dirtybit, Prosper) hit
NVM only with the coalesced dirty bytes once per interval.
"""

from repro.analysis.endurance import endurance_report
from repro.analysis.report import format_bytes, render_table
from repro.experiments.runner import make_engine, vanilla_cycles, fixed_cost_scale_for, scaled_interval_cycles
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.logging import FlushPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.romulus import RomulusPersistence
from repro.persistence.ssp import SspPersistence
from repro.workloads.apps import gapbs_pr


def run_endurance_comparison(target_ops=50_000):
    trace = gapbs_pr(target_ops)
    base = vanilla_cycles(trace)
    scale = fixed_cost_scale_for(base)
    interval = scaled_interval_cycles(base, 10.0)
    # Unique dirty footprint of the stack at byte granularity.
    dirty = sum(trace.copy_sizes(1, 8))

    reports = []
    for mech, label in (
        (ProsperPersistence(), "prosper"),
        (DirtyBitPersistence(), "dirtybit"),
        (SspPersistence(1000.0), "ssp-1ms"),
        (RomulusPersistence(), "romulus"),
        (FlushPersistence(), "flush"),
    ):
        engine = make_engine(trace, mech, fixed_cost_scale=scale)
        engine.run(trace.array, interval_cycles=interval)
        # Wear is compared per unit of *application progress*: every
        # mechanism gets the same vanilla-execution denominator (converted
        # back to paper time), so a slow mechanism cannot claim longevity
        # merely by stalling the application.
        paper_cycles = round(base / scale)
        reports.append(
            endurance_report(label, engine.hierarchy, dirty, paper_cycles)
        )
    return reports


def test_endurance(benchmark):
    reports = benchmark.pedantic(run_endurance_comparison, rounds=1, iterations=1)
    print()
    print(
        render_table(
            "NVM write traffic and endurance by mechanism (gapbs_pr)",
            ["mechanism", "NVM writes", "NVM bytes", "amplification", "lifetime (yr, 64KiB hot)"],
            [
                [
                    r.mechanism,
                    r.nvm_writes,
                    format_bytes(r.nvm_write_bytes),
                    f"{r.write_amplification:.2f}x",
                    f"{r.lifetime_years():.1f}",
                ]
                for r in reports
            ],
        )
    )
    by_name = {r.mechanism: r for r in reports}
    # Checkpoint mechanisms write far less NVM than per-store mechanisms.
    assert by_name["prosper"].nvm_write_bytes < by_name["flush"].nvm_write_bytes
    assert by_name["prosper"].nvm_write_bytes < by_name["romulus"].nvm_write_bytes
    # Prosper's sub-page tracking also beats page-granularity checkpoints.
    assert by_name["prosper"].nvm_write_bytes < by_name["dirtybit"].nvm_write_bytes
    # Endurance translation: prosper's projected lifetime is the longest.
    assert by_name["prosper"].lifetime_years() >= by_name["flush"].lifetime_years()