"""Integration tests: small-scale versions of every paper experiment.

These exercise the full pipeline (workload -> engine -> mechanism ->
analysis) through each figure's harness spec and assert the *shape* of
its rows, at sizes small enough for the unit-test suite.  Where a test
needs a smaller grid than the figure's, it selects units and overrides
their params.  The full-scale numbers live in the benchmarks and
EXPERIMENTS.md.
"""

from dataclasses import replace

import pytest

from repro.experiments import overhead
from repro.harness.figures import FIGURES, run_inline


OPS = 25_000  # small but big enough for stable shapes


def figure_rows(figure, ops, keep=lambda unit: True, **overrides):
    """Rows of *figure*'s units selected by *keep*, params overridden."""
    units = [
        replace(unit, params={**unit.params, **overrides})
        for unit in FIGURES[figure].enumerate_units(ops)
        if keep(unit)
    ]
    return run_inline(figure, ops, units).raw_rows


@pytest.fixture(scope="module")
def fig1_rows():
    return figure_rows("fig1", OPS)


class TestFig1:
    def test_three_workloads(self, fig1_rows):
        assert [r["workload"] for r in fig1_rows] == [
            "gapbs_pr",
            "g500_sssp",
            "ycsb_mem",
        ]

    def test_gapbs_is_stack_heavy(self, fig1_rows):
        by_name = {r["workload"]: r["stack_fraction"] for r in fig1_rows}
        assert by_name["gapbs_pr"] > 0.6
        assert by_name["ycsb_mem"] < 0.3
        assert by_name["gapbs_pr"] > by_name["g500_sssp"] > by_name["ycsb_mem"]


class TestFig2:
    def test_ycsb_has_substantial_beyond_sp_writes(self):
        rows = figure_rows("fig2", OPS, num_intervals=50)
        ycsb = next(r for r in rows if r["workload"] == "ycsb_mem")
        assert 0.1 < ycsb["beyond_fraction"] < 0.8
        for r in rows:
            assert r["total_beyond"] <= r["total_writes"]


class TestFig3:
    @pytest.fixture(scope="class")
    def cells(self):
        return figure_rows("fig3", 12_000, num_intervals=10)

    def test_all_cells_present(self, cells):
        assert len(cells) == 3 * 3 * 2  # workloads x mechanisms x awareness

    def test_sp_awareness_always_helps(self, cells):
        time = {
            (c["workload"], c["mechanism"], c["sp_aware"]): c["normalized_time"]
            for c in cells
        }
        for workload in {c["workload"] for c in cells}:
            for mech in ("flush", "undo", "redo"):
                assert time[workload, mech, True] <= time[workload, mech, False]

    def test_overhead_significant_even_with_awareness(self, cells):
        # Paper: >35x slowdown across all benchmarks even SP-aware.
        aware = [c for c in cells if c["sp_aware"]]
        assert all(c["normalized_time"] > 2.0 for c in aware)


class TestFig4:
    def test_page_tracking_amplifies_copy_size(self):
        rows = figure_rows("fig4", OPS, num_intervals=20)
        for row in rows:
            assert row["reduction"] > 5.0
        by_name = {r["workload"]: r["reduction"] for r in rows}
        # Gapbs shows the largest reduction, ycsb the smallest (paper order).
        assert by_name["gapbs_pr"] > by_name["ycsb_mem"]


def _per_workload(rows, column):
    table = {}
    for r in rows:
        table.setdefault(r["workload"], {})[r[column]] = r["normalized_time"]
    return table


class TestFig8:
    @pytest.fixture(scope="class")
    def table(self):
        return _per_workload(figure_rows("fig8", OPS), "mechanism")

    def test_prosper_wins_everywhere(self, table):
        for workload, rows in table.items():
            prosper = rows["prosper"]
            for name, value in rows.items():
                if name != "prosper":
                    assert prosper <= value, f"{name} beat prosper on {workload}"

    def test_ssp_improves_with_longer_consolidation(self, table):
        for rows in table.values():
            assert rows["ssp-10us"] >= rows["ssp-1ms"] * 0.98

    def test_romulus_is_worst(self, table):
        for rows in table.values():
            assert rows["romulus"] == max(rows.values())


class TestFig9:
    def test_prosper_combination_wins(self):
        cells = figure_rows(
            "fig9", OPS, lambda u: u.params["ssp_interval_us"] == 10.0
        )
        for rows in _per_workload(cells, "combination").values():
            assert rows["ssp+prosper"] <= rows["ssp+dirtybit"]
            assert rows["ssp+prosper"] <= rows["ssp"]


class TestFig10:
    @pytest.fixture(scope="class")
    def cells(self):
        # 30k ops -> micro-benchmark scale 0.3; Dirtybit plus 8 and 64 B.
        rows = figure_rows(
            "fig10", 30_000, lambda u: u.params["granularity"] in ("page", 8, 64)
        )
        return {(r["workload"], r["granularity"]): r for r in rows}

    def test_sparse_gets_huge_reduction(self, cells):
        sparse8 = cells["sparse", 8]
        sparse_page = cells["sparse", "page"]
        assert (
            sparse8["mean_checkpoint_bytes"]
            < sparse_page["mean_checkpoint_bytes"] / 50
        )
        assert sparse8["checkpoint_time_vs_dirtybit"] < 1.0

    def test_stream_gets_no_size_benefit(self, cells):
        # Stream dirties everything: fine tracking saves at most the
        # page-rounding slack at the interval's edges (compare sparse's
        # 50x+ reduction).
        assert (
            cells["stream", 8]["mean_checkpoint_bytes"]
            > cells["stream", "page"]["mean_checkpoint_bytes"] / 3
        )

    def test_coarser_granularity_never_smaller_checkpoint(self, cells):
        for workload in {w for w, _ in cells}:
            fine = cells[workload, 8]["mean_checkpoint_bytes"]
            coarse = cells[workload, 64]["mean_checkpoint_bytes"]
            assert coarse >= fine * 0.99


class TestFig11:
    @pytest.fixture(scope="class")
    def cells(self):
        rows = figure_rows(
            "fig11",
            OPS,
            lambda u: u.params["workload"] in ("quicksort", "rec-4", "rec-16"),
        )
        table = {}
        for r in rows:
            table.setdefault(r["workload"], {})[r["interval_paper_ms"]] = r
        return table

    def test_recursive_checkpoint_grows_with_interval(self, cells):
        for name in ("rec-4", "rec-16"):
            sizes = cells[name]
            assert (
                sizes[10.0]["mean_checkpoint_bytes"]
                > sizes[1.0]["mean_checkpoint_bytes"] * 2
            )

    def test_quicksort_saturates_unlike_recursive(self, cells):
        def growth(name):
            sizes = cells[name]
            return (
                sizes[10.0]["mean_checkpoint_bytes"]
                / sizes[5.0]["mean_checkpoint_bytes"]
            )

        assert growth("quicksort") < growth("rec-16") * 1.05

    def test_recursive_per_byte_cost_highest_at_1ms(self, cells):
        rec4 = cells["rec-4"]
        assert rec4[1.0]["ns_per_byte"] > rec4[10.0]["ns_per_byte"]


class TestFig12:
    def test_tracking_overhead_small(self):
        cells = figure_rows("fig12", OPS, lambda u: u.params["granularity"] == 8)
        for cell in cells:
            assert cell["speedup"] > 0.9, f"{cell['workload']} overhead too large"
        mean_overhead = sum(c["overhead_pct"] for c in cells) / len(cells)
        assert mean_overhead < 5.0


class TestFig13:
    @pytest.fixture(scope="class")
    def cells(self):
        # HWM in {8, 32} at LWM=4, LWM in {2, 16} at HWM=24.
        sweep = ("hwm8", "hwm32", "lwm2", "lwm16")
        return figure_rows(
            "fig13", OPS, lambda u: u.unit_id.split("/")[-1] in sweep
        )

    def test_sssp_ops_decrease_with_hwm(self, cells):
        by_hwm = {
            c["hwm"]: c["memory_ops"]
            for c in cells if c["workload"] == "g500_sssp" and c["lwm"] == 4
        }
        assert by_hwm[32] < by_hwm[8]

    def test_mcf_ops_increase_with_hwm(self, cells):
        by_hwm = {
            c["hwm"]: c["memory_ops"]
            for c in cells if c["workload"] == "605.mcf_s" and c["lwm"] == 4
        }
        assert by_hwm[32] > by_hwm[8] * 0.95

    def test_mcf_benefits_from_higher_lwm(self, cells):
        by_lwm = {
            c["lwm"]: c["memory_ops"]
            for c in cells if c["workload"] == "605.mcf_s" and c["hwm"] == 24
        }
        assert by_lwm[16] <= by_lwm[2] * 1.05


class TestContextSwitch:
    def test_overhead_in_paper_ballpark(self):
        result = overhead.context_switch_overhead(switches=60)
        # Paper reports ~870 cycles on average.
        assert 300 < result.mean_prosper_cycles < 2500
        assert result.switches == 60


class TestEnergy:
    def test_energy_report_positive(self):
        report = overhead.energy_report(target_ops=8_000)
        assert report.reads > 0
        assert report.writes > 0
        assert report.total_nj > 0
        assert report.area_mm2 == pytest.approx(0.000704786)
