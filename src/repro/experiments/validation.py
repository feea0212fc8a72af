"""Seed-robustness validation of the headline paper shapes.

The benchmark suite asserts each figure's shape at one seed; this module
re-checks the load-bearing claims across several seeds so a reproduction
report can state that the orderings are not one-draw luck:

1. Prosper has the lowest normalized time of all mechanisms (Figure 8).
2. Romulus has the highest (Figure 8).
3. SSP-10µs costs at least as much as SSP-1ms (Figure 8).
4. SSP+Prosper beats SSP-everything for full-memory persistence (Figure 9,
   10 µs setting).
5. Sub-page tracking reduces the copy size by >5x on every application
   (Figure 4).
6. Tracking overhead stays under 2 % per workload (Figure 12).
7. mcf's bitmap traffic does not improve with a larger HWM while SSSP's
   does (Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.harness.figures import FIGURES, run_inline


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one shape check at one seed."""

    name: str
    seed: int
    passed: bool
    detail: str


def _figure_rows(
    figure: str,
    seed: int,
    target_ops: int,
    keep: Callable[[dict], bool] = lambda params: True,
) -> list[dict]:
    """Rows of *figure*'s units selected by *keep*, rerun at *seed*."""
    units = [
        replace(unit, params={**unit.params, "seed": seed})
        for unit in FIGURES[figure].enumerate_units(target_ops)
        if keep(unit.params)
    ]
    return run_inline(figure, target_ops, units).raw_rows


def _fig8_checks(seed: int, target_ops: int) -> list[CheckResult]:
    table: dict[str, dict[str, float]] = {}
    for r in _figure_rows("fig8", seed, target_ops):
        table.setdefault(r["workload"], {})[r["mechanism"]] = r["normalized_time"]
    out = []
    for workload, row in table.items():
        best = min(row, key=row.get)
        worst = max(row, key=row.get)
        out.append(
            CheckResult(
                "fig8-prosper-best", seed, best == "prosper",
                f"{workload}: best={best} ({row[best]:.2f})",
            )
        )
        out.append(
            CheckResult(
                "fig8-romulus-worst", seed, worst == "romulus",
                f"{workload}: worst={worst} ({row[worst]:.2f})",
            )
        )
        out.append(
            CheckResult(
                "fig8-ssp-interval-trend", seed,
                row["ssp-10us"] >= row["ssp-1ms"] * 0.98,
                f"{workload}: 10us={row['ssp-10us']:.2f} 1ms={row['ssp-1ms']:.2f}",
            )
        )
    return out


def _fig9_checks(seed: int, target_ops: int) -> list[CheckResult]:
    rows = _figure_rows(
        "fig9", seed, target_ops, lambda p: p["ssp_interval_us"] == 10.0
    )
    table: dict[str, dict[str, float]] = {}
    for r in rows:
        table.setdefault(r["workload"], {})[r["combination"]] = r["normalized_time"]
    return [
        CheckResult(
            "fig9-prosper-combo-best", seed,
            row["ssp+prosper"] <= row["ssp"] * 1.001,
            f"{workload}: ssp+prosper={row['ssp+prosper']:.2f} ssp={row['ssp']:.2f}",
        )
        for workload, row in table.items()
    ]


def _fig4_checks(seed: int, target_ops: int) -> list[CheckResult]:
    return [
        CheckResult(
            "fig4-reduction", seed, r["reduction"] > 5.0,
            f"{r['workload']}: {r['reduction']:.1f}x",
        )
        for r in _figure_rows("fig4", seed, target_ops)
    ]


def _fig12_checks(seed: int, target_ops: int) -> list[CheckResult]:
    rows = _figure_rows("fig12", seed, target_ops, lambda p: p["granularity"] == 8)
    return [
        CheckResult(
            "fig12-overhead-small", seed, r["speedup"] > 0.98,
            f"{r['workload']}: speedup={r['speedup']:.4f}",
        )
        for r in rows
    ]


def _fig13_checks(seed: int, target_ops: int) -> list[CheckResult]:
    rows = _figure_rows("fig13", seed, target_ops, lambda p: p["hwm"] in (8, 32))
    by = {(r["workload"], r["hwm"]): r["memory_ops"] for r in rows}
    return [
        CheckResult(
            "fig13-sssp-hwm-down", seed,
            by[("g500_sssp", 32)] < by[("g500_sssp", 8)],
            f"sssp: hwm8={by[('g500_sssp', 8)]} hwm32={by[('g500_sssp', 32)]}",
        ),
        CheckResult(
            "fig13-mcf-hwm-up", seed,
            by[("605.mcf_s", 32)] > by[("605.mcf_s", 8)] * 0.95,
            f"mcf: hwm8={by[('605.mcf_s', 8)]} hwm32={by[('605.mcf_s', 32)]}",
        ),
    ]


def validate_shapes(
    seeds: tuple[int, ...] = (42, 7, 1234),
    target_ops: int = 30_000,
) -> list[CheckResult]:
    """Run every shape check at every seed; returns the flat result list."""
    out: list[CheckResult] = []
    for seed in seeds:
        out.extend(_fig8_checks(seed, target_ops))
        out.extend(_fig9_checks(seed, target_ops))
        out.extend(_fig4_checks(seed, target_ops))
        out.extend(_fig12_checks(seed, target_ops))
        out.extend(_fig13_checks(seed, target_ops))
    return out


def summarize(results: list[CheckResult]) -> dict[str, tuple[int, int]]:
    """Per check name: (passes, total) across seeds/workloads."""
    summary: dict[str, tuple[int, int]] = {}
    for r in results:
        passes, total = summary.get(r.name, (0, 0))
        summary[r.name] = (passes + (1 if r.passed else 0), total + 1)
    return summary
