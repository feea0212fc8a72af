"""Figure decomposition: every figure as a set of independent run units.

Each figure the CLI can regenerate is registered here as a
:class:`FigureSpec` with three parts:

* ``enumerate_units(ops)`` — the figure's independent run units, one per
  ``(trace, mechanism, interval, config)`` combination where the figure
  has that structure (coarser for the single-measurement studies).  Unit
  ids are stable across runs, which is what makes the journal resumable.
* ``execute(params)`` — runs one unit and returns a JSON-serializable
  payload.  Executed inside a supervised worker process (or inline on the
  serial path); it must not depend on any other unit's in-process state.
* ``assemble(ops, payloads, failed)`` — folds completed unit payloads,
  in enumeration order, into the figure's table text and, for
  single-table figures, the raw rows behind it.  Failed units simply drop
  their rows (the supervisor appends the ``DEGRADED`` annotation).

These specs are the only definition of what each figure computes: the
CLI and the supervisor run them unit by unit, and in-process callers (the
report, the shape validation, tests and benchmarks) run them through
:func:`run_inline`.

Baseline deduplication: units obtain their no-persistence baselines via
:func:`repro.harness.cache.vanilla_cycles_cached`, so the same (trace,
config) baseline is computed once per run instead of once per figure.

Chaos hook: the ``REPRO_HARNESS_FAULTS`` environment variable injects
failures into matching units (hang, worker crash, workload error…) so the
timeout/retry/degrade machinery can be exercised end-to-end from the real
CLI — by the tests and by CI.  See :func:`_apply_chaos`.
"""

from __future__ import annotations

import fnmatch
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from repro.analysis.report import format_bytes, render_table
from repro.config import PAGE_BYTES, TrackerConfig, setup_ii
from repro.experiments import ablations, evaluation, extensions, motivation, overhead
from repro.experiments.runner import (
    fixed_cost_scale_for,
    make_engine,
    run_mechanism,
    scaled_interval_cycles,
)
from repro.harness import cache as cache_mod
from repro.harness.cache import vanilla_cycles_cached
from repro.harness.errors import TransientWorkloadError
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.prosper import ProsperPersistence
from repro.workloads.apps import g500_sssp, gapbs_pr, ycsb_mem
from repro.workloads.callstack import quicksort_workload, recursive_workload
from repro.workloads.spec import SPEC_PROFILES, spec_workload
from repro.workloads.synthetic import stream_workload


@dataclass(frozen=True)
class RunUnit:
    """One independent unit of evaluation work."""

    figure: str
    unit_id: str
    params: dict


@dataclass
class FigureOutput:
    """Assembled figure: table text plus raw rows for ``--csv`` export."""

    text: str
    raw_rows: list[dict] | None = None


@dataclass(frozen=True)
class FigureSpec:
    name: str
    enumerate_units: Callable[[int], list[RunUnit]]
    execute: Callable[[dict], dict]
    assemble: Callable[[int, dict[str, dict], list[str]], FigureOutput]


FIGURES: dict[str, FigureSpec] = {}


def register(spec: FigureSpec) -> FigureSpec:
    FIGURES[spec.name] = spec
    return spec


def figure_names() -> list[str]:
    return sorted(FIGURES)


# --------------------------------------------------------------------- #
# Chaos hook (tests / CI)
# --------------------------------------------------------------------- #

CHAOS_ENV = "REPRO_HARNESS_FAULTS"


def _apply_chaos(figure: str, unit_id: str, attempt: int) -> None:
    """Inject failures from ``REPRO_HARNESS_FAULTS``.

    Format: comma-separated ``<pattern>=<action>[:<arg>]`` clauses, where
    *pattern* is an fnmatch glob over ``figure/unit_id`` and *action* is:

    * ``hang[:seconds]`` — sleep (default 3600 s): exercises the timeout;
    * ``crash[:N]`` — ``os._exit(1)`` (a true worker crash); with ``N``,
      only on the first N attempts, so retry-then-succeed is testable;
    * ``raise`` — raise ``RuntimeError`` (a permanent workload error);
    * ``transient[:N]`` — raise :class:`TransientWorkloadError`, with the
      same attempt gating as ``crash``;
    * ``interrupt`` — raise ``KeyboardInterrupt`` (serial ctrl-C path).
    """
    plan = os.environ.get(CHAOS_ENV)
    if not plan:
        return
    target = f"{figure}/{unit_id}"
    for clause in plan.split(","):
        clause = clause.strip()
        if not clause or "=" not in clause:
            continue
        pattern, _, spec = clause.partition("=")
        if not fnmatch.fnmatch(target, pattern):
            continue
        action, _, arg = spec.partition(":")
        if action == "hang":
            time.sleep(float(arg) if arg else 3600.0)
        elif action == "crash":
            if attempt < (int(arg) if arg else 10**9):
                os._exit(1)
        elif action == "raise":
            raise RuntimeError(f"chaos: injected workload error in {target}")
        elif action == "transient":
            if attempt < (int(arg) if arg else 10**9):
                raise TransientWorkloadError(
                    f"chaos: injected transient error in {target} "
                    f"(attempt {attempt})"
                )
        elif action == "interrupt":
            raise KeyboardInterrupt


def execute_unit(
    figure: str, params: dict, attempt: int = 0, unit_id: str = ""
) -> dict:
    """Worker entry point: run one unit of *figure* and return its payload."""
    _apply_chaos(figure, unit_id, attempt)
    spec = FIGURES.get(figure)
    if spec is None:
        raise KeyError(f"unknown figure {figure!r}")
    return spec.execute(params)


def run_inline(
    figure: str, ops: int, units: list[RunUnit] | None = None
) -> FigureOutput:
    """Run *units* of *figure* (default: all of them) in order, in-process.

    A caller that needs a subset or another seed filters the enumerated
    units and replaces ``params["seed"]``.  Units share the active
    :class:`~repro.harness.cache.ResultCache` when there is one (the
    ``report`` unit runs inside the supervisor's); otherwise a fresh
    in-memory cache is active for the call, so each baseline is computed
    once.
    """
    spec = FIGURES[figure]
    if units is None:
        units = spec.enumerate_units(ops)
    owned = cache_mod.active_cache() is None
    if owned:
        cache_mod.activate(cache_mod.ResultCache())
    try:
        payloads = {unit.unit_id: spec.execute(unit.params) for unit in units}
    finally:
        if owned:
            cache_mod.activate(None)
    return spec.assemble(ops, payloads, [])


# --------------------------------------------------------------------- #
# Workload registries (stable names -> builders)
# --------------------------------------------------------------------- #

#: The three application models, in figure order.
APP_WORKLOADS = ("gapbs_pr", "g500_sssp", "ycsb_mem")

_APP_BUILDERS = {"gapbs_pr": gapbs_pr, "g500_sssp": g500_sssp, "ycsb_mem": ycsb_mem}


def _app_trace(name: str, ops: int, seed: int = 42):
    return _APP_BUILDERS[name](ops, seed)


def _overhead_workload_names() -> list[str]:
    return sorted(SPEC_PROFILES) + ["g500_sssp", "gapbs_pr", "stream"]


def _overhead_trace(name: str, ops: int, seed: int = 42):
    if name in SPEC_PROFILES:
        return spec_workload(name, ops, seed=seed)
    if name == "stream":
        return stream_workload(array_bytes=128 * 1024, passes=2, seed=seed)
    return _app_trace(name, ops, seed)


def _rows(payloads: dict[str, dict]) -> list[dict]:
    """Concatenate unit payload rows in enumeration (payload) order."""
    out: list[dict] = []
    for payload in payloads.values():
        out.extend(payload.get("rows", ()))
    return out


# --------------------------------------------------------------------- #
# Figures 1-4 (motivation, Section II)
#
# Fig 1: share of memory ops (and writes) hitting the stack per app.
# Fig 2: stack writes beyond the interval-final SP (paper: Ycsb ~36 %).
# Fig 3: flush/undo/redo +/- SP awareness on stack-only replays, stack in
#        NVM, normalized to no persistence.  Interval boundaries are
#        positional so the SP oracle aligns with the mechanism's intervals.
# Fig 4: checkpoint copy size, page (4 KiB) vs 8-byte dirty tracking.
# --------------------------------------------------------------------- #

def _fig1_units(ops: int) -> list[RunUnit]:
    return [
        RunUnit("fig1", name, {"workload": name, "ops": ops, "seed": 42})
        for name in APP_WORKLOADS
    ]


def _fig1_execute(params: dict) -> dict:
    trace = _app_trace(params["workload"], params["ops"], params["seed"])
    stats = trace.stats
    return {
        "rows": [
            {
                "workload": trace.name,
                "stack_fraction": stats.stack_fraction,
                "stack_write_fraction": stats.stack_write_fraction,
            }
        ]
    }


def _fig1_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    text = render_table(
        "Figure 1: stack share of memory operations",
        ["workload", "stack op fraction", "stack write fraction"],
        [
            [r["workload"], f"{r['stack_fraction']:.3f}", f"{r['stack_write_fraction']:.3f}"]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


def _fig2_units(ops: int) -> list[RunUnit]:
    return [
        RunUnit(
            "fig2",
            name,
            {"workload": name, "ops": ops, "seed": 42, "num_intervals": 100},
        )
        for name in APP_WORKLOADS
    ]


def _fig2_execute(params: dict) -> dict:
    trace = _app_trace(params["workload"], params["ops"], params["seed"])
    per_interval = trace.writes_beyond_final_sp(params["num_intervals"])
    total_writes = sum(w for w, _ in per_interval)
    total_beyond = sum(b for _, b in per_interval)
    return {
        "rows": [
            {
                "workload": trace.name,
                "total_writes": total_writes,
                "total_beyond": total_beyond,
                "beyond_fraction": total_beyond / total_writes if total_writes else 0.0,
            }
        ]
    }


def _fig2_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    text = render_table(
        "Figure 2: stack writes beyond interval-final SP",
        ["workload", "stack writes", "beyond final SP", "fraction"],
        [
            [r["workload"], r["total_writes"], r["total_beyond"], f"{r['beyond_fraction']:.3f}"]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


_FIG3_MECHANISMS = {
    "flush": FlushPersistence,
    "undo": UndoLogPersistence,
    "redo": RedoLogPersistence,
}


def _fig3_units(ops: int) -> list[RunUnit]:
    target = min(ops, 60_000)
    units = []
    for name in APP_WORKLOADS:
        for mech in _FIG3_MECHANISMS:
            for aware in (False, True):
                suffix = "sp" if aware else "nosp"
                units.append(
                    RunUnit(
                        "fig3",
                        f"{name}/{mech}/{suffix}",
                        {
                            "workload": name,
                            "ops": target,
                            "mechanism": mech,
                            "aware": aware,
                            "seed": 42,
                            "num_intervals": 20,
                        },
                    )
                )
    return units


def _fig3_execute(params: dict) -> dict:
    full_trace = _app_trace(params["workload"], params["ops"], params["seed"])
    trace = motivation.stack_only(full_trace)
    base = vanilla_cycles_cached(trace)
    num_intervals = params["num_intervals"]
    interval_ops = max(1, len(trace) // num_intervals)
    finals = trace.final_sp_per_interval(num_intervals)

    def oracle(i: int, _finals=finals) -> int:
        return _finals[min(i, len(_finals) - 1)]

    factory = _FIG3_MECHANISMS[params["mechanism"]]
    mechanism = factory(sp_oracle=oracle if params["aware"] else None)
    engine = make_engine(trace, mechanism)
    stats = engine.run(trace, interval_ops=interval_ops)
    return {
        "rows": [
            {
                "workload": trace.name,
                "mechanism": mechanism.name,
                "sp_aware": params["aware"],
                "normalized_time": stats.total_cycles / base,
            }
        ]
    }


def _fig3_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    text = render_table(
        "Figure 3: flush/undo/redo +/- SP awareness (normalized time)",
        ["workload", "mechanism", "SP aware", "normalized"],
        [
            [r["workload"], r["mechanism"], "yes" if r["sp_aware"] else "no",
             f"{r['normalized_time']:.1f}x"]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


def _fig4_units(ops: int) -> list[RunUnit]:
    return [
        RunUnit(
            "fig4",
            name,
            {"workload": name, "ops": ops, "seed": 42, "num_intervals": 50,
             "fine_granularity": 8},
        )
        for name in APP_WORKLOADS
    ]


def _fig4_execute(params: dict) -> dict:
    trace = _app_trace(params["workload"], params["ops"], params["seed"])
    num_intervals = params["num_intervals"]
    page_sizes = trace.copy_sizes(num_intervals, PAGE_BYTES)
    fine_sizes = trace.copy_sizes(num_intervals, params["fine_granularity"])
    return {
        "rows": [
            {
                "workload": trace.name,
                "page_bytes_per_interval": sum(page_sizes) / len(page_sizes),
                "byte_bytes_per_interval": sum(fine_sizes) / len(fine_sizes),
            }
        ]
    }


def _fig4_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = []
    for r in _rows(payloads):
        byte_mean = r["byte_bytes_per_interval"]
        reduction = (
            r["page_bytes_per_interval"] / byte_mean if byte_mean else float("inf")
        )
        rows.append({**r, "reduction": reduction})
    text = render_table(
        "Figure 4: copy size, page vs 8-byte tracking",
        ["workload", "page", "8-byte", "reduction"],
        [
            [r["workload"], format_bytes(r["page_bytes_per_interval"]),
             format_bytes(r["byte_bytes_per_interval"]), f"{r['reduction']:.1f}x"]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


# --------------------------------------------------------------------- #
# Figures 8-11 (checkpoint performance, Setup-I)
#
# Fig 8:  stack persistence, normalized time under Prosper, Romulus,
#         SSP (three consolidation intervals) and Dirtybit.
# Fig 9:  full memory state: SSP everywhere vs SSP (heap) combined with
#         Dirtybit or Prosper (stack).
# Fig 10: Table III micro-benchmarks under Prosper at five granularities:
#         checkpoint size and time normalized to page-level Dirtybit.
# Fig 11: checkpoint size vs interval (1/5/10 ms), Quicksort and
#         Rec-4/8/16, plus the per-byte checkpoint cost.  Recursive
#         descents are separated by long compute blocks, so short
#         intervals take empty checkpoints that still pay inspection.
# --------------------------------------------------------------------- #

def _fig8_units(ops: int) -> list[RunUnit]:
    labels = list(evaluation.stack_mechanisms())
    return [
        RunUnit(
            "fig8",
            f"{name}/{label}",
            {"workload": name, "ops": ops, "seed": 42, "mechanism": label,
             "interval_paper_ms": 10.0},
        )
        for name in APP_WORKLOADS
        for label in labels
    ]


def _fig8_execute(params: dict) -> dict:
    trace = _app_trace(params["workload"], params["ops"], params["seed"])
    base = vanilla_cycles_cached(trace)
    label = params["mechanism"]
    mechanism = evaluation.stack_mechanisms()[label]()
    result = run_mechanism(
        trace,
        mechanism,
        params["interval_paper_ms"],
        baseline_cycles=base,
        mechanism_label=label,
    )
    return {
        "rows": [
            {
                "workload": result.trace_name,
                "mechanism": label,
                "normalized_time": result.normalized_time,
            }
        ]
    }


def _fig8_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    table: dict[str, dict[str, float]] = defaultdict(dict)
    for r in rows:
        table[r["workload"]][r["mechanism"]] = r["normalized_time"]
    mechanisms = sorted({r["mechanism"] for r in rows})
    text = render_table(
        "Figure 8: stack persistence (normalized time)",
        ["workload"] + mechanisms,
        [
            [w] + [
                f"{table[w][m]:.2f}" if m in table[w] else "-" for m in mechanisms
            ]
            for w in sorted(table)
        ],
    )
    return FigureOutput(text, raw_rows=rows)


def _fig9_units(ops: int) -> list[RunUnit]:
    units = []
    for name in APP_WORKLOADS:
        for us in evaluation.SSP_INTERVALS_US:
            for combo in ("ssp", "ssp+dirtybit", "ssp+prosper"):
                units.append(
                    RunUnit(
                        "fig9",
                        f"{name}/ssp{us:g}us/{combo}",
                        {"workload": name, "ops": ops, "seed": 42,
                         "ssp_interval_us": us, "combo": combo,
                         "interval_paper_ms": 10.0},
                    )
                )
    return units


def _fig9_execute(params: dict) -> dict:
    from repro.persistence.ssp import SspPersistence

    trace = _app_trace(params["workload"], params["ops"], params["seed"])
    base = vanilla_cycles_cached(trace)
    us = params["ssp_interval_us"]
    combo = params["combo"]
    if combo == "ssp":
        stack_mech = SspPersistence(consolidation_interval_us=us)
    elif combo == "ssp+dirtybit":
        stack_mech = DirtyBitPersistence()
    else:
        stack_mech = ProsperPersistence()
    heap_mech = SspPersistence(consolidation_interval_us=us)
    result = run_mechanism(
        trace,
        stack_mech,
        params["interval_paper_ms"],
        heap_mechanism=heap_mech,
        baseline_cycles=base,
        mechanism_label=combo,
    )
    return {
        "rows": [
            {
                "workload": trace.name,
                "combination": combo,
                "ssp_interval_us": us,
                "normalized_time": result.normalized_time,
            }
        ]
    }


def _fig9_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    text = render_table(
        "Figure 9: memory-state persistence (normalized time)",
        ["workload", "ssp interval (us)", "combination", "normalized"],
        [
            [r["workload"], f"{r['ssp_interval_us']:g}", r["combination"],
             f"{r['normalized_time']:.2f}"]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


def _fig10_scale(ops: int) -> float:
    return max(0.2, min(1.0, ops / 100_000))


def _fig10_units(ops: int) -> list[RunUnit]:
    scale = _fig10_scale(ops)
    units = []
    for key in evaluation.MICRO_BENCHMARK_KEYS:
        for granularity in ("page",) + evaluation.FIG10_GRANULARITIES:
            units.append(
                RunUnit(
                    "fig10",
                    f"{key}/{granularity}",
                    {"micro": key, "scale": scale, "seed": 11,
                     "granularity": granularity, "interval_paper_ms": 10.0},
                )
            )
    return units


def _fig10_execute(params: dict) -> dict:
    builders = evaluation.micro_benchmark_builders(params["scale"], params["seed"])
    trace = builders[params["micro"]]()
    base = vanilla_cycles_cached(trace)
    granularity = params["granularity"]
    if granularity == "page":
        mech = DirtyBitPersistence()
    else:
        mech = ProsperPersistence(TrackerConfig().with_granularity(granularity))
    run_mechanism(
        trace, mech, params["interval_paper_ms"], baseline_cycles=base
    )
    cycles = mech.stats.mean_checkpoint_cycles
    if granularity == "page":
        cycles = cycles or 1.0  # the Dirtybit normalization base
    return {
        "rows": [
            {
                "workload": trace.name,
                "granularity": granularity,
                "mean_checkpoint_bytes": mech.stats.mean_checkpoint_bytes,
                "mean_checkpoint_cycles": cycles,
            }
        ]
    }


def _fig10_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    db_cycles: dict[str, float] = {
        r["workload"]: r["mean_checkpoint_cycles"]
        for r in rows
        if r["granularity"] == "page"
    }
    raw_rows: list[dict] = []
    rendered: list[list] = []
    for r in rows:
        base = db_cycles.get(r["workload"])
        if r["granularity"] == "page":
            ratio = 1.0
        elif base:
            ratio = (r["mean_checkpoint_cycles"] or 0.0) / base
        else:
            ratio = None  # Dirtybit baseline unit failed: nothing to normalize to
        raw_rows.append({**r, "checkpoint_time_vs_dirtybit": ratio})
        rendered.append(
            [r["workload"], str(r["granularity"]),
             format_bytes(r["mean_checkpoint_bytes"]),
             f"{ratio:.3f}" if ratio is not None else "n/a"]
        )
    text = render_table(
        "Figure 10: usage patterns x granularity",
        ["workload", "granularity", "mean ckpt size", "time vs dirtybit"],
        rendered,
    )
    return FigureOutput(text, raw_rows=raw_rows)


_FIG11_WORKLOADS = ("quicksort", "rec-4", "rec-8", "rec-16")


def _fig11_trace(key: str, seed: int):
    if key == "quicksort":
        return quicksort_workload(elements=1500, seed=seed)
    depth = int(key.split("-")[1])
    return recursive_workload(depth=depth, descents=250, seed=seed)


def _fig11_units(ops: int) -> list[RunUnit]:
    return [
        RunUnit(
            "fig11",
            f"{key}/{paper_ms:g}ms",
            {"workload": key, "seed": 11, "interval_paper_ms": paper_ms},
        )
        for key in _FIG11_WORKLOADS
        for paper_ms in (1.0, 5.0, 10.0)
    ]


def _fig11_execute(params: dict) -> dict:
    trace = _fig11_trace(params["workload"], params["seed"])
    base = vanilla_cycles_cached(trace)
    mech = ProsperPersistence()
    run_mechanism(
        trace, mech, params["interval_paper_ms"], baseline_cycles=base
    )
    total_bytes = mech.stats.total_checkpoint_bytes
    total_cycles = mech.stats.total_checkpoint_cycles
    return {
        "rows": [
            {
                "workload": trace.name,
                "interval_paper_ms": params["interval_paper_ms"],
                "mean_checkpoint_bytes": mech.stats.mean_checkpoint_bytes,
                "ns_per_byte": (
                    total_cycles / 3.0 / total_bytes if total_bytes else float("inf")
                ),
            }
        ]
    }


def _fig11_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    text = render_table(
        "Figure 11: checkpoint size vs interval",
        ["workload", "interval (ms)", "mean ckpt size", "ns/byte"],
        [
            [r["workload"], f"{r['interval_paper_ms']:g}",
             format_bytes(r["mean_checkpoint_bytes"]), f"{r['ns_per_byte']:.2f}"]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


# --------------------------------------------------------------------- #
# Figures 12-13, context switch, energy (tracking overhead, Setup-II)
#
# Fig 12: user-IPC speedup with Prosper tracking at 8/64/128 B over no
#         tracking (paper: <1 % average overhead, ~3 % worst case).
# Fig 13: tracker-issued bitmap loads/stores as HWM (LWM=4) and LWM
#         (HWM=24) are swept, for mcf and SSSP.
# --------------------------------------------------------------------- #

def _fig12_units(ops: int) -> list[RunUnit]:
    return [
        RunUnit(
            "fig12",
            f"{name}/{granularity}B",
            {"workload": name, "ops": ops, "seed": 42, "granularity": granularity,
             "interval_paper_ms": 10.0},
        )
        for name in _overhead_workload_names()
        for granularity in overhead.FIG12_GRANULARITIES
    ]


def _fig12_execute(params: dict) -> dict:
    config = setup_ii()
    trace = _overhead_trace(params["workload"], params["ops"], params["seed"])
    base = vanilla_cycles_cached(trace, config, "setup_ii")
    mech = ProsperPersistence(
        TrackerConfig().with_granularity(params["granularity"])
    )
    result = run_mechanism(
        trace,
        mech,
        params["interval_paper_ms"],
        config=config,
        baseline_cycles=base,
    )
    base_ipc = result.stats.ops_executed / base
    return {
        "rows": [
            {
                "workload": trace.name,
                "granularity": params["granularity"],
                "speedup": result.stats.user_ipc / base_ipc,
            }
        ]
    }


def _fig12_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = [
        {**r, "overhead_pct": (1.0 - r["speedup"]) * 100.0} for r in _rows(payloads)
    ]
    text = render_table(
        "Figure 12: tracking overhead (user-IPC speedup)",
        ["workload", "granularity", "speedup", "overhead %"],
        [
            [r["workload"], f"{r['granularity']}B", f"{r['speedup']:.4f}",
             f"{r['overhead_pct']:.2f}"]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


_FIG13_WORKLOADS = ("605.mcf_s", "g500_sssp")


def _fig13_units(ops: int) -> list[RunUnit]:
    units = []
    for name in _FIG13_WORKLOADS:
        for hwm in (8, 16, 24, 32):
            units.append(
                RunUnit(
                    "fig13",
                    f"{name}/hwm{hwm}",
                    {"workload": name, "ops": ops, "seed": 42,
                     "hwm": hwm, "lwm": 4},
                )
            )
        for lwm in (2, 4, 8, 16):
            units.append(
                RunUnit(
                    "fig13",
                    f"{name}/lwm{lwm}",
                    {"workload": name, "ops": ops, "seed": 42,
                     "hwm": 24, "lwm": lwm},
                )
            )
    return units


def _fig13_execute(params: dict) -> dict:
    name = params["workload"]
    if name in SPEC_PROFILES:
        trace = spec_workload(name, params["ops"], seed=params["seed"])
    else:
        trace = _app_trace(name, params["ops"], params["seed"])
    cfg = TrackerConfig(
        high_water_mark=params["hwm"], low_water_mark=params["lwm"]
    )
    loads, stores = overhead.replay_tracker(trace, cfg)
    return {
        "rows": [
            {
                "workload": trace.name,
                "hwm": params["hwm"],
                "lwm": params["lwm"],
                "bitmap_loads": loads,
                "bitmap_stores": stores,
            }
        ]
    }


def _fig13_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = [
        {**r, "memory_ops": r["bitmap_loads"] + r["bitmap_stores"]}
        for r in _rows(payloads)
    ]
    text = render_table(
        "Figure 13: HWM/LWM sensitivity (bitmap loads/stores)",
        ["workload", "HWM", "LWM", "loads", "stores"],
        [
            [r["workload"], r["hwm"], r["lwm"], r["bitmap_loads"], r["bitmap_stores"]]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


def _ctx_units(ops: int) -> list[RunUnit]:
    return [RunUnit("ctx-switch", "ctx", {})]


def _ctx_execute(params: dict) -> dict:
    result = overhead.context_switch_overhead()
    return {
        "rows": [
            {"switches": result.switches,
             "mean_prosper_cycles": result.mean_prosper_cycles}
        ]
    }


def _ctx_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    text = render_table(
        "Context-switch overhead (paper: ~870 cycles)",
        ["switches", "mean prosper cycles"],
        [[r["switches"], f"{r['mean_prosper_cycles']:.0f}"] for r in rows],
    )
    return FigureOutput(text, raw_rows=rows)


def _energy_units(ops: int) -> list[RunUnit]:
    return [RunUnit("energy", "energy", {"ops": min(ops, 60_000)})]


def _energy_execute(params: dict) -> dict:
    report = overhead.energy_report(target_ops=params["ops"])
    return {
        "rows": [
            {
                "reads": report.reads,
                "writes": report.writes,
                "dynamic_nj": report.dynamic_nj,
                "leakage_nj": report.leakage_nj,
                "area_mm2": report.area_mm2,
            }
        ]
    }


def _energy_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    text = render_table(
        "Lookup-table energy (CACTI-P 7nm)",
        ["reads", "writes", "dynamic nJ", "leakage nJ", "area mm^2"],
        [
            [r["reads"], r["writes"], f"{r['dynamic_nj']:.4f}",
             f"{r['leakage_nj']:.4f}", r["area_mm2"]]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


# --------------------------------------------------------------------- #
# Ablations, extensions, endurance, report
# --------------------------------------------------------------------- #

def _ablations_units(ops: int) -> list[RunUnit]:
    return [
        RunUnit("ablations", "policy", {"ops": ops}),
        RunUnit("ablations", "bounding", {}),
    ]


def _ablations_execute(params: dict) -> dict:
    if "ops" in params:
        cells = ablations.allocation_policy_ablation(target_ops=params["ops"])
        return {
            "part": "policy",
            "rows": [
                {"workload": c.workload, "policy": c.policy, "memory_ops": c.memory_ops}
                for c in cells
            ],
        }
    cells = ablations.active_region_bounding_ablation()
    return {
        "part": "bounding",
        "rows": [{"workload": c.workload, "speedup": c.speedup} for c in cells],
    }


def _ablations_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    parts = []
    for payload in payloads.values():
        if payload.get("part") == "policy":
            parts.append(render_table(
                "Ablation: allocation policy (bitmap memory ops)",
                ["workload", "policy", "total ops"],
                [[r["workload"], r["policy"], r["memory_ops"]] for r in payload["rows"]],
            ))
        else:
            parts.append(render_table(
                "Ablation: active-region bounding",
                ["workload", "speedup"],
                [[r["workload"], f"{r['speedup']:.2f}x"] for r in payload["rows"]],
            ))
    return FigureOutput("\n\n".join(parts))


def _extensions_units(ops: int) -> list[RunUnit]:
    return [
        RunUnit("extensions", "heap", {"ops": ops}),
        RunUnit("extensions", "adaptive", {}),
    ]


def _extensions_execute(params: dict) -> dict:
    if "ops" in params:
        cells = extensions.prosper_heap_experiment(target_ops=params["ops"])
        return {
            "part": "heap",
            "rows": [
                {"workload": c.workload, "heap_mechanism": c.heap_mechanism,
                 "normalized_time": c.normalized_time}
                for c in cells
            ],
        }
    cells = extensions.adaptive_granularity_experiment()
    return {
        "part": "adaptive",
        "rows": [
            {"workload": c.workload, "mechanism": c.mechanism,
             "normalized_time": c.normalized_time,
             "mean_checkpoint_bytes": c.mean_checkpoint_bytes,
             "final_granularity": c.final_granularity}
            for c in cells
        ],
    }


def _extensions_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    parts = []
    for payload in payloads.values():
        if payload.get("part") == "heap":
            parts.append(render_table(
                "Extension: Prosper on the heap (normalized time)",
                ["workload", "heap mechanism", "normalized"],
                [
                    [r["workload"], r["heap_mechanism"], f"{r['normalized_time']:.2f}"]
                    for r in payload["rows"]
                ],
            ))
        else:
            parts.append(render_table(
                "Extension: adaptive granularity",
                ["workload", "mechanism", "normalized", "mean ckpt", "final granularity"],
                [
                    [r["workload"], r["mechanism"], f"{r['normalized_time']:.3f}",
                     format_bytes(r["mean_checkpoint_bytes"]), r["final_granularity"]]
                    for r in payload["rows"]
                ],
            ))
    return FigureOutput("\n\n".join(parts))


_ENDURANCE_MECHANISMS = ("prosper", "dirtybit", "flush")


def _endurance_units(ops: int) -> list[RunUnit]:
    return [
        RunUnit(
            "endurance",
            label,
            {"mechanism": label, "ops": min(ops, 50_000), "seed": 42},
        )
        for label in _ENDURANCE_MECHANISMS
    ]


def _endurance_execute(params: dict) -> dict:
    from repro.analysis.endurance import endurance_report

    label = params["mechanism"]
    mechanism = {
        "prosper": ProsperPersistence,
        "dirtybit": DirtyBitPersistence,
        "flush": FlushPersistence,
    }[label]()
    trace = gapbs_pr(params["ops"], params["seed"])
    base = vanilla_cycles_cached(trace)
    scale = fixed_cost_scale_for(base)
    interval = scaled_interval_cycles(base, 10.0)
    dirty = sum(trace.copy_sizes(1, 8))
    engine = make_engine(trace, mechanism, fixed_cost_scale=scale)
    engine.run(trace, interval_cycles=interval)
    report = endurance_report(label, engine.hierarchy, dirty, round(base / scale))
    return {
        "rows": [
            {
                "mechanism": label,
                "nvm_write_bytes": report.nvm_write_bytes,
                "write_amplification": report.write_amplification,
            }
        ]
    }


def _endurance_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    rows = _rows(payloads)
    text = render_table(
        "NVM endurance: write traffic by mechanism (gapbs_pr)",
        ["mechanism", "NVM bytes written", "amplification"],
        [
            [r["mechanism"], r["nvm_write_bytes"], f"{r['write_amplification']:.1f}x"]
            for r in rows
        ],
    )
    return FigureOutput(text, raw_rows=rows)


def _report_units(ops: int) -> list[RunUnit]:
    return [RunUnit("report", "report", {"ops": ops})]


def _report_execute(params: dict) -> dict:
    from repro.experiments.report_gen import generate_report

    return {"text": generate_report(ops=params["ops"])}


def _report_assemble(ops: int, payloads: dict, failed: list[str]) -> FigureOutput:
    texts = [p["text"] for p in payloads.values() if "text" in p]
    return FigureOutput("\n".join(texts))


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

for _spec in (
    FigureSpec("fig1", _fig1_units, _fig1_execute, _fig1_assemble),
    FigureSpec("fig2", _fig2_units, _fig2_execute, _fig2_assemble),
    FigureSpec("fig3", _fig3_units, _fig3_execute, _fig3_assemble),
    FigureSpec("fig4", _fig4_units, _fig4_execute, _fig4_assemble),
    FigureSpec("fig8", _fig8_units, _fig8_execute, _fig8_assemble),
    FigureSpec("fig9", _fig9_units, _fig9_execute, _fig9_assemble),
    FigureSpec("fig10", _fig10_units, _fig10_execute, _fig10_assemble),
    FigureSpec("fig11", _fig11_units, _fig11_execute, _fig11_assemble),
    FigureSpec("fig12", _fig12_units, _fig12_execute, _fig12_assemble),
    FigureSpec("fig13", _fig13_units, _fig13_execute, _fig13_assemble),
    FigureSpec("ctx-switch", _ctx_units, _ctx_execute, _ctx_assemble),
    FigureSpec("energy", _energy_units, _energy_execute, _energy_assemble),
    FigureSpec("ablations", _ablations_units, _ablations_execute, _ablations_assemble),
    FigureSpec("extensions", _extensions_units, _extensions_execute, _extensions_assemble),
    FigureSpec("endurance", _endurance_units, _endurance_execute, _endurance_assemble),
    FigureSpec("report", _report_units, _report_execute, _report_assemble),
):
    register(_spec)
