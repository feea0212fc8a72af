"""Shared experiment driver.

Time scaling
------------
The paper checkpoints every 10 ms of wall-clock time over minutes-long
benchmark runs; a pure-Python timing model cannot execute billions of
operations.  We therefore scale the clock: each generated trace is defined
to span :data:`TRACE_PAPER_MS` milliseconds of "paper time", and a requested
interval of X paper-ms maps to ``vanilla_cycles * X / TRACE_PAPER_MS``
simulated cycles.  Ratios — normalized execution time, relative checkpoint
size/time, interval-sweep trends — are preserved; absolute cycle counts are
not meaningful and are never reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import SystemConfig, setup_i
from repro.cpu.engine import EngineStats
from repro.cpu.engine_fast import BatchedExecutionEngine
from repro.persistence.base import PersistenceMechanism
from repro.persistence.none import NoPersistence
from repro.workloads.trace import Trace

#: Paper-time duration every generated trace is defined to span.
TRACE_PAPER_MS = 200.0


@dataclass
class RunResult:
    """One (trace, mechanism) run with its baseline for normalization."""

    trace_name: str
    mechanism_name: str
    stats: EngineStats
    vanilla_cycles: int

    @property
    def normalized_time(self) -> float:
        """Total execution time over the vanilla (no persistence) time."""
        return self.stats.total_cycles / self.vanilla_cycles

    @property
    def overhead_fraction(self) -> float:
        return self.normalized_time - 1.0


def make_engine(
    trace: Trace,
    mechanism: PersistenceMechanism | None = None,
    config: SystemConfig | None = None,
    heap_mechanism: PersistenceMechanism | None = None,
    fixed_cost_scale: float = 1.0,
) -> BatchedExecutionEngine:
    """Build an engine matching *trace*'s address-space layout."""
    return BatchedExecutionEngine(
        config=config or setup_i(),
        stack_range=trace.stack_range,
        mechanism=mechanism or NoPersistence(),
        heap_range=trace.heap_range,
        heap_mechanism=heap_mechanism,
        fixed_cost_scale=fixed_cost_scale,
    )


def fixed_cost_scale_for(
    baseline_cycles: int,
    config: SystemConfig | None = None,
    trace_paper_ms: float = TRACE_PAPER_MS,
) -> float:
    """Compression factor of the trace clock relative to real time.

    A trace of ``baseline_cycles`` simulated cycles stands for
    *trace_paper_ms* of real execution (``trace_paper_ms/1000 * freq``
    real cycles); fixed per-wall-clock-event costs are scaled by this
    factor so that their share of an interval matches real hardware.
    """
    config = config or setup_i()
    real_cycles = trace_paper_ms * config.freq_hz / 1e3
    return min(1.0, baseline_cycles / real_cycles)


def vanilla_cycles(trace: Trace, config: SystemConfig | None = None) -> int:
    """Application cycles of *trace* with no persistence and no intervals."""
    engine = make_engine(trace, NoPersistence(), config)
    stats = engine.run(trace)
    return stats.app_cycles


def scaled_interval_cycles(
    baseline_cycles: int, paper_ms: float, trace_paper_ms: float = TRACE_PAPER_MS
) -> int:
    """Simulated cycles corresponding to *paper_ms* under the time scaling."""
    if paper_ms <= 0:
        raise ValueError("paper_ms must be positive")
    return max(1, round(baseline_cycles * paper_ms / trace_paper_ms))


def run_mechanism(
    trace: Trace,
    mechanism: PersistenceMechanism,
    interval_paper_ms: float = 10.0,
    config: SystemConfig | None = None,
    heap_mechanism: PersistenceMechanism | None = None,
    baseline_cycles: int | None = None,
    mechanism_label: str | None = None,
) -> RunResult:
    """Run *trace* under *mechanism* with a scaled checkpoint interval."""
    base = baseline_cycles or vanilla_cycles(trace, config)
    scale = fixed_cost_scale_for(base, config)
    engine = make_engine(
        trace, mechanism, config, heap_mechanism, fixed_cost_scale=scale
    )
    interval = scaled_interval_cycles(base, interval_paper_ms)
    stats = engine.run(trace, interval_cycles=interval)
    label = mechanism_label or getattr(mechanism, "variant_name", mechanism.name)
    return RunResult(trace.name, label, stats, base)
