"""Shared grid and workload helpers for the Setup-I evaluation (Figures 8-11).

The figures themselves — their grids, per-unit computation and tables —
are defined in :mod:`repro.harness.figures`; this module holds what they
share with the benchmark and the tests: the Figure 8 mechanism registry,
the SSP and Figure 10 sweep constants, and the Table III micro-benchmarks.
"""

from __future__ import annotations

from typing import Callable

from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.romulus import RomulusPersistence
from repro.persistence.ssp import SspPersistence
from repro.workloads.callstack import quicksort_workload, recursive_workload
from repro.workloads.synthetic import (
    normal_workload,
    poisson_workload,
    random_workload,
    sparse_workload,
    stream_workload,
)
from repro.workloads.trace import Trace

#: SSP consolidation-thread invocation intervals swept in the paper (µs).
SSP_INTERVALS_US = (10.0, 100.0, 1000.0)

#: Tracking granularities swept in Figure 10 (bytes).
FIG10_GRANULARITIES = (8, 16, 32, 64, 128)

#: Stable keys for the seven Table III micro-benchmarks, in figure order.
MICRO_BENCHMARK_KEYS = (
    "random", "stream", "sparse", "quicksort", "recursive", "normal", "poisson",
)


def micro_benchmark_builders(
    scale: float = 1.0, seed: int = 11
) -> dict[str, Callable[[], Trace]]:
    """Deferred builders for the Table III micro-benchmarks, keyed stably.

    Random uses a small array with several times more writes than words so
    each interval's coverage is dense-but-fragmented — the case where
    page-granularity copying beats sub-page tracking (the paper's "except
    Random and Stream" observation).
    """
    s = scale
    return {
        "random": lambda: random_workload(
            array_bytes=16 * 1024, num_writes=int(100_000 * s), seed=seed
        ),
        "stream": lambda: stream_workload(
            array_bytes=int(128 * 1024 * min(1.0, s)) // 8 * 8, passes=2, seed=seed
        ),
        "sparse": lambda: sparse_workload(pages=48, rounds=int(120 * s), seed=seed),
        "quicksort": lambda: quicksort_workload(elements=int(1500 * s), seed=seed),
        "recursive": lambda: recursive_workload(
            depth=8, descents=int(250 * s), seed=seed
        ),
        "normal": lambda: normal_workload(blocks=int(600 * s), seed=seed),
        "poisson": lambda: poisson_workload(blocks=int(600 * s), seed=seed),
    }


def stack_mechanisms() -> dict[str, Callable[[], object]]:
    """Factories for the Figure 8 mechanism sweep."""
    factories: dict[str, Callable[[], object]] = {
        "romulus": RomulusPersistence,
        "dirtybit": DirtyBitPersistence,
        "prosper": ProsperPersistence,
    }
    for us in SSP_INTERVALS_US:
        label = f"ssp-{us:g}us" if us < 1000 else f"ssp-{us / 1000:g}ms"
        factories[label] = (lambda u=us: SspPersistence(consolidation_interval_us=u))
    return factories
