"""Experiment building blocks shared by the paper figures.

Each figure's grid, per-unit computation and table are defined once, as a
:class:`~repro.harness.figures.FigureSpec` in :mod:`repro.harness.figures`;
the modules here hold what those specs (and the benchmark) share:

* :mod:`repro.experiments.runner` — build engines, scale intervals, run a
  mechanism against its no-persistence baseline.
* :mod:`repro.experiments.motivation` — stack-only replay (Figure 3).
* :mod:`repro.experiments.evaluation` — the Figure 8 mechanism registry,
  SSP/Figure 10 sweep constants and the Table III micro-benchmarks.
* :mod:`repro.experiments.overhead` — the Figure 13 tracker replay, the
  context-switch and the energy/area studies (Setup-II).
* :mod:`repro.experiments.ablations`, :mod:`repro.experiments.extensions`
  — design-choice ablations and beyond-the-paper studies.
* :mod:`repro.experiments.report_gen`, :mod:`repro.experiments.validation`
  — the markdown report and the seed-robustness shape checks, both built
  from figure rows via :func:`repro.harness.figures.run_inline`.
"""

from repro.experiments.runner import (
    RunResult,
    make_engine,
    run_mechanism,
    scaled_interval_cycles,
)
from repro.experiments import ablations, evaluation, extensions, motivation, overhead

__all__ = [
    "RunResult",
    "make_engine",
    "run_mechanism",
    "scaled_interval_cycles",
    "motivation",
    "evaluation",
    "overhead",
    "ablations",
    "extensions",
]
