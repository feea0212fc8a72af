"""Experiment supervisor: figures -> run units -> supervised execution.

This is the orchestration layer between the CLI and the run units
declared in :mod:`repro.harness.figures`:

* decompose the requested figures into their units;
* replay units already journaled ``ok`` when resuming (``--resume``);
* execute the rest — inline, in enumeration order, for ``--jobs 1``
  (the serial reference output), or on the supervised
  :class:`~repro.harness.pool.WorkerPool` for ``--jobs N``;
* journal every terminal unit outcome to the run manifest;
* assemble each figure's table as soon as all of its units are
  accounted for, and hand finished figures to the caller **in figure
  order** regardless of unit completion order.

Failure handling is graceful degradation: a figure whose units partially
failed still renders its completed rows, followed by a
``DEGRADED (k/n runs failed: ...)`` annotation.  A ``KeyboardInterrupt``
surfaces as :class:`HarnessInterrupted` carrying partially assembled
figures (annotated ``INTERRUPTED``) so the CLI can flush partial
artifacts before exiting.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.harness import cache as cache_mod
from repro.harness.errors import (
    PERMANENT,
    WORKLOAD_ERROR,
    UnitFailure,
    backoff_delay,
    should_retry,
)
from repro.harness.figures import FIGURES, RunUnit, execute_unit
from repro.harness.journal import RunJournal, UnitRecord, load_manifest
from repro.harness.pool import UnitOutcome, WorkerPool


@dataclass
class HarnessOptions:
    """Execution knobs shared by the CLI flags and the test harness."""

    ops: int = 60_000
    jobs: int = 1
    timeout_s: float | None = None
    max_retries: int = 2
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 8.0
    manifest_path: Path | None = None
    resume: bool = False
    cache_dir: str | None = None
    progress: Callable[[str], None] = lambda _msg: None


@dataclass
class FigureOutcome:
    """One fully accounted figure: its text plus failure bookkeeping."""

    name: str
    text: str
    raw_rows: list | None
    failures: list[UnitFailure] = field(default_factory=list)
    units_total: int = 0
    units_completed: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and self.units_completed == self.units_total


class HarnessInterrupted(Exception):
    """Raised on ctrl-C; carries partially assembled figures."""

    def __init__(self, partial: list[FigureOutcome]) -> None:
        super().__init__("interrupted")
        self.partial = partial


def run_figures(
    names: list[str],
    opts: HarnessOptions,
    on_figure: Callable[[FigureOutcome], None] | None = None,
) -> list[FigureOutcome]:
    """Run *names* under *opts*; figures are delivered in list order.

    ``on_figure`` (when given) is invoked once per figure as soon as the
    figure is complete *and* every figure before it in *names* has been
    delivered, so streaming output matches the serial ordering exactly.
    """
    for name in names:
        if name not in FIGURES:
            raise KeyError(f"unknown figure {name!r}")
    units_by_figure: dict[str, list[RunUnit]] = {
        name: FIGURES[name].enumerate_units(opts.ops) for name in names
    }

    journal, replayed = _open_journal(names, opts)
    results: dict[tuple[str, str], UnitOutcome] = dict(replayed)
    to_run = [
        unit
        for name in names
        for unit in units_by_figure[name]
        if (name, unit.unit_id) not in results
    ]

    outcomes: list[FigureOutcome] = []
    emitted = 0  # figures delivered so far (prefix of *names*)

    def emit_ready(interrupted: bool = False) -> None:
        nonlocal emitted
        while emitted < len(names):
            name = names[emitted]
            units = units_by_figure[name]
            done = sum(1 for u in units if (name, u.unit_id) in results)
            if done < len(units) and not interrupted:
                return
            if interrupted and done == 0:
                return  # nothing of this figure ran; nothing to flush
            outcome = _assemble_figure(
                name, units, results, opts.ops, interrupted=interrupted
            )
            outcomes.append(outcome)
            emitted += 1
            if on_figure is not None:
                on_figure(outcome)

    def record(outcome: UnitOutcome) -> None:
        results[(outcome.figure, outcome.unit_id)] = outcome
        if journal is not None:
            journal.record_unit(
                UnitRecord(
                    figure=outcome.figure,
                    unit_id=outcome.unit_id,
                    status="ok" if outcome.ok else "failed",
                    attempts=outcome.attempts,
                    elapsed_s=outcome.elapsed_s,
                    payload=outcome.payload,
                    failure=outcome.failure.to_json() if outcome.failure else None,
                )
            )
        emit_ready()

    temp_cache = None
    try:
        cache_dir = opts.cache_dir
        if cache_dir is None and opts.manifest_path is not None:
            cache_dir = str(opts.manifest_path) + ".cache"
        if cache_dir is None and opts.jobs > 1:
            temp_cache = tempfile.TemporaryDirectory(prefix="repro-harness-cache-")
            cache_dir = temp_cache.name
        cache_mod.activate(cache_mod.ResultCache(cache_dir))

        try:
            if opts.jobs == 1:
                for unit in to_run:
                    record(_run_unit_inline(unit, opts))
            else:
                pool = WorkerPool(
                    jobs=opts.jobs,
                    timeout_s=opts.timeout_s,
                    max_retries=opts.max_retries,
                    backoff_base_s=opts.backoff_base_s,
                    backoff_cap_s=opts.backoff_cap_s,
                    cache_dir=cache_dir,
                    on_outcome=record,
                    progress=opts.progress,
                )
                pool.run(to_run)
            emit_ready()  # everything replayed, nothing to run
        except KeyboardInterrupt:
            emit_ready(interrupted=True)
            raise HarnessInterrupted(outcomes) from None
    finally:
        cache_mod.activate(None)
        if journal is not None:
            journal.close()
        if temp_cache is not None:
            temp_cache.cleanup()
    return outcomes


# --------------------------------------------------------------------- #


def _open_journal(
    names: list[str], opts: HarnessOptions
) -> tuple[RunJournal | None, dict[tuple[str, str], UnitOutcome]]:
    """Open the manifest journal and collect replayable unit outcomes."""
    if opts.manifest_path is None:
        return None, {}
    path = Path(opts.manifest_path)
    replayed: dict[tuple[str, str], UnitOutcome] = {}
    had_meta = False
    if opts.resume:
        state = load_manifest(path)
        if state.meta is not None:
            RunJournal.check_meta(state, opts.ops, names)
            had_meta = True
            # Units journaled ok replay from their stored payloads;
            # failed and missing units re-execute.
            for (figure, unit_id), rec in state.completed().items():
                replayed[(figure, unit_id)] = UnitOutcome(
                    figure=figure,
                    unit_id=unit_id,
                    payload=rec.payload,
                    failure=None,
                    attempts=rec.attempts,
                    elapsed_s=rec.elapsed_s,
                )
    else:
        path.unlink(missing_ok=True)
    journal = RunJournal(path)
    if not had_meta:
        journal.write_meta(opts.ops, names)
    return journal, replayed


def _run_unit_inline(unit: RunUnit, opts: HarnessOptions) -> UnitOutcome:
    """The serial (``--jobs 1``) path: run a unit in-process with retries.

    Wall-clock timeouts require a supervising process and so apply only
    to ``--jobs >= 2``; the inline path runs units in enumeration order
    while still classifying and retrying workload errors.
    """
    started = time.monotonic()
    attempt = 0
    while True:
        try:
            payload = execute_unit(
                unit.figure, unit.params, attempt=attempt, unit_id=unit.unit_id
            )
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            exc_type = type(exc).__name__
            if should_retry(WORKLOAD_ERROR, exc_type, attempt, opts.max_retries):
                delay = backoff_delay(
                    attempt, opts.backoff_base_s, opts.backoff_cap_s
                )
                opts.progress(
                    f"{unit.figure}/{unit.unit_id} {exc_type}: {exc} — "
                    f"retry {attempt + 1}/{opts.max_retries} in {delay:.1f}s"
                )
                time.sleep(delay)
                attempt += 1
                continue
            failure = UnitFailure(
                figure=unit.figure,
                unit_id=unit.unit_id,
                kind=WORKLOAD_ERROR,
                severity=PERMANENT,
                detail=f"{exc_type}: {exc}",
                attempts=attempt + 1,
            )
            return UnitOutcome(
                figure=unit.figure,
                unit_id=unit.unit_id,
                payload=None,
                failure=failure,
                attempts=attempt + 1,
                elapsed_s=time.monotonic() - started,
            )
        return UnitOutcome(
            figure=unit.figure,
            unit_id=unit.unit_id,
            payload=payload,
            failure=None,
            attempts=attempt + 1,
            elapsed_s=time.monotonic() - started,
        )


def _assemble_figure(
    name: str,
    units: list[RunUnit],
    results: dict[tuple[str, str], UnitOutcome],
    ops: int,
    interrupted: bool = False,
) -> FigureOutcome:
    """Fold unit payloads (in enumeration order) into the figure's text."""
    payloads: dict[str, dict] = {}
    failures: list[UnitFailure] = []
    for unit in units:
        outcome = results.get((name, unit.unit_id))
        if outcome is None:
            continue  # interrupted before this unit ran
        if outcome.ok:
            payloads[unit.unit_id] = outcome.payload or {}
        elif outcome.failure is not None:
            failures.append(outcome.failure)
    output = FIGURES[name].assemble(
        ops, payloads, [f.reason for f in failures]
    )
    text = output.text
    if failures:
        reasons = "; ".join(f.reason for f in failures)
        text += (
            f"\nDEGRADED ({len(failures)}/{len(units)} runs failed: {reasons})"
        )
    accounted = len(payloads) + len(failures)
    if interrupted and accounted < len(units):
        text += f"\nINTERRUPTED ({accounted}/{len(units)} runs completed)"
    return FigureOutcome(
        name=name,
        text=text,
        raw_rows=output.raw_rows,
        failures=failures,
        units_total=len(units),
        units_completed=len(payloads),
    )
