"""Command-line interface: regenerate paper figures from the shell.

Usage::

    python -m repro list                 # what can be run
    python -m repro fig8                 # one figure's table to stdout
    python -m repro all --ops 50000      # every figure, sequentially
    python -m repro all --jobs 4 --timeout 300   # supervised worker pool
    python -m repro all --manifest run.jsonl     # journal progress
    python -m repro all --manifest run.jsonl --resume   # pick up where killed
    python -m repro fig10 --out results/ # also write the table to a file
    python -m repro faults sweep         # crash-consistency sweep (fault injection)
    python -m repro faults fuzz --budget 256     # crash-schedule fuzzing (persist order)
    python -m repro faults sweep --multicore     # ctx-switch / barrier crash points

Figures are decomposed into independent run units and executed by the
harness (:mod:`repro.harness`): ``--jobs 1`` (the default) runs them
inline in enumeration order, ``--jobs N``
runs them on a supervised worker pool with per-unit timeouts, bounded
retry, and graceful degradation.  See ``docs/HARNESS.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path

from repro.analysis.report import render_table
from repro.harness import (
    FigureOutcome,
    HarnessInterrupted,
    HarnessOptions,
    ManifestMismatch,
    figure_names,
    run_figures,
)

#: Shared exit-code convention for the fault-injection commands
#: (``repro faults sweep`` and ``repro faults fuzz``), documented in
#: docs/FAULTS.md: 0 = all invariants held, 1 = at least one violation,
#: 2 = usage error (bad arguments).
EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
#: POSIX convention: 128 + SIGINT.
EXIT_INTERRUPTED = 130


def _print_sweep_report(report, title: str) -> None:
    """Per-point table, case summary and violations of one crash sweep."""
    print(render_table(
        title,
        ["crash point", "cases", "rolled fwd", "previous", "fresh", "violations"],
        [list(row) for row in report.rows()],
    ))
    print(
        f"\n{len(report.cases)} cases over {report.points_swept} crash points: "
        f"{len(report.violations)} invariant violation(s)"
    )
    for case in report.violations:
        print(
            f"  VIOLATION at {case.spec.point}#{case.spec.occurrence} "
            f"(interval {case.snapshots - 1}): {case.detail}"
        )


def build_faults_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Fault injection: crash-point sweep with verified "
        "recovery, NVM media-error demos.",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sweep = sub.add_parser(
        "sweep",
        help="crash at every enumerated point, recover, verify the invariant",
    )
    sweep.add_argument("--seed", type=int, default=0, help="workload seed")
    sweep.add_argument("--threads", type=int, default=2)
    sweep.add_argument("--intervals", type=int, default=3)
    sweep.add_argument(
        "--writes", type=int, default=4, help="dirty clusters per thread per interval"
    )
    sweep.add_argument(
        "--transient-rate",
        type=float,
        default=0.0,
        help="transient NVM write-failure probability during the sweep",
    )
    sweep.add_argument(
        "--no-demos",
        action="store_true",
        help="skip the transient-retry and torn-metadata demos",
    )
    sweep.add_argument(
        "--multicore",
        action="store_true",
        help="also sweep crash points in context-switch tracker save/restore "
        "and the multicore checkpoint barrier",
    )
    sweep.add_argument(
        "--cores", type=int, default=2, help="cores for the --multicore sweep"
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="seeded crash-schedule fuzzing with a persist-order oracle "
        "and golden-image recovery verification",
    )
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")
    fuzz.add_argument(
        "--budget",
        type=int,
        default=256,
        help="total schedules, split evenly across the mechanism x engine grid",
    )
    fuzz.add_argument(
        "--mechanism",
        action="append",
        choices=["prosper", "dirtybit", "ssp", "flush", "undo", "redo"],
        help="mechanism(s) to fuzz (repeatable; default: prosper, dirtybit)",
    )
    fuzz.add_argument(
        "--engine",
        action="append",
        choices=["scalar", "batched"],
        help="execution engine(s) to fuzz (repeatable; default: both)",
    )
    fuzz.add_argument("--ops", type=int, default=1200, help="trace length")
    fuzz.add_argument(
        "--intervals", type=int, default=4, help="checkpoint intervals per run"
    )
    fuzz.add_argument(
        "--report", type=Path, default=None, help="write the JSON campaign report here"
    )
    fuzz.add_argument(
        "--schedule",
        type=int,
        default=None,
        help="replay only this schedule index per combo (reproducing a report line)",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking failing persist plans",
    )
    fuzz.add_argument(
        "--weaken",
        action="store_true",
        help="enable the TEST-ONLY trust-completeness recovery mutant "
        "(prosper); the campaign should then FAIL — demonstrates detection",
    )
    return parser


def _faults_fuzz_main(args) -> int:
    import json

    from repro.faults.fuzzer import FuzzConfig, run_campaign

    try:
        config = FuzzConfig(
            seed=args.seed,
            budget=args.budget,
            mechanisms=tuple(args.mechanism or ("prosper", "dirtybit")),
            engines=tuple(args.engine or ("scalar", "batched")),
            ops=args.ops,
            intervals=args.intervals,
            weaken=args.weaken,
            shrink=not args.no_shrink,
            only_schedule=args.schedule,
        )
        report = run_campaign(config)
    except ValueError as exc:
        print(f"repro faults fuzz: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def cell(counts: dict, key: str) -> int:
        return counts.get(key, 0)

    print(render_table(
        f"Crash-schedule fuzz campaign (seed {report['seed']}, "
        f"{report['schedules']} schedules, {report['ops']} ops x "
        f"{report['intervals']} intervals)",
        ["mechanism", "engine", "schedules", "rolled fwd", "previous",
         "fresh", "no crash", "violations"],
        [
            [
                combo["mechanism"],
                combo["engine"],
                combo["schedules"],
                cell(combo["classifications"], "rolled_forward"),
                cell(combo["classifications"], "previous"),
                cell(combo["classifications"], "fresh_start"),
                cell(combo["classifications"], "no_crash"),
                cell(combo["classifications"], "violation"),
            ]
            for combo in report["combos"]
        ],
    ))
    print(
        f"\n{report['schedules']} schedules: "
        f"{len(report['violations'])} oracle violation(s)"
    )
    for violation in report["violations"]:
        crash = violation["crash"]
        where = (
            f"cycle {crash['cycle']}"
            if crash["kind"] == "cycle"
            else f"{crash['point']}#{crash['occurrence']}"
        )
        print(
            f"  VIOLATION {violation['mechanism']}/{violation['engine']} "
            f"schedule {violation['index']} at {where}: {violation['detail']}"
        )
        if violation.get("shrunk_plan") is not None:
            print(f"    minimal plan: {violation['shrunk_plan']}")
        print(f"    reproduce: {violation['repro']}")

    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nJSON report written to {args.report}")

    return EXIT_OK if report["ok"] else EXIT_VIOLATIONS


def _faults_main(argv: list[str]) -> int:
    from repro.faults.fuzzer import (
        MulticoreTarget,
        SingleCoreTarget,
        run_sweep,
        torn_metadata_demo,
        transient_retry_demo,
    )

    args = build_faults_parser().parse_args(argv)
    if args.action == "fuzz":
        return _faults_fuzz_main(args)
    common = dict(
        seed=args.seed,
        intervals=args.intervals,
        writes_per_interval=args.writes,
        transient_rate=args.transient_rate,
    )
    sweeps = [(
        f"Crash-consistency sweep (seed {args.seed}, "
        f"{args.threads} threads, {args.intervals} intervals)",
        partial(SingleCoreTarget, threads=args.threads, **common),
    )]
    if args.multicore:
        sweeps.append((
            f"Multicore crash sweep (seed {args.seed}, "
            f"{args.cores} cores, {args.intervals} intervals)",
            partial(MulticoreTarget, cores=args.cores, **common),
        ))
    try:
        # Build each target once, so bad arguments fail before any sweep.
        for _title, make_target in sweeps:
            make_target()
    except ValueError as exc:
        print(f"repro faults sweep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    failed = False
    for index, (title, make_target) in enumerate(sweeps):
        report = run_sweep(make_target)
        if index:
            print()
        _print_sweep_report(report, title)
        failed = failed or not report.ok

    if not args.no_demos:
        retry = transient_retry_demo(seed=args.seed, threads=args.threads)
        print(render_table(
            "Transient NVM write errors: retry with backoff, then recover",
            ["checkpoints", "write retries", "resumed from", "state verified"],
            [[retry.checkpoints, retry.retries, retry.resumed_from,
              "yes" if retry.state_ok else "NO"]],
        ))
        torn = torn_metadata_demo(seed=args.seed, threads=args.threads)
        print(render_table(
            "Torn metadata record: CRC detection, fall back to previous",
            ["resumed from", "staged discarded", "tear detected", "state verified"],
            [[torn.resumed_from, torn.discarded_staged,
              "yes" if torn.detected else "NO",
              "yes" if torn.state_ok else "NO"]],
        ))
        failed = failed or not retry.state_ok or not torn.state_ok or not torn.detected
    return EXIT_VIOLATIONS if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Prosper: Program Stack "
        "Persistence in Hybrid Memory Systems' (HPCA 2024).  "
        "Fault injection lives under the 'faults' subcommand "
        "(repro faults sweep --help).",
    )
    parser.add_argument(
        "command",
        choices=figure_names() + ["all", "list"],
        help="figure to regenerate, 'all', or 'list'",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=60_000,
        help="approximate trace length per workload (default 60000)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to also write each table into (one .txt per figure)",
    )
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        help="directory to write raw result rows as CSV (tabular figures only)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; 1 (default) runs units inline, in order",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock budget; exceeded units are killed and "
        "retried (requires --jobs >= 2)",
    )
    parser.add_argument(
        "--manifest",
        type=Path,
        default=None,
        metavar="FILE",
        help="journal per-unit progress to this JSONL manifest",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay units already journaled ok in --manifest instead of "
        "re-running them",
    )
    parser.add_argument(
        "--engine",
        choices=["batched", "scalar"],
        default=None,
        help="execution engine: the vectorized fast path (default) or the "
        "scalar reference; both produce identical results "
        "(see docs/PERFORMANCE.md)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "faults":
        try:
            return _faults_main(argv[1:])
        except KeyboardInterrupt:
            print("repro faults: interrupted", file=sys.stderr)
            return EXIT_INTERRUPTED
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in figure_names():
            print(name)
        print("faults (subcommands: sweep, fuzz)")
        return 0
    if args.resume and args.manifest is None:
        print("repro: error: --resume requires --manifest", file=sys.stderr)
        return 2
    if args.engine is not None:
        # Through the environment so harness worker processes inherit it.
        os.environ["REPRO_ENGINE"] = args.engine

    names = figure_names() if args.command == "all" else [args.command]
    opts = HarnessOptions(
        ops=args.ops,
        jobs=args.jobs,
        timeout_s=args.timeout,
        manifest_path=args.manifest,
        resume=args.resume,
        progress=lambda msg: print(f"# {msg}", file=sys.stderr),
    )

    delivered: list[FigureOutcome] = []

    def deliver(outcome: FigureOutcome) -> None:
        delivered.append(outcome)
        print(outcome.text)
        print()
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{outcome.name}.txt").write_text(outcome.text + "\n")
        if args.csv is not None and outcome.raw_rows:
            from repro.analysis.export import export_experiment

            export_experiment(outcome.name, outcome.raw_rows, args.csv)

    try:
        run_figures(names, opts, on_figure=deliver)
    except ManifestMismatch as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except HarnessInterrupted:
        # Completed (and partially completed) figures were already flushed
        # through ``deliver`` — stdout, --out and --csv artifacts included.
        print(
            f"repro: interrupted; flushed {len(delivered)}/{len(names)} "
            "figure(s)",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED

    failed = [oc for oc in delivered if oc.failures]
    if failed:
        for outcome in failed:
            print(
                f"repro: {outcome.name}: "
                f"{len(outcome.failures)}/{outcome.units_total} runs failed",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
