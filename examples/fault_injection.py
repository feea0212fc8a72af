#!/usr/bin/env python3
"""Fault injection: sweep every crash point, then catch a torn write.

Extends examples/crash_recovery.py from two hand-picked crashes to
systematic validation (docs/FAULTS.md):

1. a seeded crash-point sweep runs a deterministic two-thread checkpoint
   workload, crashes at *every* point of the staging/commit protocol —
   metadata write, each per-run staging copy, commit flag, persist
   barrier, bitmap clear — recovers, and checks that the restored state
   (registers and stack bytes) is exactly one whole checkpoint, never a
   blend;
2. a torn-write demo silently corrupts a checkpoint's metadata record,
   crashes mid-commit, and shows the CRC32 check discarding the staged
   data instead of trusting its completeness.

Run:  python examples/fault_injection.py
"""

from repro.faults.fuzzer import (
    SingleCoreTarget,
    run_sweep,
    torn_metadata_demo,
    transient_retry_demo,
)


def main() -> None:
    # --- 1. the sweep: crash everywhere, recover everywhere -------------
    report = run_sweep(
        lambda: SingleCoreTarget(seed=0, threads=2, intervals=3, writes_per_interval=4)
    )
    counts = report.outcome_counts()
    print(
        f"sweep: {len(report.cases)} crashes over {report.points_swept} "
        f"distinct points, {len(report.violations)} invariant violations"
    )
    for outcome in ("rolled_forward", "previous", "fresh_start"):
        print(f"  {outcome:>14}: {counts.get(outcome, 0)} recoveries")
    assert report.ok, report.violations

    # --- 2. transient NVM write errors: retry, recover, account --------
    retry = transient_retry_demo(seed=0)
    print(
        f"\ntransient errors: {retry.checkpoints} checkpoints took "
        f"{retry.retries} NVM write retries (backoff charged to cycles); "
        f"recovery restored checkpoint {retry.resumed_from} exactly"
    )
    assert retry.retries > 0 and retry.state_ok

    # --- 3. a torn metadata record, caught by its checksum --------------
    torn = torn_metadata_demo(seed=0)
    print(
        f"\ntorn metadata: staging was complete but the record's CRC failed "
        f"at recovery; {torn.discarded_staged} staged buffers discarded, "
        f"fell back to committed checkpoint {torn.resumed_from}"
    )
    assert torn.detected and torn.state_ok

    print(
        "\nEvery crash point recovers to one whole checkpoint, and torn "
        "records are detected rather than rolled forward."
    )


if __name__ == "__main__":
    main()
