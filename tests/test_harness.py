"""Tests for the supervised experiment harness.

Covers the run-unit decomposition, the error taxonomy, the journal and
resume path, the shared result cache, and the worker pool's failure
modes: hangs (timeout + requeue), worker crashes (retry then harden),
deterministic workload errors (fail fast as Permanent), and
kill-then-resume byte-identical reassembly.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness import cache as cache_mod
from repro.harness.errors import (
    PERMANENT,
    TIMEOUT,
    TRANSIENT,
    WORKER_CRASH,
    WORKLOAD_ERROR,
    backoff_delay,
    classify_event,
    should_retry,
)
from repro.harness.figures import (
    FIGURES,
    FigureOutput,
    FigureSpec,
    RunUnit,
    figure_names,
    register,
    run_inline,
)
from repro.harness.journal import (
    ManifestMismatch,
    RunJournal,
    UnitRecord,
    load_manifest,
)
from repro.harness.pool import WorkerPool
from repro.harness.supervisor import (
    HarnessInterrupted,
    HarnessOptions,
    run_figures,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI_ENV = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}


# --------------------------------------------------------------------- #
# Error taxonomy
# --------------------------------------------------------------------- #


class TestErrorTaxonomy:
    def test_timeouts_and_crashes_are_transient_events(self):
        assert classify_event(TIMEOUT, None) == TRANSIENT
        assert classify_event(WORKER_CRASH, None) == TRANSIENT

    def test_workload_errors_are_permanent_unless_listed(self):
        assert classify_event(WORKLOAD_ERROR, "RuntimeError") == PERMANENT
        assert classify_event(WORKLOAD_ERROR, "ValueError") == PERMANENT
        assert classify_event(WORKLOAD_ERROR, "MemoryError") == TRANSIENT
        assert classify_event(WORKLOAD_ERROR, "TransientWorkloadError") == TRANSIENT

    def test_retry_budget(self):
        assert should_retry(TIMEOUT, None, attempt=0, max_retries=2)
        assert should_retry(TIMEOUT, None, attempt=1, max_retries=2)
        assert not should_retry(TIMEOUT, None, attempt=2, max_retries=2)
        assert not should_retry(WORKLOAD_ERROR, "RuntimeError", 0, 2)

    def test_backoff_is_exponential_and_capped(self):
        assert backoff_delay(0, 0.5, 8.0) == 0.5
        assert backoff_delay(1, 0.5, 8.0) == 1.0
        assert backoff_delay(10, 0.5, 8.0) == 8.0


# --------------------------------------------------------------------- #
# Figure decomposition
# --------------------------------------------------------------------- #


class TestFigureRegistry:
    def test_every_cli_figure_is_registered(self):
        assert figure_names() == sorted(
            [
                "fig1", "fig2", "fig3", "fig4", "fig8", "fig9", "fig10",
                "fig11", "fig12", "fig13", "ctx-switch", "energy",
                "ablations", "extensions", "endurance", "report",
            ]
        )

    def test_unit_ids_are_stable_and_unique(self):
        for name, spec in FIGURES.items():
            units = spec.enumerate_units(2000)
            ids = [u.unit_id for u in units]
            assert len(ids) == len(set(ids)), f"{name}: duplicate unit ids"
            again = [u.unit_id for u in spec.enumerate_units(2000)]
            assert ids == again, f"{name}: unstable enumeration"

    def test_unit_params_are_json_serializable(self):
        for spec in FIGURES.values():
            for unit in spec.enumerate_units(2000):
                assert json.loads(json.dumps(unit.params)) == unit.params

    def test_fig8_decomposes_per_trace_and_mechanism(self):
        units = FIGURES["fig8"].enumerate_units(2000)
        assert len(units) == 3 * 6  # 3 apps x 6 mechanisms


# --------------------------------------------------------------------- #
# Journal
# --------------------------------------------------------------------- #


class TestJournal:
    def test_roundtrip_and_supersede(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.write_meta(2000, ["fig1"])
        journal.record_unit(
            UnitRecord("fig1", "u0", "failed", 3, 1.0, None, {"kind": TIMEOUT})
        )
        journal.record_unit(
            UnitRecord("fig1", "u0", "ok", 1, 0.5, {"rows": [{"x": 1}]})
        )
        journal.close()
        state = load_manifest(path)
        assert state.meta["ops"] == 2000
        assert state.records[("fig1", "u0")].ok  # later record wins
        assert state.completed()[("fig1", "u0")].payload == {"rows": [{"x": 1}]}

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.write_meta(2000, ["fig1"])
        journal.record_unit(UnitRecord("fig1", "u0", "ok", 1, 0.5, {"rows": []}))
        journal.close()
        with open(path, "a") as handle:
            handle.write('{"type": "unit", "figure": "fig1", "unit_id": "u1"')
        state = load_manifest(path)
        assert ("fig1", "u0") in state.records
        assert ("fig1", "u1") not in state.records

    def test_meta_mismatch_refuses_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.write_meta(2000, ["fig1"])
        journal.close()
        state = load_manifest(path)
        with pytest.raises(ManifestMismatch):
            RunJournal.check_meta(state, 4000, ["fig1"])
        with pytest.raises(ManifestMismatch):
            RunJournal.check_meta(state, 2000, ["fig1", "fig2"])
        RunJournal.check_meta(state, 2000, ["fig1"])  # exact match is fine


# --------------------------------------------------------------------- #
# Result cache
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_vanilla_cycles_deduplicated(self):
        from repro.experiments.runner import vanilla_cycles
        from repro.workloads.apps import gapbs_pr

        trace = gapbs_pr(2000, 42)
        cache = cache_mod.ResultCache()
        cache_mod.activate(cache)
        try:
            first = cache_mod.vanilla_cycles_cached(trace)
            second = cache_mod.vanilla_cycles_cached(trace)
        finally:
            cache_mod.activate(None)
        assert first == second == vanilla_cycles(trace)
        assert cache.hits == 1 and cache.misses == 1

    def test_directory_layer_shared_between_instances(self, tmp_path):
        a = cache_mod.ResultCache(tmp_path)
        a.put("k", 123)
        b = cache_mod.ResultCache(tmp_path)
        assert b.get("k") == 123

    def test_fingerprint_distinguishes_traces(self):
        from repro.workloads.apps import g500_sssp, gapbs_pr

        f1 = cache_mod.trace_fingerprint(gapbs_pr(2000, 42))
        f2 = cache_mod.trace_fingerprint(g500_sssp(2000, 42))
        f3 = cache_mod.trace_fingerprint(gapbs_pr(2000, 7))
        assert len({f1, f2, f3}) == 3


def _gapbs_fig8_units() -> list[RunUnit]:
    return [
        u for u in FIGURES["fig8"].enumerate_units(2000)
        if u.params["workload"] == "gapbs_pr"
    ]


class TestRunInline:
    def test_reuses_active_cache(self):
        cache = cache_mod.ResultCache()
        cache_mod.activate(cache)
        try:
            first = run_inline("fig8", 2000, _gapbs_fig8_units())
            assert cache_mod.active_cache() is cache
            # One baseline for six mechanisms.
            assert (cache.hits, cache.misses) == (5, 1)
            second = run_inline("fig8", 2000, _gapbs_fig8_units())
            assert cache_mod.active_cache() is cache
            assert (cache.hits, cache.misses) == (11, 1)
        finally:
            cache_mod.activate(None)
        assert first.raw_rows == second.raw_rows

    def test_fresh_cache_when_none_active(self, monkeypatch):
        calls = []
        real = cache_mod.vanilla_cycles
        monkeypatch.setattr(
            cache_mod, "vanilla_cycles", lambda *a: calls.append(a) or real(*a)
        )
        assert cache_mod.active_cache() is None
        out = run_inline("fig8", 2000, _gapbs_fig8_units())
        assert cache_mod.active_cache() is None
        assert len(calls) == 1
        assert [r["mechanism"] for r in out.raw_rows] == [
            u.params["mechanism"] for u in _gapbs_fig8_units()
        ]

    def test_cache_released_when_a_unit_raises(self):
        bad = RunUnit("fig1", "bad", {"workload": "nope", "ops": 10, "seed": 1})
        with pytest.raises(KeyError):
            run_inline("fig1", 10, [bad])
        assert cache_mod.active_cache() is None

    def test_matches_supervised_run(self):
        supervised = run_figures(["fig2"], HarnessOptions(ops=2000))[0]
        inline = run_inline("fig2", 2000)
        assert inline.text == supervised.text
        assert inline.raw_rows == supervised.raw_rows


# --------------------------------------------------------------------- #
# Worker-pool failure modes (chaos-injected)
# --------------------------------------------------------------------- #

TEST_FIGURE = "harness-test-fig"


def _test_units(ops: int) -> list[RunUnit]:
    return [RunUnit(TEST_FIGURE, f"u{i}", {"i": i}) for i in range(3)]


def _test_execute(params: dict) -> dict:
    return {"rows": [{"i": params["i"], "square": params["i"] ** 2}]}


def _test_assemble(ops, payloads, failed) -> FigureOutput:
    rows = [row for payload in payloads.values() for row in payload["rows"]]
    return FigureOutput("\n".join(f"{r['i']}:{r['square']}" for r in rows))


@pytest.fixture
def test_figure():
    """Register a tiny figure; forked workers inherit the registration."""
    spec = FigureSpec(TEST_FIGURE, _test_units, _test_execute, _test_assemble)
    register(spec)
    yield spec
    FIGURES.pop(TEST_FIGURE, None)


def _pool(**kwargs) -> WorkerPool:
    defaults = dict(
        jobs=2, timeout_s=None, max_retries=1, backoff_base_s=0.05, backoff_cap_s=0.1
    )
    defaults.update(kwargs)
    return WorkerPool(**defaults)


class TestWorkerPoolFailureModes:
    def test_all_units_succeed(self, test_figure):
        outcomes = _pool().run(_test_units(0))
        assert all(oc.ok for oc in outcomes)
        assert {oc.unit_id for oc in outcomes} == {"u0", "u1", "u2"}

    def test_hanging_unit_times_out_and_is_retried(self, test_figure, monkeypatch):
        monkeypatch.setenv(
            "REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u1=hang:30"
        )
        start = time.monotonic()
        outcomes = _pool(timeout_s=0.8).run(_test_units(0))
        elapsed = time.monotonic() - start
        by_id = {oc.unit_id: oc for oc in outcomes}
        assert by_id["u0"].ok and by_id["u2"].ok
        failed = by_id["u1"]
        assert not failed.ok
        assert failed.failure.kind == TIMEOUT
        assert failed.failure.severity == PERMANENT  # hardened after retries
        assert failed.attempts == 2  # initial attempt + one retry
        assert elapsed < 30  # the hang was killed, not waited out

    def test_crashing_worker_is_retried_then_succeeds(self, test_figure, monkeypatch):
        # crash:1 -> os._exit(1) on attempt 0 only; the retry succeeds.
        monkeypatch.setenv(
            "REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u2=crash:1"
        )
        outcomes = _pool().run(_test_units(0))
        by_id = {oc.unit_id: oc for oc in outcomes}
        assert by_id["u2"].ok
        assert by_id["u2"].attempts == 2

    def test_always_crashing_worker_hardens_to_permanent(
        self, test_figure, monkeypatch
    ):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u0=crash")
        outcomes = _pool(max_retries=2).run(_test_units(0))
        failed = next(oc for oc in outcomes if oc.unit_id == "u0")
        assert failed.failure.kind == WORKER_CRASH
        assert failed.failure.severity == PERMANENT
        assert failed.attempts == 3

    def test_raising_worker_fails_fast_as_permanent(self, test_figure, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u1=raise")
        outcomes = _pool().run(_test_units(0))
        failed = next(oc for oc in outcomes if oc.unit_id == "u1")
        assert not failed.ok
        assert failed.failure.kind == WORKLOAD_ERROR
        assert failed.failure.severity == PERMANENT
        assert failed.attempts == 1  # deterministic errors are not retried
        assert "RuntimeError" in failed.failure.detail

    def test_transient_workload_error_is_retried(self, test_figure, monkeypatch):
        monkeypatch.setenv(
            "REPRO_HARNESS_FAULTS", f"{TEST_FIGURE}/u0=transient:1"
        )
        outcomes = _pool().run(_test_units(0))
        by_id = {oc.unit_id: oc for oc in outcomes}
        assert by_id["u0"].ok
        assert by_id["u0"].attempts == 2


# --------------------------------------------------------------------- #
# Supervisor: degradation, interrupts, resume
# --------------------------------------------------------------------- #


class TestSupervisor:
    def test_serial_and_parallel_fig1_identical(self):
        serial = run_figures(["fig1"], HarnessOptions(ops=2000, jobs=1))
        parallel = run_figures(["fig1"], HarnessOptions(ops=2000, jobs=2))
        assert serial[0].text == parallel[0].text

    def test_failed_unit_degrades_figure(self, monkeypatch):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig1/gapbs_pr=raise")
        (outcome,) = run_figures(["fig1"], HarnessOptions(ops=2000))
        assert not outcome.ok
        assert "DEGRADED (1/3 runs failed" in outcome.text
        assert "gapbs_pr" in outcome.text  # named in the failure reason
        assert "ycsb_mem" in outcome.text  # surviving rows still rendered

    def test_interrupt_flushes_partial_figures(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig4/ycsb_mem=interrupt")
        with pytest.raises(HarnessInterrupted) as excinfo:
            run_figures(["fig1", "fig4"], HarnessOptions(ops=2000))
        partial = excinfo.value.partial
        assert partial[0].name == "fig1" and partial[0].ok
        assert partial[1].name == "fig4"
        assert "INTERRUPTED (2/3 runs completed)" in partial[1].text

    def test_interrupted_run_resumes_byte_identical(self, monkeypatch, tmp_path):
        manifest = tmp_path / "run.jsonl"
        fresh = run_figures(["fig1", "fig4"], HarnessOptions(ops=2000))
        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig4/g500_sssp=interrupt")
        with pytest.raises(HarnessInterrupted):
            run_figures(
                ["fig1", "fig4"],
                HarnessOptions(ops=2000, manifest_path=manifest),
            )
        monkeypatch.delenv("REPRO_HARNESS_FAULTS")
        resumed = run_figures(
            ["fig1", "fig4"],
            HarnessOptions(ops=2000, manifest_path=manifest, resume=True),
        )
        assert [oc.text for oc in resumed] == [oc.text for oc in fresh]
        # The journal shows fig1 was replayed, not re-run: all its units
        # were recorded before the interrupt and none after.
        records = [
            json.loads(line)
            for line in manifest.read_text().splitlines()
            if '"unit"' in line
        ]
        fig1_records = [r for r in records if r["figure"] == "fig1"]
        assert len(fig1_records) == 3

    def test_resume_refuses_ops_mismatch(self, tmp_path):
        manifest = tmp_path / "run.jsonl"
        run_figures(["fig1"], HarnessOptions(ops=2000, manifest_path=manifest))
        with pytest.raises(ManifestMismatch):
            run_figures(
                ["fig1"],
                HarnessOptions(ops=4000, manifest_path=manifest, resume=True),
            )


# --------------------------------------------------------------------- #
# CLI integration (exit codes, kill -9 + --resume)
# --------------------------------------------------------------------- #


class TestCliIntegration:
    def test_degraded_run_exits_nonzero(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig1/gapbs_pr=raise")
        assert main(["fig1", "--ops", "2000"]) == 1
        out = capsys.readouterr().out
        assert "DEGRADED" in out

    def test_keyboard_interrupt_flushes_and_exits_130(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.cli import main

        monkeypatch.setenv("REPRO_HARNESS_FAULTS", "fig1/ycsb_mem=interrupt")
        code = main(["fig1", "--ops", "2000", "--out", str(tmp_path)])
        assert code == 130
        written = (tmp_path / "fig1.txt").read_text()
        assert "Figure 1" in written
        assert "INTERRUPTED (2/3 runs completed)" in written

    def test_resume_without_manifest_is_an_error(self, capsys):
        from repro.cli import main

        assert main(["fig1", "--resume"]) == 2

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """Kill a parallel run with SIGKILL mid-flight, resume, compare."""
        manifest = tmp_path / "run.jsonl"
        base_cmd = [
            sys.executable, "-m", "repro", "fig8", "--ops", "3000",
            "--manifest", str(manifest),
        ]
        proc = subprocess.Popen(
            base_cmd + ["--jobs", "2"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=CLI_ENV,
            cwd=REPO_ROOT,
        )
        # Give it long enough to journal some units, then pull the plug.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if manifest.exists() and manifest.read_text().count('"unit"') >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.1)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.wait()

        resumed = subprocess.run(
            base_cmd + ["--jobs", "2", "--resume"],
            capture_output=True,
            text=True,
            env=CLI_ENV,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr
        fresh = subprocess.run(
            [sys.executable, "-m", "repro", "fig8", "--ops", "3000"],
            capture_output=True,
            text=True,
            env=CLI_ENV,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr
        assert resumed.stdout == fresh.stdout
