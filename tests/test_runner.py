"""Tests for repro.experiments.runner: scaling and the run driver."""

import gc
import weakref

import pytest

from repro.config import setup_i
from repro.experiments import runner
from repro.experiments.runner import (
    TRACE_PAPER_MS,
    fixed_cost_scale_for,
    make_engine,
    run_mechanism,
    scaled_interval_cycles,
    vanilla_cycles,
)
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.none import NoPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.ssp import SspPersistence
from repro.workloads.synthetic import random_workload


class TestScaling:
    def test_scaled_interval_proportional(self):
        base = 1_000_000
        ten = scaled_interval_cycles(base, 10.0)
        one = scaled_interval_cycles(base, 1.0)
        assert ten == 10 * one
        assert ten == base * 10 / TRACE_PAPER_MS

    def test_rejects_nonpositive_ms(self):
        with pytest.raises(ValueError):
            scaled_interval_cycles(1000, 0)

    def test_fixed_cost_scale_bounded(self):
        assert fixed_cost_scale_for(10**12) == 1.0
        small = fixed_cost_scale_for(600_000)
        assert 0 < small < 0.01

    def test_fixed_cost_scale_formula(self):
        cfg = setup_i()
        base = 6_000_000
        expected = base / (TRACE_PAPER_MS * cfg.freq_hz / 1e3)
        assert fixed_cost_scale_for(base, cfg) == pytest.approx(expected)


class TestDriver:
    def test_vanilla_cycles_deterministic(self):
        trace = random_workload(num_writes=2_000)
        assert vanilla_cycles(trace) == vanilla_cycles(trace)

    def test_make_engine_matches_trace_layout(self):
        trace = random_workload(num_writes=100)
        engine = make_engine(trace, NoPersistence())
        assert engine.stack_range == trace.stack_range

    def test_run_mechanism_produces_normalized_time(self):
        trace = random_workload(num_writes=3_000)
        result = run_mechanism(trace, ProsperPersistence(), 10.0)
        assert result.trace_name == "random"
        assert result.mechanism_name == "prosper-8B"
        assert result.normalized_time >= 1.0
        assert result.overhead_fraction == result.normalized_time - 1.0

    @pytest.mark.parametrize(
        "factory", [ProsperPersistence, DirtyBitPersistence, lambda: SspPersistence(10.0)]
    )
    def test_finished_machine_freed_without_gc(self, factory, monkeypatch):
        # No engine <-> mechanism cycle: reference counting alone frees a
        # machine once its result is dropped, even if the caller keeps
        # the mechanism.
        engines = []
        build = runner.make_engine

        def make_engine(*args, **kwargs):
            engine = build(*args, **kwargs)
            engines.append(weakref.ref(engine))
            return engine

        monkeypatch.setattr(runner, "make_engine", make_engine)
        trace = random_workload(num_writes=500)
        mechanism = factory()
        gc.disable()
        try:
            result = run_mechanism(trace, mechanism, 10.0, baseline_cycles=10**6)
            assert result.stats.ops_executed == len(trace)
            del result
            assert len(engines) == 1
            assert engines[0]() is None
        finally:
            gc.enable()

    def test_vanilla_normalizes_to_one(self):
        trace = random_workload(num_writes=3_000)
        result = run_mechanism(trace, NoPersistence(), 10.0)
        assert result.normalized_time == pytest.approx(1.0, rel=0.02)

    def test_label_override(self):
        trace = random_workload(num_writes=500)
        result = run_mechanism(
            trace, DirtyBitPersistence(), 10.0, mechanism_label="db"
        )
        assert result.mechanism_name == "db"

    def test_ssp_variant_label(self):
        trace = random_workload(num_writes=500)
        result = run_mechanism(trace, SspPersistence(100.0), 10.0)
        assert result.mechanism_name == "ssp-100us"

    def test_checkpoints_happen(self):
        trace = random_workload(num_writes=5_000)
        mech = ProsperPersistence()
        run_mechanism(trace, mech, 10.0)
        # 200 paper-ms trace at 10 ms intervals: about 20 checkpoints.
        assert 10 <= mech.stats.intervals <= 40
