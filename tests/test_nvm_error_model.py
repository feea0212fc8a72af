"""Tests for repro.faults.nvm_errors and the device reliable-write path:
seeded determinism, retry/backoff accounting, bad-block remapping, torn
writes."""

import pytest

from repro.faults.nvm_errors import (
    WRITE_BAD_BLOCK,
    WRITE_OK,
    WRITE_TORN,
    WRITE_TRANSIENT,
    NvmErrorModel,
    NvmMediaError,
)
from repro.cpu.engine import ExecutionEngine
from repro.cpu.ops import Op, OpKind
from repro.memory.address import AddressRange
from repro.memory.devices import NvmDevice
from repro.persistence.logging import RedoLogPersistence
from repro.persistence.ssp import SspPersistence


class ScriptedModel(NvmErrorModel):
    """Error model that replays a fixed outcome script, then succeeds."""

    def __init__(self, outcomes, **kwargs):
        super().__init__(**kwargs)
        self._script = list(outcomes)

    def draw_write(self):
        if self._script:
            return self._script.pop(0)
        return WRITE_OK, None


def clean_write_cycles(size: int) -> int:
    """Cycles one bulk write costs on a pristine device (no error model)."""
    return NvmDevice().bulk_write(size)


class TestErrorModel:
    def test_same_seed_same_fault_sequence(self):
        a = NvmErrorModel(seed=7, transient_write_rate=0.3, torn_write_rate=0.1)
        b = NvmErrorModel(seed=7, transient_write_rate=0.3, torn_write_rate=0.1)
        assert [a.draw_write() for _ in range(64)] == [
            b.draw_write() for _ in range(64)
        ]

    def test_different_seed_different_sequence(self):
        a = NvmErrorModel(seed=0, transient_write_rate=0.5)
        b = NvmErrorModel(seed=1, transient_write_rate=0.5)
        assert [a.draw_write() for _ in range(64)] != [
            b.draw_write() for _ in range(64)
        ]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NvmErrorModel(transient_write_rate=-0.1)
        with pytest.raises(ValueError):
            NvmErrorModel(transient_write_rate=0.7, torn_write_rate=0.5)

    def test_perfect_media_never_fails(self):
        model = NvmErrorModel(seed=3)
        assert all(model.draw_write() == (WRITE_OK, None) for _ in range(256))

    def test_sticky_bad_block_recurs_until_remapped(self):
        model = NvmErrorModel(seed=0, device_blocks=1)
        model.mark_bad(0)
        assert model.draw_write() == (WRITE_BAD_BLOCK, 0)
        assert model.draw_write() == (WRITE_BAD_BLOCK, 0)  # sticky
        model.remap(0)
        outcome, _ = model.draw_write()  # lands on the healthy spare
        assert outcome == WRITE_OK

    def test_remap_is_idempotent_and_bounded(self):
        model = NvmErrorModel(spare_blocks=2)
        spare = model.remap(11)
        assert model.remap(11) == spare  # same block, same spare
        model.remap(12)
        assert model.spares_remaining == 0
        with pytest.raises(NvmMediaError):
            model.remap(13)

    def test_backoff_doubles_per_attempt(self):
        model = NvmErrorModel(backoff_base_cycles=64)
        assert [model.backoff_cycles(a) for a in (1, 2, 3, 4)] == [
            64,
            128,
            256,
            512,
        ]


class TestReliableWritePath:
    def test_no_model_matches_plain_bulk_write(self):
        device = NvmDevice()
        size = 4096
        expected = clean_write_cycles(size)
        result = device.reliable_bulk_write(size)
        assert result.cycles == expected
        assert result.retries == 0 and not result.torn

    def test_transient_failure_retries_with_backoff_in_cycles(self):
        model = ScriptedModel([(WRITE_TRANSIENT, None), (WRITE_OK, None)])
        device = NvmDevice(error_model=model)
        size = 4096
        result = device.reliable_bulk_write(size)
        # One failed write + one successful retry, plus the first backoff.
        assert result.retries == 1
        assert result.cycles == 2 * clean_write_cycles(size) + model.backoff_cycles(1)
        assert device.retry_count_total == 1
        # Retried traffic is real wear: both writes hit the statistics.
        assert device.stats.writes == 2
        assert device.stats.write_bytes == 2 * size

    def test_retry_budget_exhaustion_raises(self):
        model = ScriptedModel(
            [(WRITE_TRANSIENT, None)] * 10, max_retries=3
        )
        device = NvmDevice(error_model=model)
        with pytest.raises(NvmMediaError):
            device.reliable_bulk_write(4096)
        assert device.retry_count_total == model.max_retries

    def test_bad_block_remapped_then_write_succeeds(self):
        model = ScriptedModel([(WRITE_BAD_BLOCK, 5), (WRITE_OK, None)])
        device = NvmDevice(error_model=model)
        result = device.reliable_bulk_write(4096)
        assert result.remapped_blocks == 1
        assert 5 in model.remap_table
        assert device.remapped_blocks_total == 1

    def test_remap_exhaustion_surfaces_media_error(self):
        model = ScriptedModel([(WRITE_BAD_BLOCK, 7)], spare_blocks=0)
        device = NvmDevice(error_model=model)
        with pytest.raises(NvmMediaError):
            device.reliable_bulk_write(4096)

    def test_torn_write_is_silent_success_with_flag(self):
        model = ScriptedModel([(WRITE_TORN, None)])
        device = NvmDevice(error_model=model)
        size = 4096
        result = device.reliable_bulk_write(size)
        # The device believes the write succeeded: no retries, plain cost.
        assert result.torn
        assert result.retries == 0
        assert result.cycles == clean_write_cycles(size)
        assert device.torn_writes_total == 1


STACK = AddressRange(0x7000_0000, 0x7010_0000)


def run_under_model(mechanism, model, ops):
    """Run *ops* under one live frame with *model* on the NVM device."""
    engine = ExecutionEngine(stack_range=STACK, mechanism=mechanism)
    engine.hierarchy.nvm.error_model = model
    frame = Op(OpKind.CALL, size=STACK.size)
    engine.run([frame] + ops, interval_ops=len(ops) + 1)
    return engine


def redo_ops():
    return [Op(OpKind.WRITE, STACK.start + 64 * i, 8) for i in range(16)]


def ssp_ops():
    # One page written first, then a long run on another page: the first
    # goes inactive and a consolidation pass merges its lines.
    first = [Op(OpKind.WRITE, STACK.start + 64 * i, 8) for i in range(8)]
    rest = [Op(OpKind.WRITE, STACK.start + 0x8000 + 8 * (i % 64), 8) for i in range(400)]
    return first + rest


class TestUncheckedBulkCopies:
    """SSP consolidation and the redo-log apply copy through the reliable
    path but keep no checksum: a transient failure is retried and charged,
    a torn copy is counted by the device and otherwise ignored."""

    def test_redo_apply_retry_is_charged(self):
        clean = run_under_model(RedoLogPersistence(), None, redo_ops())
        model = ScriptedModel([(WRITE_TRANSIENT, None)])
        faulty = run_under_model(RedoLogPersistence(), model, redo_ops())
        apply_bytes = 16 * 8
        assert faulty.mechanism.stats.checkpoint_bytes == [apply_bytes]
        assert faulty.hierarchy.nvm.retry_count_total == 1
        extra = (
            faulty.mechanism.stats.checkpoint_cycles[0]
            - clean.mechanism.stats.checkpoint_cycles[0]
        )
        assert extra == clean_write_cycles(apply_bytes) + model.backoff_cycles(1)
        nvm, base = faulty.hierarchy.nvm.stats, clean.hierarchy.nvm.stats
        assert nvm.writes == base.writes + 1
        assert nvm.write_bytes == base.write_bytes + apply_bytes

    def test_ssp_consolidation_retry_is_charged(self):
        clean = run_under_model(SspPersistence(0.01), None, ssp_ops())
        assert clean.mechanism.consolidated_lines_total > 0
        model = ScriptedModel([(WRITE_TRANSIENT, None)])
        faulty = run_under_model(SspPersistence(0.01), model, ssp_ops())
        assert faulty.hierarchy.nvm.retry_count_total == 1
        assert (
            faulty.mechanism.stats.inline_overhead_cycles
            > clean.mechanism.stats.inline_overhead_cycles
        )

    def test_torn_copies_are_ignored(self):
        for factory, ops in ((RedoLogPersistence, redo_ops), (
            lambda: SspPersistence(0.01), ssp_ops
        )):
            clean = run_under_model(factory(), None, ops())
            torn = run_under_model(
                factory(), ScriptedModel([(WRITE_TORN, None)]), ops()
            )
            assert torn.hierarchy.nvm.torn_writes_total == 1
            assert torn.hierarchy.nvm.retry_count_total == 0
            assert torn.mechanism.stats.checkpoint_bytes == (
                clean.mechanism.stats.checkpoint_bytes
            )
            assert torn.stats.total_cycles == clean.stats.total_cycles
