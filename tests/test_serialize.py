"""Tests for trace serialization (save/load roundtrip)."""

import numpy as np
import pytest

from repro.workloads.callstack import quicksort_workload
from repro.workloads.serialize import FORMAT_VERSION, load_trace, save_trace
from repro.workloads.synthetic import random_workload


class TestRoundtrip:
    def test_ops_and_layout_preserved(self, tmp_path):
        trace = random_workload(num_writes=500, seed=9)
        path = save_trace(trace, tmp_path / "t")
        assert path.suffix == ".npz"
        loaded = load_trace(path)
        assert np.array_equal(loaded.array, trace.array)
        assert loaded.stack_range == trace.stack_range
        assert loaded.name == trace.name

    def test_heap_range_preserved(self, tmp_path):
        trace = quicksort_workload(elements=64)
        loaded = load_trace(save_trace(trace, tmp_path / "qs.npz"))
        assert loaded.heap_range == trace.heap_range

    def test_missing_heap_roundtrips_as_none(self, tmp_path):
        trace = random_workload(num_writes=10)
        assert trace.heap_range is None
        loaded = load_trace(save_trace(trace, tmp_path / "nh"))
        assert loaded.heap_range is None

    def test_stats_identical_after_reload(self, tmp_path):
        trace = quicksort_workload(elements=128)
        loaded = load_trace(save_trace(trace, tmp_path / "qs2"))
        assert loaded.stats.stack_fraction == trace.stats.stack_fraction
        assert loaded.stats.memory_ops == trace.stats.memory_ops

    def test_version_check(self, tmp_path):
        trace = random_workload(num_writes=10)
        path = save_trace(trace, tmp_path / "v")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["version"] = np.int64(FORMAT_VERSION + 1)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)
