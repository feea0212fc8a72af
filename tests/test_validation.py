"""Tests for the seed-robustness validation module (single-seed, small)."""

import pytest

from repro.experiments.validation import CheckResult, summarize, validate_shapes


@pytest.fixture(scope="module")
def single_seed_results():
    return validate_shapes(seeds=(42,), target_ops=15_000)


class TestSummarize:
    def test_counts_passes_and_totals(self):
        results = [
            CheckResult("a", 1, True, ""),
            CheckResult("a", 2, False, ""),
            CheckResult("b", 1, True, ""),
        ]
        assert summarize(results) == {"a": (1, 2), "b": (1, 1)}

    def test_empty(self):
        assert summarize([]) == {}


class TestValidateShapes:
    def test_single_seed_run_passes(self, single_seed_results):
        results = single_seed_results
        assert results, "no checks ran"
        names = {r.name for r in results}
        assert "fig8-prosper-best" in names
        assert "fig13-mcf-hwm-up" in names
        failed = [r for r in results if not r.passed]
        assert not failed, [f"{r.name}: {r.detail}" for r in failed]

    def test_detail_strings_are_informative(self, single_seed_results):
        for r in single_seed_results:
            assert r.detail  # every check explains itself
