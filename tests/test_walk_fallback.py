"""The batched-engine differential suites, on the Python walk.

Every engine-running test of ``test_engine_equivalence``,
``test_kernel_equivalence`` and ``test_fuzz_batched_parity`` runs again
here with the native walk library forced off (its loader patched to
report no library), so the fallback ``repro.memory.native.PythonWalk``
stays exact too.  The imported tests are collected in this module and see
its module-scoped fixture.  ``TestArrayRoundTrip`` is left out: it runs
no engine, and hypothesis refuses one test collected twice.
"""

import pytest

from repro.memory import native
from tests.test_engine_equivalence import (  # noqa: F401
    TestBatchedHookDeepState,  # noqa: F401
    TestConfigurationCorners,  # noqa: F401
    TestDeferredHooks,  # noqa: F401
    TestFaultEquivalence,  # noqa: F401
    TestHookRouting,  # noqa: F401
    TestMechanismCoverage,  # noqa: F401
    TestMixedDensity,  # noqa: F401
    TestOverEstimatedBound,  # noqa: F401
    TestStoreLog,  # noqa: F401
    TestWorkloadCoverage,  # noqa: F401
)
from tests.test_fuzz_batched_parity import (  # noqa: F401
    TestCycleDeadlinePositions,  # noqa: F401
    TestEngineParity,  # noqa: F401
    TestFaultsKeepBatching,  # noqa: F401
    TestRecorderBatching,  # noqa: F401
    TestScheduleParity,  # noqa: F401
    TestTraceFormParity,  # noqa: F401
)
from tests.test_kernel_equivalence import (  # noqa: F401
    test_call_below_stack_raises,  # noqa: F401
    test_cross_thread_writes_take_the_fault_path,  # noqa: F401
    test_engine_keeps_no_write_log_across_quanta,  # noqa: F401
    test_multicore_matches_reference,  # noqa: F401
    test_multithread_queue_types_agree,  # noqa: F401
    test_multithread_stop_crash_resume,  # noqa: F401
)


@pytest.fixture(scope="module", autouse=True)
def python_walk():
    """Module-scoped, so class-scoped fixtures run on the fallback too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "library", lambda: None)
        yield


def test_the_fallback_is_in_force():
    assert native.library() is None
