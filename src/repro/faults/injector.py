"""Deterministic crash-point injection for the checkpoint pipeline.

The paper validates Prosper's crash consistency by killing gem5 at a few
hand-picked moments.  This module generalizes that into systematic fault
injection: every step of the two-step staging/commit protocol is a *named
crash point*, and a :class:`FaultInjector` threaded through the pipeline
(`core/checkpoint.py`, `kernel/checkpoint_mgr.py`) can be armed to "lose
power" at the N-th occurrence of any point.  Arming is explicit and
per-(point, occurrence), so every run is exactly reproducible.

Crash points, in protocol order for one process checkpoint::

    metadata_write        before the metadata record (registers, layout) lands
    stage_begin           per thread, before its staging buffer is created
    stage_run_copy[i]     per thread, before the i-th dirty run is staged
    stage_complete        per thread, after its staging buffer is complete
    commit_flag_write     before the process commit record flips
    persist_barrier       per thread, inside the staged->persistent apply
    bitmap_clear          per thread, before its consumed bitmap words clear

A crash fires by raising :class:`CrashInjected`; the durable ("NVM") state
at that moment — checkpoint records, staging buffers — is left exactly as
written so far, and the harness then drops volatile state and drives
recovery.  An un-armed injector only records which points fired (the probe
pass, :func:`repro.faults.fuzzer.probe`, reads them to enumerate the sweep
and to sample fuzz schedules).
"""

from __future__ import annotations

from collections import Counter

#: Named crash points of the two-step staging/commit protocol.
STAGE_BEGIN = "stage_begin"
STAGE_COMPLETE = "stage_complete"
METADATA_WRITE = "metadata_write"
COMMIT_FLAG_WRITE = "commit_flag_write"
BITMAP_CLEAR = "bitmap_clear"
PERSIST_BARRIER = "persist_barrier"

#: Crash points of the multicore execution path: the context-switch
#: tracker save/restore (scheduler) and the stop-the-world quiesce
#: barrier that precedes a process checkpoint (multicore simulation).
CTX_SAVE = "ctx_save"
CTX_RESTORE = "ctx_restore"
BARRIER_QUIESCE = "barrier_quiesce"


def stage_run_copy(index: int) -> str:
    """Crash-point name for staging the *index*-th dirty run of a thread."""
    return f"stage_run_copy[{index}]"


def cycle_point(cycle: int) -> str:
    """Synthetic crash-point name for a cycle-deadline crash (see
    :meth:`FaultInjector.arm_cycle`)."""
    return f"cycle[{cycle}]"


def is_cycle_point(point: str) -> bool:
    """True when *point* names a cycle-deadline crash rather than a named
    checkpoint-pipeline step."""
    return point.startswith("cycle[")


#: The crash-point families, for documentation and CLI listings.
CRASH_POINT_FAMILIES = (
    METADATA_WRITE,
    STAGE_BEGIN,
    "stage_run_copy[i]",
    STAGE_COMPLETE,
    COMMIT_FLAG_WRITE,
    PERSIST_BARRIER,
    BITMAP_CLEAR,
    CTX_SAVE,
    CTX_RESTORE,
    BARRIER_QUIESCE,
)


class CrashInjected(Exception):
    """Raised at an armed crash point: the simulated machine lost power.

    Durable state written before the crash point survives; the handler is
    expected to drop volatile state (:meth:`CrashSimulator.crash`) and then
    drive recovery.
    """

    def __init__(self, point: str, occurrence: int) -> None:
        super().__init__(f"injected crash at {point} (occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


class FaultInjector:
    """Seeded, deterministic fault plan for one simulated run.

    The injector owns two independent fault dimensions:

    * a **crash plan** — at most one (point, occurrence) pair armed via
      :meth:`arm`; the matching :meth:`reached` call raises
      :class:`CrashInjected`;
    * a **torn-metadata plan** — checkpoint sequence numbers whose metadata
      record should be silently corrupted (a torn cache-line write at the
      moment of power loss), registered via :meth:`tear_metadata_at` and
      detected only by the CRC check at recovery.

    *seed* does not drive the injector itself (the plan is explicit) but is
    carried so harnesses can derive matching NVM error models from it.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.armed_point: str | None = None
        self.armed_occurrence: int = 0
        #: Cycle deadline: the run loop crashes at the first op boundary at
        #: or past this cycle count (armed via :meth:`arm_cycle`).
        self.armed_cycle: int | None = None
        #: Every point fired, in order (the probe pass reads this).
        self.fired: list[str] = []
        self._counts: Counter[str] = Counter()
        self._torn_metadata: set[int] = set()

    def __deepcopy__(self, memo: dict) -> "FaultInjector":
        """Independent copy of the plan and the firing history."""
        clone = FaultInjector.__new__(FaultInjector)
        clone.__dict__.update(self.__dict__)
        clone.fired = list(self.fired)
        clone._counts = Counter(self._counts)
        clone._torn_metadata = set(self._torn_metadata)
        return clone

    # ------------------------------------------------------------------ #
    # Crash plan
    # ------------------------------------------------------------------ #

    def arm(self, point: str, occurrence: int = 0) -> None:
        """Crash at the *occurrence*-th firing of *point* (0-based)."""
        if occurrence < 0:
            raise ValueError("occurrence must be non-negative")
        self.armed_point = point
        self.armed_occurrence = occurrence

    def arm_cycle(self, cycle: int) -> None:
        """Crash at the first op boundary where the clock reaches *cycle*.

        Unlike :meth:`arm`, this models power dropping at an arbitrary
        moment mid-interval rather than at a named protocol step.  The
        execution engine polls :meth:`check_cycle` after every op; a
        deadline landing inside interval-boundary checkpoint work fires at
        the first op after it (the named points cover intra-checkpoint
        crashes).
        """
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        self.armed_cycle = cycle

    def disarm(self) -> None:
        """Clear the crash plan (recovery runs with the injector disarmed)."""
        self.armed_point = None
        self.armed_cycle = None

    @property
    def is_armed(self) -> bool:
        """True when either a named-point or a cycle crash is planned."""
        return self.armed_point is not None or self.armed_cycle is not None

    def check_cycle(self, now: int) -> None:
        """Crash when the armed cycle deadline has been reached."""
        armed = self.armed_cycle
        if armed is not None and now >= armed:
            self.armed_cycle = None
            raise CrashInjected(cycle_point(armed), 0)

    def reached(self, point: str) -> None:
        """Record that the pipeline reached *point*; crash when armed for it."""
        occurrence = self._counts[point]
        self._counts[point] += 1
        self.fired.append(point)
        if point == self.armed_point and occurrence == self.armed_occurrence:
            raise CrashInjected(point, occurrence)

    def occurrences(self) -> Counter[str]:
        """Copy of per-point firing counts so far."""
        return Counter(self._counts)

    def count(self, point: str) -> int:
        """How many times *point* has fired so far."""
        return self._counts[point]

    def reset(self) -> None:
        """Forget fired history and counts (plans stay armed)."""
        self.fired.clear()
        self._counts.clear()

    # ------------------------------------------------------------------ #
    # Torn-metadata plan
    # ------------------------------------------------------------------ #

    def tear_metadata_at(self, *sequences: int) -> None:
        """Corrupt the metadata record of the given checkpoint sequences."""
        self._torn_metadata.update(sequences)

    def should_tear_metadata(self, sequence: int) -> bool:
        return sequence in self._torn_metadata
