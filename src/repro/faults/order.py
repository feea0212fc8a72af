"""Persist-order oracle: which durable writes actually survive a crash.

The named-crash-point model (:mod:`repro.faults.injector`) assumes that
everything written before the crash point landed in NVM — the neat
"program order is persist order" view.  Real NVM does not work that way:
writes queue in controller buffers and only an explicit flush/commit
barrier (``sfence`` + drain) guarantees durability.  Between barriers, a
power failure may persist **any subset** of the queued writes, and the
write in flight when power drops may additionally land **torn**.

:class:`PersistOrderOracle` layers that model over the checkpoint path as
a small state machine:

* every checkpoint-protocol write that matters for recovery (staging
  descriptor, staged runs, commit markers, metadata records) is
  :meth:`record`-ed into a *pending* set, carrying an ``undo`` callback
  that erases its durable effect and, when the write has byte contents,
  a ``tear`` callback that silently corrupts it;
* a persist barrier (:meth:`barrier` — wired into
  :meth:`repro.memory.devices.NvmDevice.persist_barrier`) retires the
  pending set to *guaranteed durable*; retired writes can never be lost;
* at crash time the fuzzer samples a :class:`PersistPlan` — a subset of
  pending writes to drop plus an optional torn tail on the last surviving
  tearable write — and :meth:`apply_plan` executes it before recovery
  runs.

Because every tracked write targets its own NVM location and barriers
partition writes into epochs, "any subset, in any barrier-respecting
order" collapses to subset sampling: two surviving writes to different
locations are observationally order-free, and a write can never persist
after a barrier that follows it.  The torn tail models the one
order-sensitive residue — the line cut mid-flight.

Import constraints: this module must stay importable from
:mod:`repro.memory.devices` (which the rest of the simulator sits on), so
it depends on nothing above the standard library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


@dataclass
class PendingWrite:
    """One durable write issued but not yet retired by a barrier.

    ``undo`` erases the write's durable effect (it never landed); a write
    recorded without an ``undo`` is informational — the oracle counts it
    but never samples it away.  ``tear`` corrupts the write's contents
    silently, the way a line cut mid-flight lands half-old/half-new; only
    the checkpoint layer's checksums can catch it afterwards.
    """

    label: str
    size: int = 0
    undo: Callable[[], None] | None = None
    tear: Callable[[], None] | None = None


@dataclass(frozen=True)
class PersistPlan:
    """A sampled crash outcome over the pending set.

    *dropped* names pending writes that never reached the media; *torn*
    names the one surviving write whose tail was cut.  Plans are
    serializable (:meth:`to_dict`) so a failing schedule can be replayed
    and shrunk deterministically.
    """

    dropped: frozenset[str] = frozenset()
    torn: str | None = None

    @property
    def is_neat(self) -> bool:
        """True for the legacy model: everything written so far landed."""
        return not self.dropped and self.torn is None

    def to_dict(self) -> dict:
        return {"dropped": sorted(self.dropped), "torn": self.torn}

    @classmethod
    def from_dict(cls, data: dict) -> "PersistPlan":
        return cls(frozenset(data.get("dropped", ())), data.get("torn"))


@dataclass
class CrashOutcome:
    """What :meth:`PersistOrderOracle.apply_plan` actually did."""

    pending: list[str] = field(default_factory=list)
    dropped: list[str] = field(default_factory=list)
    torn: str | None = None

    def to_dict(self) -> dict:
        return {
            "pending": self.pending,
            "dropped": self.dropped,
            "torn": self.torn,
        }


#: Per-schedule drop probabilities the fuzzer samples between; 0.0 keeps
#: the legacy neat model in the mix so it stays covered too.
DROP_PROBABILITIES = (0.0, 0.25, 0.5, 0.9)
#: Probability that the last surviving tearable pending write lands torn.
TEAR_PROBABILITY = 0.3


class PersistOrderOracle:
    """Pending/durable state machine over NVM checkpoint writes."""

    def __init__(self) -> None:
        self.pending: list[PendingWrite] = []
        #: Lifetime accounting (for reports, not behaviour).
        self.recorded_total = 0
        self.retired_total = 0
        self.barriers = 0
        #: Anonymous device writes noted for statistics only (demand
        #: traffic, cache writebacks) — not sampled, not undoable.
        self.writes_noted = 0
        self.bytes_noted = 0

    # ------------------------------------------------------------------ #
    # Producer side (checkpoint path)
    # ------------------------------------------------------------------ #

    def record(
        self,
        label: str,
        *,
        undo: Callable[[], None] | None = None,
        tear: Callable[[], None] | None = None,
        size: int = 0,
    ) -> None:
        """Enter one recovery-relevant write into the pending set.

        *label* must be unique within the current barrier epoch — the
        checkpoint layers namespace labels by checkpoint index, and a
        staging buffer is never reused without a barrier first.
        """
        if any(write.label == label for write in self.pending):
            raise ValueError(f"duplicate pending write label: {label}")
        self.pending.append(PendingWrite(label, size, undo, tear))
        self.recorded_total += 1

    def note_write(self, size: int) -> None:
        """Count an anonymous device write (statistics only)."""
        self.writes_noted += 1
        self.bytes_noted += size

    def note_writes(self, count: int, size: int) -> None:
        """Count *count* anonymous device writes of *size* bytes each."""
        self.writes_noted += count
        self.bytes_noted += count * size

    def barrier(self) -> None:
        """Retire the pending set: everything in it is now guaranteed
        durable and can no longer be dropped or torn."""
        self.barriers += 1
        self.retired_total += len(self.pending)
        self.pending.clear()

    def pending_labels(self) -> list[str]:
        return [write.label for write in self.pending]

    # ------------------------------------------------------------------ #
    # Crash side (fuzzer)
    # ------------------------------------------------------------------ #

    def sample_plan(self, rng) -> PersistPlan:
        """Sample one legal crash outcome over the current pending set.

        Each undo-capable pending write is dropped independently with a
        per-schedule probability drawn from :data:`DROP_PROBABILITIES`;
        with probability :data:`TEAR_PROBABILITY` the last surviving
        tearable write lands torn.
        """
        if not self.pending:
            return PersistPlan()
        drop_p = rng.choice(DROP_PROBABILITIES)
        dropped = frozenset(
            write.label
            for write in self.pending
            if write.undo is not None and rng.random() < drop_p
        )
        torn = None
        tearable = [
            write.label
            for write in self.pending
            if write.label not in dropped and write.tear is not None
        ]
        if tearable and rng.random() < TEAR_PROBABILITY:
            torn = tearable[-1]
        return PersistPlan(dropped, torn)

    def apply_plan(self, plan: PersistPlan) -> CrashOutcome:
        """Execute *plan* against the pending set (the power actually
        fails now): dropped writes are undone, the torn write corrupted.
        Returns what happened; the pending set is cleared — after a crash
        there is nothing left in flight.
        """
        outcome = CrashOutcome(pending=self.pending_labels())
        for write in self.pending:
            if write.label in plan.dropped:
                if write.undo is None:
                    raise ValueError(
                        f"pending write {write.label!r} cannot be dropped"
                    )
                write.undo()
                outcome.dropped.append(write.label)
            elif write.label == plan.torn:
                if write.tear is None:
                    raise ValueError(
                        f"pending write {write.label!r} cannot be torn"
                    )
                write.tear()
                outcome.torn = write.label
        self.pending.clear()
        return outcome
