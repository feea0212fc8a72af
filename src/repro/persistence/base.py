"""Common interface for all memory-persistence mechanisms.

The execution engine drives a mechanism through four hooks:

* :meth:`PersistenceMechanism.on_load` / :meth:`~PersistenceMechanism.on_store`
  — called for a demand access to the region the mechanism covers, but only
  for the kinds of access the mechanism's class defines a hook for
  (:meth:`~PersistenceMechanism.defines`); returns extra cycles charged to
  the application (critical-path cost such as a clwb, a log append, or
  tracker interference).  The engines count every access in the
  mechanism's ``stats`` (``stores_seen``/``loads_seen``) themselves, so a
  hook body only acts.
* :meth:`~PersistenceMechanism.on_interval_start` /
  :meth:`~PersistenceMechanism.on_interval_end` — called at consistency /
  checkpoint interval boundaries with an :class:`IntervalContext`; returns
  cycles spent (dirty-metadata preparation and the checkpoint itself).

Mechanisms also declare whether the region they protect must live in NVM
(``region_in_nvm``): Romulus, SSP and the logging primitives keep the
protected data in NVM, while checkpoint mechanisms (Dirtybit, Prosper) leave
it in DRAM — one of the paper's central arguments (Table I, "Allows stack in
DRAM").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import FunctionType
from typing import TYPE_CHECKING

import numpy as np

from repro.memory.address import AddressRange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cpu.engine import ExecutionEngine


@dataclass(frozen=True)
class Capabilities:
    """Table I capability matrix for one mechanism."""

    achieves_process_persistence: bool
    works_without_compiler_support: bool
    stack_pointer_aware: bool
    allows_stack_in_dram: bool

    def as_row(self) -> tuple[str, str, str, str]:
        """Render as check/cross marks like Table I."""
        mark = lambda b: "yes" if b else "no"  # noqa: E731 - tiny local helper
        return (
            mark(self.achieves_process_persistence),
            mark(self.works_without_compiler_support),
            mark(self.stack_pointer_aware),
            mark(self.allows_stack_in_dram),
        )


@dataclass
class IntervalContext:
    """Everything a mechanism may need at an interval boundary."""

    interval_index: int
    now: int
    #: SP value at the moment the interval ends (stack grows down).
    final_sp: int
    #: Lowest SP observed during the interval — the maximum active stack
    #: extent, which Prosper hardware tracks and shares with the OS.
    min_sp: int
    region: AddressRange


@dataclass
class MechanismStats:
    """Counters shared by all mechanisms; subclasses may extend."""

    #: Demand stores and loads inside the region, counted by the engine
    #: whether or not a hook ran for them.
    stores_seen: int = 0
    loads_seen: int = 0
    intervals: int = 0
    #: Bytes copied to NVM at checkpoints (checkpoint "size").
    checkpoint_bytes: list[int] = field(default_factory=list)
    #: Cycles spent inside on_interval_end (checkpoint "time").
    checkpoint_cycles: list[int] = field(default_factory=list)
    #: Cycles added on the critical path by on_load/on_store.
    inline_overhead_cycles: int = 0

    @property
    def total_checkpoint_bytes(self) -> int:
        return sum(self.checkpoint_bytes)

    @property
    def total_checkpoint_cycles(self) -> int:
        return sum(self.checkpoint_cycles)

    @property
    def mean_checkpoint_bytes(self) -> float:
        return (
            self.total_checkpoint_bytes / len(self.checkpoint_bytes)
            if self.checkpoint_bytes
            else 0.0
        )

    @property
    def mean_checkpoint_cycles(self) -> float:
        return (
            self.total_checkpoint_cycles / len(self.checkpoint_cycles)
            if self.checkpoint_cycles
            else 0.0
        )


class PersistenceMechanism:
    """Base class: a no-op mechanism whose hooks do nothing.

    Subclasses override the hooks they need and must set :attr:`name` and
    :attr:`capabilities`.
    """

    name = "base"
    capabilities = Capabilities(
        achieves_process_persistence=False,
        works_without_compiler_support=True,
        stack_pointer_aware=False,
        allows_stack_in_dram=True,
    )
    #: True when the protected region must be allocated in NVM.
    region_in_nvm = False
    #: True when the mechanism supports the batched hook protocol below:
    #: the engine may then deliver whole runs of consecutive demand stores
    #: through :meth:`on_store_batch` instead of one hook call per store.
    #: A mechanism may only opt in when its store hook is *now-independent*
    #: — the inline cost of each store must not depend on the cycle count
    #: at which the hook is invoked (no deadlines, no NVM write-buffer
    #: drains keyed on ``now``) — so that deferring the hook to the end of
    #: a run charges exactly the same cycles.  Order within a batch is
    #: preserved, and the engine never reorders stores relative to each
    #: other.  A batching mechanism takes no load hook: the engine delivers
    #: per op to a mechanism that defines :meth:`on_load`.
    supports_batching = False

    def __init__(self) -> None:
        self.stats = MechanismStats()
        self._hierarchy = None
        self._fixed_scale = 1.0
        self.region: AddressRange | None = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, engine: "ExecutionEngine", region: AddressRange) -> None:
        """Bind the mechanism to an engine's memory hierarchy and clock
        scale and to the region it protects.

        The engine itself is not kept: the engine owns the mechanism, so a
        back-reference would make every finished machine a reference cycle
        that only a full garbage collection frees.
        """
        self._hierarchy = engine.hierarchy
        self._fixed_scale = engine.fixed_cost_scale
        self.region = region

    def __getstate__(self) -> dict:
        """State for copies: a hook wrapped per instance (a profiler's
        closure over this object) is not state, so a copy runs the class's
        own hooks instead of acting on the original."""
        cls = type(self)
        return {
            name: value for name, value in vars(self).items()
            if not (isinstance(value, FunctionType) and hasattr(cls, name))
        }

    @property
    def hierarchy(self):
        if self._hierarchy is None:
            raise RuntimeError(f"{self.name} is not attached to an engine")
        return self._hierarchy

    @property
    def fixed_scale(self) -> float:
        """Scale for fixed per-wall-clock-event costs (see ExecutionEngine)."""
        return self._fixed_scale

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #

    def defines(self, hook: str) -> bool:
        """True when this mechanism's class overrides the base *hook*
        (``"on_load"`` or ``"on_store"``): the engines deliver only the
        accesses of the kinds a mechanism defines a hook for."""
        return getattr(type(self), hook) is not getattr(PersistenceMechanism, hook)

    @property
    def hook_deadline(self) -> int:
        """Cycle count below which :meth:`on_load` / :meth:`on_store`
        return 0, read no clock but ``now`` and leave this value alone, so
        the batched engine may run them late, in op order, at their ops'
        cycle counts.  The default, 0, makes every hook due."""
        return 0

    def on_load(self, address: int, size: int, now: int) -> int:
        """Demand load inside the region; returns extra critical-path cycles."""
        return 0

    def on_store(self, address: int, size: int, now: int) -> int:
        """Demand store inside the region; returns extra critical-path cycles."""
        return 0

    def on_store_batch(self, addresses: np.ndarray, sizes: np.ndarray, now: int) -> int:
        """Batched form of :meth:`on_store` for a run of consecutive stores.

        Must behave exactly like calling ``on_store`` once per (address,
        size) pair in order, with *now* being the cycle count at delivery
        (the end of the run).  Only invoked when :attr:`supports_batching`
        is True.  Returns the summed extra critical-path cycles.
        """
        return 0

    def store_cost_bound_array(self, addresses: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Per-store upper bound on the cycles :meth:`on_store` could return.

        The engine uses these bounds to decide how long it may keep
        deferring hook delivery without risking a missed interval boundary:
        it flushes the pending batch as soon as the accumulated bound could
        reach the next boundary.  Bounds must dominate the true per-store
        cost in *every* reachable mechanism state.  The base mechanism
        charges nothing inline, so the bound is zero.
        """
        return np.zeros(len(addresses), dtype=np.int64)

    def on_interval_start(self, ctx: IntervalContext) -> int:
        """Prepare for a new tracking interval; returns cycles spent."""
        return 0

    def on_interval_end(self, ctx: IntervalContext) -> int:
        """Commit/checkpoint the interval; returns cycles spent."""
        self.stats.intervals += 1
        return 0

    # ------------------------------------------------------------------ #
    # Recovery interface
    # ------------------------------------------------------------------ #

    def persisted_state(self) -> dict:
        """Opaque description of what survives a crash (for recovery tests).

        Checkpoint mechanisms return their last committed snapshot metadata;
        in-place NVM mechanisms return the live region.  The base class has
        nothing persistent.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
