"""Adaptive tracking policies — the paper's stated future directions.

Two adaptation loops the paper leaves open are implemented here:

* **Granularity adaptation** (Section V, "Prosper design allows changing
  tracking granularity based on the dirty behavior of an application or
  disabling it to use a page-level Dirtybit scheme"):
  :class:`GranularityController` watches each interval's dirty-run profile
  and moves the tracking granularity between 8 B and 128 B — or recommends
  falling back to page granularity outright — so dense writers (Stream)
  stop paying sub-page metadata costs while sparse writers keep the small
  copies.
* **Watermark adaptation** (Section V, "a dynamic scheme based on the
  access pattern is left as a future direction"):
  :class:`WatermarkController` hill-climbs the HWM against the observed
  bitmap-traffic-per-store rate, exploiting that the optimal direction
  differs per workload (SSSP improves with larger HWM, mcf with smaller).

Both controllers are deliberately stateless beyond a few scalars — they
model what OS-level policy code could cheaply do at each checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PAGE_BYTES

#: Granularity ladder the controller moves along.
GRANULARITY_LADDER = (8, 16, 32, 64, 128)
#: Sentinel "granularity" meaning: disable Prosper, use page Dirtybit.
PAGE_FALLBACK = PAGE_BYTES


@dataclass(frozen=True)
class IntervalProfile:
    """What the OS observed in one checkpoint interval."""

    copied_bytes: int
    runs: int
    #: Bytes that page-granularity tracking would have copied.
    page_footprint_bytes: int

    @property
    def density(self) -> float:
        """Fraction of the page footprint that was actually dirty."""
        if self.page_footprint_bytes == 0:
            return 0.0
        return min(1.0, self.copied_bytes / self.page_footprint_bytes)

    @property
    def mean_run_bytes(self) -> float:
        return self.copied_bytes / self.runs if self.runs else 0.0


class GranularityController:
    """Moves tracking granularity along the ladder from interval profiles.

    Policy: high density (most of every dirty page is dirty) means fine
    tracking buys little and costs metadata — coarsen; very low density
    means copies shrink a lot with finer bits — refine.  Sustained
    near-total density triggers the page-granularity fallback; a sparse
    interval while in fallback re-enables sub-page tracking.
    """

    def __init__(
        self,
        initial: int = 8,
        coarsen_density: float = 0.55,
        refine_density: float = 0.20,
        fallback_density: float = 0.85,
        fallback_patience: int = 2,
    ) -> None:
        if initial not in GRANULARITY_LADDER:
            raise ValueError(f"initial granularity {initial} not on the ladder")
        if not 0 <= refine_density < coarsen_density <= fallback_density <= 1:
            raise ValueError("density thresholds must be ordered in [0, 1]")
        self.granularity = initial
        self.coarsen_density = coarsen_density
        self.refine_density = refine_density
        self.fallback_density = fallback_density
        self.fallback_patience = fallback_patience
        self._dense_streak = 0
        self.transitions: list[int] = []

    @property
    def in_page_fallback(self) -> bool:
        return self.granularity == PAGE_FALLBACK

    def observe(self, profile: IntervalProfile) -> int:
        """Feed one interval's profile; returns the granularity to use next."""
        if profile.copied_bytes == 0:
            # Nothing to learn from an empty interval.
            return self.granularity

        density = profile.density
        if density >= self.fallback_density:
            self._dense_streak += 1
            if self._dense_streak >= self.fallback_patience:
                self._move_to(PAGE_FALLBACK)
                return self.granularity
        else:
            self._dense_streak = 0

        if self.in_page_fallback:
            if density < self.coarsen_density:
                self._move_to(GRANULARITY_LADDER[-1])
            return self.granularity

        index = GRANULARITY_LADDER.index(self.granularity)
        if density >= self.coarsen_density and index + 1 < len(GRANULARITY_LADDER):
            self._move_to(GRANULARITY_LADDER[index + 1])
        elif density <= self.refine_density and index > 0:
            self._move_to(GRANULARITY_LADDER[index - 1])
        return self.granularity

    def _move_to(self, granularity: int) -> None:
        if granularity != self.granularity:
            self.granularity = granularity
            self.transitions.append(granularity)


class WatermarkController:
    """Adapts the HWM threshold against bitmap traffic per store.

    Per-interval rates are noisy, so a naive hill-climb random-walks.
    Instead the controller keeps a running mean of the memory-ops-per-store
    rate for every HWM level it has tried; each interval it updates the
    current level's mean, then moves to the *neighbouring* level with the
    lowest mean (exploring unvisited neighbours first, upward before
    downward).  Bounded to [min_hwm, max_hwm] and quantized to *step* like
    the paper's sweep points.
    """

    def __init__(
        self,
        initial_hwm: int = 24,
        min_hwm: int = 8,
        max_hwm: int = 32,
        step: int = 4,
    ) -> None:
        if not min_hwm <= initial_hwm <= max_hwm:
            raise ValueError("initial HWM outside bounds")
        self.hwm = initial_hwm
        self.min_hwm = min_hwm
        self.max_hwm = max_hwm
        self.step = step
        #: hwm -> (sample count, mean rate)
        self._levels: dict[int, tuple[int, float]] = {}
        self.history: list[int] = [initial_hwm]

    def observe(self, memory_ops: int, stores: int) -> int:
        """Feed one interval's tracker counters; returns the next HWM."""
        if stores == 0:
            return self.hwm
        rate = memory_ops / stores
        count, mean = self._levels.get(self.hwm, (0, 0.0))
        self._levels[self.hwm] = (count + 1, mean + (rate - mean) / (count + 1))

        candidates = [
            hwm
            for hwm in (self.hwm + self.step, self.hwm - self.step, self.hwm)
            if self.min_hwm <= hwm <= self.max_hwm
        ]
        unvisited = [h for h in candidates if h not in self._levels]
        if unvisited:
            self.hwm = unvisited[0]
        else:
            self.hwm = min(candidates, key=lambda h: self._levels[h][1])
        self.history.append(self.hwm)
        return self.hwm
