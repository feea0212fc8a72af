"""Batched execution engine: the vectorized fast path of the simulator.

:class:`BatchedExecutionEngine` executes the same machine model as the
scalar :class:`~repro.cpu.engine.ExecutionEngine` — cycle for cycle, stat
for stat — but consumes the trace in its native ``TRACE_DTYPE`` array form
and eliminates the per-op Python object overhead that dominates the scalar
loop:

* the op stream is processed in chunks; per chunk, op classification
  (kind, read/write, stack/heap containment), cache-line indices,
  single-line detection, and the full SP trajectory (cumulative CALL/RET
  deltas) are computed as numpy arrays up front;
* each chunk then takes one of two exact loops.  **Vectorized-run mode**
  needs a configuration without a TLB or an NVM-resident persistence
  region, whose every mechanism hook is trivial or batch-eligible, *and*
  a hit-dense chunk.  L1 residency is predicted at chunk entry; maximal
  runs of predicted single-line L1 hits are committed as whole array
  operations against numpy mirrors of the cache's replacement state
  (ages authoritative in the mirror, tags patched from the cache's list,
  dirty bits shared via the cache's own buffer), and only the sequential
  residue — predicted misses, multi-line accesses, interval boundaries —
  walks the per-op path with the mirrors re-synced around each stateful
  call.  That residue costs a fixed numpy overhead per op, so a chunk
  with more than one predicted miss per ``VECTOR_OPS_PER_MISS`` ops (an
  L1-thrashing stretch, such as the Figure 8 apps) takes the **per-op
  loop** instead, even where the configuration would allow vector mode;
* mechanism store/load hooks for stack (and heap) traffic are delivered
  in batches through :meth:`PersistenceMechanism.on_store_batch` /
  ``on_load_batch`` when the mechanism declares ``supports_batching``, in
  either loop; mechanisms whose per-op costs feed back into the current
  cycle (SSP, the logging family) fall back to exact per-op delivery;
* a fault injector's cycle deadline (``FaultInjector.arm_cycle``) is read
  once per chunk; a chunk with one armed takes the per-op loop with
  per-op hooks and polls it after every op, before the interval-boundary
  test, exactly as the scalar loop does.  Named crash points and the
  persist-order oracle live in the checkpoint code both engines share,
  so an unarmed injector or an attached oracle leaves every chunk's loop
  choice alone;
* the per-op loop touches plain Python ints from ``tolist()``'d columns
  and handles only the inherently sequential residue: cache tag state,
  device write-buffer timing, and mechanism hooks — the single-line L1
  hit is still handled inline against the cache's columnar arrays
  without a method call;
* aggregate statistics (op counts, stack/other read/write counters, the
  interval write log, the interval-minimum SP) are accumulated as numpy
  reductions over chunk slices instead of per-op updates.

What cannot be vectorized is not approximated: cache hit/miss sequences,
NVM write-buffer stalls (which depend on the access's exact cycle), and
mechanism inline costs all flow through the same code paths as the scalar
engine, with ``hierarchy.now`` kept in sync at every stateful call.  The
scalar engine remains the differential oracle; see
``tests/test_engine_equivalence.py`` and ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import numpy as np

from repro.config import CACHE_LINE_BYTES
from repro.cpu.engine import EngineStats, ExecutionEngine, trace_array
from repro.cpu.ops import OpKind
from repro.persistence.none import NoPersistence

_READ = int(OpKind.READ)
_WRITE = int(OpKind.WRITE)
_CALL = int(OpKind.CALL)
_RET = int(OpKind.RET)
_COMPUTE = int(OpKind.COMPUTE)

#: Ops per vectorization chunk.  Large enough to amortize the numpy
#: precompute, small enough to keep the per-chunk arrays cache-resident.
CHUNK_OPS = 8192

#: Fewest ops per predicted L1 miss for a chunk to take vectorized-run
#: mode; sparser-hit chunks take the per-op loop (see ``_run_chunk``).
#: Measured per chunk, the Figure 8 apps and the synthetic streams
#: predict one miss per 1-3.5 ops and run 3-5x faster per-op; quicksort's
#: warm chunks predict one per 14 ops or (mostly) none at all, and keep
#: vector mode.
VECTOR_OPS_PER_MISS = 8


class BatchedExecutionEngine(ExecutionEngine):
    """Drop-in engine producing identical results to the scalar reference.

    Construction, configuration, and the :meth:`run` contract are inherited
    unchanged; only the execution strategy differs.  ``run`` accepts a
    :class:`~repro.workloads.trace.Trace`, a ``TRACE_DTYPE`` array, or any
    op sequence (converted once up front).
    """

    #: Chunks this engine ran in vectorized-run mode and in the per-op
    #: loop (diagnostics only: simulated results never depend on the split).
    vector_chunks = 0
    per_op_chunks = 0

    def run(
        self,
        ops,
        interval_cycles: int = 0,
        interval_ops: int | None = None,
        final_checkpoint: bool = True,
    ) -> EngineStats:
        if interval_cycles < 0:
            raise ValueError("interval_cycles must be non-negative")
        if interval_ops is not None and interval_ops <= 0:
            raise ValueError("interval_ops must be positive")
        arr = trace_array(ops)
        periodic = bool(interval_cycles) or interval_ops is not None
        next_boundary = self.now + interval_cycles if interval_cycles else None
        ops_in_interval = 0
        if periodic:
            self._start_interval()

        total = len(arr)
        start = 0
        while start < total:
            stop = min(total, start + CHUNK_OPS)
            next_boundary, ops_in_interval = self._run_chunk(
                arr[start:stop],
                interval_cycles,
                interval_ops,
                next_boundary,
                ops_in_interval,
            )
            start = stop

        if periodic and final_checkpoint and ops_in_interval > 0:
            self._end_interval()
        return self.stats

    def _run_chunk(
        self,
        chunk: np.ndarray,
        interval_cycles: int,
        interval_ops: int | None,
        next_boundary: int | None,
        ops_in_interval: int,
    ) -> tuple[int | None, int]:
        n = len(chunk)
        kinds_np = chunk["kind"]
        addrs_np = chunk["address"].astype(np.int64)
        sizes_np = chunk["size"].astype(np.int64)

        stack_start = self.stack_range.start
        stack_end = self.stack_range.end
        line_bytes = CACHE_LINE_BYTES

        # Vectorized classification.  READ/WRITE are the two lowest kinds,
        # so one comparison yields the memory-op mask.
        is_write_np = kinds_np == _WRITE
        mem_np = kinds_np <= _WRITE
        stack_np = mem_np & (addrs_np >= stack_start) & (addrs_np < stack_end)
        stack_write_np = stack_np & is_write_np
        single_np = mem_np & (sizes_np > 0) & (
            addrs_np % line_bytes + sizes_np <= line_bytes
        )
        lines_np = addrs_np // line_bytes

        heap_mech = self.heap_mechanism
        heap_np = None
        if heap_mech is not None:
            heap_range = self.heap_range
            heap_np = (
                mem_np
                & ~stack_np
                & (addrs_np >= heap_range.start)
                & (addrs_np < heap_range.end)
            )

        # SP trajectory: value of the stack pointer after each op.
        delta_np = np.where(
            kinds_np == _CALL,
            -sizes_np,
            np.where(kinds_np == _RET, sizes_np, 0),
        )
        sp_np = self.registers.stack_pointer + np.cumsum(delta_np)

        # A CALL that pushes SP below the stack base raises mid-run; find
        # the first offender (if any) and truncate the loop there.
        overflow_at = -1
        if int(sp_np.min(initial=stack_start)) < stack_start:
            violations = np.nonzero((kinds_np == _CALL) & (sp_np < stack_start))[0]
            if len(violations):
                overflow_at = int(violations[0])

        # Hot-loop locals.
        hierarchy = self.hierarchy
        l1 = hierarchy.l1
        l1_index_get = l1._index.get
        l1_age = l1._age
        l1_dirty = l1._dirty
        l1_latency = self.config.l1d.latency_cycles
        access_line = hierarchy._access_line
        full_access = hierarchy.access
        tlb = self.tlb
        mechanism = self.mechanism
        mech_trivial = type(mechanism) is NoPersistence
        mech_load = mechanism.on_load
        mech_store = mechanism.on_store
        heap_trivial = heap_mech is None or type(heap_mech) is NoPersistence
        heap_load = heap_mech.on_load if heap_mech is not None else None
        heap_store = heap_mech.on_store if heap_mech is not None else None
        ops_mode = interval_ops is not None
        cycles_mode = next_boundary is not None
        # An armed cycle deadline is polled after every op, as the scalar
        # loop does, so the chunk takes the per-op loop with per-op hooks.
        injector = self.fault_injector
        deadline = injector.armed_cycle if injector is not None else None

        # Batched hook delivery (see PersistenceMechanism.supports_batching).
        # Deferring hooks is exact only when (a) no region is NVM-resident,
        # so every demand latency inside a deferred window is independent of
        # the cycle count the deferred inline costs would have advanced, and
        # (b) every non-trivial mechanism in play batches, so no per-op hook
        # can observe a cycle count that is missing another mechanism's
        # deferred costs.
        no_nvm = not (
            mechanism.region_in_nvm
            or (heap_mech is not None and heap_mech.region_in_nvm)
        )
        batch_env = (
            deadline is None
            and no_nvm
            and (mech_trivial or mechanism.supports_batching)
            and (heap_mech is None or heap_trivial or heap_mech.supports_batching)
        )
        stack_batched = batch_env and not mech_trivial and mechanism.supports_batching
        heap_batched = (
            batch_env
            and heap_mech is not None
            and not heap_trivial
            and heap_mech.supports_batching
        )
        bounds_np = None
        if stack_batched or heap_batched:
            # Per-op upper bounds on deferred store costs: the loop may keep
            # deferring only while the accumulated bound cannot reach the
            # next interval boundary.
            bounds_np = np.zeros(n, dtype=np.int64)
            if stack_batched and stack_write_np.any():
                bounds_np[stack_write_np] = mechanism.store_cost_bound_array(
                    addrs_np[stack_write_np], sizes_np[stack_write_np]
                )
            if heap_batched:
                hw_mask = heap_np & is_write_np
                if hw_mask.any():
                    bounds_np[hw_mask] = heap_mech.store_cost_bound_array(
                        addrs_np[hw_mask], sizes_np[hw_mask]
                    )
        mech_store_batch = mechanism.on_store_batch
        mech_load_batch = mechanism.on_load_batch
        heap_store_batch = heap_mech.on_store_batch if heap_mech is not None else None
        heap_load_batch = heap_mech.on_load_batch if heap_mech is not None else None

        now = self.now
        app = 0
        inline = 0
        l1_hits = 0
        seg = 0  # start of the unflushed segment [seg, i)
        mseg = 0  # start of the undelivered mechanism window [mseg, i)
        pending_bound = 0  # upper bound on the window's deferred cycles

        def mech_flush(end: int) -> None:
            """Deliver deferred mechanism hooks for ops [mseg, end)."""
            nonlocal now, inline, mseg, pending_bound
            if end <= mseg:
                return
            win = slice(mseg, end)
            if stack_batched:
                w = stack_write_np[win]
                if w.any():
                    extra = mech_store_batch(
                        addrs_np[win][w], sizes_np[win][w], now
                    )
                    if extra:
                        now += extra
                        inline += extra
                r = stack_np[win] & ~is_write_np[win]
                if r.any():
                    extra = mech_load_batch(
                        addrs_np[win][r], sizes_np[win][r], now
                    )
                    if extra:
                        now += extra
                        inline += extra
            if heap_batched:
                hwin = heap_np[win]
                w = hwin & is_write_np[win]
                if w.any():
                    extra = heap_store_batch(
                        addrs_np[win][w], sizes_np[win][w], now
                    )
                    if extra:
                        now += extra
                        inline += extra
                r = hwin & ~is_write_np[win]
                if r.any():
                    extra = heap_load_batch(
                        addrs_np[win][r], sizes_np[win][r], now
                    )
                    if extra:
                        now += extra
                        inline += extra
            mseg = end
            pending_bound = 0

        def flush(end: int) -> None:
            """Commit aggregates for ops [seg, end) and sync engine state."""
            nonlocal app, inline, l1_hits, seg
            mech_flush(end)
            stats = self.stats
            if end > seg:
                seg_slice = slice(seg, end)
                seg_stack = stack_np[seg_slice]
                seg_write = is_write_np[seg_slice]
                seg_mem = mem_np[seg_slice]
                sw = seg_stack & seg_write
                stack_writes = int(np.count_nonzero(sw))
                stack_reads = int(np.count_nonzero(seg_stack)) - stack_writes
                writes = int(np.count_nonzero(seg_write))
                mem_ops = int(np.count_nonzero(seg_mem))
                stats.stack_writes += stack_writes
                stats.stack_reads += stack_reads
                stats.other_writes += writes - stack_writes
                stats.other_reads += (
                    mem_ops - writes - stack_reads
                )
                if stack_writes and (ops_mode or cycles_mode):
                    # Only an interval end reads the log: a run without
                    # intervals keeps none.
                    self._interval_writes.extend_array(addrs_np[seg_slice][sw])
                seg_min = int(sp_np[seg_slice].min())
                if seg_min < self._interval_min_sp:
                    self._interval_min_sp = seg_min
                if mech_trivial:
                    mechanism.stats.stores_seen += stack_writes
                    mechanism.stats.loads_seen += stack_reads
                if heap_mech is not None and heap_trivial and heap_np is not None:
                    seg_heap = heap_np[seg_slice]
                    hw = int(np.count_nonzero(seg_heap & seg_write))
                    heap_mech.stats.stores_seen += hw
                    heap_mech.stats.loads_seen += (
                        int(np.count_nonzero(seg_heap)) - hw
                    )
                stats.ops_executed += end - seg
                self.registers.op_index += end - seg
                self.registers.stack_pointer = int(sp_np[end - 1])
                seg = end
            stats.app_cycles += app
            stats.inline_cycles += inline
            app = 0
            inline = 0
            if l1_hits:
                l1.stats.hits += l1_hits
                l1_hits = 0
            self.now = now
            hierarchy.now = now

        loop_end = overflow_at if overflow_at >= 0 else n
        l1_index = l1._index

        def mark_nonsimple(start: int) -> None:
            """Predict run membership for ops [start, loop_end).

            An op is *nonsimple* when it is a memory op that is not a
            single-line hit against the L1's current resident set.
            """
            rest = slice(start, loop_end)
            if l1_index:
                resident = np.fromiter(l1_index.keys(), np.int64, len(l1_index))
                resident.sort()
                seg = lines_np[rest]
                slot = np.searchsorted(resident, seg)
                hit = np.take(resident, slot, mode="clip") == seg
                nonsimple_np[rest] = mem_np[rest] & ~(single_np[rest] & hit)
            else:
                nonsimple_np[rest] = mem_np[rest]

        # ------------------------------------------------------------------
        # Loop choice.  Vectorized-run mode pays a fixed numpy cost per run
        # and per sequential op (mirror sync, victim prediction, residency
        # re-patching over the rest of the chunk), so it only beats the
        # per-op loop when runs are long.  The chunk-entry residency
        # prediction that vector mode needs anyway counts the chunk's
        # sequential ops (predicted misses and multi-line accesses); a
        # chunk with more than one per VECTOR_OPS_PER_MISS ops (an
        # L1-thrashing stretch) takes the per-op loop instead.  Both loops
        # are exact, so the choice changes only host speed.
        # ------------------------------------------------------------------
        vector = False
        if tlb is None and batch_env and loop_end:
            nonsimple_np = np.empty(n, dtype=bool)
            mark_nonsimple(0)
            sequential = int(np.count_nonzero(nonsimple_np[:loop_end]))
            vector = sequential * VECTOR_OPS_PER_MISS <= loop_end

        # ------------------------------------------------------------------
        # Vectorized-run mode: when per-op state feedback is limited to the
        # L1 replacement state (no TLB, and every mechanism either trivial
        # or batched), whole runs of predicted L1 hits commit as array
        # operations.  Residency is predicted once per chunk and updated
        # incrementally at each miss (the inserted line becomes a future
        # hit, the evicted LRU victim a future miss), so run membership is
        # exact; interval boundaries inside a run are located by binary
        # search over the run's cumulative cost (plus the deferred-cost
        # bound, which can only over-estimate and therefore never misses a
        # boundary).
        # ------------------------------------------------------------------
        if vector:
            self.vector_chunks += 1
            any_batched = stack_batched or heap_batched
            # Static cost of every *simple* op: a single-line L1 hit costs
            # the L1 latency, COMPUTE its size, CALL/RET one cycle.  Only
            # run members (predicted hits / non-memory ops) read this.
            costs_np = np.where(
                mem_np,
                np.int64(l1_latency),
                np.where(kinds_np == _COMPUTE, sizes_np, np.int64(1)),
            )
            # Whole-chunk cumulative costs: run advances and boundary
            # searches become O(1)/O(log n) lookups.  Sums over [r0, stop)
            # are differences of the cumulative array; entries outside runs
            # (sequential ops, whose true cost differs) never fall inside a
            # queried span.
            ccost_all = np.cumsum(costs_np)
            cb_all = (
                np.cumsum(bounds_np)
                if (cycles_mode and any_batched)
                else None
            )
            tot_all = ccost_all + cb_all if cb_all is not None else ccost_all
            # Memory-op stream: every L1 access of the chunk in op order.
            # A run's hits are a contiguous slice of this stream, found via
            # the cumulative mem-op count — no per-run boolean indexing.
            cummem_all = np.cumsum(mem_np)
            mlines = lines_np[mem_np]
            mwrites = is_write_np[mem_np]
            # Chunk-wide consecutive-repeat masks and the write-position
            # stream, hoisted so commit_run never rebuilds them per run.
            # keep_all[p] is False where the next access touches the same
            # line; a run's last position is force-kept at commit time.
            num_mem = len(mlines)
            if num_mem:
                keep_all = np.empty(num_mem, dtype=bool)
                np.not_equal(mlines[1:], mlines[:-1], out=keep_all[:-1])
                keep_all[-1] = True
                # Kept positions and their running count, so a run maps to
                # a slice kidx_all[lo:hi] instead of a per-run flatnonzero.
                kidx_all = np.flatnonzero(keep_all)
                cumkeep = np.cumsum(keep_all)
                cumw_all = np.cumsum(mwrites)
                wlines = mlines[mwrites]
                num_w = len(wlines)
                if num_w:
                    wkeep_all = np.empty(num_w, dtype=bool)
                    np.not_equal(wlines[1:], wlines[:-1], out=wkeep_all[:-1])
                    wkeep_all[-1] = True
                    wkidx_all = np.flatnonzero(wkeep_all)
                    cumwkeep = np.cumsum(wkeep_all)
            l1_tags = l1._tags
            l1_free = l1._free
            assoc = l1._assoc
            power2 = l1._power_of_two_sets
            set_mask = l1._set_mask
            num_sets = l1._num_sets
            # Numpy mirrors of the L1 replacement state.  Inside vector
            # mode the *age* mirror is authoritative — commit_run writes
            # whole runs of ages into it vectorized — and is written back
            # to the cache's list (sync_ages) before anything that reads
            # the list: an eviction scan inside cache.access, a multi-line
            # access, an interval end, or leaving the chunk.  Tags flow
            # the other way (the list stays authoritative; the mirror is
            # patched after each sequential access), and the dirty mirror
            # shares the cache's buffer outright.
            age_np = np.empty(num_sets * assoc, dtype=np.int64)
            age_np[:] = l1_age
            tags_np = np.empty(num_sets * assoc, dtype=np.int64)
            tags_np[:] = l1_tags
            tags2d = tags_np.reshape(num_sets, assoc)
            dirty_np = np.frombuffer(l1_dirty, dtype=np.uint8)

            def sync_ages() -> None:
                """Write the authoritative age mirror back to the cache."""
                l1_age[:] = age_np.tolist()

            def predict(start: int) -> None:
                """Recompute run membership for ops [start, loop_end)."""
                # The cache's list state is authoritative whenever this
                # runs (pred_stale after arbitrary cache mutation); refresh
                # the mirrors from it.
                age_np[:] = l1_age
                tags_np[:] = l1_tags
                mark_nonsimple(start)

            def commit_run(r0: int, stop: int) -> None:
                """Apply a run of L1 hits to the cache's columnar state.

                Replicates the inline-hit bookkeeping exactly: the tick
                advances once per access, each touched line's age becomes
                the tick of its last access in the run, and written lines
                turn dirty — all as array writes into the numpy mirrors.
                Slots come from matching tags within each line's set; a
                non-match would mean the residency prediction was wrong,
                which by construction cannot happen (and the differential
                suite would catch any drift).
                """
                nonlocal l1_hits
                a = int(cummem_all[r0 - 1]) if r0 else 0
                b = int(cummem_all[stop - 1])
                k = b - a
                if not k:
                    return
                tick0 = l1._tick
                l1._tick = tick0 + k
                if k > 1:
                    # Consecutive repeats were deduped chunk-wide (stack
                    # locality makes them the common case); position b-1
                    # is force-kept to close the group the chunk-wide mask
                    # can't see ends here.  Fancy assignment stores the
                    # last value for a repeated slot, so non-adjacent
                    # repeats resolve last-wins like per-op updates would.
                    lo = int(cumkeep[a - 1]) if a else 0
                    hi = int(cumkeep[b - 2])
                    idx = np.empty(hi - lo + 1, dtype=np.int64)
                    idx[:-1] = kidx_all[lo:hi]
                    idx[-1] = b - 1
                    lines_sel = mlines[idx]
                    set_idx = (
                        lines_sel & set_mask
                        if power2
                        else lines_sel % num_sets
                    )
                    ways = (tags2d[set_idx] == lines_sel[:, None]).argmax(
                        axis=1
                    )
                    age_np[set_idx * assoc + ways] = idx + (tick0 + 1 - a)
                else:
                    age_np[l1_index[int(mlines[a])]] = tick0 + 1
                wa = int(cumw_all[a - 1]) if a else 0
                wb = int(cumw_all[b - 1])
                if wb > wa:
                    # Setting a dirty bit twice is harmless, so the forced
                    # last position needs no dedup against the mask.
                    if wb - wa > 1:
                        wlo = int(cumwkeep[wa - 1]) if wa else 0
                        whi = int(cumwkeep[wb - 2])
                        widx = np.empty(whi - wlo + 1, dtype=np.int64)
                        widx[:-1] = wkidx_all[wlo:whi]
                        widx[-1] = wb - 1
                        wl = wlines[widx]
                        wset = wl & set_mask if power2 else wl % num_sets
                        wways = (tags2d[wset] == wl[:, None]).argmax(axis=1)
                        dirty_np[wset * assoc + wways] = 1
                    else:
                        dirty_np[l1_index[int(wlines[wa])]] = 1
                l1_hits += k

            # The loop choice above already predicted the chunk from the
            # state the mirrors were just copied from.
            pred_stale = False
            i = 0
            while i < loop_end:
                if pred_stale:
                    # An interval boundary or a multi-line access may have
                    # reshaped L1 residency arbitrarily; re-predict.
                    predict(i)
                    pred_stale = False
                if nonsimple_np[i]:
                    # Sequential op: a predicted L1 miss or a multi-line
                    # access (always a memory op — non-memory ops are
                    # simple by definition).
                    address = int(addrs_np[i])
                    size = int(sizes_np[i])
                    is_write = bool(is_write_np[i])
                    if single_np[i]:
                        line = int(lines_np[i])
                        # Predict the LRU victim before the access (same
                        # unique-minimum scan the cache performs) so the
                        # residency picture can be patched incrementally.
                        victim_line = -1
                        set_index = (
                            line & set_mask if power2 else line % num_sets
                        )
                        base = set_index * assoc
                        set_ages = age_np[base : base + assoc]
                        # The mirror is authoritative for ages inside the
                        # vector loop; hand the cache this set's current
                        # picture before the access (the post-access patch
                        # below copies list -> mirror for the whole set, so
                        # a stale list entry would clobber newer mirror
                        # ages written by commit_run).
                        l1_age[base : base + assoc] = set_ages.tolist()
                        # An absent free list is a never-touched set
                        # (every way free); an empty one is a full set.
                        if not l1_free.get(set_index, True):
                            # argmin = first minimum, the same way the
                            # cache's strict-less scan resolves (ticks are
                            # unique anyway).
                            victim_line = int(
                                tags_np[base + int(set_ages.argmin())]
                            )
                        hierarchy.now = now
                        latency = access_line(
                            line, address, is_write
                        ).latency_cycles
                        # The access rewrote this set's replacement state;
                        # patch the mirrors from the list.
                        age_np[base : base + assoc] = l1_age[
                            base : base + assoc
                        ]
                        tags_np[base : base + assoc] = l1_tags[
                            base : base + assoc
                        ]
                        if i + 1 < loop_end:
                            rest = slice(i + 1, loop_end)
                            rl = lines_np[rest]
                            rsingle = single_np[rest]
                            view = nonsimple_np[rest]
                            # The inserted line now hits; the evicted
                            # victim now misses.
                            view[(rl == line) & rsingle] = False
                            if victim_line >= 0:
                                view[(rl == victim_line) & rsingle] = True
                    else:
                        # A multi-line access may read replacement state
                        # across arbitrary sets; hand the cache its exact
                        # list state first, then re-mirror what the access
                        # rewrote (a later sync_ages must not clobber the
                        # list with the pre-access picture).
                        sync_ages()
                        hierarchy.now = now
                        latency = full_access(
                            address, size, is_write
                        ).latency_cycles
                        age_np[:] = l1_age
                        tags_np[:] = l1_tags
                        pred_stale = True
                    now += latency
                    app += latency
                    if cycles_mode and any_batched:
                        pending_bound += int(bounds_np[i])
                    if ops_mode:
                        ops_in_interval += 1
                        if ops_in_interval >= interval_ops:
                            sync_ages()
                            flush(i + 1)
                            self._end_interval()
                            ops_in_interval = 0
                            self._start_interval()
                            now = self.now
                            pred_stale = True
                    elif cycles_mode:
                        ops_in_interval += 1
                        if now + pending_bound >= next_boundary:
                            if pending_bound:
                                mech_flush(i + 1)
                            if now >= next_boundary:
                                sync_ages()
                                flush(i + 1)
                                self._end_interval()
                                next_boundary = self.now + interval_cycles
                                ops_in_interval = 0
                                self._start_interval()
                                now = self.now
                                pred_stale = True
                    i += 1
                    continue

                # Maximal run of simple ops [i, r1).
                seg_ns = nonsimple_np[i:loop_end]
                rel = int(seg_ns.argmax())
                r1 = i + rel if seg_ns[rel] else loop_end
                r0 = i
                while r0 < r1:
                    seg_len = r1 - r0
                    boundary_hit = False
                    base_c = int(ccost_all[r0 - 1]) if r0 else 0
                    if cycles_mode:
                        # First op where the (bound-inflated) cycle count
                        # reaches the boundary, by binary search over the
                        # non-decreasing cumulative cost.
                        base_t = int(tot_all[r0 - 1]) if r0 else 0
                        budget = next_boundary - now - pending_bound + base_t
                        if int(tot_all[r1 - 1]) < budget:
                            # Whole run fits before the boundary — the
                            # overwhelmingly common case; skip the search.
                            stop = r1
                        else:
                            j = int(
                                np.searchsorted(tot_all[r0:r1], budget)
                            )
                            if j < seg_len:
                                boundary_hit = True
                                stop = r0 + j + 1
                            else:
                                stop = r1
                        commit_run(r0, stop)
                        adv = int(ccost_all[stop - 1]) - base_c
                        now += adv
                        app += adv
                        if cb_all is not None:
                            pending_bound += (
                                int(cb_all[stop - 1])
                                - (int(cb_all[r0 - 1]) if r0 else 0)
                            )
                        ops_in_interval += stop - r0
                    elif ops_mode:
                        remaining = interval_ops - ops_in_interval
                        if remaining <= seg_len:
                            boundary_hit = True
                            stop = r0 + remaining
                        else:
                            stop = r1
                        commit_run(r0, stop)
                        adv = int(ccost_all[stop - 1]) - base_c
                        now += adv
                        app += adv
                        ops_in_interval += stop - r0
                    else:
                        stop = r1
                        commit_run(r0, stop)
                        adv = int(ccost_all[stop - 1]) - base_c
                        now += adv
                        app += adv
                    r0 = stop
                    if boundary_hit:
                        if cycles_mode:
                            if pending_bound:
                                mech_flush(stop)
                            if now >= next_boundary:
                                sync_ages()
                                flush(stop)
                                self._end_interval()
                                next_boundary = self.now + interval_cycles
                                ops_in_interval = 0
                                self._start_interval()
                                now = self.now
                                pred_stale = True
                                break
                            # Bound over-estimated: no boundary yet, keep
                            # consuming the run with the bound reset.
                        else:
                            sync_ages()
                            flush(stop)
                            self._end_interval()
                            ops_in_interval = 0
                            self._start_interval()
                            now = self.now
                            pred_stale = True
                            break
                i = r0

            # Leaving vector mode: the cache's list state must be exact
            # again for the scalar-visible world (next chunk, fault
            # snapshots, end-of-run inspection).  When pred_stale is set
            # the list is already authoritative (an interval end mutated
            # the cache after the last sync) and the mirrors are stale —
            # syncing would clobber it.
            if not pred_stale:
                sync_ages()
            if overflow_at >= 0:
                flush(overflow_at + 1)
                sp = int(sp_np[overflow_at])
                raise RuntimeError(
                    f"stack overflow: SP {sp:#x} below {stack_start:#x}"
                )
            flush(n)
            return next_boundary, ops_in_interval

        # Python-int columns for the per-op loop (miss-dense chunks, and
        # TLB-enabled or non-batchable configurations).
        self.per_op_chunks += 1
        kinds = kinds_np.tolist()
        addrs = addrs_np.tolist()
        sizes = sizes_np.tolist()
        stack_flags = stack_np.tolist()
        single_flags = single_np.tolist()
        lines = lines_np.tolist()
        heap_flags = heap_np.tolist() if heap_np is not None else None
        sbounds = bounds_np.tolist() if bounds_np is not None else None

        i = 0
        while i < loop_end:
            k = kinds[i]
            if k <= _WRITE:
                address = addrs[i]
                size = sizes[i]
                is_write = k == _WRITE
                if tlb is not None:
                    cost = tlb.translate(address, is_write)
                    now += cost
                    app += cost
                if single_flags[i]:
                    slot = l1_index_get(lines[i])
                    if slot is not None:
                        # Inline L1 hit: the dominant case.
                        l1_hits += 1
                        tick = l1._tick + 1
                        l1._tick = tick
                        l1_age[slot] = tick
                        if is_write:
                            l1_dirty[slot] = 1
                        latency = l1_latency
                    else:
                        hierarchy.now = now
                        latency = access_line(
                            lines[i], address, is_write
                        ).latency_cycles
                else:
                    hierarchy.now = now
                    latency = full_access(address, size, is_write).latency_cycles
                now += latency
                app += latency
                if stack_flags[i]:
                    if stack_batched:
                        # Hook deferred; only the cost bound advances.
                        pending_bound += sbounds[i]
                    elif not mech_trivial:
                        hierarchy.now = now
                        extra = (
                            mech_store(address, size, now)
                            if is_write
                            else mech_load(address, size, now)
                        )
                        if extra:
                            now += extra
                            inline += extra
                elif heap_flags is not None and heap_flags[i]:
                    if heap_batched:
                        pending_bound += sbounds[i]
                    elif not heap_trivial:
                        hierarchy.now = now
                        extra = (
                            heap_store(address, size, now)
                            if is_write
                            else heap_load(address, size, now)
                        )
                        if extra:
                            now += extra
                            inline += extra
            elif k == _COMPUTE:
                cost = sizes[i]
                now += cost
                app += cost
            else:  # CALL / RET (overflowing CALLs were truncated out above)
                now += 1
                app += 1

            if deadline is not None and now >= deadline:
                flush(i + 1)
                injector.check_cycle(now)
            if ops_mode:
                ops_in_interval += 1
                if ops_in_interval >= interval_ops:
                    flush(i + 1)
                    self._end_interval()
                    ops_in_interval = 0
                    self._start_interval()
                    now = self.now
            elif cycles_mode:
                # The count still matters here: a trailing partial interval
                # is only committed when ops ran since the last boundary.
                ops_in_interval += 1
                if now + pending_bound >= next_boundary:
                    # The boundary is within reach of the deferred costs:
                    # deliver the pending batch to learn the exact cycle
                    # count, then test the boundary as the scalar engine
                    # would have.
                    if pending_bound:
                        mech_flush(i + 1)
                    if now >= next_boundary:
                        flush(i + 1)
                        self._end_interval()
                        next_boundary = self.now + interval_cycles
                        ops_in_interval = 0
                        self._start_interval()
                        now = self.now
            i += 1

        if overflow_at >= 0:
            # Replicate the scalar engine exactly: the faulting CALL counts
            # as executed, moves SP (and the interval minimum), charges no
            # cycles, and raises.
            flush(overflow_at + 1)
            sp = int(sp_np[overflow_at])
            raise RuntimeError(
                f"stack overflow: SP {sp:#x} below {stack_start:#x}"
            )
        flush(n)
        return next_boundary, ops_in_interval
