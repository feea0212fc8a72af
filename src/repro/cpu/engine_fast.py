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
  needs a configuration without an NVM-resident persistence region, whose
  every mechanism hook is trivial or batch-eligible, *and* a hit-dense
  chunk.  L1 residency is predicted at chunk entry; maximal
  runs of predicted single-line L1 hits are committed as whole array
  operations through zero-copy numpy views of the cache's own columns,
  and only the sequential residue — predicted misses and multi-line
  accesses — goes through the walk, one op at a time.  That residue
  costs a fixed numpy overhead per op, so a chunk with more than one
  predicted miss per ``VECTOR_OPS_PER_MISS`` ops (``PYTHON_VECTOR_OPS_PER_MISS``
  when the walk runs in Python; an L1-thrashing stretch, such as the
  Figure 8 apps) takes the **per-op loop**
  instead, even where the configuration would allow vector mode;
* mechanism store/load hooks for stack (and heap) traffic are delivered
  in batches through :meth:`PersistenceMechanism.on_store_batch` /
  ``on_load_batch`` when the mechanism declares ``supports_batching``, in
  either loop; mechanisms whose per-op costs feed back into the current
  cycle (SSP, the logging family) fall back to exact per-op delivery;
* both loops end an interval through one boundary step.  Each loop
  decides inline whether an op (or, in vector mode, a run found by binary
  search) reaches the boundary; in cycles mode ``due`` then delivers the
  deferred hooks and tests the exact cycle count, and ``cross`` flushes
  the chunk's aggregates, ends the interval, re-arms the next boundary and
  starts the next interval.  Deferred hooks are delivered by one routine
  over a list of ``(region mask, mechanism)`` pairs, stack first;
* a fault injector's cycle deadline (``FaultInjector.arm_cycle``) is read
  once per chunk; a chunk with one armed takes the per-op loop with
  per-op hooks and polls it after every op, before the interval-boundary
  test, exactly as the scalar loop does.  Named crash points and the
  persist-order oracle live in the checkpoint code both engines share,
  so an unarmed injector or an attached oracle leaves every chunk's loop
  choice alone;
* the per-op loop hands stretches of ops to the walk
  (:func:`repro.memory.native.walker`: native C, or its Python
  fallback), which runs the cache hierarchy, device write-buffer timing
  and op costs and returns at the next op whose tail needs Python — a
  per-op mechanism hook, the deadline poll, or a boundary candidate;
* aggregate statistics (op counts, stack/other read/write counters, the
  interval write log, the interval-minimum SP) are accumulated as numpy
  reductions over chunk slices instead of per-op updates.

What cannot be vectorized is not approximated: cache hit/miss sequences,
NVM write-buffer stalls (which depend on the access's exact cycle), and
mechanism inline costs follow the scalar engine's model exactly, the
walk mirroring the reference hierarchy over the same buffers, with
``hierarchy.now`` set before every Python hook.  The scalar engine
remains the differential oracle; see ``tests/test_engine_equivalence.py``,
``tests/test_native_walk.py`` and ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import numpy as np

from repro.config import CACHE_LINE_BYTES
from repro.cpu.engine import EngineStats, ExecutionEngine, trace_array
from repro.cpu.ops import OpKind
from repro.memory import native
from repro.memory.cache import HITS
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
#: Measured per chunk against the native per-op walk (seed 42, 2-vCPU VM,
#: best of three passes, each chunk run both ways):
#:
#: * ``qsort_l1`` (8192-op chunks): vector mode is 1.8-6.8x slower below
#:   32 ops per miss, even at 32-48, 5-13% faster at 48-512 and 22-27%
#:   faster at 512 or more (most chunks predict no miss at all);
#: * ``apps_fig8`` (vanilla, Prosper and Dirtybit chunks): every eligible
#:   chunk predicts a miss per 1-2 ops, where vector mode is 11x slower;
#: * ``kernel_mt`` (500-op quanta): the per-op walk is 1.4-1.6x faster at
#:   32-96 ops per miss and 3% faster with no predicted miss.
VECTOR_OPS_PER_MISS = 64
#: The same switch when the walk runs in Python (no C compiler): the value
#: tuned against the earlier Python per-op loop, whose per-op cost the
#: Python walk matches.
PYTHON_VECTOR_OPS_PER_MISS = 8


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
        kinds_np = np.ascontiguousarray(chunk["kind"])
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
        l1_latency = self.config.l1d.latency_cycles
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
        stack_batched = batch_env and not mech_trivial
        heap_batched = batch_env and not heap_trivial
        # (region mask, mechanism) for every deferring mechanism, stack
        # first: the order hooks are delivered in.
        batched = []
        if stack_batched:
            batched.append((stack_np, mechanism))
        if heap_batched:
            batched.append((heap_np, heap_mech))
        bounds_np = None
        # Per-op walk flags: a deferred op adds its cost bound, a per-op
        # hook op stops the walk so the hook runs in Python.
        flags_np = np.zeros(n, dtype=np.uint8)
        if batched:
            # Per-op upper bounds on deferred store costs: the loop may keep
            # deferring only while the accumulated bound cannot reach the
            # next interval boundary.
            bounds_np = np.zeros(n, dtype=np.int64)
            for mask, mech in batched:
                flags_np[mask] = native.F_BOUND
                w = mask & is_write_np
                if w.any():
                    bounds_np[w] = mech.store_cost_bound_array(
                        addrs_np[w], sizes_np[w]
                    )
        stack_hooks = not (mech_trivial or stack_batched)
        heap_hooks = heap_np is not None and not (heap_trivial or heap_batched)
        if stack_hooks:
            flags_np[stack_np] = native.F_HOOK
        if heap_hooks:
            flags_np[heap_np] = native.F_HOOK

        now = self.now
        app = 0
        inline = 0
        seg = 0  # start of the unflushed segment [seg, i)
        mseg = 0  # start of the undelivered mechanism window [mseg, i)
        pending_bound = 0  # upper bound on the window's deferred cycles

        def mech_flush(end: int) -> None:
            """Deliver deferred mechanism hooks for ops [mseg, end)."""
            nonlocal now, inline, mseg, pending_bound
            if end <= mseg:
                return
            win = slice(mseg, end)
            for mask, mech in batched:
                region = mask[win]
                writes = is_write_np[win]
                for sel, deliver in (
                    (region & writes, mech.on_store_batch),
                    (region & ~writes, mech.on_load_batch),
                ):
                    if sel.any():
                        extra = deliver(addrs_np[win][sel], sizes_np[win][sel], now)
                        if extra:
                            now += extra
                            inline += extra
            mseg = end
            pending_bound = 0

        def flush(end: int) -> None:
            """Commit aggregates for ops [seg, end) and sync engine state."""
            nonlocal app, inline, seg
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
            self.now = now
            hierarchy.now = now

        # ------------------------------------------------------------------
        # The boundary step, shared by both loops.  A loop decides inline
        # whether op i reaches the boundary (the op count in ops mode; in
        # cycles mode the cycle count plus the deferred-cost bound, which
        # can only over-estimate), then asks due() in cycles mode and ends
        # the interval through cross().
        # ------------------------------------------------------------------
        def due(end: int) -> bool:
            """Deliver the deferred hooks for ops [mseg, end), then test the
            exact cycle count against the boundary, as the scalar loop does."""
            if pending_bound:
                mech_flush(end)
            return now >= next_boundary

        def cross(end: int) -> None:
            """End the interval after op ``end - 1`` and start the next."""
            nonlocal now, next_boundary, ops_in_interval
            flush(end)
            self._end_interval()
            if cycles_mode:
                next_boundary = self.now + interval_cycles
            ops_in_interval = 0
            self._start_interval()
            now = self.now

        loop_end = overflow_at if overflow_at >= 0 else n
        # Zero-copy views of the L1's columns: vector mode reads and writes
        # the cache's own replacement state through them.
        l1_tags = np.frombuffer(l1._tags, dtype=np.int64)

        def mark_nonsimple(start: int) -> None:
            """Predict run membership for ops [start, loop_end).

            An op is *nonsimple* when it is a memory op that is not a
            single-line hit against the L1's current resident set.
            """
            rest = slice(start, loop_end)
            resident = l1_tags[l1_tags >= 0]
            if len(resident):
                resident.sort()
                seg = lines_np[rest]
                slot = np.searchsorted(resident, seg)
                hit = np.take(resident, slot, mode="clip") == seg
                nonsimple_np[rest] = mem_np[rest] & ~(single_np[rest] & hit)
            else:
                nonsimple_np[rest] = mem_np[rest]

        # Both loops hand sequential ops to the walk (native.walker).
        walk = native.walker(
            hierarchy, kinds_np, addrs_np, sizes_np, flags_np, bounds_np
        )
        step = walk.step
        ctl = walk.ctl

        # ------------------------------------------------------------------
        # Loop choice.  Vectorized-run mode pays a fixed numpy cost per run
        # and per sequential op (victim prediction, residency re-patching
        # over the rest of the chunk), so it only beats the per-op loop
        # when runs are long.  The chunk-entry residency prediction that
        # vector mode needs anyway counts the chunk's sequential ops
        # (predicted misses and multi-line accesses); a chunk with more
        # than one per VECTOR_OPS_PER_MISS ops (an L1-thrashing stretch)
        # takes the per-op loop instead.  Both loops are exact, so the
        # choice changes only host speed.
        # ------------------------------------------------------------------
        vector = False
        if batch_env and loop_end:
            nonsimple_np = np.empty(n, dtype=bool)
            mark_nonsimple(0)
            sequential = int(np.count_nonzero(nonsimple_np[:loop_end]))
            vector = sequential * (
                VECTOR_OPS_PER_MISS
                if isinstance(walk, native.NativeWalk)
                else PYTHON_VECTOR_OPS_PER_MISS
            ) <= loop_end

        # ------------------------------------------------------------------
        # Vectorized-run mode: when per-op state feedback is limited to the
        # L1 replacement state (every mechanism either trivial or batched),
        # whole runs of predicted L1 hits commit as array operations.
        # Residency is predicted once per chunk and updated incrementally
        # at each miss (the inserted line becomes a future hit, the evicted
        # LRU victim a future miss), so run membership is exact; interval
        # boundaries inside a run are located by binary search over the
        # run's cumulative cost (plus the deferred-cost bound, which can
        # only over-estimate and therefore never misses a boundary).
        # ------------------------------------------------------------------
        if vector:
            self.vector_chunks += 1
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
                if (cycles_mode and batched)
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
            assoc = l1._assoc
            power2 = l1._power_of_two_sets
            set_mask = l1._set_mask
            num_sets = l1._num_sets
            l1_clock = l1._clock
            l1_counts = l1.stats.counts
            # The L1's replacement state, shared with the cache and the
            # walk: ages and dirty bits are written in place.
            age_np = np.frombuffer(l1._age, dtype=np.int64)
            tags2d = l1_tags.reshape(num_sets, assoc)
            dirty_np = np.frombuffer(l1._dirty, dtype=np.uint8)

            def hit_slot(line: int) -> int:
                """Slot of a predicted L1 hit; a non-resident line raises
                rather than letting index -1 overwrite the last slot."""
                slot = l1._slot(line)
                if slot < 0:
                    raise RuntimeError(f"predicted L1 hit on absent line {line}")
                return slot

            def commit_run(r0: int, stop: int) -> None:
                """Apply a run of L1 hits to the cache's columnar state.

                Replicates the hit bookkeeping exactly: the tick advances
                once per access, each touched line's age becomes the tick
                of its last access in the run, and written lines turn
                dirty — all as array writes into the cache's columns.
                Slots come from matching tags within each line's set; a
                non-match would mean the residency prediction was wrong,
                which by construction cannot happen (and the differential
                suite would catch any drift).
                """
                a = int(cummem_all[r0 - 1]) if r0 else 0
                b = int(cummem_all[stop - 1])
                k = b - a
                if not k:
                    return
                tick0 = l1_clock[0]
                l1_clock[0] = tick0 + k
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
                    age_np[hit_slot(int(mlines[a]))] = tick0 + 1
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
                        dirty_np[hit_slot(int(wlines[wa]))] = 1
                l1_counts[HITS] += k

            # The loop choice above already predicted the chunk.
            pred_stale = False
            i = 0
            while i < loop_end:
                if pred_stale:
                    # An interval boundary or a multi-line access may have
                    # reshaped L1 residency arbitrarily; re-predict.
                    mark_nonsimple(i)
                    pred_stale = False
                if nonsimple_np[i]:
                    # Sequential op: a predicted L1 miss or a multi-line
                    # access (always a memory op — non-memory ops are
                    # simple by definition), run by the walk.
                    victim_line = -1
                    if single_np[i]:
                        line = int(lines_np[i])
                        # Predict the LRU victim before the access (same
                        # unique-minimum scan the cache performs) so the
                        # residency picture can be patched incrementally.
                        base = (line & set_mask if power2 else line % num_sets) * assoc
                        if l1_tags[base : base + assoc].min() >= 0:
                            # A full set: argmin is the unique minimum tick.
                            victim_line = int(
                                l1_tags[base + int(age_np[base : base + assoc].argmin())]
                            )
                    # One op per call, under the walk's default (never
                    # firing) end-of-op limits: this loop runs the
                    # boundary step itself.
                    ctl[native.C_I] = i
                    ctl[native.C_END] = i + 1
                    ctl[native.C_NOW] = now
                    ctl[native.C_PENDING] = pending_bound
                    ctl[native.C_OPS] = ops_in_interval
                    step()
                    now = ctl[native.C_NOW]
                    app += ctl[native.C_APP]
                    if cb_all is not None:
                        pending_bound = ctl[native.C_PENDING]
                    ops_in_interval = ctl[native.C_OPS]
                    if not single_np[i]:
                        pred_stale = True
                    elif i + 1 < loop_end:
                        rest = slice(i + 1, loop_end)
                        rl = lines_np[rest]
                        rsingle = single_np[rest]
                        view = nonsimple_np[rest]
                        # The inserted line now hits; the evicted
                        # victim now misses.
                        view[(rl == line) & rsingle] = False
                        if victim_line >= 0:
                            view[(rl == victim_line) & rsingle] = True
                    stop = i + 1
                    boundary = (
                        ops_in_interval >= interval_ops
                        if ops_mode
                        else cycles_mode and now + pending_bound >= next_boundary
                    )
                else:
                    # Maximal run of simple ops [i, stop), cut short at the
                    # first op that reaches the boundary: by binary search
                    # over the non-decreasing cumulative (bound-inflated)
                    # cost in cycles mode, by the ops remaining in ops mode.
                    seg_ns = nonsimple_np[i:loop_end]
                    rel = int(seg_ns.argmax())
                    stop = i + rel if seg_ns[rel] else loop_end
                    boundary = False
                    if cycles_mode:
                        base_t = int(tot_all[i - 1]) if i else 0
                        budget = next_boundary - now - pending_bound + base_t
                        # The whole run fits before the boundary in the
                        # overwhelmingly common case; skip the search.
                        if int(tot_all[stop - 1]) >= budget:
                            boundary = True
                            stop = i + 1 + int(
                                np.searchsorted(tot_all[i:stop], budget)
                            )
                    elif ops_mode:
                        remaining = interval_ops - ops_in_interval
                        if remaining <= stop - i:
                            boundary = True
                            stop = i + remaining
                    commit_run(i, stop)
                    adv = int(ccost_all[stop - 1]) - (
                        int(ccost_all[i - 1]) if i else 0
                    )
                    now += adv
                    app += adv
                    if cb_all is not None:
                        pending_bound += int(cb_all[stop - 1]) - (
                            int(cb_all[i - 1]) if i else 0
                        )
                    ops_in_interval += stop - i
                i = stop
                # An over-estimating bound (due() is False) only resets the
                # bound: the run resumes at i, re-found from the prediction.
                if boundary and (ops_mode or due(stop)):
                    cross(stop)
                    pred_stale = True
        else:
            # Per-op loop (miss-dense chunks and non-batchable
            # configurations): the walk runs stretches of ops natively and
            # returns at each op whose tail needs Python — a per-op hook,
            # the deadline poll, or a boundary candidate.
            self.per_op_chunks += 1
            # Python ints for the hook ops' arguments; a chunk without
            # per-op hooks never reads them.
            if stack_hooks or heap_hooks:
                kinds = kinds_np.tolist()
                addrs = addrs_np.tolist()
                sizes = sizes_np.tolist()
                hooks = (flags_np & native.F_HOOK).tolist()
                stack_flags = stack_np.tolist()
            else:
                hooks = None
            ctl[native.C_END] = loop_end
            if ops_mode:
                ctl[native.C_OPS_LIMIT] = interval_ops
            if deadline is not None:
                ctl[native.C_DEADLINE] = deadline

            i = 0
            while i < loop_end:
                ctl[native.C_I] = i
                ctl[native.C_NOW] = now
                ctl[native.C_PENDING] = pending_bound
                ctl[native.C_OPS] = ops_in_interval
                if cycles_mode:
                    ctl[native.C_NEXT] = next_boundary
                step()
                i = ctl[native.C_I]
                now = ctl[native.C_NOW]
                app += ctl[native.C_APP]
                pending_bound = ctl[native.C_PENDING]
                ops_in_interval = ctl[native.C_OPS]
                if i == loop_end:
                    break

                if hooks is not None and hooks[i]:
                    address = addrs[i]
                    size = sizes[i]
                    is_write = kinds[i] == _WRITE
                    hierarchy.now = now
                    if stack_flags[i]:
                        extra = (
                            mech_store(address, size, now)
                            if is_write
                            else mech_load(address, size, now)
                        )
                    else:
                        extra = (
                            heap_store(address, size, now)
                            if is_write
                            else heap_load(address, size, now)
                        )
                    if extra:
                        now += extra
                        inline += extra

                if deadline is not None and now >= deadline:
                    flush(i + 1)
                    injector.check_cycle(now)
                # The count still matters in cycles mode: a trailing partial
                # interval is only committed when ops ran since the last
                # boundary.
                ops_in_interval += 1
                if (
                    ops_in_interval >= interval_ops
                    if ops_mode
                    else cycles_mode
                    and now + pending_bound >= next_boundary
                    and due(i + 1)
                ):
                    cross(i + 1)
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
