"""Batched execution engine: the fast path of the simulator.

:class:`BatchedExecutionEngine` executes the same machine model as the
scalar :class:`~repro.cpu.engine.ExecutionEngine` — cycle for cycle, stat
for stat — but consumes the trace in its native ``TRACE_DTYPE`` array form
and eliminates the per-op Python object overhead that dominates the scalar
loop:

* the op stream is processed in chunks; per chunk, op classification
  (kind, read/write, stack/heap containment), the per-op walk flags and
  deferred-cost bounds, and the full SP trajectory (cumulative CALL/RET
  deltas) are computed as numpy arrays up front;
* every chunk runs one loop: it hands stretches of ops to the walk
  (:func:`repro.memory.native.walker`: native C, or its Python
  fallback), which runs the cache hierarchy, device write-buffer timing
  and op costs and returns at the next op whose tail needs Python — a
  due per-op mechanism hook or a stop candidate;
* a hook reaches a stack (or heap) mechanism only for the kinds of
  access its class defines (:meth:`PersistenceMechanism.defines`).  The
  engine keeps each mechanism's ledger (``stats``): it counts every
  region access from the op columns and books each hook's returned
  cycles where it charges them.  A mechanism with no hook (Dirtybit,
  which reads the interval store log) never stops the walk.  Store hooks
  are delivered in batches through
  :meth:`PersistenceMechanism.on_store_batch` when no region is in NVM
  and every hooked mechanism declares ``supports_batching`` and takes no
  loads; otherwise every hook is delivered per op (SSP, the logging
  family).  A per-op hook is due once the cycle count reaches the
  mechanism's ``hook_deadline`` (always, at the default 0): SSP's hooks
  before its next consolidation charge nothing, so the walk runs past
  them, recording their cycle counts, and ``replay`` runs them in op
  order, each at its own cycle count, before the next due hook, interval
  end or crash check;
* one stop rule serves interval boundaries and crashes.  The walk stops
  at an op that may reach the interval's op count, or where the cycle
  count plus the deferred-cost bound (which can only over-estimate) may
  reach the next boundary or an armed fault deadline
  (``FaultInjector.arm_cycle``, read once per chunk); without either
  cycle stop no bound is built.  ``due`` then delivers the deferred
  hooks and tests the exact cycle count, deadline first as in the
  scalar loop, and ``cross`` ends the interval.  Hooks are routed over
  one list of ``(region mask, mechanism)`` pairs, built per chunk from
  the regions the scalar engine's ``_regions`` lists, stack first.  Named
  crash points and the persist-order oracle live in the checkpoint code
  both engines share, so no injector or oracle turns batched delivery
  off;
* aggregate statistics (op counts, stack/other read/write counters,
  each region's interval store log, the interval-minimum SP) are
  accumulated as numpy reductions over chunk slices instead of per-op
  updates; the store log takes each region's stores, address and size,
  in op order, sliced out of the chunk's columns.

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

from repro.cpu.engine import EngineStats, ExecutionEngine, trace_array
from repro.cpu.ops import OpKind
from repro.memory import native

_WRITE = int(OpKind.WRITE)
_CALL = int(OpKind.CALL)
_RET = int(OpKind.RET)

#: Ops per chunk.  Large enough to amortize the numpy
#: precompute, small enough to keep the per-chunk arrays cache-resident.
CHUNK_OPS = 8192


class BatchedExecutionEngine(ExecutionEngine):
    """Drop-in engine producing identical results to the scalar reference.

    Construction, configuration, and the :meth:`run` contract are inherited
    unchanged; only the execution strategy differs.  ``run`` accepts a
    :class:`~repro.workloads.trace.Trace`, a ``TRACE_DTYPE`` array, or any
    op sequence (converted once up front).
    """

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

        # Vectorized classification.  READ/WRITE are the two lowest kinds,
        # so one comparison yields the memory-op mask.
        is_write_np = kinds_np == _WRITE
        mem_np = kinds_np <= _WRITE
        # (region mask, mechanism, store log), stack first: the order hooks
        # are delivered in.  An access belongs to the first region holding
        # it.
        regions = []
        outside = mem_np
        for mech, ctx in self._regions():
            region = ctx.region
            mask = outside & (addrs_np >= region.start) & (addrs_np < region.end)
            outside = outside & ~mask
            regions.append((mask, mech, ctx.stores))
        stack_np = regions[0][0]
        stack_start = self.stack_range.start

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
        ops_mode = interval_ops is not None
        cycles_mode = next_boundary is not None
        periodic = ops_mode or cycles_mode
        # An armed cycle deadline is one more cycle stop (see due()).
        injector = self.fault_injector
        deadline = injector.armed_cycle if injector is not None else None

        # A hook reaches a mechanism only for the kinds of access its class
        # defines; flush() counts every access.
        hooked = [
            (mask, mech)
            for mask, mech, _ in regions
            if mech.defines("on_store") or mech.defines("on_load")
        ]
        # Batched hook delivery (see PersistenceMechanism.supports_batching).
        # Deferring store hooks is exact only when (a) no region is
        # NVM-resident, so every demand latency inside a deferred window is
        # independent of the cycle count the deferred inline costs would
        # have advanced, and (b) every hooked mechanism batches and takes no
        # loads, so no per-op hook can observe a cycle count that is
        # missing another mechanism's deferred costs.
        batch_env = not any(mech.region_in_nvm for _, mech, _ in regions) and all(
            mech.supports_batching and not mech.defines("on_load")
            for _, mech in hooked
        )
        # Per-op walk flags: a deferred store adds its cost bound, a per-op
        # hook op stops the walk once its hook is due, so the hook runs in
        # Python.
        flags_np = np.zeros(n, dtype=np.uint8)
        bounds_np = None
        # (region store mask, mechanism) for every deferring mechanism.
        batched = []
        # With per-op hooks, ``calls[hook_np[i]]`` is op i's hook (0: none)
        # and ``ledgers[hook_np[i]]`` its mechanism's stats.
        calls = [None]
        ledgers = [None]
        hook_np = None
        if batch_env:
            batched = [(mask & is_write_np, mech) for mask, mech in hooked]
            # Per-store upper bounds on deferred costs: the loop may keep
            # deferring only while the accumulated bound cannot reach the
            # next cycle stop.  Without one, nothing reads them: the op
            # count and cross() deliver the hooks.
            if batched and (cycles_mode or deadline is not None):
                bounds_np = np.zeros(n, dtype=np.int64)
                for w, mech in batched:
                    if w.any():
                        flags_np[w] = native.F_BOUND
                        bounds_np[w] = mech.store_cost_bound_array(
                            addrs_np[w], sizes_np[w]
                        )
        elif hooked:
            hook_np = np.zeros(n, dtype=np.uint8)
            for mask, mech in hooked:
                for name, write in (("on_load", False), ("on_store", True)):
                    if mech.defines(name):
                        hook_np[mask & (is_write_np == write)] = len(calls)
                        calls.append(getattr(mech, name))
                        ledgers.append(mech.stats)
            flags_np[hook_np > 0] = native.F_HOOK
        # While the earliest of the per-op mechanisms' ``hook_deadline``s
        # lies ahead, the walk stops only at a due hook and records the
        # earlier hooked ops' cycle counts for replay(); a deadline of 0
        # makes every hook due.
        hook_at = 0
        hk = 0  # first hooked op not yet delivered, as an index into hook_ops

        now = self.now
        app = 0
        inline = 0
        seg = 0  # start of the unflushed segment [seg, i)
        mseg = 0  # start of the undelivered mechanism window [mseg, i)
        pending_bound = 0  # upper bound on the window's deferred cycles

        def mech_flush(end: int) -> None:
            """Deliver deferred store hooks for ops [mseg, end)."""
            nonlocal now, inline, mseg, pending_bound
            if end <= mseg:
                return
            win = slice(mseg, end)
            for stores, mech in batched:
                sel = stores[win]
                if sel.any():
                    extra = mech.on_store_batch(
                        addrs_np[win][sel], sizes_np[win][sel], now
                    )
                    if extra:
                        now += extra
                        inline += extra
                        mech.stats.inline_overhead_cycles += extra
            mseg = end
            pending_bound = 0

        def replay(end: int) -> None:
            """Run the hooks the walk recorded before op *end*, each at its
            op's cycle count, where it charges nothing."""
            nonlocal hk
            j = hook_ops[hk]
            while j < end:
                extra = calls[hooks[j]](addrs[j], sizes[j], times[j])
                assert not extra, "a hook before its deadline charged cycles"
                hk += 1
                j = hook_ops[hk]

        def arm_hooks() -> None:
            """Re-read the per-op mechanisms' earliest hook deadline."""
            nonlocal hook_at
            hook_at = first.hook_deadline
            if second is not None:
                hook_at = min(hook_at, second.hook_deadline)
            ctl[native.C_HOOK_AT] = hook_at

        def flush(end: int) -> None:
            """Commit aggregates for ops [seg, end) and sync engine state."""
            nonlocal app, inline, seg
            mech_flush(end)
            if hook_ops[hk] < end:
                replay(end)
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
                seg_min = int(sp_np[seg_slice].min())
                if seg_min < self._interval_min_sp:
                    self._interval_min_sp = seg_min
                # Every region access counts, hooked or not, and every
                # region store is logged; only an interval end reads the
                # logs, so a run without intervals keeps none.
                for mask, mech, log in regions:
                    seg_region = mask[seg_slice]
                    seg_stores = seg_region & seg_write
                    region_writes = int(np.count_nonzero(seg_stores))
                    mech.stats.stores_seen += region_writes
                    mech.stats.loads_seen += (
                        int(np.count_nonzero(seg_region)) - region_writes
                    )
                    if region_writes and periodic:
                        log.extend(
                            addrs_np[seg_slice][seg_stores],
                            sizes_np[seg_slice][seg_stores],
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
        # The stop step.  The walk stops at an op that may reach the
        # interval's op count, or where the cycle count plus the
        # deferred-cost bound, which can only over-estimate, may reach a
        # cycle stop: the armed deadline or the next boundary.  The loop
        # then asks due() about each cycle stop, deadline first, and ends
        # the interval through cross().
        # ------------------------------------------------------------------
        def due(end: int, limit: int) -> bool:
            """Deliver the deferred hooks for ops [mseg, end), then test the
            exact cycle count against *limit*, as the scalar loop does."""
            if pending_bound:
                mech_flush(end)
            return now >= limit

        def cross(end: int) -> None:
            """End the interval after op ``end - 1`` and start the next."""
            nonlocal now, next_boundary, ops_in_interval
            flush(end)
            self._end_interval()
            if cycles_mode:
                next_boundary = self.now + interval_cycles
                ctl[native.C_NEXT] = min(next_boundary, stop)
            ops_in_interval = 0
            self._start_interval()
            now = self.now
            if hook_at:
                arm_hooks()

        loop_end = overflow_at if overflow_at >= 0 else n
        # The walk runs stretches of ops natively and returns at each op
        # whose tail needs Python: a due per-op hook or a stop candidate.
        times_np = None if hook_np is None else np.empty(n, dtype=np.int64)
        walk = native.walker(
            hierarchy, kinds_np, addrs_np, sizes_np, flags_np, bounds_np, times_np
        )
        step = walk.step
        ctl = walk.ctl

        if hook_np is not None:
            # Python ints for the hook ops' arguments, the hooked ops in
            # order, then a sentinel past every op.
            addrs = addrs_np.tolist()
            sizes = sizes_np.tolist()
            hooks = hook_np.tolist()
            hook_ops = np.flatnonzero(hook_np).tolist()
            hook_ops.append(n)
            times = memoryview(times_np)
            first, second = ([mech for _, mech in hooked] + [None])[:2]
            arm_hooks()
        else:
            hooks = None
            hook_ops = [n]
        ctl[native.C_END] = loop_end
        if ops_mode:
            ctl[native.C_OPS_LIMIT] = interval_ops
        # The walk's one cycle stop, re-armed by cross(): the earlier of the
        # next boundary and the armed deadline (one past the int64 range
        # never fires).
        stop = native.UNBOUNDED if deadline is None else min(deadline, native.UNBOUNDED)
        ctl[native.C_NEXT] = min(next_boundary, stop) if cycles_mode else stop

        i = 0
        while i < loop_end:
            ctl[native.C_I] = i
            ctl[native.C_NOW] = now
            ctl[native.C_PENDING] = pending_bound
            ctl[native.C_OPS] = ops_in_interval
            step()
            i = ctl[native.C_I]
            now = ctl[native.C_NOW]
            app += ctl[native.C_APP]
            pending_bound = ctl[native.C_PENDING]
            ops_in_interval = ctl[native.C_OPS]
            if i == loop_end:
                break

            if hooks is not None and hooks[i] and now >= hook_at:
                if hook_ops[hk] < i:  # the recorded hooks run first
                    replay(i)
                hk += 1
                hierarchy.now = now
                hook = hooks[i]
                extra = calls[hook](addrs[i], sizes[i], now)
                if extra:
                    now += extra
                    inline += extra
                    ledgers[hook].inline_overhead_cycles += extra
                if hook_at:
                    arm_hooks()

            if (
                deadline is not None
                and now + pending_bound >= deadline
                and due(i + 1, deadline)
            ):
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
                and due(i + 1, next_boundary)
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
