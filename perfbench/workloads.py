"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`setup` (timed as
set-up), then :meth:`run_pass` runs one pass of fixed, seed-determined
simulated work.  The timed phase repeats passes; every pass must produce
the same simulated outputs.  Every simulated run starts from a fresh
machine, so caches, tracker and lookup table start cold, as they do for
every figure of the paper.
"""

from __future__ import annotations

import dataclasses
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

from repro.cpu.engine import ExecutionEngine
from repro.cpu.engine_fast import BatchedExecutionEngine
from repro.experiments import evaluation
from repro.experiments.runner import make_engine, run_mechanism, vanilla_cycles
from repro.faults import fuzzer
from repro.harness import cache as result_cache
from repro.harness.figures import APP_WORKLOADS, FIGURES, execute_unit
from repro.kernel.process import Process
from repro.kernel.simulation import MultiThreadSimulation
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.prosper import ProsperPersistence
from repro.workloads.apps import g500_sssp, gapbs_pr, ycsb_mem
from repro.workloads.callstack import quicksort_workload
from repro.workloads.synthetic import DEFAULT_HEAP
from repro.workloads.trace import Trace

from tracing import record_memory, record_table

#: Paper-ms checkpoint interval of every interval-driven run (the paper's 10 ms).
INTERVAL_PAPER_MS = 10.0
#: Figure 8's reported mean SSP-10us / Prosper slowdown ratio, as recorded in
#: EXPERIMENTS.md ("Prosper vs SSP-10us: paper 2.1x mean").
PAPER_SSP10_OVER_PROSPER = 2.1

APP_BUILDERS = {"gapbs_pr": gapbs_pr, "g500_sssp": g500_sssp, "ycsb_mem": ycsb_mem}


class Workload:
    """Interface: ``setup``, ``run_pass`` and, optionally, ``summary``."""

    name = ""

    def summary(self) -> dict[str, float]:
        """Exact simulated metrics computed once, after the timed phase."""
        return {}

    def inversion_trace(self) -> Trace | None:
        """The trace on which the traced run times the scalar engine beside
        the batched one, if this workload has one."""
        return None


@dataclass
class PassResult:
    """What one pass did: simulated ops, checked cases, simulated outputs."""

    ops: int = 0
    #: ``(shape, host seconds)`` of every checked case.
    cases: list[tuple[str, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Simulated outputs; digested, so they must be JSON-serializable.
    outputs: dict = field(default_factory=dict)
    #: Exact simulated metrics of this pass.
    sim: dict[str, float] = field(default_factory=dict)


def head(trace: Trace, ops: int) -> Trace:
    """The first *ops* operations of *trace* as a trace of their own."""
    return Trace(
        trace.array[:ops], trace.stack_range,
        heap_range=trace.heap_range, name=trace.name,
    )


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------- #
# qsort_l1
# ---------------------------------------------------------------------- #


class QsortL1(Workload):
    """The reference quicksort trace under vanilla, Prosper and dirty-bit."""

    name = "qsort_l1"
    ELEMENTS, REPEATS = 4096, 6

    def setup(self, seed: int, tracer) -> None:
        with tracer.span("workloads.gen"):
            self.trace = quicksort_workload(
                elements=self.ELEMENTS, repeats=self.REPEATS, seed=seed
            )
        self._runs(head(self.trace, 20_000))

    def _runs(self, trace: Trace) -> PassResult:
        result = PassResult()

        def case(label: str, fn):
            start = perf_counter()
            stats, mechanism = fn()
            result.cases.append((label, perf_counter() - start))
            result.ops += stats.ops_executed
            if stats.ops_executed != len(trace.array):
                result.failures.append(
                    f"{label}: executed {stats.ops_executed} of {len(trace.array)} ops"
                )
            result.outputs[label] = {
                "stats": dataclasses.asdict(stats),
                "ckpt_bytes": list(mechanism.stats.checkpoint_bytes) if mechanism else [],
            }
            return stats, mechanism

        vanilla, _ = case("vanilla", lambda: (make_engine(trace).run(trace), None))
        base = vanilla.app_cycles

        def mechanism_run(factory):
            mechanism = factory()
            run = run_mechanism(trace, mechanism, INTERVAL_PAPER_MS, baseline_cycles=base)
            return run.stats, mechanism

        prosper, prosper_mechanism = case("prosper", lambda: mechanism_run(ProsperPersistence))
        case("dirtybit", lambda: mechanism_run(DirtyBitPersistence))
        sizes = prosper_mechanism.stats.checkpoint_bytes
        result.sim = {
            "prosper_norm_time": prosper.total_cycles / base,
            "ckpt_bytes_mean": sum(sizes) / len(sizes),
        }
        return result

    def run_pass(self, tracer) -> PassResult:
        return self._runs(self.trace)

    def inversion_trace(self) -> Trace:
        return self.trace


# ---------------------------------------------------------------------- #
# apps_fig8
# ---------------------------------------------------------------------- #


class AppsFig8(Workload):
    """The paper's Figure 8 grid through the experiment harness."""

    name = "apps_fig8"
    OPS = 20_000

    def setup(self, seed: int, tracer) -> None:
        # Built here rather than by the figure's own enumerator, which
        # hard-codes seed 42.
        self.units = [
            (f"{app}/{label}", {
                "workload": app, "ops": self.OPS, "seed": seed,
                "mechanism": label, "interval_paper_ms": INTERVAL_PAPER_MS,
            })
            for app in APP_WORKLOADS
            for label in evaluation.stack_mechanisms()
        ]
        with tracer.span("workloads.gen"):
            self.lengths = {
                app: len(APP_BUILDERS[app](self.OPS, seed).array)
                for app in APP_WORKLOADS
            }
        for label in ("prosper", "ssp-10us"):
            execute_unit("fig8", {**self.units[0][1], "ops": 2_000, "mechanism": label})
        self.seed = seed

    def inversion_trace(self) -> Trace:
        """gapbs_pr at 80k ops, where the batched engine is slower than the
        scalar one."""
        return gapbs_pr(80_000, self.seed)

    def run_pass(self, tracer) -> PassResult:
        result = PassResult()
        payloads: dict[str, dict] = {}
        failed: list[str] = []
        cache = result_cache.ResultCache()
        result_cache.activate(cache)
        try:
            for unit_id, params in self.units:
                start = perf_counter()
                try:
                    with tracer.span("harness.unit"):
                        payloads[unit_id] = execute_unit("fig8", params, unit_id=unit_id)
                except Exception as exc:  # a failed unit is a counted failure
                    failed.append(unit_id)
                    result.failures.append(f"{unit_id}: {exc!r}")
                result.cases.append(("unit", perf_counter() - start))
        finally:
            result_cache.activate(None)
        tracer.count("harness.cache_hits", cache.hits)
        tracer.count("harness.cache_lookups", cache.hits + cache.misses)
        if (cache.hits, cache.misses) != (len(self.units) - len(APP_WORKLOADS), len(APP_WORKLOADS)):
            result.failures.append(
                f"baseline cache: {cache.hits} hits, {cache.misses} misses"
            )
        # Every unit runs its app's trace once; each app's baseline runs once.
        result.ops = sum(self.lengths[p["workload"]] for _u, p in self.units)
        result.ops += sum(self.lengths.values())

        figure = FIGURES["fig8"].assemble(self.OPS, payloads, failed)
        rows = figure.raw_rows
        result.outputs = {"text": figure.text, "rows": rows}
        table = {(r["workload"], r["mechanism"]): r["normalized_time"] for r in rows}
        if len(table) == len(self.units):
            ratios = [table[a, "ssp-10us"] / table[a, "prosper"] for a in APP_WORKLOADS]
            gap = abs(statistics.mean(ratios) - PAPER_SSP10_OVER_PROSPER)
            result.sim = {
                "prosper_norm_time": geomean(table[a, "prosper"] for a in APP_WORKLOADS),
                "paper_gap_pct": 100.0 * gap / PAPER_SSP10_OVER_PROSPER,
            }
        return result


# ---------------------------------------------------------------------- #
# crash_fuzz
# ---------------------------------------------------------------------- #


class CrashFuzz(Workload):
    """A seeded campaign of crash schedules, one ``run_schedule`` each."""

    name = "crash_fuzz"
    MECHANISMS = ("prosper", "dirtybit", "ssp", "flush")
    ENGINE = "batched"  # hands off to the scalar engine: an injector is attached
    OPS, INTERVALS = 1200, 4
    #: Per mechanism and pass.  Passes stay short so the median over them
    #: rides out bursts of host noise; eight passes leave 10 samples beyond
    #: the pooled p95.
    SCHEDULES = 25

    def setup(self, seed: int, tracer) -> None:
        with tracer.span("workloads.gen"):
            self.trace = fuzzer.build_trace(seed, self.OPS)
        self.interval_ops = self.OPS // self.INTERVALS
        self.probes = {m: self._probe(m) for m in self.MECHANISMS}
        self.specs = {
            mechanism: self._sample_specs(random.Random(f"{seed}:{mechanism}"), cycles, fired)
            for mechanism, (cycles, fired) in self.probes.items()
        }
        self.seed = seed
        engine = ExecutionEngine(stack_range=self._captured[-1].engine.stack_range)
        self.vanilla_cycles = engine.run(self.trace).app_cycles
        for mechanism in self.MECHANISMS:
            self._schedule(mechanism, 0)

    def _sample_specs(self, rng: random.Random, cycles: int, fired: list[str]):
        """Stratified crash specs.  Half the schedules crash at a random cycle
        inside successive equal slices of the run; the other half crash at a
        named protocol point, the point families taken in turn and the
        occurrence at random.  The mix of crash positions, and with it the
        host cost of a pass, then barely depends on the seed."""
        at_points = self.SCHEDULES // 2 if fired else 0
        at_cycles = self.SCHEDULES - at_points
        specs = []
        for k in range(at_cycles):
            low, high = cycles * k // at_cycles, cycles * (k + 1) // at_cycles
            specs.append(fuzzer.CrashSpec("cycle", cycle=rng.randint(low + 1, max(low + 1, high))))
        families = sorted({fuzzer._point_family(p) for p in fired})
        for k in range(at_points):
            family = families[k % len(families)]
            pick = rng.choice([j for j, p in enumerate(fired) if fuzzer._point_family(p) == family])
            point = fired[pick]
            specs.append(fuzzer.CrashSpec(
                "point", point=point, occurrence=fired[:pick].count(point)
            ))
        return specs

    def _capture(self, call):
        """Run *call*, keeping every machine ``faults.fuzzer`` wires up, so the
        engines' op counts can be read after a crash."""
        self._captured = []
        original = fuzzer.build_setup

        def build_setup(*args, **kwargs):
            setup = original(*args, **kwargs)
            self._captured.append(setup)
            return setup

        fuzzer.build_setup = build_setup
        try:
            return call()
        finally:
            fuzzer.build_setup = original

    def _ops(self) -> int:
        return sum(s.engine.stats.ops_executed for s in self._captured)

    def _probe(self, mechanism: str):
        return self._capture(
            lambda: fuzzer._probe(mechanism, self.ENGINE, self.trace, self.interval_ops)
        )

    def _schedule(self, mechanism: str, index: int):
        return self._capture(lambda: fuzzer.run_schedule(
            mechanism, self.ENGINE, self.trace, self.interval_ops,
            self.specs[mechanism][index], index=index,
            plan_rng=random.Random(f"{self.seed}:{mechanism}:{index}:plan"),
        ))

    def run_pass(self, tracer) -> PassResult:
        result = PassResult()
        outputs = result.outputs
        for mechanism in self.MECHANISMS:
            with tracer.span("faults.probe"):
                cycles, fired = self._probe(mechanism)
            result.ops += self._ops()
            if (cycles, fired) != self.probes[mechanism]:
                result.failures.append(f"{mechanism}: probe differs from set-up probe")
            outputs[mechanism] = {"probe_cycles": cycles, "points": len(fired), "schedules": []}
            for index in range(self.SCHEDULES):
                start = perf_counter()
                with tracer.span("faults.schedule"):
                    outcome = self._schedule(mechanism, index)
                result.cases.append((f"schedule/{mechanism}", perf_counter() - start))
                result.ops += self._ops()
                if outcome.crashed and not outcome.ok:
                    result.failures.append(
                        f"{mechanism}#{index}: {outcome.detail}"
                    )
                outputs[mechanism]["schedules"].append([
                    outcome.classification, outcome.crash_point, outcome.resumed,
                    outcome.spec.to_dict(),
                ])
        result.sim = {
            "prosper_norm_time": self.probes["prosper"][0] / self.vanilla_cycles,
        }
        return result


# ---------------------------------------------------------------------- #
# kernel_mt
# ---------------------------------------------------------------------- #


class KernelMT(Workload):
    """Four persistent threads time-shared by the kernel model, with a crash,
    recovery and verification mid-run and another at the end."""

    name = "kernel_mt"
    THREADS, STACK_BYTES = 4, 512 * 1024
    ELEMENTS, REPEATS = 384, 6
    QUANTUM_OPS, CHECKPOINT_EVERY = 500, 10
    CRASH_AT_QUANTUM = 255

    def setup(self, seed: int, tracer) -> None:
        # A process lays out its thread stacks deterministically: learn them
        # from a scratch process so each trace addresses its own stack.
        scratch = Process(name="sim")
        stacks = [
            scratch.spawn_thread(self.STACK_BYTES, persistent=True).stack
            for _ in range(self.THREADS)
        ]
        with tracer.span("workloads.gen"):
            self.traces = [
                quicksort_workload(
                    elements=self.ELEMENTS, repeats=self.REPEATS, stack=stack,
                    heap=DEFAULT_HEAP, seed=seed * self.THREADS + i,
                )
                for i, stack in enumerate(stacks)
            ]
            self.thread_ops = [trace.ops for trace in self.traces]
        self.stacks = stacks
        MultiThreadSimulation(
            [ops[:2_000] for ops in self.thread_ops], stack_bytes=self.STACK_BYTES,
            quantum_ops=self.QUANTUM_OPS, checkpoint_every_quanta=self.CHECKPOINT_EVERY,
        ).run()

    def run_pass(self, tracer) -> PassResult:
        result = PassResult()
        start = perf_counter()
        sim = MultiThreadSimulation(
            self.thread_ops, stack_bytes=self.STACK_BYTES,
            quantum_ops=self.QUANTUM_OPS, checkpoint_every_quanta=self.CHECKPOINT_EVERY,
        )
        if [t.stack for t in sim.process.iter_threads()] != self.stacks:
            result.failures.append("thread stacks differ from the traces' stacks")
        if tracer.enabled:
            checkpoint_process = sim.manager.checkpoint_process

            def traced_checkpoint(*args, **kwargs):
                with tracer.span("kernel.checkpoint"):
                    return checkpoint_process(*args, **kwargs)

            sim.manager.checkpoint_process = traced_checkpoint

        recoveries = []
        for phase in ("mid-run", "end"):
            with tracer.span("kernel.run"):
                if phase == "mid-run":
                    sim.run(stop_after_quanta=self.CRASH_AT_QUANTUM)
                else:
                    sim.resume()
            with tracer.span("kernel.recover"):
                sim.crash()
                report = sim.recover()
            verified = sim.verify_recovered_contents()
            if not (report.recovered and verified):
                result.failures.append(f"{phase}: recovery {report}, verified={verified}")
            recoveries.append([dataclasses.asdict(report), verified])
        stats = sim.stats
        if stats.per_thread_ops != {
            t.tid: len(ops) for t, ops in zip(sim.process.iter_threads(), self.thread_ops)
        }:
            result.failures.append(f"threads did not finish: {stats.per_thread_ops}")
        result.cases.append(("simulation", perf_counter() - start))
        result.ops = stats.ops_executed

        sizes = [record.total_bytes for record in sim.manager.checkpoints]
        switches = sim.scheduler.stats
        tracer.count("kernel.switches", switches.switches)
        tracer.count("kernel.switch_prosper_cycles", switches.prosper_cycles)
        tracer.count("kernel.ckpts", len(sizes))
        tracer.count("kernel.ckpt_bytes", sum(sizes))
        if tracer.enabled:
            record_memory(tracer, sim.hierarchy)
            record_table(tracer, sim.tracker)
        result.outputs = {
            "stats": dataclasses.asdict(stats),
            "recoveries": recoveries,
            "ckpt_bytes": sizes,
            "switch_prosper_cycles": switches.prosper_cycles,
        }
        result.sim = {"ckpt_bytes_mean": sum(sizes) / len(sizes)}
        return result

    def summary(self) -> dict[str, float]:
        """Prosper over no persistence on the threads' own traces, each run
        alone through the standard runner (geometric mean over threads)."""
        return {"prosper_norm_time": geomean(
            run_mechanism(trace, ProsperPersistence(), INTERVAL_PAPER_MS).normalized_time
            for trace in self.traces
        )}


WORKLOADS = {w.name: w for w in (QsortL1, AppsFig8, CrashFuzz, KernelMT)}


# ---------------------------------------------------------------------- #
# Held-out check for seeds other than the default
# ---------------------------------------------------------------------- #


def differential(seed: int) -> list[tuple[str, str | None]]:
    """Batched against scalar engine on one qsort slice and one app slice.

    Returns ``(case, failure or None)`` per comparison; the engine stats and
    the mechanism's checkpoint sizes must be identical.
    """
    app = APP_WORKLOADS[seed % len(APP_WORKLOADS)]
    slices = [
        head(quicksort_workload(elements=1024, repeats=2, seed=seed), 40_000),
        APP_BUILDERS[app](20_000, seed),
    ]
    factories = evaluation.stack_mechanisms()
    checks = []
    for trace in slices:
        base = vanilla_cycles(trace)
        for label in ("prosper", "ssp-10us"):
            seen = []
            for engine_cls in (ExecutionEngine, BatchedExecutionEngine):
                mechanism = factories[label]()
                engine = engine_cls(
                    stack_range=trace.stack_range, mechanism=mechanism,
                    heap_range=trace.heap_range,
                )
                engine.run(trace, interval_cycles=base // 20)
                seen.append((dataclasses.asdict(engine.stats), mechanism.stats.checkpoint_bytes))
            name = f"differential {trace.name}/{label}"
            checks.append((name, None if seen[0] == seen[1] else "batched != scalar"))
    return checks
