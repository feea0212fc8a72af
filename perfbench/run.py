"""perfbench: simulated results and host speed of the Prosper reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload qsort_l1 --seed 42 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and the traced run.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The seed whose simulated outputs are pinned by ``digests.json``.
DEFAULT_SEED = 42
#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3
#: Fewest samples a percentile must leave beyond it.
TAIL_SAMPLES = 10


#: Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "cpu.engine_fast.run": "cpu.engine_fast.run_s",
    "cpu.engine.run": "cpu.engine.run_s",
    "persistence.interval_end": "persistence.interval_end_s",
    "harness.unit": "harness.unit_s",
    "faults.probe": "faults.probe_s",
    "faults.schedule": "faults.schedule_s",
    "kernel.run": "kernel.run_s",
    "kernel.checkpoint": "kernel.checkpoint_s",
    "kernel.recover": "kernel.recover_s",
}
#: Counter -> per-layer count metric.
COUNT_METRICS = (
    "memory.l2_misses", "memory.dram_reads", "memory.nvm_writes",
    "memory.nvm_write_bytes", "persistence.intervals", "persistence.inline_cycles",
    "persistence.ckpt_cycles", "core.bitmap_stores", "core.hwm_writeouts",
    "core.ckpt_runs", "core.words_inspected", "kernel.switches",
    "kernel.switch_prosper_cycles",
)
#: Ratio metric -> (numerator counter, denominator counter).
RATIO_METRICS = {
    "memory.l1_hit_ratio": ("memory.l1_hits", "memory.l1_accesses"),
    "core.table_hit_ratio": ("core.table_hits", "core.table_lookups"),
    "core.ckpt_bytes_mean": ("core.ckpt_bytes", "core.ckpts"),
    "harness.cache_hit_ratio": ("harness.cache_hits", "harness.cache_lookups"),
    "kernel.ckpt_bytes_mean": ("kernel.ckpt_bytes", "kernel.ckpts"),
}


def pin_process() -> None:
    """One thread on one CPU.  Runs before numpy is imported, which reads
    the thread-count variables once."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    # The highest-numbered CPU allowed, so the run does not migrate: on the
    # 2-vCPU virtual machine this benchmark was tuned on, the same run was
    # about 8% faster on one CPU than on the other.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # The simulator reads these; the benchmark measures its defaults.
    os.environ.pop("REPRO_ENGINE", None)
    os.environ.pop("REPRO_HARNESS_FAULTS", None)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def percentile(values, q: int):
    """The q-th percentile, or None when fewer than TAIL_SAMPLES lie beyond it."""
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpu": ",".join(map(str, sorted(os.sched_getaffinity(0)))),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": commit_id(),
    }


def run_passes(workload, tracer, seconds: float, label: str):
    """Repeat passes while the next one is expected to end within *seconds*
    (at least one).  Returns ``[(host seconds, PassResult)]``."""
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        tracer.trace = f"{label}-{len(passes)}"
        t0 = time.perf_counter()
        result = workload.run_pass(tracer)
        elapsed = time.perf_counter() - t0
        passes.append((elapsed, result))
        if time.perf_counter() - start + elapsed > seconds:
            return passes


def host_metrics(passes) -> dict:
    return {
        "sim_mops": statistics.median(r.ops / dt for dt, r in passes) / 1e6,
        "cases_per_s": statistics.median(len(r.cases) / dt for dt, r in passes),
    }


def case_percentiles(passes) -> dict:
    """Median and p95 per case shape, pooled over passes (host ms)."""
    by_shape: dict[str, list[float]] = {}
    for _dt, result in passes:
        for shape, seconds in result.cases:
            by_shape.setdefault(shape, []).append(seconds * 1e3)
    return {
        shape: {"n": len(v), "p50": percentile(v, 50), "p95": percentile(v, 95)}
        for shape, v in by_shape.items()
    }


def per_layer_metrics(tracer, tables, traced, setup_traces, untraced_s, inversion):
    """Per-layer metrics of the traced passes, whose span tables are *tables*
    (times: median per pass; counts: the first traced pass, which every
    traced pass repeats)."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    gen = [tracer.layer_times(t).get("workloads.gen", {}).get("self_s", 0.0)
           for t in setup_traces]
    out["workloads.gen_s"] = statistics.median(gen)
    for span, metric in SPAN_METRICS.items():
        out[metric] = statistics.median(t.get(span, {}).get("self_s", 0.0) for t in tables)
    counts = tracer.counts["traced-0"]
    for layer in ("cpu.engine_fast", "cpu.engine"):
        ops = counts[f"{layer}.ops"]
        incl = tables[0].get(f"{layer}.run", {}).get("incl_s", 0.0)
        out[f"{layer}.us_per_op"] = incl / ops * 1e6 if ops else 0.0
    for metric in COUNT_METRICS:
        out[metric] = counts[metric]
    for metric, (num, den) in RATIO_METRICS.items():
        out[metric] = counts[num] / counts[den] if counts[den] else 0.0
    fuzz = case_percentiles(traced).get("schedule/prosper")
    if fuzz is not None:
        out["faults.case_ms_p50"] = fuzz["p50"] or 0.0
        out["faults.case_ms_p95"] = fuzz["p95"] or 0.0
    out["model.paper_gap_pct"] = traced[0][1].sim.get("paper_gap_pct", 0.0)
    out.update(inversion)
    traced_s = statistics.median(dt for dt, _r in traced)
    out["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return out


def engine_inversion(trace) -> dict:
    """Scalar against batched engine, host us per op, on *trace* with no
    persistence (untraced)."""
    from repro.cpu.engine import ExecutionEngine
    from repro.cpu.engine_fast import BatchedExecutionEngine

    out, stats = {}, []
    for cls, metric in ((ExecutionEngine, "inversion.scalar_us_per_op"),
                        (BatchedExecutionEngine, "inversion.batched_us_per_op")):
        engine = cls(stack_range=trace.stack_range, heap_range=trace.heap_range)
        gc.collect()
        start = time.perf_counter()
        stats.append(engine.run(trace))
        out[metric] = (time.perf_counter() - start) / len(trace.array) * 1e6
    out["identical"] = stats[0] == stats[1]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_process()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    import_s = time.perf_counter() - PROCESS_START
    env = environment(args)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in env.items()))

    tracer = tracing.Tracer(PROCESS_START) if args.trace else tracing.NullTracer()
    setup_times, setup_traces = [], []
    for rep in range(SETUP_REPS):
        gc.collect()
        tracer.trace = f"setup-{rep}"
        setup_traces.append(tracer.trace)
        workload = workloads.WORKLOADS[args.workload]()
        start = time.perf_counter()
        workload.setup(args.seed, tracer)
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    inversion = {}
    if args.trace:
        untraced = run_passes(workload, tracing.NullTracer(), 0.0, "untraced")
        with tracing.instrumented(tracer):
            traced = run_passes(
                workload, tracer, args.seconds - untraced[0][0], "traced"
            )
        trace = workload.inversion_trace()
        if trace is not None:
            inversion = engine_inversion(trace)
        passes = untraced + traced
    else:
        passes = run_passes(workload, tracer, args.seconds, "pass")
    # Before the checks, whose inputs depend on the seed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # ---- correctness ---------------------------------------------------- #
    attempted = sum(len(r.cases) for _dt, r in passes)
    failures = [f for _dt, r in passes for f in r.failures]
    summary = workload.summary()
    outputs = {"pass": passes[0][1].outputs, "summary": summary}
    pass_digests = [digest(r.outputs) for _dt, r in passes]
    attempted += len(passes)
    failures += [f"pass {i}: simulated outputs differ from pass 0"
                 for i, d in enumerate(pass_digests) if d != pass_digests[0]]
    got = digest(outputs)
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "digests.json").read_text())["workloads"]
        attempted += 1
        if pinned.get(args.workload) != got:
            failures.append(
                f"digest at seed {DEFAULT_SEED}: {got} != pinned {pinned.get(args.workload)}"
            )
    else:
        for case, failure in workloads.differential(args.seed):
            attempted += 1
            if failure:
                failures.append(f"{case}: {failure}")
    if inversion:
        attempted += 1
        if not inversion.pop("identical"):
            failures.append("inversion: batched and scalar engine stats differ")

    # ---- metrics -------------------------------------------------------- #
    sim = {**passes[0][1].sim, **summary}
    if args.trace:
        tables = [tracer.layer_times(f"traced-{i}") for i in range(len(traced))]
        metrics = per_layer_metrics(
            tracer, tables, traced, setup_traces, untraced[0][0], inversion
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            **host_metrics(passes),
            "peak_rss_mb": peak_rss_mb,
            # Missing only when its runs failed, which the checks report.
            "prosper_norm_time": sim.get("prosper_norm_time", 0.0),
        }
        units = END_TO_END

    # ---- report --------------------------------------------------------- #
    print(f"import_s={import_s:.3f} setup_reps_s=" + ",".join(f"{t:.3f}" for t in setup_times))
    print(f"passes={len(passes)} pass_s=" + ",".join(f"{dt:.3f}" for dt, _r in passes))
    print(f"digest={got}")
    for shape, row in case_percentiles(passes).items():
        print(f"case {shape}: n={row['n']} "
              f"p50_ms={row['p50'] if row['p50'] is not None else 'n/a (too few)'} "
              f"p95_ms={row['p95'] if row['p95'] is not None else 'n/a (too few)'}")
    for name, value in sim.items():
        print(f"simulated {name}={value!r}")
    if args.trace:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(span_file)
        print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
        print_layer_table(tables)
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"error_rate={len(failures) / attempted!r} ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def print_layer_table(tables) -> None:
    """Self time per span name, per traced pass (median)."""
    names = sorted({n for t in tables for n in t},
                   key=lambda n: -statistics.median(t.get(n, {}).get("self_s", 0.0) for t in tables))
    total = statistics.median(sum(r["self_s"] for r in t.values()) for t in tables)
    print(f"{'layer (span)':28} {'calls':>8} {'self_s':>10} {'share':>7}")
    for name in names:
        self_s = statistics.median(t.get(name, {}).get("self_s", 0.0) for t in tables)
        calls = tables[0].get(name, {}).get("calls", 0)
        print(f"{name:28} {calls:>8} {self_s:>10.4f} {100 * self_s / total:>6.1f}%")


if __name__ == "__main__":
    sys.exit(main())
