"""Shared result cache for deduplicating baseline runs.

``repro all`` regenerates every figure, and almost every figure starts by
running each workload with no persistence to obtain its ``vanilla_cycles``
baseline — the same (trace, config) baseline is recomputed by Figure 8,
Figure 9, the endurance study, and so on.  This cache keys results by
``(trace fingerprint, mechanism, interval, config, ops)`` so a baseline is
computed once per run and reused everywhere, including across worker
processes (via a small directory of JSON entries) and across resumed runs.

The fingerprint hashes the actual operation stream, not the generator
name, so two traces share a cache entry only when they are bit-for-bit
the same workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.config import SystemConfig
from repro.experiments.runner import vanilla_cycles
from repro.workloads.trace import Trace


def trace_fingerprint(trace: Trace) -> str:
    """Content hash of a trace: layout plus the full operation stream."""
    hasher = hashlib.sha1()
    hasher.update(
        f"{trace.name}|{trace.stack_range.start}:{trace.stack_range.end}|".encode()
    )
    if trace.heap_range is not None:
        hasher.update(f"{trace.heap_range.start}:{trace.heap_range.end}|".encode())
    hasher.update(trace.array.tobytes())
    return hasher.hexdigest()


def result_key(
    fingerprint: str,
    mechanism: str,
    interval: str,
    config: str,
    ops: int,
) -> str:
    """The canonical ``(trace, mechanism, interval, config, ops)`` key."""
    return f"{fingerprint}|{mechanism}|{interval}|{config}|{ops}"


class ResultCache:
    """Two-level cache: per-process dict plus an optional shared directory.

    The in-memory layer makes repeat lookups free within one process (and
    is inherited by forked workers); the directory layer shares entries
    between worker processes and across resumed runs.  Directory writes
    are atomic (write to a temp file, then rename), so concurrent workers
    can race on the same key without corrupting it — the loser's write is
    simply redundant.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, object] = {}
        self.hits = 0
        self.misses = 0

    def _entry_path(self, key: str) -> Path:
        assert self.directory is not None
        digest = hashlib.sha1(key.encode()).hexdigest()
        return self.directory / f"{digest}.json"

    def get(self, key: str) -> object | None:
        if key in self._memory:
            self.hits += 1
            return self._memory[key]
        if self.directory is not None:
            path = self._entry_path(key)
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError):
                entry = None
            if entry is not None and entry.get("key") == key:
                self._memory[key] = entry["value"]
                self.hits += 1
                return entry["value"]
        self.misses += 1
        return None

    def put(self, key: str, value: object) -> None:
        self._memory[key] = value
        if self.directory is None:
            return
        path = self._entry_path(key)
        payload = json.dumps({"key": key, "value": value})
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


#: Process-wide active cache; harness executors consult it so that unit
#: functions stay plain callables.  ``activate`` is called by the
#: supervisor (and by each worker, which re-activates from the directory
#: it was handed, making the scheme safe under any start method).
_active: ResultCache | None = None


def activate(cache: ResultCache | None) -> None:
    global _active
    _active = cache


def active_cache() -> ResultCache | None:
    return _active


def vanilla_cycles_cached(
    trace: Trace,
    config: SystemConfig | None = None,
    config_label: str = "setup_i",
) -> int:
    """Baseline application cycles of *trace*, deduplicated via the cache."""
    cache = _active
    if cache is None:
        return vanilla_cycles(trace, config)
    key = result_key(
        trace_fingerprint(trace), "vanilla", "none", config_label, len(trace)
    )
    value = cache.get(key)
    if value is not None:
        return int(value)
    cycles = vanilla_cycles(trace, config)
    cache.put(key, cycles)
    return cycles
