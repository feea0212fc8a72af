"""Backend-differential tests of the batched engine's per-op walk.

The native walk (``walk.c``) and its Python fallback run seeded random op
streams against their own copy of one small hierarchy, and a third copy
runs the same ops through the reference :meth:`MemoryHierarchy.access`.
The configuration is built to reach every path: set counts that are not
powers of two, multi-line and size-0 accesses, an NVM range whose boundary
splits multi-line accesses, dirty cascades from L1 down to memory and a
two-entry NVM write buffer that stalls.  After every stretch the three
machines must agree on every cache column, tick, ``CacheStats`` and
``DeviceStats`` field and the write-buffer state, and the walks on the
cycle counts they record for hooks that are not yet due.
"""

import ctypes
import dataclasses
import os
import random
import re
import shutil
import time

import numpy as np
import pytest

from repro.config import CACHE_LINE_BYTES, CacheConfig, setup_i
from repro.faults.order import PersistOrderOracle
from repro.memory import native
from repro.memory.hierarchy import MemoryHierarchy

_READ, _WRITE, _CALL, _RET, _COMPUTE = range(5)

#: The NVM range starts mid-line, so multi-line accesses straddle it.
NVM_START = 0x2000 + 40
NVM_END = 0x3000
SPAN = 0x4000


def small_config():
    base = setup_i()
    return dataclasses.replace(
        base,
        # 3 x 2 = 6 L1 lines, 5 x 2 = 10 L2 lines, 7 x 3 = 21 L3 lines.
        l1d=CacheConfig(6 * 64, 2, 4, 4),
        l2=CacheConfig(10 * 64, 2, 12, 4),
        l3=CacheConfig(21 * 64, 3, 20, 4),
        nvm=dataclasses.replace(base.nvm, write_buffer_entries=2),
    )


def machine():
    return MemoryHierarchy(small_config(), nvm_resident=[(NVM_START, NVM_END)])


def random_ops(rng: random.Random, n: int):
    kinds = np.empty(n, dtype=np.uint8)
    addrs = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    for i in range(n):
        roll = rng.random()
        if roll < 0.8:
            kinds[i] = _WRITE if rng.random() < 0.5 else _READ
            # A hot window and the whole span, so lines both hit and evict.
            hot = rng.random() < 0.5
            addrs[i] = rng.randrange(0x2000 - 256, 0x2000 + 512) if hot else rng.randrange(SPAN)
            sizes[i] = rng.choice((0, 1, 8, 8, 8, 16, 64, 100, 200))
        elif roll < 0.9:
            kinds[i] = _COMPUTE
            sizes[i] = rng.randrange(0, 400)
        else:
            kinds[i] = rng.choice((_CALL, _RET))
            sizes[i] = 64
    return kinds, addrs, sizes


def state(h: MemoryHierarchy) -> dict:
    caches = {
        c.name: (
            list(c._tags), bytes(c._dirty), list(c._age), c._clock[0],
            dataclasses.asdict(c.stats),
        )
        for c in (h.l1, h.l2, h.l3)
    }
    buf = h.nvm._write_buffer
    return {
        "caches": caches,
        "dram": dataclasses.asdict(h.dram.stats),
        "nvm": dataclasses.asdict(h.nvm.stats),
        "wbuf": (buf.occupancy, buf.next_drain_at, buf.stall_cycles_total),
    }


def reference_stretch(h, kinds, addrs, sizes, flags, bounds, ctl, times=None):
    """The walk contract, one op at a time over ``MemoryHierarchy.access``."""
    i, now, pending, ops = ctl["i"], ctl["now"], ctl["pending"], ctl["ops"]
    app = 0
    while i < ctl["end"]:
        kind = int(kinds[i])
        if kind <= _WRITE:
            h.now = now
            latency = h.access(int(addrs[i]), int(sizes[i]), kind == _WRITE).latency_cycles
            now += latency
            app += latency
            if flags[i] & native.F_BOUND:
                pending += int(bounds[i])
            if flags[i] & native.F_HOOK:
                if now >= ctl["hook_at"]:
                    break
                times[i] = now
        elif kind == _COMPUTE:
            now += int(sizes[i])
            app += int(sizes[i])
        else:
            now += 1
            app += 1
        if ops + 1 >= ctl["limit"] or now + pending >= ctl["next"]:
            break
        ops += 1
        i += 1
    return {"i": i, "now": now, "app": app, "pending": pending, "ops": ops}


def run_walk(walk, ctl: dict) -> dict:
    c = walk.ctl
    c[native.C_I] = ctl["i"]
    c[native.C_END] = ctl["end"]
    c[native.C_NOW] = ctl["now"]
    c[native.C_PENDING] = ctl["pending"]
    c[native.C_OPS] = ctl["ops"]
    c[native.C_OPS_LIMIT] = ctl["limit"]
    c[native.C_NEXT] = ctl["next"]
    c[native.C_HOOK_AT] = ctl["hook_at"]
    walk.step()
    return {
        "i": c[native.C_I], "now": c[native.C_NOW], "app": c[native.C_APP],
        "pending": c[native.C_PENDING], "ops": c[native.C_OPS],
    }


@pytest.fixture(scope="module")
def lib():
    lib = native.library()
    if lib is None:
        pytest.skip("no C compiler: the native walk is unavailable")
    return lib


@pytest.mark.parametrize("seed", range(6))
def test_native_python_and_reference_agree(lib, seed):
    rng = random.Random(seed)
    n = 3000
    kinds, addrs, sizes = random_ops(rng, n)
    flags = np.zeros(n, dtype=np.uint8)
    mem = kinds <= _WRITE
    flags[mem & (np.array([rng.random() for _ in range(n)]) < 0.05)] = native.F_HOOK
    bounds = np.array([rng.randrange(0, 50) for _ in range(n)], dtype=np.int64)
    flags[mem & (flags == 0) & (np.array([rng.random() for _ in range(n)]) < 0.3)] = native.F_BOUND

    machines = [machine(), machine(), machine()]
    oracles = [PersistOrderOracle() for _ in machines]
    for h, oracle in zip(machines, oracles):
        h.nvm.order_oracle = oracle
    times = [np.full(n, -1, dtype=np.int64) for _ in machines]
    walks = [
        native.NativeWalk(lib, machines[0], kinds, addrs, sizes, flags, bounds, times[0]),
        native.PythonWalk(machines[1], kinds, addrs, sizes, flags, bounds, times[1]),
    ]
    ctl = {"i": 0, "end": n, "now": 0, "pending": 0, "ops": 0,
           "limit": native.UNBOUNDED, "next": native.UNBOUNDED, "hook_at": 0}
    stretches = hook_stops = 0
    while ctl["i"] < n:
        # Vary the end-of-op limits so every stop reason fires, and the
        # hook deadline so hooks are due at once, mid-stretch or never.
        ctl["limit"] = ctl["ops"] + rng.randrange(1, 400) if rng.random() < 0.3 else native.UNBOUNDED
        ctl["next"] = ctl["now"] + rng.randrange(1, 20000) if rng.random() < 0.3 else native.UNBOUNDED
        ctl["hook_at"] = rng.choice(
            (0, 0, ctl["now"] + rng.randrange(1, 20000), native.UNBOUNDED)
        )
        ctl["end"] = min(n, ctl["i"] + rng.randrange(1, 800))
        got = [run_walk(w, ctl) for w in walks]
        want = reference_stretch(
            machines[2], kinds, addrs, sizes, flags, bounds, ctl, times[2]
        )
        assert got == [want, want], (seed, stretches)
        assert times[0].tolist() == times[2].tolist(), (seed, stretches)
        assert times[1].tolist() == times[2].tolist(), (seed, stretches)
        if want["i"] < ctl["end"] and flags[want["i"]] & native.F_HOOK:
            hook_stops += want["now"] >= ctl["hook_at"]
        snapshots = [state(h) for h in machines]
        assert snapshots[0] == snapshots[2], (seed, stretches)
        assert snapshots[1] == snapshots[2], (seed, stretches)
        assert len({(o.writes_noted, o.bytes_noted) for o in oracles}) == 1
        # Python finishes the stopped op, as the engine does: a hook that
        # writes to NVM shares the write buffer with the walk.
        ctl = dict(ctl, **want)
        if ctl["i"] < ctl["end"]:
            now = ctl["now"]
            for h in machines:
                h.nvm.write(CACHE_LINE_BYTES, now)
            ctl["now"] = now + 7
            ctl["ops"] += 1
            ctl["i"] += 1
        stretches += 1
    assert stretches > 20
    # Hooks both stopped the walk and were recorded for later.
    assert hook_stops > 5
    assert np.count_nonzero(times[2] >= 0) > 5
    final = machines[2]
    # The stream reached every path the walk implements.
    assert final.nvm.stats.reads and final.nvm.stats.writes
    assert final.dram.stats.writes and final.l3.stats.writebacks
    assert final.nvm.write_buffer_stalls > 0
    assert oracles[2].writes_noted > final.nvm.stats.writes // 2


@pytest.mark.parametrize("seed", range(3))
def test_walks_reread_lines_moved_between_stretches(seed):
    """Between stretches Python code may invalidate lines and run its own
    accesses, as persistence hooks do.  The walks must see each moved line
    where it now is: the Python walk's remembered slot for a line can be
    stale, and only the tag in that slot can confirm it.  Runs the Python
    walk without a compiler and the native walk too when one is present."""
    rng = random.Random(100 + seed)
    n = 2000
    kinds, addrs, sizes = random_ops(rng, n)
    flags = np.zeros(n, dtype=np.uint8)
    lib = native.library()
    machines = [machine() for _ in range(3 if lib is not None else 2)]
    walks = [native.PythonWalk(machines[0], kinds, addrs, sizes, flags, None)]
    if lib is not None:
        walks.append(native.NativeWalk(lib, machines[1], kinds, addrs, sizes, flags, None))
    reference = machines[-1]
    ctl = {"i": 0, "end": n, "now": 0, "pending": 0, "ops": 0,
           "limit": native.UNBOUNDED, "next": native.UNBOUNDED, "hook_at": 0}
    lines = SPAN // CACHE_LINE_BYTES
    while ctl["i"] < n:
        ctl["end"] = min(n, ctl["i"] + rng.randrange(1, 200))
        got = [run_walk(w, ctl) for w in walks]
        want = reference_stretch(reference, kinds, addrs, sizes, flags, None, ctl)
        assert got == [want] * len(walks)
        ctl = dict(ctl, **want)
        # Drop resident lines and refill their sets, so a line comes back
        # in a different way of its set.
        for _ in range(rng.randrange(0, 4)):
            dropped = rng.choice([t for t in reference.l1._tags if t >= 0] or [0])
            refill = rng.randrange(lines) * CACHE_LINE_BYTES
            write = rng.random() < 0.5
            for h in machines:
                h.now = ctl["now"]
                h.l1.invalidate(dropped)
                h.access(refill, 8, write)
        snapshots = [state(h) for h in machines]
        assert all(snap == snapshots[-1] for snap in snapshots)


@pytest.mark.parametrize("kind", ["native", "python"])
def test_f_hook_without_times_raises(kind):
    """A walk records a hook's cycle count whenever it runs past the hook,
    so one with ``F_HOOK`` ops and no ``times`` column is refused; with
    ``ctl[C_HOOK_AT]`` at 0 it stops at every hook."""
    lib = native.library()
    if kind == "native" and lib is None:
        pytest.skip("no C compiler: the native walk is unavailable")
    rng = random.Random(5)
    n = 1500
    kinds, addrs, sizes = random_ops(rng, n)
    flags = np.zeros(n, dtype=np.uint8)
    hooked = (kinds <= _WRITE) & (np.array([rng.random() for _ in range(n)]) < 0.1)
    flags[hooked] = native.F_HOOK

    def build(times):
        h = machine()
        if kind == "native":
            return native.NativeWalk(lib, h, kinds, addrs, sizes, flags, None, times)
        return native.PythonWalk(h, kinds, addrs, sizes, flags, None, times)

    with pytest.raises(ValueError, match="F_HOOK"):
        build(None)
    times = np.full(n, -1, dtype=np.int64)
    walk = build(times)
    ctl = {"i": 0, "end": n, "now": 0, "pending": 0, "ops": 0,
           "limit": native.UNBOUNDED, "next": native.UNBOUNDED, "hook_at": 0}
    stops = []
    while True:
        ctl = dict(ctl, **run_walk(walk, ctl))
        if ctl["i"] == n:
            break
        stops.append(ctl["i"])
        ctl["i"] += 1
        ctl["ops"] += 1
    assert stops == np.flatnonzero(hooked).tolist()
    assert not np.any(times >= 0)


def test_walk_without_nvm_reads_dram(lib):
    config = dataclasses.replace(small_config(), nvm=None)
    ops = 500
    rng = random.Random(9)
    kinds, addrs, sizes = random_ops(rng, ops)
    flags = np.zeros(ops, dtype=np.uint8)
    machines = [MemoryHierarchy(config, [(NVM_START, NVM_END)]) for _ in range(2)]
    walk = native.NativeWalk(lib, machines[0], kinds, addrs, sizes, flags, None)
    ctl = {"i": 0, "end": ops, "now": 0, "pending": 0, "ops": 0,
           "limit": native.UNBOUNDED, "next": native.UNBOUNDED, "hook_at": 0}
    got = run_walk(walk, ctl)
    want = reference_stretch(machines[1], kinds, addrs, sizes, flags, None, ctl)
    assert got == want
    assert got["i"] == ops
    native_h, reference = machines
    for a, b in ((native_h.l1, reference.l1), (native_h.l2, reference.l2),
                 (native_h.l3, reference.l3), (native_h.dram, reference.dram)):
        assert a.stats == b.stats
    assert native_h.l3.tag_array.tolist() == reference.l3.tag_array.tolist()
    assert native_h.dram.stats.reads > 0


def test_fallback_when_the_library_is_unavailable(monkeypatch):
    monkeypatch.setattr(native, "library", lambda: None)
    empty = np.zeros(0, dtype=np.int64)
    walk = native.walker(machine(), empty.astype(np.uint8), empty, empty, empty.astype(np.uint8))
    assert isinstance(walk, native.PythonWalk)


def test_columns_are_checked_before_pointers_are_taken(lib):
    from repro.cpu.ops import TRACE_DTYPE

    ops = np.zeros(4, dtype=TRACE_DTYPE)
    words = np.zeros(4, dtype=np.int64)
    flags = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError):  # a strided view into the trace
        native.NativeWalk(lib, machine(), ops["kind"], words, words, flags, None)
    with pytest.raises(ValueError):  # wrong dtype
        native.NativeWalk(lib, machine(), flags, words.astype(np.int32), words, flags, None)
    with pytest.raises(ValueError):  # length mismatch
        native.NativeWalk(lib, machine(), flags, words[:3], words, flags, None)
    with pytest.raises(ValueError):  # F_BOUND without bounds
        native.NativeWalk(lib, machine(), flags, words, words, flags + native.F_BOUND, None)
    for times in (words.astype(np.int32), words[:3], np.zeros(8, dtype=np.int64)[::2]):
        with pytest.raises(ValueError):  # times: wrong dtype, length, stride
            native.NativeWalk(lib, machine(), flags, words, words, flags, None, times)
    # C_END past the columns stops at their end.
    walk = native.NativeWalk(lib, machine(), flags, words, words, flags, None)
    ctl = {"i": 0, "end": 100, "now": 0, "pending": 0, "ops": 0,
           "limit": native.UNBOUNDED, "next": native.UNBOUNDED, "hook_at": 0}
    assert run_walk(walk, ctl)["i"] == 4


def test_control_block_slots_match_walk_c():
    """walk.c's control-block enum and native.py's ``C_*`` constants name
    the same slots in the same order: a slot added or removed on one side
    only would shift every later one."""
    enum = re.search(
        r"/\* Control block.*?\*/\s*enum\s*\{(.*?)\}", native.SOURCE.read_text(), re.S
    )
    c_names = [name.strip() for name in enum.group(1).split(",")]
    py_names = sorted(
        (name for name, value in vars(native).items()
         if name.startswith("C_") and isinstance(value, int)),
        key=lambda name: getattr(native, name),
    )
    assert c_names == py_names
    assert "C_HOOK_AT" in c_names
    assert [getattr(native, name) for name in py_names] == list(range(native.CTL_SLOTS))
    assert len(native._new_ctl()) == native.CTL_SLOTS


@pytest.fixture
def build_dir(tmp_path, monkeypatch):
    """An empty per-user build directory under a fresh ``HOME``."""
    if not (shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")):
        pytest.skip("no C compiler: nothing is built")
    monkeypatch.setenv("HOME", str(tmp_path))
    return tmp_path / ".cache" / "repro-native"


def _touch(path, age_s: float) -> None:
    path.write_bytes(b"")
    stamp = time.time() - age_s
    os.utime(path, (stamp, stamp))


def test_a_load_refreshes_its_build_and_prunes_stale_siblings(build_dir):
    build_dir.mkdir(mode=0o700, parents=True)
    stale = build_dir / "walk-stale.so"
    recent = build_dir / "walk-recent.so"
    unrelated = build_dir / "notes.txt"
    old = native.PRUNE_AFTER_SECONDS + 3600
    _touch(stale, old)
    _touch(recent, 24 * 3600)
    _touch(unrelated, old)
    assert native._build() is not None
    assert not stale.exists()
    assert recent.exists() and unrelated.exists()
    (target,) = set(build_dir.glob("walk-*.so")) - {recent}
    # An old build that loads is refreshed, not pruned.
    stamp = time.time() - old
    os.utime(target, (stamp, stamp))
    assert native._build() is not None
    assert target.stat().st_mtime > time.time() - 3600


def test_a_build_pruned_before_its_load_is_rebuilt(build_dir, monkeypatch):
    compiles = []
    compile_ = native._compile
    monkeypatch.setattr(
        native, "_compile", lambda *args: compiles.append(args) or compile_(*args)
    )
    assert native._build() is not None
    assert len(compiles) == 1
    (target,) = build_dir.glob("walk-*.so")
    real_cdll = ctypes.CDLL
    loads = []

    def pruned_on_first_load(path, *args, **kwargs):
        loads.append(path)
        if len(loads) == 1:  # another process prunes it after the check
            os.unlink(path)
            raise OSError(f"{path}: cannot open shared object file")
        return real_cdll(path, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", pruned_on_first_load)
    assert native._build() is not None
    assert len(compiles) == 2 and len(loads) == 2
    assert target.exists()


def test_an_unloadable_build_falls_back_without_rebuilding(build_dir, monkeypatch):
    assert native._build() is not None
    compiles = []
    monkeypatch.setattr(native, "_compile", lambda *args: compiles.append(args))

    def unloadable(path, *args, **kwargs):
        raise OSError(f"{path}: invalid ELF header")

    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert native._build() is None
    assert compiles == []
