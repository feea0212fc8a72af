"""The batched engine's per-op walk: native C, with a Python fallback.

:func:`walker` binds one engine chunk's op columns to a
:class:`~repro.memory.hierarchy.MemoryHierarchy` and returns an object with
a control block ``ctl`` (an ``array('q')`` indexed by the ``C_*``
constants) and a ``step()`` method.  One call runs ops ``[ctl[C_I],
ctl[C_END])`` in order — the L1→L2→L3 walk of single- and multi-line
accesses, the dirty write-back cascade, DRAM/NVM reads and writes, the NVM
write buffer, COMPUTE/CALL/RET costs and the deferred-cost bound — and
returns at the first op Python has to finish:

* an op flagged ``F_HOOK`` (a per-op mechanism hook), after its access,
  once its hook is due: ``now >= ctl[C_HOOK_AT]``, always at 0 (an earlier
  hook's ``now`` goes into ``times[i]``, for the engine to replay).  A
  walk with ``F_HOOK`` ops needs a ``times`` column;
* an op whose end-of-op test fires: ``ops + 1 >= ctl[C_OPS_LIMIT]`` (the
  interval op count) or ``now + pending >= ctl[C_NEXT]`` (the cycle stop,
  the deferred-cost bound included: the engine sets it to the earlier of
  the next cycle boundary and an armed fault deadline).

``ctl[C_I]`` is then that op (whose tail — hook, deadline and boundary
tests — the engine runs), or ``ctl[C_END]``.  ``ctl[C_NOW]``,
``ctl[C_PENDING]`` and ``ctl[C_OPS]`` are updated in place;
``ctl[C_APP]`` holds the call's application cycles.  An op flagged
``F_BOUND`` adds its ``bounds`` entry to the pending bound.  A new walk's
two limits are ``UNBOUNDED`` and its ``ctl[C_HOOK_AT]`` is 0.

Both implementations mutate the hierarchy's own buffers (cache columns and
clocks, stats counters, the write buffer), so every cache and device
counter is exact when ``step()`` returns; the native one also folds its
NVM write-backs into an attached persist-order oracle before returning.

The C source (``walk.c``, next to this file) is compiled on first use
with the system C compiler into a per-user cache directory (mode 0700),
named by the SHA-256 of the source and the compile command and published
by atomic rename, so concurrent worker processes are safe.  Each load
refreshes its library's mtime and deletes sibling builds untouched for
``PRUNE_AFTER_SECONDS``; a library pruned between the existence check and
the load is built again.  Without a compiler, or if the build or load
fails, :func:`walker` returns the Python implementation of the same
contract, which runs the reference
:class:`~repro.memory.hierarchy.MemoryHierarchy` methods.
"""

from __future__ import annotations

import os
import time
from array import array
from pathlib import Path

import numpy as np

from repro.config import CACHE_LINE_BYTES
from repro.memory.cache import HITS

#: Control-block slots (walk.c's enum has the same order).
CTL_SLOTS = 10
(
    C_I,
    C_END,
    C_NOW,
    C_APP,
    C_PENDING,
    C_OPS,
    C_OPS_LIMIT,
    C_NEXT,
    C_HOOK_AT,
    C_NVM_WRITES,
) = range(CTL_SLOTS)
#: Per-op flags: add the op's deferred-cost bound; stop for a Python hook.
F_BOUND = 1
F_HOOK = 2
#: An end-of-op limit that never fires.
UNBOUNDED = (1 << 63) - 1

SOURCE = Path(__file__).with_name("walk.c")
CFLAGS = ("-O2", "-shared", "-fPIC")
#: A build no load has touched for this long is deleted when a sibling
#: loads: superseded by an edit of ``walk.c`` or a compiler change.
PRUNE_AFTER_SECONDS = 30 * 24 * 3600

#: ``OpKind.WRITE`` and ``OpKind.COMPUTE`` (the memory layer does not import cpu).
_WRITE, _COMPUTE = 1, 4


# ---------------------------------------------------------------------- #
# Build and load
# ---------------------------------------------------------------------- #

_UNLOADED = object()
_library = _UNLOADED


def _cache_dirs():
    """Candidate per-user build directories, most preferred first."""
    import tempfile

    try:
        yield Path.home() / ".cache" / "repro-native"
    except RuntimeError:  # no resolvable home directory
        pass
    uid = os.getuid() if hasattr(os, "getuid") else 0
    yield Path(tempfile.gettempdir()) / f"repro-native-{uid}"


def _private_dir(path: Path) -> bool:
    """Create *path* (mode 0700) if needed; True when it is ours alone."""
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = path.stat()
    except OSError:
        return False
    if hasattr(os, "getuid") and info.st_uid != os.getuid():
        return False
    return info.st_mode & 0o077 == 0


def _compile(command: list, directory: Path, target: Path) -> bool:
    """Compile ``walk.c`` into *target*, published by atomic rename."""
    import subprocess
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [*command, "-o", tmp, str(SOURCE)],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True


def _prune(directory: Path, keep: Path) -> None:
    """Delete the builds beside *keep* that no load has touched for
    ``PRUNE_AFTER_SECONDS``: each load refreshes its library's mtime."""
    cutoff = time.time() - PRUNE_AFTER_SECONDS
    for path in directory.glob("walk-*.so"):
        try:
            if path != keep and path.stat().st_mtime < cutoff:
                path.unlink()
        except OSError:  # pruned concurrently, or not ours to remove
            pass


def _build():
    # Imported here, not at module level: a run pays for them once, at
    # its first chunk, rather than in every import of the engine.
    import ctypes
    import hashlib
    import platform
    import shutil

    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    source = SOURCE.read_bytes()
    command = [compiler, *CFLAGS]
    key = hashlib.sha256(
        source + "\0".join([*command, platform.machine()]).encode()
    ).hexdigest()[:24]
    for directory in _cache_dirs():
        if not _private_dir(directory):
            continue
        target = directory / f"walk-{key}.so"
        # A second attempt only follows a target deleted (pruned by
        # another process) between the existence check and the load.
        for _ in range(2):
            if not target.exists() and not _compile(command, directory, target):
                return None
            try:
                lib = ctypes.CDLL(str(target))
                break
            except OSError:
                if target.exists():  # present but unloadable
                    return None
        else:
            return None
        try:
            os.utime(target)
        except OSError:
            pass
        _prune(directory, target)
        lib.walk_ops.argtypes = [ctypes.c_void_p]
        lib.walk_ops.restype = None
        return lib
    return None


def library():
    """The native walk library (a ``ctypes.CDLL``), built on first use;
    None when unavailable."""
    global _library
    if _library is _UNLOADED:
        try:
            _library = _build()
        except OSError:
            _library = None
    return _library


# ---------------------------------------------------------------------- #
# Walkers
# ---------------------------------------------------------------------- #


def _address(buffer) -> int:
    """Address of a writable buffer (``array``, ``bytearray`` or ndarray)."""
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    if isinstance(buffer, bytearray):
        buffer = np.frombuffer(buffer, dtype=np.uint8)
    return buffer.ctypes.data


def _cache_fields(cache, keep: list) -> list[int]:
    """walk.c's ``cache_t``, field by field; the buffers go into *keep*."""
    buffers = (cache._tags, cache._age, cache._clock, cache.stats.counts, cache._dirty)
    keep.extend(buffers)
    return [
        *map(_address, buffers),
        cache._num_sets,
        cache._assoc,
        cache._set_mask if cache._power_of_two_sets else -1,
    ]


def _checked_length(kinds, addrs, sizes, flags, bounds, times) -> int:
    """The op count, after checking what walk.c assumes of the columns."""
    n = len(kinds)
    for column, dtype in (
        (kinds, np.uint8), (flags, np.uint8), (addrs, np.int64), (sizes, np.int64),
        *(((bounds, np.int64),) if bounds is not None else ()),
        *(((times, np.int64),) if times is not None else ()),
    ):
        if column.dtype != dtype or not column.flags.c_contiguous or len(column) != n:
            raise ValueError(f"walk columns must be {n} contiguous {np.dtype(dtype)}")
    if bounds is None and np.any(flags & F_BOUND):
        raise ValueError("ops flagged F_BOUND need bounds")
    if times is None and np.any(flags & F_HOOK):
        raise ValueError("ops flagged F_HOOK need times")
    return n


def _new_ctl() -> array:
    ctl = array("q", bytes(8 * CTL_SLOTS))
    ctl[C_OPS_LIMIT] = ctl[C_NEXT] = UNBOUNDED
    return ctl


class NativeWalk:
    """The walk contract, run by ``walk.c``."""

    def __init__(
        self, lib, hierarchy, kinds, addrs, sizes, flags, bounds, times=None
    ) -> None:
        import ctypes

        n = _checked_length(kinds, addrs, sizes, flags, bounds, times)
        self.ctl = _new_ctl()
        nvm = hierarchy.nvm
        ranges = array("q", [b for r in hierarchy.nvm_ranges for b in r] or [0])
        dram_stats = hierarchy.dram.stats.counts
        # Every buffer the block points into stays alive with the walk.
        keep = [kinds, addrs, sizes, flags, bounds, times, ranges, dram_stats, self.ctl]
        if nvm is None:
            nvm_stats = wbuf = wb_entries = wb_drain = nvm_read = 0
        else:
            buf = nvm._write_buffer
            keep += [nvm.stats.counts, buf.counts]
            nvm_stats = _address(nvm.stats.counts)
            wbuf = _address(buf.counts)
            wb_entries = buf.entries
            wb_drain = buf.drain_cycles
            nvm_read = nvm.read_latency_cycles
        # walk.c's ``walk_t``: every field is one int64 or pointer.
        fields = [
            *_cache_fields(hierarchy.l1, keep),
            *_cache_fields(hierarchy.l2, keep),
            *_cache_fields(hierarchy.l3, keep),
            _address(dram_stats),
            nvm_stats,
            wbuf,
            wb_entries,
            wb_drain,
            hierarchy.dram.read_latency_cycles,
            nvm_read,
            hierarchy._l1_hit.latency_cycles,
            hierarchy._l2_hit.latency_cycles,
            hierarchy._l3_hit.latency_cycles,
            _address(ranges),
            len(hierarchy.nvm_ranges),
            n,
            _address(kinds),
            _address(flags),
            _address(addrs),
            _address(sizes),
            _address(bounds) if bounds is not None else 0,
            _address(times) if times is not None else 0,
            _address(self.ctl),
        ]
        self._block = array("q", fields)
        self._keep = keep
        self._nvm = nvm
        self._arg = ctypes.c_void_p(self._block.buffer_info()[0])
        self._walk = lib.walk_ops

    def step(self) -> None:
        self._walk(self._arg)
        ctl = self.ctl
        writes = ctl[C_NVM_WRITES]
        if writes:
            ctl[C_NVM_WRITES] = 0
            oracle = self._nvm.order_oracle
            if oracle is not None:
                oracle.note_writes(writes, CACHE_LINE_BYTES)


class PythonWalk:
    """The walk contract over the reference hierarchy methods.

    A single-line L1 hit is handled inline — the hit branch of
    :meth:`~repro.memory.cache.Cache.access` on the L1's own buffers — and
    every other access goes through the hierarchy.  The hit test first
    tries the slot where the walk last found the line: a line occupies at
    most one slot, so a matching tag there proves the hit whatever ran in
    between, and only a stale or missing guess scans the set.
    """

    def __init__(
        self, hierarchy, kinds, addrs, sizes, flags, bounds, times=None
    ) -> None:
        _checked_length(kinds, addrs, sizes, flags, bounds, times)
        self.ctl = _new_ctl()
        l1 = hierarchy.l1
        lines = addrs // CACHE_LINE_BYTES
        single = (sizes > 0) & (addrs % CACHE_LINE_BYTES + sizes <= CACHE_LINE_BYTES)
        sets = lines & l1._set_mask if l1._power_of_two_sets else lines % l1._num_sets
        # Everything step() reads, unpacked there in one go.  The op
        # columns are memoryviews, which index to Python ints: on whole
        # chunks of quicksort ops they run as fast as per-chunk tolist()
        # lists, without building the lists.
        self._state = (
            memoryview(kinds),
            memoryview(addrs),
            memoryview(sizes),
            memoryview(flags),
            memoryview(bounds) if bounds is not None else None,
            memoryview(times) if times is not None else None,
            memoryview(lines),
            # First L1 slot of a single-line access's set; -1 otherwise.
            memoryview(np.where(single, sets * l1._assoc, -1)),
            hierarchy,
            hierarchy.access,
            hierarchy._access_line,
            l1._assoc,
            l1._tags,
            l1._age,
            l1._dirty,
            l1._clock,
            l1.stats.counts,
            hierarchy._l1_hit.latency_cycles,
            {},  # line -> slot it was last found in
        )

    def step(self) -> None:
        ctl = self.ctl
        i = ctl[C_I]
        end = ctl[C_END]
        now = ctl[C_NOW]
        pending = ctl[C_PENDING]
        ops = ctl[C_OPS]
        limit = ctl[C_OPS_LIMIT]
        next_boundary = ctl[C_NEXT]
        hook_at = ctl[C_HOOK_AT]
        (
            kinds, addrs, sizes, flags, bounds, times, lines, bases, hierarchy,
            access, access_line, assoc, tags, ages, dirty, clock, l1_counts,
            l1_latency, found,
        ) = self._state
        app = 0
        while i < end:
            kind = kinds[i]
            if kind <= _WRITE:
                base = bases[i]
                if base >= 0:
                    line = lines[i]
                    slot = found.get(line, -1)
                    if slot < 0 or tags[slot] != line:
                        ways = tags[base : base + assoc]
                        slot = base + ways.index(line) if line in ways else -1
                        if slot >= 0:
                            found[line] = slot
                    if slot >= 0:
                        tick = clock[0] + 1
                        clock[0] = tick
                        ages[slot] = tick
                        l1_counts[HITS] += 1
                        if kind == _WRITE:
                            dirty[slot] = 1
                        latency = l1_latency
                    else:
                        hierarchy.now = now
                        latency = access_line(
                            line, addrs[i], kind == _WRITE
                        ).latency_cycles
                else:
                    hierarchy.now = now
                    latency = access(
                        addrs[i], sizes[i], kind == _WRITE
                    ).latency_cycles
                now += latency
                app += latency
                flag = flags[i]
                if flag & F_BOUND:
                    pending += bounds[i]
                if flag & F_HOOK:
                    if now >= hook_at:
                        break
                    times[i] = now
            elif kind == _COMPUTE:
                now += sizes[i]
                app += sizes[i]
            else:
                now += 1
                app += 1
            if ops + 1 >= limit or now + pending >= next_boundary:
                break
            ops += 1
            i += 1
        ctl[C_I] = i
        ctl[C_NOW] = now
        ctl[C_APP] = app
        ctl[C_PENDING] = pending
        ctl[C_OPS] = ops


def walker(hierarchy, kinds, addrs, sizes, flags, bounds=None, times=None):
    """A walk over one chunk: *kinds*/*flags* contiguous uint8 arrays,
    *addrs*/*sizes*/*bounds*/*times* contiguous int64 arrays (*bounds* may
    be None when no op is flagged ``F_BOUND``, *times* when none is flagged
    ``F_HOOK``)."""
    lib = library()
    if lib is None:
        return PythonWalk(hierarchy, kinds, addrs, sizes, flags, bounds, times)
    return NativeWalk(lib, hierarchy, kinds, addrs, sizes, flags, bounds, times)

