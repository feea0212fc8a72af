"""Processes and threads in the GemOS-like kernel.

A :class:`Process` owns an address-space layout, a page table, a heap, and
one or more :class:`Thread` objects.  Each thread has its own stack
(allocated top-down from the layout), its own register file, and — when the
process is persistent — its own dirty bitmap, persistent-stack NVM region,
and Prosper tracker state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.config import TrackerConfig
from repro.core.bitmap import DirtyBitmap
from repro.core.tracker import TrackerState
from repro.cpu.registers import RegisterFile
from repro.kernel.layout import AddressSpaceLayout
from repro.kernel.vmem import PageTable
from repro.memory.address import AddressRange


@dataclass
class Thread:
    """One software thread: stack, registers, persistence metadata."""

    tid: int
    stack: AddressRange
    registers: RegisterFile
    #: DRAM bitmap area backing Prosper tracking for this thread.
    bitmap: DirtyBitmap | None = None
    #: NVM region holding the committed persistent stack image.
    persistent_stack: AddressRange | None = None
    #: Saved tracker state while the thread is descheduled.
    tracker_state: TrackerState | None = None

    @property
    def persistent(self) -> bool:
        return self.bitmap is not None


class Process:
    """A process with per-thread stacks over hybrid memory."""

    _next_pid = 1

    def __init__(
        self,
        layout: AddressSpaceLayout | None = None,
        tracker_config: TrackerConfig | None = None,
        name: str = "proc",
    ) -> None:
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.name = name
        self.layout = layout or AddressSpaceLayout()
        self.tracker_config = tracker_config or TrackerConfig()
        self.page_table = PageTable()
        self.threads: dict[int, Thread] = {}
        self._next_tid = 1
        # Map the first megabyte of heap eagerly (heap demand paging is not
        # under study); stacks are demand-mapped in vmem.touch.
        self.page_table.map_range(
            AddressRange(self.layout.heap_base, self.layout.heap_base + (1 << 20))
        )

    # ------------------------------------------------------------------ #
    # Thread management
    # ------------------------------------------------------------------ #

    def spawn_thread(
        self,
        stack_bytes: int | None = None,
        persistent: bool = False,
    ) -> Thread:
        """Create a thread; when *persistent*, set up Prosper metadata."""
        stack = self.layout.allocate_stack(stack_bytes)
        registers = RegisterFile(stack_pointer=stack.end)
        thread = Thread(self._next_tid, stack, registers)
        self._next_tid += 1

        if persistent:
            granularity = self.tracker_config.granularity_bytes
            base = self.layout.allocate_bitmap_area(stack, granularity)
            thread.bitmap = DirtyBitmap(stack, granularity, base)
            thread.persistent_stack = self.layout.allocate_persistent_stack(stack)

        self.threads[thread.tid] = thread
        return thread

    def thread(self, tid: int) -> Thread:
        return self.threads[tid]

    def iter_threads(self) -> Iterator[Thread]:
        return iter(self.threads.values())

    # ------------------------------------------------------------------ #
    # Inter-thread stack protection (Section III-C)
    # ------------------------------------------------------------------ #

    def build_thread_view(self, tid: int) -> PageTable:
        """Page-table view for *tid*: other threads' stacks read-only.

        A write fault through this view is the OS interposition point where
        cross-thread stack modifications get recorded into the victim
        thread's bitmap.
        """
        me = self.threads[tid]
        view = self.page_table
        for other in self.threads.values():
            if other.tid == tid:
                continue
            view = view.clone_view(read_only=other.stack)
        # Ensure the thread's own stack pages stay writable in the view.
        for page in me.stack.pages():
            entry = view.entries.get(page)
            if entry is not None:
                entry.writable = True
        return view

    def handle_cross_thread_write(self, writer_tid: int, address: int, size: int) -> bool:
        """OS fault handler for a write into another thread's stack.

        Records the dirtied granules in the *victim* thread's bitmap (so its
        next checkpoint captures the modification) and allows the write.
        Returns True when the address belonged to some other thread's stack.
        """
        for victim in self.threads.values():
            if victim.tid == writer_tid:
                continue
            if victim.stack.contains(address):
                if victim.bitmap is not None:
                    victim.bitmap.set_bits_for_access(address, size)
                return True
        return False
