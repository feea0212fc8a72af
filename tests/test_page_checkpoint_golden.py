"""Golden run statistics of the mechanisms whose checkpoints copy pages or
copy within NVM (write-protect, Dirtybit, the adaptive Prosper page
fallback, SSP consolidation and the redo-log apply), and of the ones whose
hooks charge inline cycles or whose interval ends charge checkpoint cycles
(Prosper, Romulus, flush and undo logging).

Each case runs one mechanism over one trace at a 10 ms paper interval and
hashes, with SHA-256, the engine statistics, the mechanism statistics
(the ``MechanismStats`` ledger) and the DRAM and NVM device counters.  The
first five mechanisms' pins were recorded before the page checkpoint was
given one owner, the last four's before the engines took over the ledger
writes, so a refactor of either path must leave every cycle, byte and
device access where it was.

The pair pins run a stack mechanism and a heap mechanism together
(Figure 9's two-region runs) and hash both ledgers; they were recorded
before the engines handed each region's interval store log to the
mechanisms.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.runner import run_mechanism
from repro.persistence.adaptive import AdaptiveProsperPersistence
from repro.persistence.dirtybit import DirtyBitPersistence
from repro.persistence.logging import (
    FlushPersistence,
    RedoLogPersistence,
    UndoLogPersistence,
)
from repro.persistence.prosper import ProsperPersistence
from repro.persistence.romulus import RomulusPersistence
from repro.persistence.ssp import SspPersistence
from repro.persistence.writeprotect import WriteProtectPersistence
from repro.workloads.apps import gapbs_pr, ycsb_mem
from repro.workloads.synthetic import sparse_workload, stream_workload

TRACES = {
    "sparse": lambda: sparse_workload(pages=48, rounds=100, seed=11),
    "stream": lambda: stream_workload(array_bytes=64 * 1024, passes=2, seed=11),
    "ycsb_mem": lambda: ycsb_mem(20_000, 42),
}

MECHANISMS = {
    "writeprotect": WriteProtectPersistence,
    "dirtybit": DirtyBitPersistence,
    "prosper-adaptive": AdaptiveProsperPersistence,
    "ssp-10us": lambda: SspPersistence(10.0),
    "redo": RedoLogPersistence,
    "prosper": ProsperPersistence,
    "romulus": RomulusPersistence,
    "flush": FlushPersistence,
    "undo": UndoLogPersistence,
}

#: SHA-256 of each run's statistics (see :func:`_digest`).
GOLDEN = {
    ("sparse", "dirtybit"): "b48ceaa5348832c2e855808a84a0888e5edbc6e7b13692b4aca4a117febc2cb8",
    ("sparse", "prosper-adaptive"): "ba3316b9dbf81fc3753b37e10b2d9d85576959d8f37d1e067c241d15d54da596",
    ("sparse", "redo"): "822549e864405bfeda513be0095367af923e58b4d384961fc22b12c6a0dc0a6a",
    ("sparse", "ssp-10us"): "c922126ed9782ae73e518811d744f0e4485ae2a2d48ff317669b917cb06d225b",
    ("sparse", "writeprotect"): "48fb27ea4a28ee3d35cefd4fed40c3b70e7e515566421aab7a71fcdf572cf3c7",
    ("stream", "dirtybit"): "9a7bdd40d5b48dd08ef03232c6c52cd3eb898294a47967afe7f889ffef5a80fe",
    ("stream", "prosper-adaptive"): "1b256dcc12f2a64af45b24fecd509665665ff7905bf928ec8468a6e340a09d8f",
    ("stream", "redo"): "18c07550080b43c0fa5baf0b437f9d0cd2f7c1364c813ca0ce7e77f396843ebc",
    ("stream", "ssp-10us"): "ebd43ed27a1f104443de0552853f6e4dfc79dc2c647459cfa86bf1b1ed007560",
    ("stream", "writeprotect"): "ff61a99fb02b78f3487e3a64623b9ca40f72958a099b0e4e53517348d96ac237",
    ("ycsb_mem", "dirtybit"): "be861e9d0c170ff7aa4a94c81010a7f5712abb46a89a9c71a3111f9bbfe37b1b",
    ("ycsb_mem", "prosper-adaptive"): "d009c93e9c8bb0a706767874e49cb4a0211461c8ce093786da86911488748d5c",
    ("ycsb_mem", "redo"): "95a073424dcc542c30a6b5fb7b53826c8a28c54ee0f84930fd9cbca8f741fe1a",
    ("ycsb_mem", "ssp-10us"): "96402b2309a73d73550c437dd89ddfb7ccc3ce183cb7c167a4bbaf5b77b929d7",
    ("ycsb_mem", "writeprotect"): "321a1ab5ede938241477906865fcdb80ad49c8abaff3f1b75a252e9e7be8ef59",
    # Recorded before the engines took over the ledger writes.
    ("sparse", "flush"): "975dbfe179db3c61c2566665835bdb40040d9ee6bd1a5e479ece84bc4705e1e1",
    ("sparse", "prosper"): "7e7de2b2e30c699788ecb1f01919fea0b6300126a5cb0e26572e878529aee3b9",
    ("sparse", "romulus"): "bdfcc0d816fbb053524712abdd850a47084344d0a0ba960020a254e1adb31275",
    ("sparse", "undo"): "cf611e8c8022962dcd9416f45add8797606dc0194fff9ff111800bbf911fcda4",
    ("stream", "flush"): "08c146d9f6c40a761c28d7b9cdd2b712d121d0e386a02b034a5499fd7592e5df",
    ("stream", "prosper"): "23a0c78af5799aa1b0a248f150ccbe05851729d5c6dc46fe315365c4cffbeb05",
    ("stream", "romulus"): "143c8406668a34a9d3a9437c46ac2fedf30b3faa508e78c5cfe29f57b9621154",
    ("stream", "undo"): "78c4b14269adfbb9265e6fb349b37f18e6eb5fa27c4f53079d156ba104c17c69",
    ("ycsb_mem", "flush"): "7ee245f02deea994ae3a4fe3120d2d5e42b63cb237505ec77229000ca8f95090",
    ("ycsb_mem", "prosper"): "92e695a34518571a7f0e95abd034d381bc607e76e761f35eb77213497d506a9f",
    ("ycsb_mem", "romulus"): "3c4bd6f60d9270ce43f5019f46e0a7a4430c7b90a68d28c708fad6af5426ae6f",
    ("ycsb_mem", "undo"): "c367e369c4542edbbac2bdebd51f34b3c76362d09baa5cce6cb8d161707645e6",
}


#: (stack, heap) mechanism pairs run over two-region traces.
PAIRS = {
    "dirtybit+ssp-10us": ("dirtybit", "ssp-10us"),
    "prosper+dirtybit": ("prosper", "dirtybit"),
    "dirtybit+romulus": ("dirtybit", "romulus"),
    "writeprotect+redo": ("writeprotect", "redo"),
}

PAIR_TRACES = {
    "ycsb_mem": lambda: ycsb_mem(20_000, 42),
    "gapbs_pr": lambda: gapbs_pr(20_000, 42),
}

#: SHA-256 of each pair run's statistics, both ledgers included.
PAIR_GOLDEN = {
    ("gapbs_pr", "dirtybit+romulus"): "04263d2d85e29a850ea64529291ee5d7a65613f7a06e0b64c5128e0d16c25973",
    ("gapbs_pr", "dirtybit+ssp-10us"): "473b2912eac4a5f09db5c65b62f224f9d577385df9879a28892ca01c9834a2ec",
    ("gapbs_pr", "prosper+dirtybit"): "fbf0c1d97acc3c3b2596e2738a08b036f06cf21c36079f8c3db5f0348603e047",
    ("gapbs_pr", "writeprotect+redo"): "8629c0e9306dd16788f15c7fc9674e642e2f9c1ed88a4fe0a2d6638b42bb811c",
    ("ycsb_mem", "dirtybit+romulus"): "58d6271273406d2d179d55b980aeba2e4085d2279acf73e2c3354df31bb564d6",
    ("ycsb_mem", "dirtybit+ssp-10us"): "ace4cee5b2f7aad8d4f0a184e7948a0e8d5c5762ef613198f5242fc8937d5be8",
    ("ycsb_mem", "prosper+dirtybit"): "32f5010cb0a659867c7dd4685a414600b701c201ebbc02a9bdb0eae0774b396c",
    ("ycsb_mem", "writeprotect+redo"): "a9f74f514311e226dcb03a9fcdbf4874ad1be047a4c24165c27f4b8593e6c03f",
}


def _run(trace_name: str, mechanism_name: str):
    mechanism = MECHANISMS[mechanism_name]()
    result = run_mechanism(TRACES[trace_name](), mechanism, 10.0)
    return result, mechanism


def _digest(result, mechanism, heap=None) -> str:
    hierarchy = mechanism.hierarchy
    state = {
        "engine": dataclasses.asdict(result.stats),
        "mechanism": dataclasses.asdict(mechanism.stats),
        "dram": dataclasses.asdict(hierarchy.dram.stats),
        "nvm": dataclasses.asdict(hierarchy.nvm.stats),
        "faults": getattr(mechanism, "faults", None),
        "granularity_history": getattr(mechanism, "granularity_history", None),
    }
    if heap is not None:
        state["heap"] = dataclasses.asdict(heap.stats)
        state["heap_faults"] = getattr(heap, "faults", None)
    blob = json.dumps(state, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("mechanism_name", sorted(MECHANISMS))
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_run_statistics_pinned(trace_name, mechanism_name):
    result, mechanism = _run(trace_name, mechanism_name)
    assert _digest(result, mechanism) == GOLDEN[(trace_name, mechanism_name)]


def _run_pair(trace_name: str, pair: str):
    stack_name, heap_name = PAIRS[pair]
    stack, heap = MECHANISMS[stack_name](), MECHANISMS[heap_name]()
    result = run_mechanism(
        PAIR_TRACES[trace_name](), stack, 10.0, heap_mechanism=heap
    )
    return result, stack, heap


@pytest.mark.parametrize("pair", sorted(PAIRS))
@pytest.mark.parametrize("trace_name", sorted(PAIR_TRACES))
def test_pair_run_statistics_pinned(trace_name, pair):
    result, stack, heap = _run_pair(trace_name, pair)
    assert heap.stats.stores_seen and heap.stats.intervals
    assert _digest(result, stack, heap) == PAIR_GOLDEN[(trace_name, pair)]


def test_stream_reaches_page_fallback():
    """The adaptive stream case checkpoints through the page fallback, so
    its pin covers that path."""
    _, mechanism = _run("stream", "prosper-adaptive")
    assert 4096 in mechanism.granularity_history
    assert mechanism.in_page_fallback
