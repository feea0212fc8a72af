"""Golden trace bytes: every generator's ``TRACE_DTYPE`` output is pinned.

Each case hashes the raw bytes of one generator's trace array at two fixed
seeds.  A change to a generator's emission order, an address, a size or a
kind flips the hash, so rewrites of the generators (or of the builder they
emit through) must stay byte-identical to pass.
"""

import hashlib

import numpy as np
import pytest

from repro.cpu.ops import TRACE_DTYPE
from repro.faults.fuzzer import build_trace
from repro.workloads.apps import APP_PROFILES, app_workload, ycsb_mem_phased
from repro.workloads.callstack import quicksort_workload, recursive_workload
from repro.workloads.spec import SPEC_PROFILES, spec_workload
from repro.workloads.synthetic import (
    normal_workload,
    poisson_workload,
    random_workload,
    sparse_workload,
    stream_workload,
)
from repro.workloads.trace import Trace

SEEDS = (7, 42)

GENERATORS = {
    "random": lambda s: random_workload(num_writes=3_000, seed=s),
    "stream": lambda s: stream_workload(array_bytes=16 * 1024, seed=s),
    "sparse": lambda s: sparse_workload(pages=16, rounds=20, seed=s),
    "normal": lambda s: normal_workload(blocks=60, seed=s),
    "poisson": lambda s: poisson_workload(blocks=60, seed=s),
    "quicksort": lambda s: quicksort_workload(elements=1024, repeats=3, seed=s),
    "recursive": lambda s: recursive_workload(depth=4, descents=40, seed=s),
    "ycsb_mem_phased": lambda s: ycsb_mem_phased(6_000, seed=s),
    "fuzz": lambda s: build_trace(s, 1_200),
    **{
        f"app:{name}": (lambda s, name=name: app_workload(name, 6_000, seed=s))
        for name in APP_PROFILES
    },
    **{
        f"spec:{name}": (lambda s, name=name: spec_workload(name, 4_000, seed=s))
        for name in SPEC_PROFILES
    },
}

#: SHA-256 of each trace array's bytes, recorded before the generators were
#: last rewritten.
GOLDEN = {
    ("app:g500_sssp", 7): "5df2148e42779c8fa586286b0909972b831195a8d5ad943c08eece67471036ab",
    ("app:g500_sssp", 42): "86fee2e8a238c739975a84b4a1c35525fadb43dc1f8e8883e86f5ad9a7e179a9",
    ("app:gapbs_pr", 7): "1f606223fddef45f201d818011d2d1a7511d2909aa7d5e3f84d11132c739ef6a",
    ("app:gapbs_pr", 42): "df24008d7dabdbcba1dbbb9f24d217024fe2d792619ebca60ed051e482537999",
    ("app:ycsb_mem", 7): "4b37644be139fead2de8bdbead8d46029e44326a5d12706a718db9faa42ef6ca",
    ("app:ycsb_mem", 42): "e3b05725cbde846d208f75baca695874dd0b748732c3f4e1400570c804993921",
    ("fuzz", 7): "cf40d422cde120dbc79b0492a318b321e01419578fc024aba0d2b54c454c3bba",
    ("fuzz", 42): "d0f758f81402ea43d1a7e9d89b99ecae4df95dbd26fb7e2b6f6d3752950de843",
    ("normal", 7): "1cf5c356ebf5a5db2e0406547d89681275eabee31f74b332c904af18e421d4fa",
    ("normal", 42): "132dec14aafa9b838d3bbbe25974903f9e1d2875fad532f76e1f6638e6270777",
    ("poisson", 7): "814114ae8615893e8f0aff36e739a1ea46a5f642dfd8e2d0278a5a1b34ce26bd",
    ("poisson", 42): "0eb8d89906d8485b9281830144f033dc73c520b3e5a4276fdb5a56247c2e64b3",
    ("quicksort", 7): "3805dbeec03140af488e1d1e35c4b8cdfbb4dba27372c28697cd3282a4763f9d",
    ("quicksort", 42): "07d170b51b54a635fdf2ae62a8f86515864d2205e929ec598939270d13fee153",
    ("random", 7): "c3689865f14d42e8fd7395fa52b2a90a49d3d459a6b41af39bea3e29e1a53cdc",
    ("random", 42): "089d322572923b6bb959fb08500e554fdacc7ed3c330cd34e8f38e60abb4597a",
    ("recursive", 7): "d88fd5468537daa8d820606f9acfec4e5a1919bb54f77932dfccd6af7e33ad5c",
    ("recursive", 42): "d88fd5468537daa8d820606f9acfec4e5a1919bb54f77932dfccd6af7e33ad5c",
    ("sparse", 7): "1e37902386a6b370d37ef49ff1092f6b98601513a46bef75541fcb71bff09932",
    ("sparse", 42): "1e37902386a6b370d37ef49ff1092f6b98601513a46bef75541fcb71bff09932",
    ("spec:600.perlbench_s", 7): "63fde7635bd8be491459dfc5f3824d5e0d571f104fb12fc9795ee2b593f3b7cf",
    ("spec:600.perlbench_s", 42): "de5503d8d1de6a72d9be582fe5049d31561d0e6429d03e6b70e446afb3281cc5",
    ("spec:602.gcc_s", 7): "4c036ac7badc4992dabcd1640afc76f93ba1d793422d7b018c622dbd71a8106a",
    ("spec:602.gcc_s", 42): "57bdc45f92b34197cd64ab1f684120246200a30a26d5cecb2b5b4698b35eea46",
    ("spec:605.mcf_s", 7): "5f69e01c62dbd07282606842411a8ab5757b80d8497371d11b253c0d2142df8c",
    ("spec:605.mcf_s", 42): "c257987251da646eead9ff96e288eb592a52e8141f3ad812e0301509fd53625a",
    ("spec:620.omnetpp_s", 7): "a2351d91c4e9d25490436f9a53ac086c658418450bd7f8bd54733c21779b93fc",
    ("spec:620.omnetpp_s", 42): "4ea4efb704e56f825be7c49caa24284de513385a28cd316d6b3be1a1951a5d9d",
    ("spec:623.xalancbmk_s", 7): "c83d47603dc95d57c903cd49fc35a07b52ee9ad9c6e1f68e7700bb9881f10c66",
    ("spec:623.xalancbmk_s", 42): "25259aea22a27978ae4b1e017fcf546cc696f3301b70ad135c481f8399f0ae75",
    ("spec:625.x264_s", 7): "dc54ad48ebdef0190232b9b0f44c78f114e78083383ae682f66fd0bf24993174",
    ("spec:625.x264_s", 42): "ac6c8673da9ce01d04bea845434783fb0bf14b24f511805e27160349fc60fd96",
    ("spec:631.deepsjeng_s", 7): "6c3ddab898750c46421ba9bb54d977aaee35a3102348e517fac57a82a7c11162",
    ("spec:631.deepsjeng_s", 42): "b1b3dd2fd8de33cd5172b30f77ac5ee53e4c89ef3a83f03c0cb24a3a2ece029f",
    ("spec:641.leela_s", 7): "5a6c3fd14ce9b42406eb41fa11e626cec0e3e4580a693db2644563dbe251bb80",
    ("spec:641.leela_s", 42): "28347d392b01470a5d0c3279d827ee0840a0952f0997c613a5408b1bf0c401dd",
    ("stream", 7): "ab1b35244385a4c3e485d6d5037f23bf17a7cbe36685f2dfca878f165808faf0",
    ("stream", 42): "ab1b35244385a4c3e485d6d5037f23bf17a7cbe36685f2dfca878f165808faf0",
    ("ycsb_mem_phased", 7): "a708544aef716ea7d9b3f479697e5ddf72d97e97171f731220ae856b8f9998d4",
    ("ycsb_mem_phased", 42): "1a4ec294a81a5ace4c44151a91a09c0bd4265591ead072615b707f606d825d46",
}


def trace_digest(trace) -> str:
    arr = trace.array if isinstance(trace, Trace) else trace
    assert isinstance(arr, np.ndarray) and arr.dtype == TRACE_DTYPE
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_every_generator_is_pinned():
    assert set(GOLDEN) == {(name, s) for name in GENERATORS for s in SEEDS}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_trace_bytes_unchanged(name, seed):
    assert trace_digest(GENERATORS[name](seed)) == GOLDEN[name, seed]
