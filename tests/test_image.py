"""Tests for ByteImage and data-integrity recovery in the simulation."""

import numpy as np
from hypothesis import given, strategies as st

from repro.cpu.ops import Op, OpKind
from repro.kernel.simulation import MultiThreadSimulation
from repro.memory.address import AddressRange
from repro.memory.image import ByteImage


class TestByteImage:
    def test_write_read_roundtrip(self):
        img = ByteImage()
        img.write(0x1000, 42)
        assert img.read(0x1000) == 42
        assert img.read(0x1004) == 42  # same word
        assert img.read(0x1008) == 0  # unwritten word reads 0

    def test_copy_range(self):
        src, dst = ByteImage(), ByteImage()
        src.write(0x100, 1)
        src.write(0x108, 2)
        src.write(0x200, 3)  # outside the copied range
        copied = dst.copy_range_from(src, AddressRange(0x100, 0x110))
        assert copied == 2
        assert dst.read(0x100) == 1 and dst.read(0x108) == 2
        assert dst.read(0x200) == 0

    def test_copy_range_removes_stale_words(self):
        src, dst = ByteImage(), ByteImage()
        dst.write(0x100, 99)  # stale word absent from source
        dst.copy_range_from(src, AddressRange(0x100, 0x108))
        assert dst.read(0x100) == 0

    def test_equals_in_range(self):
        a, b = ByteImage(), ByteImage()
        a.write(0x10, 5)
        b.write(0x10, 5)
        assert a.equals_in_range(b, AddressRange(0x0, 0x100))
        b.write(0x18, 7)
        assert not a.equals_in_range(b, AddressRange(0x0, 0x100))
        assert a.equals_in_range(b, AddressRange(0x0, 0x18))

    def test_snapshot_independent(self):
        img = ByteImage()
        img.write(0x0, 1)
        snap = img.snapshot()
        img.write(0x0, 2)
        assert snap.read(0x0) == 1

    def test_clear(self):
        img = ByteImage()
        img.write(0x0, 1)
        img.clear()
        assert len(img) == 0

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 2**40)),
            max_size=100,
        )
    )
    def test_copy_makes_exact_replica(self, writes):
        src, dst = ByteImage(), ByteImage()
        for offset, value in writes:
            src.write(offset * 8, value)
        rng = AddressRange(0, 8 * 1024)
        dst.copy_range_from(src, rng)
        assert dst.equals_in_range(src, rng)


def build_sim(num_threads=2, writes=300, **kwargs):
    sim = MultiThreadSimulation(
        [[Op(OpKind.COMPUTE, size=1)] for _ in range(num_threads)], **kwargs
    )
    streams = []
    for i, (thread, _, _) in enumerate(sim.cores[0].queue):
        rng = np.random.default_rng(100 + i)
        frame = thread.stack.size // 2
        ops = [Op(OpKind.CALL, size=frame)]
        base = thread.stack.end - frame
        for off in (rng.integers(0, frame // 8, size=writes) * 8):
            ops.append(Op(OpKind.WRITE, base + int(off), 8))
        streams.append((thread, ops, 0))
    sim.cores[0].queue = streams
    return sim


class TestDataIntegrityRecovery:
    def test_contents_survive_crash(self):
        sim = build_sim(2, writes=300, quantum_ops=64, checkpoint_every_quanta=3)
        sim.run()
        # Capture each thread's live contents at the final checkpoint.
        expected = {
            tid: img.snapshot() for tid, img in sim.dram_images.items()
        }
        sim.crash()
        assert all(len(img) == 0 for img in sim.dram_images.values())
        report = sim.recover()
        assert report.recovered
        assert sim.verify_recovered_contents()
        # Restored words within the live frame match the pre-crash values:
        # the final checkpoint ran after the last write, so the persistent
        # image holds exactly the live state.
        for thread in sim.process.iter_threads():
            frame = AddressRange(
                thread.stack.end - thread.stack.size // 2, thread.stack.end
            )
            assert sim.dram_images[thread.tid].equals_in_range(
                expected[thread.tid], frame
            )

    def test_post_checkpoint_writes_lost_by_design(self):
        sim = build_sim(1, writes=200, quantum_ops=50, checkpoint_every_quanta=100)
        sim.run()  # one mid-run checkpoint at most + final checkpoint
        thread = sim.process.thread(1)
        # Write after the final checkpoint, then crash without another one.
        address = thread.stack.end - 64
        sim.dram_images[1].write(address, 0xDEAD)
        sim.crash()
        sim.recover()
        assert sim.dram_images[1].read(address) != 0xDEAD
