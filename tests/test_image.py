"""Tests for ByteImage and data-integrity recovery in the simulation."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cpu.engine import trace_array
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


class DenseImage:
    """Reference: every range operation walks the range word by word."""

    def __init__(self, words=None):
        self.words = dict(words or {})

    @staticmethod
    def span(rng):
        return range(rng.start // 8, (rng.end - 1) // 8 + 1) if rng.size else range(0)

    def copy_range_from(self, source, rng):
        copied = 0
        for word in self.span(rng):
            if word in source.words:
                self.words[word] = source.words[word]
                copied += 1
            else:
                self.words.pop(word, None)
        return copied

    def words_in_range(self, rng):
        return [(w * 8, self.words[w]) for w in self.span(rng) if w in self.words]

    def replace_range(self, rng, pairs):
        for word in self.span(rng):
            self.words.pop(word, None)
        for address, value in pairs:
            self.words[address // 8] = value
        return len(pairs)

    def equals_in_range(self, other, rng):
        return all(
            self.words.get(w, 0) == other.words.get(w, 0) for w in self.span(rng)
        )


def image_of(writes):
    image = ByteImage()
    for word, value in writes.items():
        image.write(word * 8, value)
    return image


# Few stored words over a small space: ranges often end on a stored word,
# and are as often wider than the stored set (the sparse walk) as not.
WORDS = st.dictionaries(st.integers(0, 80), st.integers(0, 7), max_size=12)
RANGES = st.tuples(st.integers(0, 90 * 8), st.integers(0, 90 * 8)).map(
    lambda t: AddressRange(t[0], t[0] + t[1])
)


class TestSparseRangeWalks:
    """Range operations visit the smaller of the range and the stored words,
    and agree with the word-by-word reference either way."""

    @settings(max_examples=300)
    @given(WORDS, WORDS, RANGES)
    def test_matches_dense_reference(self, a_words, b_words, rng):
        a, b = image_of(a_words), image_of(b_words)
        ra, rb = DenseImage(a_words), DenseImage(b_words)
        assert a.equals_in_range(b, rng) == ra.equals_in_range(rb, rng)
        assert list(a.words_in_range(rng)) == ra.words_in_range(rng)

        copy = a.snapshot()
        ref_copy = DenseImage(a_words)
        assert copy.copy_range_from(b, rng) == ref_copy.copy_range_from(rb, rng)
        assert dict(copy.iter_words()) == {w * 8: v for w, v in ref_copy.words.items()}

        pairs = rb.words_in_range(rng)
        replaced = a.snapshot()
        ref_replaced = DenseImage(a_words)
        assert replaced.replace_range(rng, pairs) == ref_replaced.replace_range(rng, pairs)
        assert dict(replaced.iter_words()) == {
            w * 8: v for w, v in ref_replaced.words.items()
        }

    def test_absent_word_equals_zero(self):
        a, b = ByteImage(), ByteImage()
        a.write(0x40, 0)
        assert a.equals_in_range(b, AddressRange(0, 1 << 30))
        assert b.equals_in_range(a, AddressRange(0, 0x48))
        a.write(0x48, 1)
        assert not b.equals_in_range(a, AddressRange(0, 1 << 30))

    def test_copy_from_itself_keeps_contents(self):
        a = image_of({3: 1, 900: 2})
        assert a.copy_range_from(a, AddressRange(0, 1 << 20)) == 2
        assert dict(a.iter_words()) == {24: 1, 7200: 2}


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
        streams.append((thread, trace_array(ops), 0))
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
