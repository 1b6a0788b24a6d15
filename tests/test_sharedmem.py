"""Shared-memory allocator and simulated arrays."""

import pytest

from repro.config import MachineConfig
from repro.runtime import Machine
from repro.runtime.sharedmem import SharedMemory


@pytest.fixture
def shm():
    return SharedMemory(MachineConfig(nprocs=4))


class TestAllocator:
    def test_sequential_allocation(self, shm):
        a = shm.alloc_words(4)
        b = shm.alloc_words(4)
        assert b == a + 16

    def test_line_alignment(self, shm):
        shm.alloc_words(3)  # 12 bytes
        base = shm.alloc_words(1, align_line=True)
        assert base % 32 == 0

    def test_negative_rejected(self, shm):
        with pytest.raises(ValueError):
            shm.alloc_words(-1)

    def test_bytes_allocated(self, shm):
        shm.alloc_words(10)
        assert shm.alloc_words(1, align_line=False) == 40

    def test_pad_to_line_isolates_next_array(self, shm):
        a = shm.array(3, "a", align_line=True, pad_to_line=True)
        b = shm.array(1, "b")
        assert b.base % 32 == 0
        assert b.base >= a.base + 32

    def test_arrays_registered(self, shm):
        shm.array(4, "x")
        shm.scalar("y")
        assert [a.name for a in shm.arrays] == ["x", "y"]


class TestSharedArray:
    def test_addr_layout(self, shm):
        arr = shm.array(8, "a")
        assert arr.addr(0) == arr.base
        assert arr.addr(3) == arr.base + 12

    def test_peek_poke(self, shm):
        arr = shm.array(4, "a", fill=7.0)
        assert arr.peek(2) == 7.0
        arr.poke(2, 9.0)
        assert arr.peek(2) == 9.0

    def test_poke_many_and_snapshot(self, shm):
        arr = shm.array(3, "a")
        arr.poke_many([1, 2, 3])
        assert arr.snapshot() == [1, 2, 3]

    def test_poke_many_length_checked(self, shm):
        arr = shm.array(3, "a")
        with pytest.raises(ValueError):
            arr.poke_many([1, 2])

    def test_bounds_checked(self, shm):
        arr = shm.array(3, "a")
        with pytest.raises(IndexError):
            arr.peek(3)
        with pytest.raises(IndexError):
            arr.poke(-1, 0)

    def test_len(self, shm):
        assert len(shm.array(5, "a")) == 5

    def test_scalar_value(self, shm):
        s = shm.scalar("s", fill=3)
        assert s.value() == 3


class TestSimulatedAccess:
    def _machine(self, system="RCinv"):
        return Machine(MachineConfig(nprocs=2), system)

    def test_read_write_roundtrip(self):
        m = self._machine()
        arr = m.shm.array(8, "a")
        got = []

        def worker(ctx):
            if ctx.pid == 0:
                yield from arr.write(3, 42.5)
            else:
                yield from ctx.compute(10000)
                got.append((yield from arr.read(3)))

        m.run(worker)
        assert got == [42.5]

    def test_add_returns_new_value(self):
        m = self._machine()
        s = m.shm.scalar("s", fill=10)
        results = []

        def worker(ctx):
            if ctx.pid == 0:
                results.append((yield from s.incr(5)))
            else:
                yield from ctx.compute(1)

        m.run(worker)
        assert results == [15]
        assert s.value() == 15

    def test_read_range_write_range(self):
        m = self._machine()
        arr = m.shm.array(8, "a")
        got = []

        def worker(ctx):
            if ctx.pid == 0:
                yield from arr.write_range(2, [1.0, 2.0, 3.0])
            else:
                yield from ctx.compute(10000)
                got.append((yield from arr.read_range(2, 5)))

        m.run(worker)
        assert got == [[1.0, 2.0, 3.0]]

    def test_range_bounds(self):
        m = self._machine()
        arr = m.shm.array(4, "a")

        def worker(ctx):
            if ctx.pid == 0:
                yield from arr.read_range(2, 5)
            else:
                yield from ctx.compute(1)

        with pytest.raises(IndexError):
            m.run(worker)

    def test_write_range_bounds(self):
        m = self._machine()
        arr = m.shm.array(4, "a")

        def worker(ctx):
            if ctx.pid == 0:
                yield from arr.write_range(3, [1, 2])
            else:
                yield from ctx.compute(1)

        with pytest.raises(IndexError):
            m.run(worker)

    def test_simulated_reads_counted(self):
        m = self._machine()
        arr = m.shm.array(8, "a")

        def worker(ctx):
            if ctx.pid == 0:
                for i in range(8):
                    yield from arr.read(i)
            else:
                yield from ctx.compute(1)

        res = m.run(worker)
        assert res.procs[0].reads == 8
