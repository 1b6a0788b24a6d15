"""Shared address space: allocator and simulated shared arrays.

Shared data lives in :class:`SharedArray` objects.  Every element access
through :meth:`SharedArray.read` / :meth:`SharedArray.write` traps into
the simulated memory system (they are generators to be driven with
``yield from``); ``peek``/``poke`` bypass the simulation for
setup/verification code that runs outside simulated time.

Addresses are byte addresses in a single flat space; consecutive array
elements occupy consecutive words, so arrays laid out carelessly exhibit
false sharing with 32-byte lines, exactly as on the real machine.  Use
``align_line=True`` (or :meth:`SharedMemory.alloc_padded`) to give an
array its own cache lines.

The allocator hands out disjoint spans in ascending address order, so
:class:`SharedMemory` also answers the reverse question — which array
an address or a cache block belongs to — by bisection
(:meth:`SharedMemory.array_at`) or, for many blocks at once, by one
forward walk over the arrays (:meth:`SharedMemory.name_blocks`, behind
:meth:`SharedMemory.block_name`); the tracer, the attribution reports
and the race detector all name data through it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Generator, Iterable, Iterator, Sequence
from math import inf

from ..config import MachineConfig
from ..sim.events import Op, Read, Write


class SharedMemory:
    """Bump allocator for the simulated shared address space."""

    def __init__(self, config: MachineConfig):
        self.config = config
        self._next_addr = 0
        self.arrays: list[SharedArray] = []
        #: End address of each of :attr:`arrays`, ascending like the
        #: arrays themselves (spans are disjoint and allocated in order).
        self._ends: list[int] = []

    def alloc_words(self, nwords: int, align_line: bool = False) -> int:
        """Reserve ``nwords`` words; returns the base byte address."""
        if nwords < 0:
            raise ValueError("cannot allocate a negative number of words")
        if align_line:
            ls = self.config.line_size
            self._next_addr = (self._next_addr + ls - 1) // ls * ls
        base = self._next_addr
        self._next_addr += nwords * self.config.word_size
        return base

    def array(
        self,
        n: int,
        name: str = "",
        fill: float = 0.0,
        align_line: bool = False,
        pad_to_line: bool = False,
        relaxed: str = "",
    ) -> SharedArray:
        """Allocate a shared array of ``n`` words."""
        arr = SharedArray(
            self, n, name=name, fill=fill, align_line=align_line, relaxed=relaxed
        )
        if pad_to_line:
            ls_words = self.config.words_per_line
            slack = (-n) % ls_words
            if slack:
                self.alloc_words(slack)
        return self._register(arr)

    def scalar(
        self,
        name: str = "",
        fill: float = 0.0,
        align_line: bool = True,
        relaxed: str = "",
    ) -> SharedScalar:
        """Allocate a single shared word on its own cache line."""
        s = SharedScalar(self, name=name, fill=fill, align_line=align_line, relaxed=relaxed)
        return self._register(s)

    def _register(self, arr):
        self.arrays.append(arr)
        self._ends.append(arr.base + arr.n * arr._word)
        return arr

    # -- address -> array ----------------------------------------------
    def array_at(self, addr: int) -> SharedArray | None:
        """The array holding byte ``addr``, or None (padding, unallocated)."""
        i = bisect_right(self._ends, addr)
        if i < len(self.arrays):
            arr = self.arrays[i]
            if arr.base <= addr:
                return arr
        return None

    def block_name(self, block: int, line_size: int) -> tuple[str, str]:
        """Name the arrays a cache block of ``line_size`` bytes covers.

        Returns ``(element span, array name)``, e.g. ``("excess[0:8]",
        "excess")``; a block shared by several arrays joins their names
        with ``+``, and one covering no array is ``block:<n>`` in both.
        The second element drops the index ranges, so it is the same on
        systems with different line sizes.
        """
        return next(self.name_blocks((block,), line_size))

    def name_blocks(
        self, blocks: Iterable[int], line_size: int
    ) -> Iterator[tuple[str, str]]:
        """Name each of ``blocks`` as :meth:`block_name` does.

        One forward walk over the sorted arrays serves an ascending run
        of block numbers; a block below its predecessor starts the walk
        again, so an attribution report's per-phase runs cost one walk
        each and a ranking in any order costs a bisection per block.
        """
        arrays, ends = self.arrays, self._ends
        count = len(arrays)
        i, cur, prev = 0, -1, -1
        for block in blocks:
            lo = block * line_size
            hi = lo + line_size
            if block < prev:
                i = 0
            prev = block
            # Arrays before i end at or below lo; from i on every array
            # ends above lo, and the first one starting at or past hi
            # closes the span.
            if i < count and ends[i] <= lo:
                i = bisect_right(ends, lo, i)
            if i != cur:
                cur = i
                if i < count:
                    arr = arrays[i]
                    label, base, word, n = arr.label, arr.base, arr._word, arr.n
                    after = arrays[i + 1].base if i + 1 < count else inf
                else:
                    base = inf
            if base >= hi:
                yield f"block:{block}", f"block:{block}"
            elif after < hi:
                j = i + 2
                while j < count and arrays[j].base < hi:
                    j += 1
                group = arrays[i:j]
                yield (
                    "+".join([arr.span_name(lo, hi) for arr in group]),
                    "+".join([arr.label for arr in group]),
                )
            elif n <= 1:
                yield label, label
            else:
                # SharedArray.span_name, inlined for the one-array block.
                e0 = (lo - base) // word
                e1 = (hi - base + word - 1) // word
                yield f"{label}[{e0 if e0 > 0 else 0}:{e1 if e1 < n else n}]", label


class SharedArray:
    """A simulated shared array of machine words.

    Values are Python objects (ints/floats); the memory system only
    models timing, so the Python heap carries the data (see DESIGN.md).
    """

    __slots__ = ("base", "n", "name", "relaxed", "_data", "_word",
                 "_rd_op", "_wr_op")

    #: Accepted values for the ``relaxed`` access label.
    _RELAXED_LABELS = ("", "read", "all")

    def __init__(
        self,
        shm: SharedMemory,
        n: int,
        name: str = "",
        fill: float = 0.0,
        align_line: bool = False,
        relaxed: str = "",
    ):
        if relaxed not in self._RELAXED_LABELS:
            raise ValueError(
                f"relaxed must be one of {self._RELAXED_LABELS}, got {relaxed!r}"
            )
        # No reference back to ``shm``: it lists this array, and the
        # cycle would outlive a finished run until a full collection.
        self.base = shm.alloc_words(n, align_line=align_line)
        self.n = n
        self.name = name
        #: Labeled-access annotation for the race detector: ``"read"``
        #: declares the array's *reads* intentionally unsynchronised
        #: (optimistic polling re-validated under a lock — write/write
        #: ordering is still checked); ``"all"`` exempts every access.
        #: Purely an analysis label: simulation timing is unaffected.
        self.relaxed = relaxed
        self._data = [fill] * n
        self._word = shm.config.word_size
        # Reusable op instances for the simulated-access generators below.
        # Safe because the engine consumes each yielded op (reads .addr,
        # calls the memory system) before resuming the generator, and a
        # generator mutates the op only between resumptions; per-access
        # allocation was a measurable share of the event hot path.
        self._rd_op = Read(0)
        self._wr_op = Write(0)

    def __len__(self) -> int:
        return self.n

    def addr(self, i: int) -> int:
        return self.base + i * self._word

    @property
    def label(self) -> str:
        """Name in reports: :attr:`name`, or ``@0x<base>`` when unnamed."""
        return self.name or f"@0x{self.base:x}"

    def span_name(self, lo: int, hi: int) -> str:
        """``label[e0:e1]``: the elements overlapping bytes ``[lo, hi)``."""
        if self.n <= 1:
            return self.label
        base, word = self.base, self._word
        e0 = max(0, (lo - base) // word)
        e1 = min(self.n, (hi - base + word - 1) // word)
        return f"{self.label}[{e0}:{e1}]"

    def _check(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(
                f"index {i} out of range for shared array {self.name!r} of size {self.n}"
            )

    def hot_access(self) -> tuple:
        """Hot-loop access bundle ``(read_op, write_op, base, word, data)``.

        For per-element loops where the sub-generator created by
        :meth:`read`/:meth:`write` is measurable overhead: set
        ``read_op.addr = base + i * word``, ``yield read_op``, then index
        ``data`` directly (``data`` is the same backing list the
        generator methods use for the array's whole life, so writes
        interleaved by other processors stay visible).  For writes,
        mutate ``data`` only *after* yielding the op, mirroring
        :meth:`write`.  Bounds are the caller's responsibility.

        The ops are this array's shared reusable instances — the engine
        consumes a yielded op before the generator resumes, so reuse
        across yields is safe.  Set each op's ``addr`` right before its
        own ``yield``, never before yielding the array's other op: the
        generator methods of any processor set these same ops between
        two of your yields.  A read-modify-write sets ``read_op.addr``,
        yields it, then sets ``write_op.addr`` and yields that, as
        :meth:`add` does.
        """
        return self._rd_op, self._wr_op, self.base, self._word, self._data

    # -- simulated accesses (generators; drive with ``yield from``) ----
    def read(self, i: int) -> Generator[Op, None, float]:
        if not 0 <= i < self.n:
            self._check(i)
        op = self._rd_op
        op.addr = self.base + i * self._word
        yield op
        return self._data[i]

    def write(self, i: int, value) -> Generator[Op, None, None]:
        if not 0 <= i < self.n:
            self._check(i)
        op = self._wr_op
        op.addr = self.base + i * self._word
        yield op
        self._data[i] = value

    def add(self, i: int, delta) -> Generator[Op, None, float]:
        """Read-modify-write convenience (not atomic; guard with a lock)."""
        if not 0 <= i < self.n:
            self._check(i)
        addr = self.base + i * self._word
        op = self._rd_op
        op.addr = addr
        yield op
        value = self._data[i] + delta
        wop = self._wr_op
        wop.addr = addr
        yield wop
        self._data[i] = value
        return value

    def read_range(self, start: int, stop: int) -> Generator[Op, None, list]:
        """Read elements ``start:stop``; one simulated access per word."""
        if not (0 <= start <= stop <= self.n):
            raise IndexError(f"range {start}:{stop} out of bounds for size {self.n}")
        data = self._data
        word = self._word
        base = self.base
        op = self._rd_op
        out = []
        append = out.append
        for i in range(start, stop):
            op.addr = base + i * word
            yield op
            append(data[i])
        return out

    def write_range(self, start: int, values: Sequence) -> Generator[Op, None, None]:
        if not (0 <= start and start + len(values) <= self.n):
            raise IndexError(
                f"range {start}:{start + len(values)} out of bounds for size {self.n}"
            )
        data = self._data
        word = self._word
        base = self.base
        op = self._wr_op
        for k, v in enumerate(values, start):
            op.addr = base + k * word
            yield op
            data[k] = v

    # -- unsimulated accesses (setup / verification only) ---------------
    def peek(self, i: int):
        self._check(i)
        return self._data[i]

    def poke(self, i: int, value) -> None:
        self._check(i)
        self._data[i] = value

    def poke_many(self, values: Iterable) -> None:
        values = list(values)
        if len(values) != self.n:
            raise ValueError(
                f"poke_many got {len(values)} values for array of size {self.n}"
            )
        # In place: a hot_access bundle taken earlier keeps seeing the data.
        self._data[:] = values

    def snapshot(self) -> list:
        return list(self._data)


class SharedScalar(SharedArray):
    """A single shared word (convenience wrapper)."""

    def __init__(
        self,
        shm: SharedMemory,
        name: str = "",
        fill: float = 0.0,
        align_line: bool = True,
        relaxed: str = "",
    ):
        super().__init__(shm, 1, name=name, fill=fill, align_line=align_line, relaxed=relaxed)

    def get(self) -> Generator[Op, None, float]:
        return self.read(0)

    def set(self, value) -> Generator[Op, None, None]:
        return self.write(0, value)

    def incr(self, delta=1) -> Generator[Op, None, float]:
        return self.add(0, delta)

    def value(self):
        return self.peek(0)
