"""Interval metrics: cycle accounting in fixed-width time buckets.

:class:`MetricsCollector` is a view of the engine's event log (see
:class:`repro.sim.trace.EventLog`): it folds the engine's exact
per-category cycle accounting — including :class:`repro.sim.events.Stall`
ops that never reach the memory system — so that summing any category
over all buckets reproduces the corresponding :class:`SimResult` total
to floating-point accuracy, and it feeds the latency histogram and the
access/sync counters from the same rows.

Bucketing rule: cycles of a span ``[start, start + dur)`` are spread
uniformly over the span and integrated per bucket; the final bucket
receives the exact remainder, so totals are preserved bit-for-bit up to
one rounding per span.

Storage: the buckets at the crossing cursor and the one before it are
open, a list of per-processor cycles per category, so the fold's per-row
path adds to list items.  At the end of each fold, the buckets behind
them close: their cells move into one ``array('d')`` per category at
``slot * nprocs + proc``, the slots in bucket order.  The rare deposit
that reaches back into a closed bucket (a long sync wait reported at its
end) goes straight to its slots.  The samples taken at each crossing
append to typed columns (``'q'`` for integer counters, ``'d'`` for float
ones, ``'i'`` for depths) that the export reads back into the same
dicts.  A run keeps ``5 * 8 * nprocs`` bytes of cells and 16 bytes of
keys per bucket, plus per crossing ``4 * nprocs`` bytes per sampled
buffer kind and at most 68 bytes of counters and keys: about 0.85 KB a
bucket at P=16.  The arrays grow by CPython's own over-allocation, about
1/16 of their length, never by doubling.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain, islice

from ..sim.stats import SyncPoint
from ..sim.trace import BUSY, PHASE, STALL, WAIT, LogView

#: Cycle categories tracked per processor per bucket (the paper's stall
#: decomposition plus sync wait).
CATEGORIES = ("busy", "read_stall", "write_stall", "buffer_flush", "sync_wait")

#: Default latency-histogram bucket upper bounds (cycles).
DEFAULT_BOUNDS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0)

#: Buffer-depth kinds sampled at crossings: the memory-system attribute
#: holding each kind's per-processor buffers, and a buffer's depth.
_BUFFERS = (
    ("store_buffer", "store_buffers", lambda sb: len(sb._pending)),
    ("merge_buffer", "merge_buffers", len),
)

#: Engine stall-callback category -> bucket category.
_STALL_CATEGORY = {
    "read": "read_stall",
    "write": "write_stall",
    "flush": "buffer_flush",
    "sync": "sync_wait",
}


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0


class Histogram:
    """Fixed-bound histogram (Prometheus ``le`` style, plus overflow)."""

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS):
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # bisect_left yields the first bound >= value (the ``le`` bucket);
        # past-the-end lands in the overflow slot.
        self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
        }


class _ClosedRow:
    """One category of a closed bucket, indexed by processor like an open
    bucket's list.  Each access finds the bucket's slot afresh, so a slot
    inserted below it later moves nothing under a held row."""

    __slots__ = ("column", "slots", "index", "nprocs")

    def __init__(self, column: array, slots: array, index: int, nprocs: int):
        self.column = column
        self.slots = slots
        self.index = index
        self.nprocs = nprocs

    def __getitem__(self, proc: int) -> float:
        return self.column[bisect_left(self.slots, self.index) * self.nprocs + proc]

    def __setitem__(self, proc: int, value: float) -> None:
        self.column[bisect_left(self.slots, self.index) * self.nprocs + proc] = value


class MetricsCollector(LogView):
    """Per-interval cycle accounting + traffic/buffer gauges::

        machine, result, metrics = run_machine(
            app, "RCinv", cfg, attach=(partial(MetricsCollector.attach, interval=1000.0),)
        )
        metrics.to_dict()   # JSON-ready

    A fold over the engine's :class:`~repro.sim.trace.EventLog`: cycles,
    the latency histogram and the counters are added up from its rows.
    The conservative engine issues operations in global simulated-time
    order, so bucket boundaries are crossed (approximately) monotonically;
    traffic deltas, buffer depths and the wheel depth are sampled live,
    at the callback whose deposit first crosses a boundary
    (:meth:`_cross`).
    """

    #: JSON export schema version.
    SCHEMA = 1

    _folds_spans = True

    def __init__(self, nprocs: int, interval: float, network=None, memsys=None, engine=None):
        if interval <= 0:
            raise ValueError(f"metrics interval must be > 0, got {interval}")
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.interval = float(interval)
        self.network = network
        #: memory system whose store/merge buffer depths are sampled at
        #: bucket crossings; None outside :meth:`attach`.
        self.memsys = memsys
        #: open bucket index -> {category: [per-proc cycles]}: the buckets
        #: from the one before the cursor on (see :meth:`_close`)
        self._open: dict[int, dict[str, list[float]]] = {}
        #: closed bucket indices, ascending: bucket ``_slots[s]``'s cells
        #: are ``_closed[c][s * nprocs + proc]`` for category ``c``
        self._slots = array("q")
        self._closed = tuple(array("d") for _ in CATEGORIES)
        #: every bucket index in creation order (the order of totals())
        self._order = array("q")
        #: the bucket each crossing entered, in crossing order; crossing
        #: ``i`` left ``_entered[i - 1]`` (bucket 0 for the first)
        self._entered = array("q")
        self._last_net = network.stats.snapshot() if network is not None else None
        #: network counter -> its delta accrued while the bucket each
        #: crossing left was current
        self._net = {
            key: array("q" if type(value) is int else "d")
            for key, value in (self._last_net or {}).items()
        }
        #: buffer kind -> per-proc depths at entry to each crossing's
        #: bucket, ``nprocs`` a crossing (kinds the memory system has)
        self._depths = {
            kind: array("i")
            for kind, attr, _ in _BUFFERS
            if getattr(memsys, attr, None) is not None
        }
        #: accesses accrued while a bucket was current, keyed by bucket
        #: in ascending order (repeats merge into the last entry)
        self._access_at = array("q")
        self._access_n = array("q")
        self._last_accesses = 0
        #: engine whose ready-queue (event-wheel) depth is sampled at
        #: bucket crossings; None outside :meth:`attach`.
        self._engine = engine
        #: wheel depth at entry to each crossing's bucket
        self._wheel_depth = array("i")
        self._cursor = 0
        #: simulated time at which the current bucket ends: the next
        #: deposit at or past it crosses into a new bucket.
        self._next_boundary = self.interval
        #: ``(row, bucket)`` per crossing in the log's pending rows: the
        #: accesses of rows before ``row`` accrue to ``bucket``.
        self._crossings: list[tuple[int, int]] = []
        self._latency = Histogram("access_latency_cycles")
        self._accesses = Counter("accesses")
        self._sync_events = Counter("sync_events")
        self._phases: list[tuple[float, int, str]] = []
        super().__init__()

    # -- construction ----------------------------------------------------
    @classmethod
    def attach(cls, machine, interval: float = 1000.0) -> MetricsCollector:
        """Fold a collector from a Machine's engine event log."""
        collector = cls(
            machine.config.nprocs,
            interval,
            network=machine.network,
            memsys=machine.engine.memsys,
            engine=machine.engine,
        )
        return collector._share(machine)

    # -- folded state -------------------------------------------------------
    @property
    def latency(self) -> Histogram:
        """Access latency histogram (accesses the engine charged time for)."""
        self._log.flush()
        return self._latency

    @property
    def accesses(self) -> Counter:
        self._log.flush()
        return self._accesses

    @property
    def sync_events(self) -> Counter:
        self._log.flush()
        return self._sync_events

    @property
    def phases(self) -> list[tuple[float, int, str]]:
        """``(time, proc, label)`` per phase marker, in arrival order."""
        self._log.flush()
        return self._phases

    # -- bucketing --------------------------------------------------------
    def _bucket(self, index: int) -> dict:
        """Bucket ``index``'s cells, made if new: lists when it is open,
        :class:`_ClosedRow` views of its slots when it is closed."""
        bucket = self._open.get(index)
        if bucket is None:
            slots = self._slots
            if slots and index <= slots[-1]:
                return self._closed_cells(index)
            bucket = {cat: [0.0] * self.nprocs for cat in CATEGORIES}
            self._open[index] = bucket
            self._order.append(index)
        return bucket

    def _closed_cells(self, index: int) -> dict[str, _ClosedRow]:
        """Cells of ``index``, behind the closed ones: given a zeroed slot
        if no deposit reached it before it fell behind the cursor."""
        n = self.nprocs
        slots = self._slots
        slot = bisect_left(slots, index)
        if slots[slot] != index:
            slots.insert(slot, index)
            zeros = array("d", bytes(8 * n))
            for column in self._closed:
                column[slot * n:slot * n] = zeros
            self._order.append(index)
        return {
            cat: _ClosedRow(column, slots, index, n)
            for cat, column in zip(CATEGORIES, self._closed)
        }

    def _close(self, end: int) -> None:
        """Move the open buckets before ``end`` into the closed arrays,
        in index order (every open bucket is past every closed one)."""
        for index in sorted(index for index in self._open if index < end):
            cells = self._open.pop(index)
            for cat, column in zip(CATEGORIES, self._closed):
                column.extend(cells[cat])
            self._slots.append(index)

    def _cross(self, t: float, row: int) -> None:
        """Sample gauges when simulated time enters a new bucket."""
        b = int(t // self.interval)
        if b <= self._cursor:
            return
        if self._last_net is not None:
            snap = self.network.stats.snapshot()
            last = self._last_net
            for key, column in self._net.items():
                column.append(snap[key] - last[key])
            self._last_net = snap
        # The access count is a fold: note where its delta is due.
        self._crossings.append((row, self._cursor))
        self._entered.append(b)
        if self._engine is not None:
            self._wheel_depth.append(self._engine.queue_depth())
        if self._depths:
            for kind, attr, depth in _BUFFERS:
                column = self._depths.get(kind)
                if column is not None:
                    column.extend(map(depth, getattr(self.memsys, attr)))
        self._cursor = b
        self._next_boundary = (b + 1) * self.interval

    def _accrue_accesses(self, bucket: int) -> None:
        """Credit the accesses counted since the last credit to ``bucket``
        (never before the last bucket credited)."""
        acc = self._accesses.value
        if acc != self._last_accesses:
            delta = acc - self._last_accesses
            if self._access_at and self._access_at[-1] == bucket:
                self._access_n[-1] += delta
            else:
                self._access_at.append(bucket)
                self._access_n.append(delta)
            self._last_accesses = acc

    def _spread(self, proc: int, start: float, dur: float, cat: str, amount: float) -> None:
        """Deposit ``amount`` of ``cat`` spread uniformly over
        ``[start, start + dur)``; the last bucket takes the exact
        remainder."""
        w = self.interval
        b0 = int(start // w)
        if dur > 0.0:
            end = start + dur
            b1 = int(end // w)
            if b1 * w == end:
                b1 -= 1  # span ends exactly on a boundary: last bucket is b1 - 1
            if b1 != b0:
                rate = amount / dur
                assigned = 0.0
                for b in range(b0, b1):
                    lo = start if b == b0 else b * w
                    share = rate * ((b + 1) * w - lo)
                    self._bucket(b)[cat][proc] += share
                    assigned += share
                self._bucket(b1)[cat][proc] += amount - assigned
                return
        self._bucket(b0)[cat][proc] += amount

    def _fold(self, rows: list[tuple]) -> None:
        """Deposit ``rows`` in order, crediting accesses at each crossing.

        A span lying within one bucket is one addition to that bucket's
        cell; a longer one is spread (:meth:`_spread`).  A stall-free
        access picks between the two by its completion time, and spreads
        over ``issue + latency``, as the engine reported them.  The
        buckets before the one the cursor left then close.
        """
        w = self.interval
        bucket = self._bucket
        spread = self._spread
        hist = self._latency
        bounds = hist.bounds
        counts = hist.counts
        hist_count = hist.count
        hist_sum = hist.sum
        accesses = self._accesses.value
        sync_events = self._sync_events.value
        phases = self._phases
        cells_at = -1
        cells: dict[str, list[float]] = {}
        marks = self._crossings
        marks.append((len(rows), -1))
        it = iter(rows)
        done = 0
        for row_end, due in marks:
            for row in islice(it, row_end - done):
                kind = row[0]
                if kind is BUSY:
                    _, proc, start, cycles = row
                    b0 = int(start // w)
                    if start + cycles <= (b0 + 1) * w:
                        if b0 != cells_at:
                            cells_at, cells = b0, bucket(b0)
                        cells["busy"][proc] += cycles
                    else:
                        spread(proc, start, cycles, "busy", cycles)
                elif kind is WAIT or kind is STALL:
                    proc, start, cycles = row[1], row[2], row[3]
                    cat = "sync_wait" if kind is WAIT else _STALL_CATEGORY[row[4]]
                    b0 = int(start // w)
                    if cycles > 0.0:
                        end = start + cycles
                        b1 = int(end // w)
                        if b1 * w == end:
                            b1 -= 1
                        if b1 != b0:
                            spread(proc, start, cycles, cat, cycles)
                            continue
                    if b0 != cells_at:
                        cells_at, cells = b0, bucket(b0)
                    cells[cat][proc] += cycles
                elif kind is PHASE:
                    phases.append((row[3], row[1], row[2]))
                else:
                    _, proc, target, issue, complete, rs, ws, bf, _, busy = row
                    if target.__class__ is SyncPoint:
                        sync_events += 1
                    elif kind == "read_nb":
                        continue  # the engine charges only its issue cycles (busy rows)
                    if complete <= issue:
                        continue  # nothing charged
                    latency = complete - issue
                    accesses += 1
                    hist_count += 1
                    hist_sum += latency
                    counts[bisect_left(bounds, latency)] += 1
                    b0 = int(issue // w)
                    if rs != 0.0 or ws != 0.0 or bf != 0.0:
                        end = issue + latency
                        b1 = int(end // w)
                        if b1 * w == end:
                            b1 -= 1
                        if b0 == b1:
                            if b0 != cells_at:
                                cells_at, cells = b0, bucket(b0)
                            if busy > 0.0:
                                cells["busy"][proc] += busy
                            if rs > 0.0:
                                cells["read_stall"][proc] += rs
                            if ws > 0.0:
                                cells["write_stall"][proc] += ws
                            if bf > 0.0:
                                cells["buffer_flush"][proc] += bf
                        else:
                            for cat, amount in (
                                ("busy", busy), ("read_stall", rs),
                                ("write_stall", ws), ("buffer_flush", bf),
                            ):
                                if amount > 0.0:
                                    spread(proc, issue, latency, cat, amount)
                    elif complete <= (b0 + 1) * w:
                        if b0 != cells_at:
                            cells_at, cells = b0, bucket(b0)
                        cells["busy"][proc] += busy
                    else:
                        spread(proc, issue, latency, "busy", busy)
            done = row_end
            if due >= 0:
                self._accesses.value = accesses
                self._accrue_accesses(due)
        marks.clear()
        hist.count = hist_count
        hist.sum = hist_sum
        self._accesses.value = accesses
        self._sync_events.value = sync_events
        self._close(self._cursor - 1)

    # -- reporting --------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Machine-wide per-category totals summed over every bucket.

        Matches the corresponding :class:`repro.sim.stats.SimResult`
        sums (the acceptance invariant for interval metrics).
        """
        self._log.flush()
        slot_at = self._slot_at()
        out = dict.fromkeys(CATEGORIES, 0.0)
        for index in self._order:
            for cat, cells in zip(CATEGORIES, self._cells(index, slot_at)):
                out[cat] += sum(cells)
        return out

    def _slot_at(self) -> dict[int, int]:
        """Closed bucket index -> offset of its cells in the closed columns."""
        n = self.nprocs
        return dict(zip(self._slots, range(0, len(self._slots) * n, n)))

    def _cells(self, index: int, slot_at: dict[int, int]) -> list:
        """Bucket ``index``'s per-proc cycles, one sequence per category."""
        cells = self._open.get(index)
        if cells is None:
            at = slot_at[index]
            return [column[at:at + self.nprocs] for column in self._closed]
        return [cells[cat] for cat in CATEGORIES]

    def to_dict(self) -> dict:
        """JSON-ready export (see docs/observability.md for the schema)."""
        self._log.flush()
        # Credit accesses accrued since the last bucket crossing to the
        # current bucket (idempotent: the counter delta is consumed).
        self._accrue_accesses(self._cursor)
        entered = self._entered
        crossings = range(len(entered))
        # Crossing ``i`` sampled the deltas of the bucket it left and the
        # depths of the bucket it entered.
        left = dict(zip(chain((0,), entered), crossings))
        at_entry = dict(zip(entered, crossings))
        ncross = max(len(entered), 1)
        widths = {kind: len(column) // ncross for kind, column in self._depths.items()}
        accesses = dict(zip(self._access_at, self._access_n))
        slot_at = self._slot_at()
        buckets = []
        for index in sorted(self._order):
            entry: dict = {
                "index": index,
                "t0": index * self.interval,
                "t1": (index + 1) * self.interval,
            }
            for cat, cells in zip(CATEGORIES, self._cells(index, slot_at)):
                entry[cat] = list(cells)
            i = left.get(index)
            if i is not None and self._net:
                entry["network"] = {key: column[i] for key, column in self._net.items()}
            i = at_entry.get(index)
            if i is not None and self._depths:
                entry["buffer_depth"] = {
                    kind: column[i * widths[kind]:(i + 1) * widths[kind]].tolist()
                    for kind, column in self._depths.items()
                }
            n = accesses.get(index)
            if n is not None:
                entry["accesses"] = n
            if i is not None and self._engine is not None:
                entry["wheel_depth"] = self._wheel_depth[i]
            buckets.append(entry)
        return {
            "schema": self.SCHEMA,
            "interval": self.interval,
            "nprocs": self.nprocs,
            "categories": list(CATEGORIES),
            "buckets": buckets,
            "totals": self.totals(),
            "counters": {
                "accesses": self._accesses.value,
                "sync_events": self._sync_events.value,
            },
            "latency_histogram": self._latency.to_dict(),
            "phases": [
                {"time": t, "proc": p, "label": label} for t, p, label in self._phases
            ],
        }
