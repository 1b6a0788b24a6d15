"""Interval metrics: cycle accounting in fixed-width time buckets.

:class:`MetricsCollector` is an engine observer (see
:mod:`repro.sim.observer`): it receives the engine's exact per-category
cycle accounting — including :class:`repro.sim.events.Stall` ops that
never reach the memory system — so that summing any category over all
buckets reproduces the corresponding :class:`SimResult` total to
floating-point accuracy, and it feeds the latency histogram and the
access/sync counters from the same callbacks.

Bucketing rule: cycles of a span ``[start, start + dur)`` are spread
uniformly over the span and integrated per bucket; the final bucket
receives the exact remainder, so totals are preserved bit-for-bit up to
one rounding per span.
"""

from __future__ import annotations

from bisect import bisect_left

from ..sim.observer import Observer, subscribe
from ..sim.stats import SyncPoint

#: Cycle categories tracked per processor per bucket (the paper's stall
#: decomposition plus sync wait).
CATEGORIES = ("busy", "read_stall", "write_stall", "buffer_flush", "sync_wait")

#: Default latency-histogram bucket upper bounds (cycles).
DEFAULT_BOUNDS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0)

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

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value; remembers the peak."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value


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


class MetricsCollector(Observer):
    """Per-interval cycle accounting + traffic/buffer gauges::

        machine, result, metrics = run_machine(
            app, "RCinv", cfg, attach=(partial(MetricsCollector.attach, interval=1000.0),)
        )
        metrics.to_dict()   # JSON-ready

    The conservative engine issues operations in global simulated-time
    order, so bucket boundaries are crossed (approximately) monotonically
    and traffic deltas / buffer depths are sampled at each crossing.
    """

    #: JSON export schema version.
    SCHEMA = 1

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
        #: its stall-free hit flyweight (a result needing no stall reads)
        self._hit = getattr(memsys, "_hit_result", None)
        #: bucket index -> {category: [per-proc cycles]}
        self._buckets: dict[int, dict[str, list[float]]] = {}
        #: bucket index -> network counter deltas accrued while it was current
        self._net_delta: dict[int, dict[str, float]] = {}
        #: bucket index -> buffer depth samples at entry to the bucket
        self._depths: dict[int, dict[str, list[int]]] = {}
        #: bucket index -> accesses accrued while it was current (the
        #: same sample-at-crossing pattern as ``_net_delta``)
        self._access_delta: dict[int, int] = {}
        self._last_accesses = 0
        #: engine whose ready-queue (event-wheel) depth is sampled at
        #: bucket crossings; None outside :meth:`attach`.
        self._engine = engine
        #: bucket index -> wheel depth at entry to the bucket
        self._wheel_depth: dict[int, int] = {}
        self._cursor = 0
        #: simulated time at which the current bucket ends; deposits
        #: below it skip the _advance call entirely (the hot path).
        self._next_boundary = self.interval
        #: Per processor, ``(index, end, busy row)`` of the bucket its last
        #: single-bucket busy deposit landed in: the next deposit to the
        #: same bucket skips the bucket lookup (the hot path).
        self._busy_rows: list[tuple] = [(-1, 0.0, None)] * nprocs
        self._last_net = network.stats.snapshot() if network is not None else None
        self.latency = Histogram("access_latency_cycles")
        self.accesses = Counter("accesses")
        self.sync_events = Counter("sync_events")
        self.phases: list[tuple[float, int, str]] = []

    # -- construction ----------------------------------------------------
    @classmethod
    def attach(cls, machine, interval: float = 1000.0) -> MetricsCollector:
        """Subscribe a collector to a Machine's engine."""
        collector = cls(
            machine.config.nprocs,
            interval,
            network=machine.network,
            memsys=machine.engine.memsys,
            engine=machine.engine,
        )
        return subscribe(machine.engine, collector)

    # -- engine-observer surface -----------------------------------------
    def on_busy(self, proc: int, start: float, cycles: float) -> None:
        # Inlined single-bucket fast path (one deposit per Compute op).
        if start >= self._next_boundary:
            self._advance(start)
        b0 = int(start // self.interval)
        index, end, row = self._busy_rows[proc]
        if b0 == index and start + cycles <= end:
            row[proc] += cycles
            return
        self._deposit_busy(proc, b0, start, start + cycles, cycles, cycles)

    def on_access(self, proc: int, kind: str, target, issue: float, res, busy: float) -> None:
        if target.__class__ is SyncPoint:
            self.sync_events.value += 1
        elif kind == "read_nb":
            return  # the engine charges only its issue cycles (on_busy)
        complete = res.time
        if complete <= issue:
            return  # nothing charged
        latency = complete - issue
        self.accesses.value += 1
        # Histogram.observe, inlined (same updates, same order).
        hist = self.latency
        hist.count += 1
        hist.sum += latency
        hist.counts[bisect_left(hist.bounds, latency)] += 1
        if res is not self._hit:
            read_stall = res.read_stall
            write_stall = res.write_stall
            buffer_flush = res.buffer_flush
            if read_stall != 0.0 or write_stall != 0.0 or buffer_flush != 0.0:
                self._deposit(
                    proc, issue, latency,
                    busy=busy, read_stall=read_stall,
                    write_stall=write_stall, buffer_flush=buffer_flush,
                )
                return
        # Stall-free (the overwhelming majority): one category, and
        # almost always within a single bucket — inlined.
        if issue >= self._next_boundary:
            self._advance(issue)
        b0 = int(issue // self.interval)
        index, end, row = self._busy_rows[proc]
        if b0 == index and complete <= end:
            row[proc] += busy
            return
        self._deposit_busy(proc, b0, issue, complete, latency, busy)

    def on_stall(self, proc: int, start: float, cycles: float, category: str) -> None:
        self._deposit_one(proc, start, cycles, _STALL_CATEGORY[category], cycles)

    def on_sync_wait(self, proc: int, start: float, cycles: float) -> None:
        self._deposit_one(proc, start, cycles, "sync_wait", cycles)

    def on_phase(self, proc: int, time: float, label: str) -> None:
        self.phases.append((time, proc, label))

    # -- bucketing --------------------------------------------------------
    def _bucket(self, index: int) -> dict[str, list[float]]:
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = {cat: [0.0] * self.nprocs for cat in CATEGORIES}
            self._buckets[index] = bucket
        return bucket

    def _deposit_busy(
        self, proc: int, b0: int, start: float, finish: float, dur: float, amount: float
    ) -> None:
        """Busy deposit missing the processor's cached row: into bucket
        ``b0`` (cached from now on) when the span ends by its end, else
        spread over the buckets the span covers."""
        end = (b0 + 1) * self.interval
        if finish <= end:
            row = self._bucket(b0)["busy"]
            self._busy_rows[proc] = (b0, end, row)
            row[proc] += amount
            return
        self._deposit_one(proc, start, dur, "busy", amount)

    def _advance(self, t: float) -> None:
        """Sample gauges when simulated time enters a new bucket."""
        b = int(t // self.interval)
        if b <= self._cursor:
            return
        if self._last_net is not None:
            snap = self.network.stats.snapshot()
            delta = {k: snap[k] - self._last_net[k] for k in snap}
            old = self._net_delta.get(self._cursor)
            if old is not None:
                for k, v in delta.items():
                    old[k] += v
            else:
                self._net_delta[self._cursor] = delta
            self._last_net = snap
        acc = self.accesses.value
        if acc != self._last_accesses:
            cur = self._access_delta.get(self._cursor, 0)
            self._access_delta[self._cursor] = cur + acc - self._last_accesses
            self._last_accesses = acc
        if self._engine is not None:
            self._wheel_depth[b] = self._engine.queue_depth()
        depths = self._sample_depths()
        if depths:
            self._depths[b] = depths
        self._cursor = b
        self._next_boundary = (b + 1) * self.interval

    def _sample_depths(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        store = getattr(self.memsys, "store_buffers", None)
        if store is not None:
            out["store_buffer"] = [len(sb._pending) for sb in store]
        merge = getattr(self.memsys, "merge_buffers", None)
        if merge is not None:
            out["merge_buffer"] = [len(mb) for mb in merge]
        return out

    def _deposit_one(self, proc: int, start: float, dur: float, cat: str, amount: float) -> None:
        """Single-category deposit: the specialised hot path."""
        if start >= self._next_boundary:
            self._advance(start)
        w = self.interval
        b0 = int(start // w)
        if dur > 0.0:
            end = start + dur
            b1 = int(end // w)
            if b1 * w == end:
                b1 -= 1
            if b1 != b0:
                rate = amount / dur
                assigned = 0.0
                for b in range(b0, b1):
                    lo = start if b == b0 else b * w
                    share = rate * ((b + 1) * w - lo)
                    self._bucket(b)[cat][proc] += share
                    assigned += share
                # Exact remainder into the final bucket.
                self._bucket(b1)[cat][proc] += amount - assigned
                return
        self._bucket(b0)[cat][proc] += amount

    def _deposit(self, proc: int, start: float, dur: float, **amounts: float) -> None:
        if start >= self._next_boundary:
            self._advance(start)
        w = self.interval
        if dur <= 0.0:
            cells = self._bucket(int(start // w))
            for cat, amount in amounts.items():
                if amount > 0.0:
                    cells[cat][proc] += amount
            return
        end = start + dur
        b0 = int(start // w)
        b1 = int(end // w)
        if b1 * w == end:
            b1 -= 1  # span ends exactly on a boundary: last bucket is b1 - 1
        if b0 == b1:
            cells = self._bucket(b0)
            for cat, amount in amounts.items():
                if amount > 0.0:
                    cells[cat][proc] += amount
            return
        for cat, amount in amounts.items():
            if amount <= 0.0:
                continue
            rate = amount / dur
            assigned = 0.0
            for b in range(b0, b1):
                lo = start if b == b0 else b * w
                share = rate * ((b + 1) * w - lo)
                self._bucket(b)[cat][proc] += share
                assigned += share
            # Exact remainder into the final bucket: totals are preserved.
            self._bucket(b1)[cat][proc] += amount - assigned

    # -- reporting --------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Machine-wide per-category totals summed over every bucket.

        Matches the corresponding :class:`repro.sim.stats.SimResult`
        sums (the acceptance invariant for interval metrics).
        """
        out = dict.fromkeys(CATEGORIES, 0.0)
        for bucket in self._buckets.values():
            for cat in CATEGORIES:
                out[cat] += sum(bucket[cat])
        return out

    def per_proc_totals(self) -> dict[str, list[float]]:
        out = {cat: [0.0] * self.nprocs for cat in CATEGORIES}
        for bucket in self._buckets.values():
            for cat in CATEGORIES:
                cells = bucket[cat]
                acc = out[cat]
                for p in range(self.nprocs):
                    acc[p] += cells[p]
        return out

    def to_dict(self) -> dict:
        """JSON-ready export (see docs/observability.md for the schema)."""
        # Flush accesses accrued since the last bucket crossing into the
        # current bucket (idempotent: the counter delta is consumed).
        acc = self.accesses.value
        if acc != self._last_accesses:
            cur = self._access_delta.get(self._cursor, 0)
            self._access_delta[self._cursor] = cur + acc - self._last_accesses
            self._last_accesses = acc
        buckets = []
        for index in sorted(self._buckets):
            cells = self._buckets[index]
            entry: dict = {
                "index": index,
                "t0": index * self.interval,
                "t1": (index + 1) * self.interval,
            }
            for cat in CATEGORIES:
                entry[cat] = list(cells[cat])
            net = self._net_delta.get(index)
            if net is not None:
                entry["network"] = net
            depths = self._depths.get(index)
            if depths is not None:
                entry["buffer_depth"] = depths
            accesses = self._access_delta.get(index)
            if accesses is not None:
                entry["accesses"] = accesses
            wheel = self._wheel_depth.get(index)
            if wheel is not None:
                entry["wheel_depth"] = wheel
            buckets.append(entry)
        return {
            "schema": self.SCHEMA,
            "interval": self.interval,
            "nprocs": self.nprocs,
            "categories": list(CATEGORIES),
            "buckets": buckets,
            "totals": self.totals(),
            "counters": {
                "accesses": self.accesses.value,
                "sync_events": self.sync_events.value,
            },
            "latency_histogram": self.latency.to_dict(),
            "phases": [
                {"time": t, "proc": p, "label": label} for t, p, label in self.phases
            ],
        }
