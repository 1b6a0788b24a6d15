"""Property tests pinning EventWheel to a plain-heapq reference model.

The queue's contract is *exact* ``(time, arrival)`` order: it must be
observationally identical to one global ``heapq`` of ``(time, seq,
tid)`` entries with ``seq`` counting pushes.  These tests drive both
structures with random interleavings of ``push`` and ``pop_and_peek``
and compare every observable after each step, with operations chosen
to hit same-time ties, pushes before the tail (the wakes that take
``_push_slow``) and draining to empty.
"""

from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from repro.sim.wheel import EventWheel

_INF = float("inf")


class HeapReference:
    """One global heap with the queue's exact observable semantics."""

    def __init__(self):
        self._heap: list[tuple[float, int, int]] = []
        self._seq = 0

    def push(self, time: float, tid: int) -> None:
        self._seq += 1
        heappush(self._heap, (time, self._seq, tid))

    def pop_and_peek(self):
        if not self._heap:
            return None, _INF
        time, _seq, tid = heappop(self._heap)
        return (time, tid), self._heap[0][0] if self._heap else _INF

    def times(self) -> list[float]:
        return sorted(t for t, _, _ in self._heap)

    def __len__(self) -> int:
        return len(self._heap)


# Times: small integers collide constantly (tie-break coverage), floats
# spread entries out.
TIMES = st.one_of(
    st.integers(0, 30).map(float),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), TIMES),
        # A push strictly before the tail: ``frac`` of the tail's time.
        st.tuples(st.just("wake"), st.floats(0.0, 1.0, exclude_max=True)),
        # A push tying an entry already queued (mid-list when not the tail).
        st.tuples(st.just("tie"), st.integers(0, 1000)),
        st.just(("pop",)),
    ),
    max_size=150,
)


def _drain(wheel: EventWheel, ref: HeapReference) -> None:
    while True:
        got, want = wheel.pop_and_peek(), ref.pop_and_peek()
        assert got == want
        if got[0] is None:
            break
    assert got == (None, _INF)
    assert len(wheel) == 0 and not wheel


@settings(deadline=None, max_examples=300)
@given(ops=OPS)
def test_wheel_matches_heapq_reference(ops):
    wheel = EventWheel()
    ref = HeapReference()
    for tid, op in enumerate(ops):
        kind = op[0]
        if kind == "pop":
            assert wheel.pop_and_peek() == ref.pop_and_peek()
        else:
            if kind == "push":
                time = op[1]
            elif not wheel.times:
                time = 0.0
            elif kind == "wake":
                time = wheel.times[-1] * op[1]
            else:
                time = wheel.times[op[1] % len(wheel.times)]
            wheel.push(time, tid)
            ref.push(time, tid)
        assert wheel.times == ref.times()
        assert len(wheel.tids) == len(wheel) == len(ref)
        assert bool(wheel) == (len(ref) > 0)
    _drain(wheel, ref)


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 40), time=TIMES, earlier=st.lists(TIMES, max_size=5))
def test_same_time_entries_pop_in_push_order(n, time, earlier):
    """Equal times pop in push order, also when a later push lands
    mid-list among them."""
    wheel = EventWheel()
    for i in range(n):
        wheel.push(time, i)
    for t in earlier:
        wheel.push(min(t, time), -1)
    got = []
    while wheel:
        (t, tid), _ = wheel.pop_and_peek()
        if t == time and tid >= 0:
            got.append(tid)
    assert got == list(range(n))


@settings(deadline=None, max_examples=100)
@given(rounds=st.lists(st.lists(TIMES, max_size=10), max_size=8))
def test_drain_and_refill_cycles(rounds):
    """A drained queue reports ``(None, inf)`` and refills cleanly."""
    wheel = EventWheel()
    ref = HeapReference()
    for times in rounds:
        for tid, t in enumerate(times):
            wheel.push(t, tid)
            ref.push(t, tid)
        _drain(wheel, ref)
        assert wheel.pop_and_peek() == (None, _INF)


def test_push_before_tail_is_a_mid_list_insert():
    wheel = EventWheel()
    wheel.push(25.0, 1)
    wheel.push(27.0, 2)
    wheel.push(3.0, 3)  # before the tail: _push_slow
    wheel.push(25.0, 4)  # ties 25.0 mid-list: after tid 1
    assert wheel.times == [3.0, 25.0, 25.0, 27.0]
    assert wheel.tids == [3, 1, 4, 2]
    assert wheel.pop_and_peek() == ((3.0, 3), 25.0)
    assert wheel.pop_and_peek() == ((25.0, 1), 25.0)
    assert wheel.pop_and_peek() == ((25.0, 4), 27.0)
    assert wheel.pop_and_peek() == ((27.0, 2), _INF)
    assert wheel.pop_and_peek() == (None, _INF)
