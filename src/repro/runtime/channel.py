"""Data-carrying synchronisation (paper Section 6).

"As the performance on the z-machine indicates, there is an advantage in
decoupling the two, i.e., use synchronization only for control flow and
use a different mechanism for data flow.  The motivation for doing this
is to eliminate the buffer flush time.  One approach would be
associating data with synchronization in order to carry out smart
self-invalidations when needed at the consumer instead of stalling at
the producer."

:class:`DataChannel` implements exactly that: a single-producer,
multi-consumer broadcast channel.  ``produce`` publishes the payload's
memory blocks fire-and-forget — the producer never stalls to flush its
write buffers — and ``consume`` self-invalidates the consumer's stale
copies and reads fresh data; an epoch flag carries only the control
flow.  A ring of ``depth`` payload slots plus an acknowledgement flag
provides flow control, so the channel is data-race free end to end.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence

from ..sim.events import FlagSet, FlagWait, Op, SelfInvalidate
from .context import Machine


class DataChannel:
    """Single-producer broadcast channel with decoupled data flow.

    ``consumers`` is the number of readers (every reader sees every
    payload); ``depth`` is how many epochs the producer may run ahead of
    the slowest reader.
    """

    def __init__(
        self,
        machine: Machine,
        nwords: int,
        consumers: int,
        depth: int = 2,
        name: str = "chan",
    ):
        if nwords < 1:
            raise ValueError("channel needs at least one word")
        if consumers < 1:
            raise ValueError("channel needs at least one consumer")
        if depth < 1:
            raise ValueError("channel depth must be >= 1")
        self.machine = machine
        self.nwords = nwords
        self.consumers = consumers
        self.depth = depth
        self.name = name
        self.slots = [
            machine.shm.array(nwords, f"{name}.slot{k}", align_line=True, pad_to_line=True)
            for k in range(depth)
        ]
        self.flag_id = machine.sync.new_flag(f"{name}.epoch")
        #: One acknowledgement flag per consumer.  A single shared
        #: counter is not enough for flow control: "total acks >= epoch
        #: * consumers" can be satisfied by fast consumers acking later
        #: epochs while a slow consumer has not acked the epoch being
        #: overwritten, letting the producer tear a payload mid-read.
        self.ack_flag_ids = [
            machine.sync.new_flag(f"{name}.ack{k}") for k in range(consumers)
        ]
        self._next_reader = 0
        memsys = machine.memsys
        self.slot_blocks: list[tuple[int, ...]] = []
        for slot in self.slots:
            first = memsys.block_of(slot.addr(0))
            last = memsys.block_of(slot.addr(nwords - 1))
            self.slot_blocks.append(tuple(range(first, last + 1)))
        self._produced = 0

    # -- producer side --------------------------------------------------
    def produce(self, values: Sequence) -> Generator[Op, None, None]:
        """Publish a new payload (fire-and-forget data flow).

        Blocks only for flow control: slot reuse waits until every
        consumer has acknowledged the payload that previously occupied
        the slot.
        """
        if len(values) != self.nwords:
            raise ValueError(
                f"channel {self.name!r} expects {self.nwords} words, got {len(values)}"
            )
        overwritten_epoch = self._produced - self.depth + 1
        if overwritten_epoch >= 1:
            # Every consumer individually must have consumed the epoch
            # whose slot we are about to overwrite.
            for ack_flag_id in self.ack_flag_ids:
                yield FlagWait(ack_flag_id, overwritten_epoch)
        slot_idx = self._produced % self.depth
        yield from self.slots[slot_idx].write_range(0, values)
        self._produced += 1
        yield FlagSet(self.flag_id, self.slot_blocks[slot_idx])

    # -- consumer side ---------------------------------------------------
    def consume(self, epoch: int, consumer: int = 0) -> Generator[Op, None, list]:
        """Wait for the ``epoch``-th payload (1-based) and return it.

        Control flow waits on the flag; data flow is a local smart
        self-invalidation followed by fresh reads — the producer never
        stalled to guarantee our view.  ``consumer`` is this reader's
        index (``reader()`` assigns them); its acknowledgement tells the
        producer the slot may be reused.
        """
        if epoch < 1:
            raise ValueError("epochs are 1-based")
        if not 0 <= consumer < self.consumers:
            raise ValueError(
                f"consumer index {consumer} out of range for {self.consumers} consumers"
            )
        yield FlagWait(self.flag_id, epoch)
        slot_idx = (epoch - 1) % self.depth
        yield SelfInvalidate(self.slot_blocks[slot_idx])
        values = yield from self.slots[slot_idx].read_range(0, self.nwords)
        yield FlagSet(self.ack_flag_ids[consumer], ())
        return values

    def reader(self) -> ChannelReader:
        """Create the next consumer's cursor (at most ``consumers``)."""
        if self._next_reader >= self.consumers:
            raise RuntimeError(
                f"channel {self.name!r} already has {self.consumers} readers"
            )
        reader = ChannelReader(self, self._next_reader)
        self._next_reader += 1
        return reader


class ChannelReader:
    """Per-consumer epoch cursor over a :class:`DataChannel`."""

    __slots__ = ("channel", "consumer", "epoch")

    def __init__(self, channel: DataChannel, consumer: int = 0):
        self.channel = channel
        self.consumer = consumer
        self.epoch = 0

    def next(self) -> Generator[Op, None, list]:
        """Consume the next unseen payload."""
        self.epoch += 1
        return self.channel.consume(self.epoch, self.consumer)
