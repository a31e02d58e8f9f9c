"""Onboard storage: the satellite's priority queue of unsent data.

"The satellite maintains a priority queue and sends the data in the
highest priority first order" (Sec. 3.2).  The queue order is pluggable --
the scheduler's value function decides what "highest priority" means --
but defaults to oldest-first, which is both the latency-optimal order and
the natural camera-roll order.

Storage also tracks the delivered-but-unacked set: with receive-only
stations a satellite "can discard data only when it has ... received an
acknowledgement" (Sec. 3.3), so those bytes still occupy the recorder.
"""

from __future__ import annotations

from datetime import datetime
from typing import Callable, Iterable

from repro.satellites.data import ChunkState, DataChunk

#: Orders the send queue; smaller key = sent first.
QueueKey = Callable[[DataChunk], float]


def oldest_first(chunk: DataChunk) -> float:
    """Default order: capture time ascending (latency-optimal)."""
    return chunk.capture_time.timestamp()


def highest_priority_first(chunk: DataChunk) -> tuple[float, float]:
    """Operator priority descending, then oldest first."""
    return (-chunk.priority, chunk.capture_time.timestamp())


class OnboardStorage:
    """The spacecraft recorder.

    Parameters
    ----------
    capacity_bits:
        Recorder size; captures beyond it are dropped oldest-first and
        counted in :attr:`dropped_bits` (real recorders overwrite).
        ``None`` = unbounded (the paper's experiments never fill a modern
        recorder in a day).
    queue_key:
        Sort key for the send order.
    """

    def __init__(self, capacity_bits: float | None = None,
                 queue_key: QueueKey = oldest_first):
        if capacity_bits is not None and capacity_bits <= 0:
            raise ValueError("capacity must be positive or None")
        self.capacity_bits = capacity_bits
        self.queue_key = queue_key
        self._onboard: list[DataChunk] = []
        self._delivered_unacked: list[DataChunk] = []
        self._acked: list[DataChunk] = []
        self.dropped_bits = 0.0
        self._dirty = False
        #: Send-queue mutation counter.  Bumped by every operation that can
        #: change what :meth:`queue_snapshot` would return (capture,
        #: transmit, requeue); fleet-level pricing caches compare it to
        #: decide whether their snapshot of this queue is still valid.
        self.version = 0

    # -- capture -----------------------------------------------------------

    def capture(self, chunk: DataChunk) -> None:
        """Add a freshly captured chunk, evicting oldest data if full."""
        if chunk.state is not ChunkState.ONBOARD:
            raise ValueError("can only capture ONBOARD chunks")
        self._onboard.append(chunk)
        self._dirty = True
        self.version += 1
        if self.capacity_bits is not None:
            while self.stored_bits > self.capacity_bits and self._onboard:
                self._sort()
                victim = self._onboard.pop(0)
                self.dropped_bits += victim.remaining_bits

    # -- transmission ------------------------------------------------------

    def _sort(self) -> None:
        if self._dirty:
            self._onboard.sort(key=self.queue_key)
            self._dirty = False

    def peek_sendable(self) -> DataChunk | None:
        """The chunk that would be sent next, or None when empty."""
        self._sort()
        return self._onboard[0] if self._onboard else None

    def transmit(self, bits_budget: float, now: datetime,
                 decoded: bool = True) -> tuple[float, list[DataChunk]]:
        """Send up to ``bits_budget`` bits in priority order.

        Returns (bits actually sent, chunks that completed delivery now).
        ``decoded=False`` models a transmission the ground failed to
        decode: the satellite's bookkeeping is identical (it cannot know),
        but the chunks are flagged so the engine withholds receipts.
        """
        if bits_budget < 0:
            raise ValueError("bits budget cannot be negative")
        self._sort()
        self.version += 1
        sent_total = 0.0
        completed: list[DataChunk] = []
        while bits_budget > 1e-9 and self._onboard:
            chunk = self._onboard[0]
            sent = chunk.transmit(bits_budget, now, decoded)
            sent_total += sent
            bits_budget -= sent
            if chunk.is_fully_sent:
                self._onboard.pop(0)
                self._delivered_unacked.append(chunk)
                completed.append(chunk)
            else:
                break  # budget exhausted mid-chunk
        return sent_total, completed

    def requeue_stale_unacked(self, sent_before: datetime) -> list[DataChunk]:
        """Requeue delivered-unacked chunks sent at or before ``sent_before``.

        Called right after processing an ack batch at a transmit-capable
        contact: anything sent long enough ago that its ack should have
        arrived -- and did not -- is presumed lost and goes back in the
        send queue (the paper's "missing pieces ... communicated to the
        satellite during next contact").

        The boundary is **inclusive**: a chunk whose ack deadline lands
        exactly on the contact instant has had its full timeout window and
        is requeued *now* rather than surviving until an entire extra
        tx-capable contact.  This cannot race a timely ack -- the engine
        processes the contact's ack batch before calling this, so a chunk
        whose ack did arrive is already off the unacked list.
        """
        requeued = []
        remaining = []
        for chunk in self._delivered_unacked:
            if chunk.delivery_time is not None and chunk.delivery_time <= sent_before:
                chunk.requeue()
                self._onboard.append(chunk)
                self._dirty = True
                self.version += 1
                requeued.append(chunk)
            else:
                remaining.append(chunk)
        self._delivered_unacked = remaining
        return requeued

    # -- acknowledgements ----------------------------------------------------

    def acknowledge(self, chunk_ids: Iterable[int], now: datetime) -> int:
        """Free delivered chunks whose ids appear in ``chunk_ids``."""
        ids = set(chunk_ids)
        freed = 0
        remaining = []
        for chunk in self._delivered_unacked:
            if chunk.chunk_id in ids:
                chunk.acknowledge(now)
                self._acked.append(chunk)
                freed += 1
            else:
                remaining.append(chunk)
        self._delivered_unacked = remaining
        return freed

    # -- accounting ----------------------------------------------------------

    @property
    def backlog_bits(self) -> float:
        """Bits still to transmit (remaining portions of queued chunks).

        This is the send-budget view used by the value functions; for the
        delivery metric see :attr:`true_backlog_bits`.  Summation runs in
        send order (sorting first, a no-op when the queue is clean) so the
        float result is reproducible regardless of when the last capture
        or requeue happened relative to the read.
        """
        self._sort()
        return sum(c.remaining_bits for c in self._onboard)

    @property
    def undelivered_bits(self) -> float:
        """Full size of every chunk not yet completely received.

        A partially transmitted chunk counts whole: half an image is not a
        delivered image.  This is what makes generated == delivered +
        backlog hold exactly.
        """
        return sum(c.size_bits for c in self._onboard)

    @property
    def true_backlog_bits(self) -> float:
        """Ground-truth undelivered bits: the queue plus sent-but-lost chunks.

        The satellite believes lost chunks were delivered until acks go
        missing; the *true* backlog counts them as undelivered, which is
        what the paper's "data not downloaded" metric means.
        """
        lost = sum(
            c.size_bits for c in self._delivered_unacked if not c.ground_received
        )
        return self.undelivered_bits + lost

    @property
    def unacked_bits(self) -> float:
        """Bits delivered but awaiting acknowledgement (still on the recorder)."""
        return sum(c.size_bits for c in self._delivered_unacked)

    @property
    def stored_bits(self) -> float:
        """Recorder occupancy: undelivered remainder + unacked retention."""
        return self.backlog_bits + self.unacked_bits

    @property
    def onboard_chunks(self) -> list[DataChunk]:
        self._sort()
        return list(self._onboard)

    @property
    def delivered_unacked_chunks(self) -> list[DataChunk]:
        return list(self._delivered_unacked)

    @property
    def acked_chunks(self) -> list[DataChunk]:
        return list(self._acked)

    def all_chunks(self) -> list[DataChunk]:
        return self.onboard_chunks + self._delivered_unacked + self._acked

    def oldest_capture_time(self) -> datetime | None:
        """Capture time of the oldest unsent chunk (drives latency Phi)."""
        head = self.peek_sendable()
        return head.capture_time if head is not None else None

    def queue_snapshot(self) -> tuple[list[float], list[float], list[datetime], float, float]:
        """Sorted send-queue state for vectorized pricing.

        Returns ``(remaining_bits, size_bits, capture_times, backlog_bits,
        head_size_bits)`` in send order -- the fields (and the iteration
        order) latency pricing walks the queue prefix in, so a batch
        evaluation over this snapshot reproduces a per-chunk walk of the
        queue bit for bit.  Pair with :attr:`version` to know when the
        snapshot goes stale.
        """
        self._sort()
        remaining = [c.remaining_bits for c in self._onboard]
        sizes = [c.size_bits for c in self._onboard]
        captures = [c.capture_time for c in self._onboard]
        head_size = sizes[0] if sizes else 0.0
        return remaining, sizes, captures, sum(remaining), head_size

    def queue_demand_snapshot(self) -> tuple[list[str], list[datetime | None]]:
        """Tenant ids and SLA deadlines of the send queue, in send order.

        The demand companion to :meth:`queue_snapshot`: same sort, same
        positions, read together under the same :attr:`version`, so a
        fleet profile can extend its per-chunk arrays with tenant slots
        and deadlines without disturbing the legacy 5-tuple contract.
        """
        self._sort()
        tenant_ids = [c.tenant_id for c in self._onboard]
        deadlines = [c.deadline for c in self._onboard]
        return tenant_ids, deadlines
