"""Tests for the onboard storage priority queue and ack bookkeeping."""

from datetime import datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.satellites.data import ChunkState, DataChunk
from repro.satellites.storage import OnboardStorage, highest_priority_first
from repro.scheduling.value_functions import FleetQueueProfile
from tests.oracle import prefix_age_value

EPOCH = datetime(2020, 6, 1)


def chunk_at(minutes, size=1000.0, priority=0.0):
    return DataChunk(
        satellite_id="sat",
        size_bits=size,
        capture_time=EPOCH + timedelta(minutes=minutes),
        priority=priority,
    )


class TestQueueOrder:
    def test_oldest_first_default(self):
        storage = OnboardStorage()
        storage.capture(chunk_at(30))
        storage.capture(chunk_at(10))
        storage.capture(chunk_at(20))
        head = storage.peek_sendable()
        assert head.capture_time == EPOCH + timedelta(minutes=10)

    def test_priority_ordering(self):
        storage = OnboardStorage(queue_key=highest_priority_first)
        storage.capture(chunk_at(10, priority=0.0))
        storage.capture(chunk_at(30, priority=5.0))
        assert storage.peek_sendable().priority == 5.0

    def test_empty_peek(self):
        assert OnboardStorage().peek_sendable() is None


class TestTransmit:
    def test_drains_in_order(self):
        storage = OnboardStorage()
        first, second = chunk_at(0, 1000.0), chunk_at(5, 1000.0)
        storage.capture(second)
        storage.capture(first)
        sent, completed = storage.transmit(1500.0, EPOCH + timedelta(hours=1))
        assert sent == 1500.0
        assert completed == [first]
        assert second.remaining_bits == 500.0

    def test_partial_then_finish(self):
        storage = OnboardStorage()
        storage.capture(chunk_at(0, 1000.0))
        storage.transmit(600.0, EPOCH)
        sent, completed = storage.transmit(600.0, EPOCH)
        assert sent == 400.0
        assert len(completed) == 1

    def test_zero_budget(self):
        storage = OnboardStorage()
        storage.capture(chunk_at(0))
        sent, completed = storage.transmit(0.0, EPOCH)
        assert sent == 0.0
        assert completed == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            OnboardStorage().transmit(-1.0, EPOCH)

    @given(
        sizes=st.lists(st.floats(min_value=1.0, max_value=5000.0),
                       min_size=1, max_size=20),
        budget=st.floats(min_value=0.0, max_value=100000.0),
    )
    def test_conservation(self, sizes, budget):
        storage = OnboardStorage()
        for i, size in enumerate(sizes):
            storage.capture(chunk_at(i, size))
        total_before = storage.backlog_bits
        sent, _ = storage.transmit(budget, EPOCH + timedelta(hours=1))
        assert sent <= budget + 1e-6
        assert storage.backlog_bits + sent == pytest.approx(total_before)


class TestAcks:
    def test_acknowledge_frees_chunks(self):
        storage = OnboardStorage()
        c = chunk_at(0, 100.0)
        storage.capture(c)
        storage.transmit(100.0, EPOCH)
        assert storage.unacked_bits == 100.0
        freed = storage.acknowledge([c.chunk_id], EPOCH + timedelta(hours=1))
        assert freed == 1
        assert storage.unacked_bits == 0.0
        assert c.state is ChunkState.ACKED

    def test_unknown_ids_ignored(self):
        storage = OnboardStorage()
        c = chunk_at(0, 100.0)
        storage.capture(c)
        storage.transmit(100.0, EPOCH)
        assert storage.acknowledge([999999], EPOCH) == 0
        assert storage.unacked_bits == 100.0

    def test_requeue_stale_unacked(self):
        storage = OnboardStorage()
        old, recent = chunk_at(0, 100.0), chunk_at(0, 100.0)
        storage.capture(old)
        storage.transmit(100.0, EPOCH + timedelta(hours=1), decoded=False)
        storage.capture(recent)
        storage.transmit(100.0, EPOCH + timedelta(hours=5))
        requeued = storage.requeue_stale_unacked(
            sent_before=EPOCH + timedelta(hours=3)
        )
        assert requeued == [old]
        assert storage.backlog_bits == 100.0  # old is back in the queue
        assert storage.unacked_bits == 100.0  # recent still awaiting ack

    def test_requeue_boundary_is_inclusive(self):
        """A chunk whose ack deadline lands exactly on the contact instant
        requeues at that contact instead of waiting out an extra pass."""
        storage = OnboardStorage()
        boundary = chunk_at(0, 100.0)
        storage.capture(boundary)
        delivered_at = EPOCH + timedelta(hours=1)
        storage.transmit(100.0, delivered_at, decoded=False)
        # Contact happens exactly ack_timeout after delivery: cutoff ==
        # delivery_time.  The inclusive boundary requeues it now.
        requeued = storage.requeue_stale_unacked(sent_before=delivered_at)
        assert requeued == [boundary]
        assert storage.unacked_bits == 0.0
        assert storage.backlog_bits == 100.0
        # One microsecond younger: still within the ack window.
        survivor = chunk_at(0, 100.0)
        storage.capture(survivor)
        storage.transmit(
            100.0, delivered_at + timedelta(microseconds=1), decoded=False
        )
        assert storage.requeue_stale_unacked(sent_before=delivered_at) == []
        assert storage.unacked_bits == 100.0


class TestAccounting:
    def test_true_backlog_counts_lost_chunks(self):
        storage = OnboardStorage()
        lost = chunk_at(0, 100.0)
        storage.capture(lost)
        storage.transmit(100.0, EPOCH, decoded=False)
        assert storage.backlog_bits == 0.0  # satellite thinks it's sent
        assert storage.true_backlog_bits == 100.0  # ground never got it

    def test_stored_bits_includes_unacked(self):
        storage = OnboardStorage()
        storage.capture(chunk_at(0, 100.0))
        storage.capture(chunk_at(1, 200.0))
        storage.transmit(100.0, EPOCH)
        assert storage.stored_bits == pytest.approx(300.0)

    def test_capacity_eviction(self):
        storage = OnboardStorage(capacity_bits=250.0)
        storage.capture(chunk_at(0, 100.0))
        storage.capture(chunk_at(1, 100.0))
        storage.capture(chunk_at(2, 100.0))
        assert storage.stored_bits <= 250.0
        assert storage.dropped_bits == 100.0
        # The oldest chunk was the victim.
        assert storage.peek_sendable().capture_time == EPOCH + timedelta(minutes=1)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            OnboardStorage(capacity_bits=0.0)


def _prefix_value(storage, bits_budget, now):
    """The queue prefix's age value, from the fleet profile and the reference.

    Asserts that production (``FleetQueueProfile.prefix_age_values``)
    and the per-chunk reference in ``tests/oracle.py`` agree bit for
    bit, and returns the value.
    """
    profile = FleetQueueProfile([SimpleNamespace(storage=storage)])
    profile.refresh(np.arange(1))
    priced = profile.prefix_age_values(
        np.zeros(1, dtype=np.intp), np.array([bits_budget]), now
    )
    reference = prefix_age_value(storage, bits_budget, now)
    assert np.array([reference]).tobytes() == priced.tobytes()
    return reference


class TestPrefixAgeValue:
    def test_zero_budget_zero_value(self):
        storage = OnboardStorage()
        storage.capture(chunk_at(0))
        assert _prefix_value(storage, 0.0, EPOCH + timedelta(hours=1)) == 0.0

    def test_value_scales_with_budget(self):
        storage = OnboardStorage()
        for minute in (0, 10, 20):
            storage.capture(chunk_at(minute, 1000.0))
        now = EPOCH + timedelta(hours=2)
        small = _prefix_value(storage, 1000.0, now)
        large = _prefix_value(storage, 3000.0, now)
        assert large > small

    def test_older_queue_more_valuable(self):
        fresh, stale = OnboardStorage(), OnboardStorage()
        fresh.capture(chunk_at(110, 1000.0))
        stale.capture(chunk_at(0, 1000.0))
        now = EPOCH + timedelta(hours=2)
        assert _prefix_value(stale, 1000.0, now) > _prefix_value(fresh, 1000.0, now)

    def test_prefix_is_oldest_data(self):
        storage = OnboardStorage()
        storage.capture(chunk_at(0, 1000.0))
        storage.capture(chunk_at(60, 1000.0))
        now = EPOCH + timedelta(hours=2)
        # Budget for exactly one chunk: the value should be the older age.
        value = _prefix_value(storage, 1000.0, now)
        assert value == pytest.approx(7200.0)
