"""Tests for value functions Phi.

Each price is taken through production ``edge_values`` and the per-edge
reference in ``tests/oracle.py`` at once (``price_one_edge``), which
asserts the two agree bit for bit.
"""

from datetime import datetime, timedelta

import pytest

from repro.satellites.data import DataChunk
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import (
    AuctionValue,
    CompositeValue,
    DeadlineSlaValue,
    LatencyValue,
    PerEdgeValue,
    PriorityValue,
    ThroughputValue,
    ValueFunction,
)
from tests.oracle import assert_graphs_identical, price_one_edge, use_oracle

EPOCH = datetime(2020, 6, 1)
NOW = EPOCH + timedelta(hours=6)


class _ScalarValue:
    """A user's value function with only the scalar ``edge_value``.

    It prices an empty queue above zero, so only pricing every feasible
    pair gives it its edges, and it records each call.
    """

    def __init__(self):
        self.calls = []

    def edge_value(self, satellite, station_id, bitrate_bps, now, step_s):
        self.calls.append((satellite.satellite_id, station_id))
        return 1.0 + bitrate_bps * 1e-9 + satellite.storage.backlog_bits * 1e-12


@pytest.fixture()
def loaded_satellite(small_tles):
    sat = Satellite(tle=small_tles[0])
    sat.generate_data(EPOCH, 3600.0)  # ~4 GB captured around EPOCH
    return sat


@pytest.fixture()
def empty_satellite(small_tles):
    return Satellite(tle=small_tles[1])


class TestProtocol:
    def test_all_implementations_conform(self):
        for vf in (LatencyValue(), DeadlineSlaValue(), ThroughputValue(),
                   PriorityValue(), AuctionValue(),
                   CompositeValue(((LatencyValue(), 1.0),))):
            assert isinstance(vf, ValueFunction)
            # Every in-tree value function prices an empty queue at 0.0.
            assert vf.zero_on_empty_queue is True

    def test_composite_declares_what_its_components_declare(self):
        scalar = PerEdgeValue(_ScalarValue())
        assert CompositeValue(()).zero_on_empty_queue
        assert not CompositeValue(
            ((LatencyValue(), 1.0), (scalar, 1.0))
        ).zero_on_empty_queue

    def test_scalar_value_function_does_not_conform(self):
        assert not isinstance(_ScalarValue(), ValueFunction)
        assert isinstance(PerEdgeValue(_ScalarValue()), ValueFunction)


class TestLatencyValue:
    def test_zero_for_dead_link(self, loaded_satellite):
        assert price_one_edge(LatencyValue(), loaded_satellite, "g", 0.0, NOW, 60.0) == 0.0

    def test_zero_for_empty_queue(self, empty_satellite):
        assert price_one_edge(LatencyValue(), empty_satellite, "g", 1e8, NOW, 60.0) == 0.0

    def test_older_data_more_valuable(self, small_tles):
        stale = Satellite(tle=small_tles[0])
        stale.generate_data(EPOCH, 3600.0)
        fresh = Satellite(tle=small_tles[1])
        fresh.generate_data(NOW - timedelta(hours=1), 3600.0)
        vf = LatencyValue()
        assert price_one_edge(vf, stale, "g", 1e8, NOW, 60.0) > \
            price_one_edge(vf, fresh, "g", 1e8, NOW, 60.0)

    def test_faster_link_more_valuable(self, loaded_satellite):
        vf = LatencyValue()
        slow = price_one_edge(vf, loaded_satellite, "g", 5e7, NOW, 60.0)
        fast = price_one_edge(vf, loaded_satellite, "g", 3e8, NOW, 60.0)
        assert fast > slow

    def test_fresh_data_still_positive(self, small_tles):
        sat = Satellite(tle=small_tles[0])
        sat.generate_data(NOW - timedelta(seconds=60), 60.0)
        # Any backlog at all gives a positive weight.
        if sat.storage.backlog_bits > 0:
            assert price_one_edge(LatencyValue(), sat, "g", 1e8, NOW, 60.0) > 0.0


class TestThroughputValue:
    def test_equals_deliverable_bits(self, loaded_satellite):
        value = price_one_edge(ThroughputValue(), loaded_satellite, "g", 1e8, NOW, 60.0)
        expected = min(1e8 * 60.0, loaded_satellite.storage.backlog_bits)
        assert value == pytest.approx(expected)

    def test_capped_by_backlog(self, small_tles):
        sat = Satellite(tle=small_tles[0])
        sat.generate_data(EPOCH, 864.0)  # exactly ~1 GB
        value = price_one_edge(ThroughputValue(), sat, "g", 1e12, NOW, 60.0)
        assert value == pytest.approx(sat.storage.backlog_bits)

    def test_zero_cases(self, loaded_satellite, empty_satellite):
        vf = ThroughputValue()
        assert price_one_edge(vf, loaded_satellite, "g", 0.0, NOW, 60.0) == 0.0
        assert price_one_edge(vf, empty_satellite, "g", 1e8, NOW, 60.0) == 0.0


class TestPriorityValue:
    def test_priority_boosts_value(self, small_tles):
        plain = Satellite(tle=small_tles[0])
        plain.storage.capture(DataChunk("p", 8e9, EPOCH, priority=0.0))
        urgent = Satellite(tle=small_tles[1])
        urgent.storage.capture(DataChunk("u", 8e9, EPOCH, priority=2.0))
        vf = PriorityValue()
        assert price_one_edge(vf, urgent, "g", 1e8, NOW, 60.0) > \
            price_one_edge(vf, plain, "g", 1e8, NOW, 60.0)

    def test_region_multiplier(self, small_tles):
        sat = Satellite(tle=small_tles[0])
        sat.storage.capture(DataChunk("s", 8e9, EPOCH, region="flood-zone"))
        base = price_one_edge(PriorityValue(), sat, "g", 1e8, NOW, 60.0)
        boosted = price_one_edge(PriorityValue(
            region_multipliers={"flood-zone": 5.0}
        ), sat, "g", 1e8, NOW, 60.0)
        assert boosted == pytest.approx(5.0 * base)


class TestAuctionValue:
    def test_bid_scales_value(self, loaded_satellite):
        sat_id = loaded_satellite.satellite_id
        cheap = AuctionValue(default_bid=1.0)
        rich = AuctionValue(bids={(sat_id, "g"): 3.0}, default_bid=1.0)
        assert price_one_edge(rich, loaded_satellite, "g", 1e8, NOW, 60.0) == \
            pytest.approx(
                3.0 * price_one_edge(cheap, loaded_satellite, "g", 1e8, NOW, 60.0)
            )

    def test_default_bid_elsewhere(self, loaded_satellite):
        vf = AuctionValue(bids={("other", "g"): 9.0}, default_bid=2.0)
        value = price_one_edge(vf, loaded_satellite, "g", 1e8, NOW, 60.0)
        assert value == pytest.approx(2.0 * min(1e8 * 60.0,
                                                loaded_satellite.storage.backlog_bits))


class TestCompositeValue:
    def test_weighted_sum(self, loaded_satellite):
        lat, thr = LatencyValue(), ThroughputValue()
        combo = CompositeValue(((lat, 0.5), (thr, 2.0)))
        expected = (
            0.5 * price_one_edge(lat, loaded_satellite, "g", 1e8, NOW, 60.0)
            + 2.0 * price_one_edge(thr, loaded_satellite, "g", 1e8, NOW, 60.0)
        )
        assert price_one_edge(combo, loaded_satellite, "g", 1e8, NOW, 60.0) == \
            pytest.approx(expected)


class TestPerEdgeValue:
    """A scalar value function still prices, through the one adapter."""

    def test_scheduler_adapts_a_scalar_value_function(self, small_fleet,
                                                      small_network):
        scalar = _ScalarValue()
        scheduler = DownlinkScheduler(small_fleet, small_network, scalar)
        assert isinstance(scheduler.value_function, PerEdgeValue)
        assert scheduler.value_function.inner is scalar
        # An in-tree one is kept as is, and so is an adapted one.
        scheduler.value_function = LatencyValue()
        assert scheduler.value_function == LatencyValue()
        adapted = PerEdgeValue(scalar)
        scheduler.value_function = adapted
        assert scheduler.value_function is adapted

    def test_every_feasible_pair_priced_per_edge(self, small_tles,
                                                small_network):
        fleet = [Satellite(tle=t) for t in small_tles]
        # Half the fleet holds data; the rest have empty queues, which
        # this value function still prices above zero.
        for sat in fleet[::2]:
            sat.generate_data(EPOCH, 3600.0)
        production = DownlinkScheduler(fleet, small_network, _ScalarValue())
        oracle = use_oracle(
            DownlinkScheduler(fleet, small_network, _ScalarValue())
        )
        empty = {i for i, sat in enumerate(fleet)
                 if sat.storage.backlog_bits == 0.0}
        edges = from_empty = 0
        for minute in range(0, 24 * 60, 10):
            when = EPOCH + timedelta(minutes=minute)
            graph = production.contact_graph(when)
            assert_graphs_identical(graph, oracle.contact_graph(when))
            edges += graph.num_edges
            from_empty += sum(e.satellite_index in empty for e in graph.edges)
        assert edges > 0 and from_empty > 0
        # One call per closing pair, in the oracle's order.
        assert production.value_function.inner.calls == \
            oracle.value_function.inner.calls
