"""Tests for the DownlinkScheduler orchestration layer."""

from datetime import datetime, timedelta

import pytest

from repro.scheduling.beamforming import BeamformingScheduler
from repro.scheduling.graph import ContactGraph
from repro.scheduling.horizon import HorizonScheduler
from repro.scheduling.matching import is_stable
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import LatencyValue, ThroughputValue

EPOCH = datetime(2020, 6, 1)


@pytest.fixture()
def scheduler(small_fleet, small_network):
    for sat in small_fleet:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return DownlinkScheduler(small_fleet, small_network, LatencyValue())


def first_active_instant(scheduler):
    for hour in range(48):
        when = EPOCH + timedelta(hours=hour)
        if scheduler.contact_graph(when).edges:
            return when
    pytest.fail("no contacts in 48 h -- geometry broken")


class TestScheduleStep:
    def test_assignments_come_from_graph(self, scheduler):
        when = first_active_instant(scheduler)
        graph = scheduler.contact_graph(when)
        step = scheduler.schedule_step(when)
        edge_pairs = {(e.satellite_index, e.station_index) for e in graph.edges}
        for a in step.assignments:
            assert (a.satellite_index, a.station_index) in edge_pairs

    def test_stable_matching_property(self, scheduler):
        when = first_active_instant(scheduler)
        graph = scheduler.contact_graph(when)
        step = scheduler.schedule_step(when)
        assert is_stable(graph, step.assignments)

    def test_matcher_selection(self, small_fleet, small_network):
        for sat in small_fleet:
            sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
        stable = DownlinkScheduler(small_fleet, small_network,
                                   LatencyValue(), matcher="stable")
        optimal = DownlinkScheduler(small_fleet, small_network,
                                    LatencyValue(), matcher="optimal")
        when = first_active_instant(stable)
        value_stable = sum(a.weight for a in stable.schedule_step(when).assignments)
        value_optimal = sum(a.weight for a in optimal.schedule_step(when).assignments)
        assert value_optimal >= value_stable - 1e-9

    def test_unknown_matcher_rejected(self, small_fleet, small_network):
        with pytest.raises(ValueError, match="unknown matcher"):
            DownlinkScheduler(small_fleet, small_network, matcher="magic")

    def test_invalid_step(self, small_fleet, small_network):
        with pytest.raises(ValueError):
            DownlinkScheduler(small_fleet, small_network, step_s=0.0)

    def test_station_for_satellite(self, scheduler):
        when = first_active_instant(scheduler)
        step = scheduler.schedule_step(when)
        if step.assignments:
            a = step.assignments[0]
            assert step.station_for_satellite(a.satellite_index) == a.station_index
        assert step.station_for_satellite(9999) is None


class TestBuildPlan:
    def test_plan_covers_horizon(self, scheduler):
        when = first_active_instant(scheduler)
        plan = scheduler.build_plan(when, horizon_s=1800.0)
        assert plan.issued_at == when
        for entries in plan.entries.values():
            for entry in entries:
                assert when <= entry.start < when + timedelta(seconds=1800.0)
                assert entry.expected_bitrate_bps > 0.0

    def test_plan_entries_chronological(self, scheduler):
        when = first_active_instant(scheduler)
        plan = scheduler.build_plan(when, horizon_s=3600.0)
        for entries in plan.entries.values():
            starts = [e.start for e in entries]
            assert starts == sorted(starts)

    def test_empty_plan_for_satellite_without_contacts(self, scheduler):
        when = first_active_instant(scheduler)
        plan = scheduler.build_plan(when, horizon_s=600.0)
        assert plan.for_satellite(12345) == []

    def test_invalid_horizon(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.build_plan(EPOCH, horizon_s=0.0)


#: One constructor per scheduler family.
FAMILIES = {
    "instant": lambda fleet, network: DownlinkScheduler(
        fleet, network, LatencyValue()
    ),
    "horizon": lambda fleet, network: HorizonScheduler(
        fleet, network, LatencyValue(), horizon_steps=4, replan_steps=2
    ),
    "beamforming": lambda fleet, network: BeamformingScheduler(
        fleet, network, ThroughputValue(), beams=2
    ),
}


class TestKeepGraph:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_keep_graph_returns_the_graph_and_nothing_else(
        self, small_fleet, small_network, family
    ):
        """Every family takes ``keep_graph``.  Twin schedulers stepped
        with and without it match identically; only the one that asks
        gets a graph back, and it is the graph the step was matched
        on: the step's instant, holding every assigned pair."""
        for sat in small_fleet:
            sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
        make = FAMILIES[family]
        kept = make(small_fleet, small_network)
        dropped = make(small_fleet, small_network)
        start = first_active_instant(
            DownlinkScheduler(small_fleet, small_network, LatencyValue())
        )
        assigned = 0
        for k in range(6):
            when = start + timedelta(seconds=60.0 * k)
            with_graph = kept.schedule_step(when, keep_graph=True)
            without = dropped.schedule_step(when, keep_graph=False)
            assert with_graph.assignments == without.assignments
            assert without.graph is None
            graph = with_graph.graph
            assert isinstance(graph, ContactGraph)
            assert graph.when == when
            edges = {(e.satellite_index, e.station_index)
                     for e in graph.edges}
            for a in with_graph.assignments:
                assert (a.satellite_index, a.station_index) in edges
            assigned += len(with_graph.assignments)
        assert assigned > 0
