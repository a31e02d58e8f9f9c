"""Secondary-receiver selection over the priced contact graph."""

from datetime import datetime

from repro.scheduling.graph import ContactEdge, ContactGraph
from repro.scheduling.matching import Assignment, diversity_groups
from tests.oracle import columns_from_edges

import pytest

WHEN = datetime(2020, 6, 1)


def _edge(sat: int, gs: int, weight: float) -> ContactEdge:
    return ContactEdge(
        satellite_index=sat, station_index=gs, weight=weight,
        bitrate_bps=1e6, elevation_deg=45.0, range_km=1000.0,
        required_esn0_db=5.0,
    )


def _graph(edges) -> ContactGraph:
    sats = max(e.satellite_index for e in edges) + 1
    stations = max(e.station_index for e in edges) + 1
    return ContactGraph(WHEN, columns_from_edges(list(edges)),
                        num_satellites=sats, num_stations=stations)


class TestDiversityGroups:
    def test_best_idle_station_chosen(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 1, 6.0), _edge(0, 2, 8.0),
        ])
        assignments = [Assignment.from_edge(graph.edges[0])]
        groups = diversity_groups(graph, assignments, max_receivers=2)
        assert [e.station_index for e in groups[0]] == [2]

    def test_primary_stations_never_recruited(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 1, 9.0),
            _edge(1, 1, 10.0), _edge(1, 2, 3.0),
        ])
        assignments = [
            Assignment.from_edge(graph.edges[0]),   # sat0 -> gs0
            Assignment.from_edge(graph.edges[2]),   # sat1 -> gs1
        ]
        groups = diversity_groups(graph, assignments, max_receivers=3)
        # gs1 serves sat1, so sat0 gets nothing; sat1 gets gs2.
        assert groups[0] == []
        assert [e.station_index for e in groups[1]] == [2]

    def test_secondaries_are_exclusive(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 2, 5.0),
            _edge(1, 1, 10.0), _edge(1, 2, 9.0),
        ])
        assignments = [
            Assignment.from_edge(graph.edges[0]),
            Assignment.from_edge(graph.edges[2]),
        ]
        groups = diversity_groups(graph, assignments, max_receivers=2)
        # First assignment in order claims gs2; the second finds it taken.
        assert [e.station_index for e in groups[0]] == [2]
        assert groups[1] == []

    def test_receiver_cap(self):
        graph = _graph(
            [_edge(0, 0, 10.0)] + [_edge(0, g, 10.0 - g) for g in range(1, 6)]
        )
        assignments = [Assignment.from_edge(graph.edges[0])]
        for cap in (1, 2, 3, 4):
            groups = diversity_groups(graph, assignments, max_receivers=cap)
            assert len(groups[0]) == cap - 1

    def test_deterministic_tiebreak_on_station_index(self):
        graph = _graph([
            _edge(0, 0, 10.0), _edge(0, 3, 7.0), _edge(0, 1, 7.0),
        ])
        assignments = [Assignment.from_edge(graph.edges[0])]
        groups = diversity_groups(graph, assignments, max_receivers=2)
        assert [e.station_index for e in groups[0]] == [1]

    def test_invalid_cap_rejected(self):
        graph = _graph([_edge(0, 0, 10.0)])
        with pytest.raises(ValueError):
            diversity_groups(graph, [], max_receivers=0)
