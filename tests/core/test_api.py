"""Tests for the DGSNetwork public facade."""

from datetime import datetime, timedelta

import pytest

from repro.core.api import DGSNetwork
from repro.simulation.config import SimulationConfig

EPOCH = datetime(2020, 6, 1)


@pytest.fixture()
def api(small_fleet, small_network):
    for sat in small_fleet:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return DGSNetwork(satellites=small_fleet, network=small_network)


class TestConstruction:
    def test_rejects_empty_fleet(self, small_network):
        with pytest.raises(ValueError):
            DGSNetwork(satellites=[], network=small_network)

    def test_rejects_empty_network(self, small_fleet):
        from repro.groundstations.network import GroundStationNetwork

        with pytest.raises(ValueError):
            DGSNetwork(satellites=small_fleet, network=GroundStationNetwork([]))


class TestGeometryQueries:
    def test_look_angles(self, api):
        topo = api.look_angles(api.satellites[0], api.network[0], EPOCH)
        assert -90.0 <= topo.elevation_deg <= 90.0
        assert 0.0 <= topo.azimuth_deg < 360.0
        assert topo.range_km > 200.0

    def test_predict_passes(self, api):
        windows = api.predict_passes(
            api.satellites[0], api.network[0], EPOCH, EPOCH + timedelta(days=1)
        )
        for w in windows:
            assert w.duration_seconds > 0
            assert w.max_elevation_deg > api.network[0].min_elevation_deg

    def test_visible_pairs_consistent_with_look_angles(self, api):
        pairs = api.visible_pairs(EPOCH)
        for sat_idx, gs_idx in pairs:
            topo = api.look_angles(
                api.satellites[sat_idx], api.network[gs_idx], EPOCH
            )
            assert topo.elevation_deg > api.network[gs_idx].min_elevation_deg

    def test_visible_pairs_lists_pairs_in_sight_not_priced_edges(self):
        """Satellites with nothing to send price no edge, but are in sight."""
        from repro.core.scenarios import build_paper_fleet
        from repro.groundstations.network import satnogs_like_network
        from tests.oracle import dense_visibility

        fleet = build_paper_fleet(40)
        network = satnogs_like_network(60, seed=11)
        api = DGSNetwork(satellites=fleet, network=network)
        geometry = api._scheduler._geometry
        _elev, _rng, visible = dense_visibility(
            geometry, geometry.satellite_ecef(fleet, EPOCH)
        )
        expected = [(int(i), int(j)) for i, j in zip(*visible.nonzero())]
        assert api.schedule(EPOCH).num_edges == 0
        assert expected
        assert api.visible_pairs(EPOCH) == expected

    def test_next_contact(self, api):
        found = api.next_contact(api.satellites[0], EPOCH, search_hours=24.0)
        assert found is not None
        station, window = found
        assert window.rise_time >= EPOCH - timedelta(minutes=1)


class TestLinkAndSchedule:
    def test_link_quality(self, api):
        result = api.link_quality(api.satellites[0], api.network[0], EPOCH)
        assert result.fspl_db > 100.0

    def test_schedule_returns_step(self, api):
        step = api.schedule(EPOCH)
        assert step.when == EPOCH
        assert step.num_edges >= len(step.assignments)

    def test_build_plan(self, api):
        plan = api.build_plan(EPOCH, horizon_s=1200.0)
        assert plan.horizon_s == 1200.0


class TestSimulate:
    def test_simulate_short_run(self, api):
        report = api.simulate(EPOCH, duration_s=1800.0)
        assert report.generated_bits > 0.0

    def test_simulate_with_config(self, api):
        config = SimulationConfig(start=EPOCH, duration_s=600.0, step_s=60.0)
        report = api.simulate(EPOCH, duration_s=600.0, config=config)
        assert len(report.matched_step_counts) == 10
