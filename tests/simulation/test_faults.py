"""Tests for outage schedules and fault-injected simulation."""

from datetime import datetime, timedelta

import pytest

from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import synthetic_leo_constellation
from repro.satellites.satellite import Satellite
from repro.scheduling.value_functions import LatencyValue
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.simulation.faults import Outage, OutageSchedule

EPOCH = datetime(2020, 6, 1)


class TestOutage:
    def test_covers_half_open_interval(self):
        o = Outage("gs-1", EPOCH, EPOCH + timedelta(hours=1))
        assert o.covers(EPOCH)
        assert o.covers(EPOCH + timedelta(minutes=59))
        assert not o.covers(EPOCH + timedelta(hours=1))
        assert not o.covers(EPOCH - timedelta(seconds=1))

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            Outage("gs-1", EPOCH, EPOCH)

    def test_duration(self):
        o = Outage("gs-1", EPOCH, EPOCH + timedelta(minutes=30))
        assert o.duration_s == 1800.0


class TestOutageSchedule:
    def test_is_down(self):
        schedule = OutageSchedule.total_failure(["a", "b"], EPOCH, 3600.0)
        assert schedule.is_down("a", EPOCH + timedelta(minutes=5))
        assert schedule.is_down("b", EPOCH + timedelta(minutes=5))
        assert not schedule.is_down("c", EPOCH + timedelta(minutes=5))
        assert not schedule.is_down("a", EPOCH + timedelta(hours=2))

    def test_down_stations(self):
        schedule = OutageSchedule.total_failure(["a", "b"], EPOCH, 3600.0)
        assert schedule.down_stations(EPOCH) == {"a", "b"}
        assert schedule.down_stations(EPOCH + timedelta(hours=2)) == set()

    def test_total_downtime(self):
        schedule = OutageSchedule()
        schedule.add(Outage("a", EPOCH, EPOCH + timedelta(hours=1)))
        schedule.add(Outage("a", EPOCH + timedelta(hours=3),
                            EPOCH + timedelta(hours=4)))
        assert schedule.total_downtime_s("a") == 7200.0
        assert schedule.total_downtime_s("b") == 0.0

    def test_random_failures_deterministic(self):
        ids = [f"gs-{i}" for i in range(10)]
        a = OutageSchedule.random_failures(ids, EPOCH, 86400.0, 43200.0,
                                           3600.0, seed=3)
        b = OutageSchedule.random_failures(ids, EPOCH, 86400.0, 43200.0,
                                           3600.0, seed=3)
        assert a.outages == b.outages

    def test_random_failures_within_horizon(self):
        ids = ["gs-0", "gs-1"]
        schedule = OutageSchedule.random_failures(ids, EPOCH, 86400.0,
                                                  20000.0, 5000.0, seed=1)
        end = EPOCH + timedelta(seconds=86400.0)
        for o in schedule.outages:
            assert EPOCH <= o.start < end
            assert o.end <= end

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            OutageSchedule.random_failures(["a"], EPOCH, 100.0, 0.0, 10.0)

    @pytest.mark.parametrize("name, value", [
        ("horizon_s", float("inf")),
        ("horizon_s", float("nan")),
        ("horizon_s", 0.0),
        ("mean_time_between_failures_s", float("inf")),
        ("mean_repair_s", float("nan")),
        ("mean_repair_s", -5.0),
    ])
    def test_rejects_unbounded_durations(self, name, value):
        """An infinite horizon used to loop forever drawing failures."""
        kwargs = dict(start=EPOCH, horizon_s=3600.0,
                      mean_time_between_failures_s=600.0,
                      mean_repair_s=60.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            OutageSchedule.random_failures(["a", "b"], **kwargs)

    def test_add_after_queries_is_visible(self):
        schedule = OutageSchedule.total_failure(["a"], EPOCH, 3600.0)
        when = EPOCH + timedelta(hours=2, minutes=5)
        assert not schedule.is_down("a", when)
        assert not schedule.is_down("b", when)
        schedule.add(Outage("b", EPOCH + timedelta(hours=2),
                            EPOCH + timedelta(hours=3)))
        assert schedule.is_down("b", when)
        assert not schedule.is_down("a", when)
        assert schedule.down_stations(when) == {"b"}


class TestFaultInjectedSimulation:
    def _run(self, outages=None, announced=False):
        tles = synthetic_leo_constellation(8, EPOCH, seed=21)
        sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
        network = satnogs_like_network(15, seed=13)
        config = SimulationConfig(start=EPOCH, duration_s=4 * 3600.0)
        sim = Simulation(satellites=sats, network=network, value_function=LatencyValue(), config=config,
                         outages=outages, outages_announced=announced)
        return network, sim.run()

    def test_total_blackout_delivers_nothing(self):
        network, _ = self._run()
        all_ids = [s.station_id for s in network]
        outages = OutageSchedule.total_failure(all_ids, EPOCH, 5 * 3600.0)
        _n, report = self._run(outages=outages, announced=False)
        assert report.delivered_bits == 0.0

    def test_announced_blackout_wastes_no_transmissions(self):
        network, _ = self._run()
        all_ids = [s.station_id for s in network]
        outages = OutageSchedule.total_failure(all_ids, EPOCH, 5 * 3600.0)
        _n, report = self._run(outages=outages, announced=True)
        # The scheduler knows: no edges, so no transmissions, so no losses.
        assert report.delivered_bits == 0.0
        assert report.lost_transmission_bits == 0.0

    def test_unannounced_blackout_wastes_passes(self):
        network, _ = self._run()
        all_ids = [s.station_id for s in network]
        outages = OutageSchedule.total_failure(all_ids, EPOCH, 5 * 3600.0)
        _n, report = self._run(outages=outages, announced=False)
        assert report.lost_transmission_bits > 0.0

    def test_partial_outage_degrades_not_destroys(self):
        network, healthy = self._run()
        half = [s.station_id for s in network][:7]
        outages = OutageSchedule.total_failure(half, EPOCH, 5 * 3600.0)
        _n, degraded = self._run(outages=outages, announced=True)
        assert 0.0 < degraded.delivered_bits <= healthy.delivered_bits
