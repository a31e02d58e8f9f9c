"""The batched production path vs the scalar oracle: same edges, schedules.

Matchers tie-break on edge order, so production must reproduce the
oracle's edges exactly and in the same row-major (satellite, station)
order -- these tests pin that contract at graph, scheduler, and full
simulation level, with and without the shared ephemeris and its
contact-window index (``tests/oracle.py`` is the reference).
"""

from datetime import datetime, timedelta

import pytest

from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import synthetic_leo_constellation
from repro.orbits.ephemeris import (
    clear_ephemeris_cache,
    shared_ephemeris_table,
)
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import LatencyValue
from repro.scheduling.windows import clear_window_index_cache, shared_window_index
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache
from tests.oracle import assert_graphs_identical, report_dict, use_oracle

EPOCH = datetime(2020, 6, 1)
NUM_STEPS = 180


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_ephemeris_cache()
    clear_window_index_cache()
    yield
    clear_ephemeris_cache()
    clear_window_index_cache()


def _fleet(n=10, seed=21):
    tles = synthetic_leo_constellation(n, EPOCH, seed=seed)
    sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
    for sat in sats:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return sats


def _scheduler(use_ephemeris, **kwargs):
    """A fresh world; with ``use_ephemeris`` also its contact-window index."""
    satellites = _fleet()
    network = satnogs_like_network(24, seed=13)
    table = None
    if use_ephemeris:
        table = shared_ephemeris_table(satellites, EPOCH, NUM_STEPS, 60.0)
    scheduler = DownlinkScheduler(
        satellites,
        network,
        LatencyValue(),
        weather=QuantizedWeatherCache(RainCellField(seed=3)),
        ephemeris=table,
        **kwargs,
    )
    if use_ephemeris:
        scheduler.window_index = shared_window_index(
            satellites, network, start=EPOCH, num_steps=NUM_STEPS,
            step_s=60.0, geometry=scheduler._geometry, ephemeris=table,
            link_budget_for=scheduler._link_budget_for,
            pair_groups=scheduler._pair_groups,
        )
    return scheduler


def _oracle(use_ephemeris=False, **kwargs):
    """The same world on the oracle (reading the ephemeris rows if any)."""
    return use_oracle(_scheduler(use_ephemeris, **kwargs))


class TestGraphEquivalence:
    def test_identical_edges_across_a_horizon(self):
        """Per-satellite propagation: every instant runs the scan step."""
        oracle = _oracle()
        production = _scheduler(use_ephemeris=False)
        total = 0
        for k in range(0, NUM_STEPS, 5):
            when = EPOCH + timedelta(minutes=k)
            graph = production.contact_graph(when)
            assert_graphs_identical(graph, oracle.contact_graph(when))
            total += graph.num_edges
        assert total > 0  # the comparison actually exercised edges

    def test_identical_edges_with_ephemeris_table(self):
        """Ephemeris + window index against the fully scalar oracle.

        The oracle reads its own scheduler's positions, i.e. per-satellite
        propagation, which agrees with the batch ephemeris to ~1e-12 km:
        the discrete outcomes must match exactly, geometry to 1e-6.
        """
        oracle = _oracle()
        production = _scheduler(use_ephemeris=True)
        for k in range(0, NUM_STEPS, 7):
            when = EPOCH + timedelta(minutes=k)
            graph_p = production.contact_graph(when)
            graph_o = oracle.contact_graph(when)
            assert graph_p.num_edges == graph_o.num_edges
            for ep, eo in zip(graph_p.edges, graph_o.edges):
                assert ep[:4] == eo[:4]
                assert ep.required_esn0_db == eo.required_esn0_db
                assert ep.elevation_deg == pytest.approx(
                    eo.elevation_deg, abs=1e-6
                )
                assert ep.range_km == pytest.approx(eo.range_km, abs=1e-6)

    def test_identical_edges_under_plan_distribution(self):
        """The has-plan x can-transmit mask must vectorize faithfully."""
        kwargs = dict(require_current_plan=True, plan_max_age_s=3600.0)
        oracle = _oracle(**kwargs)
        production = _scheduler(use_ephemeris=False, **kwargs)
        # A couple of satellites hold fresh plans; the rest do not.
        for s in (oracle, production):
            s.satellites[0].receive_plan(EPOCH)
            s.satellites[3].receive_plan(EPOCH)
        for k in range(0, 120, 10):
            when = EPOCH + timedelta(minutes=k)
            assert_graphs_identical(
                production.contact_graph(when), oracle.contact_graph(when)
            )

    def test_identical_edges_with_station_outages(self):
        def available(index, when):
            return index % 3 != 0
        oracle = _oracle(use_ephemeris=True, station_available=available)
        production = _scheduler(use_ephemeris=True,
                                station_available=available)
        for k in range(0, 120, 10):
            when = EPOCH + timedelta(minutes=k)
            graph = production.contact_graph(when)
            assert_graphs_identical(graph, oracle.contact_graph(when))
            assert all(e.station_index % 3 != 0 for e in graph.edges)


class TestScheduleEquivalence:
    def test_identical_assignments(self):
        oracle = _oracle(use_ephemeris=True)
        production = _scheduler(use_ephemeris=True)
        for k in range(0, NUM_STEPS, 5):
            when = EPOCH + timedelta(minutes=k)
            step_o = oracle.schedule_step(when)
            step_p = production.schedule_step(when)
            assert step_o.num_edges == step_p.num_edges
            pairs_o = [
                (a.satellite_index, a.station_index)
                for a in step_o.assignments
            ]
            pairs_p = [
                (a.satellite_index, a.station_index)
                for a in step_p.assignments
            ]
            assert pairs_o == pairs_p


class TestSimulationEquivalence:
    def test_identical_reports(self):
        """A full (short) run schedules and delivers identically."""
        reports = {}
        for oracle in (True, False):
            tles = synthetic_leo_constellation(8, EPOCH, seed=21)
            sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
            network = satnogs_like_network(20, seed=13)
            config = SimulationConfig(
                start=EPOCH, duration_s=3 * 3600.0, step_s=60.0,
            )
            weather = QuantizedWeatherCache(RainCellField(seed=3))
            sim = Simulation(satellites=sats, network=network,
                             value_function=LatencyValue(), config=config,
                             truth_weather=weather)
            if oracle:
                use_oracle(sim.scheduler)
            reports[oracle] = report_dict(sim.run())
        assert reports[True] == reports[False]
        assert reports[False]["delivered_bits"] > 0
