"""Window-index production path vs the dense scalar oracle.

The contact-window index stores the exact elevations/ranges the one-step
scan computes, so driving the scheduling loop from it must produce the
oracle's edges, schedules, and reports bit for bit.  These tests pin
that contract at graph level (on and off the index's grid, including
constraints, availability holes, and plan gating), at full-simulation
level (faults, storms, diversity reception, forecast-driven scheduling,
tenants, and the horizon/beamforming schedulers, which read the same
index), and for the pair source at mega-constellation scale.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.scenarios import ScenarioSpec
from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import synthetic_leo_constellation, walker_delta
from repro.orbits.ephemeris import clear_ephemeris_cache, shared_ephemeris_table
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import LatencyValue
from repro.scheduling.windows import (
    clear_window_index_cache,
    shared_window_index,
)
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache
from tests.oracle import (
    assert_graphs_identical,
    oracle_visible_pairs,
    report_dict,
    use_oracle,
)

EPOCH = datetime(2020, 6, 1)
STEP_S = 60.0


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_ephemeris_cache()
    clear_window_index_cache()
    yield
    clear_ephemeris_cache()
    clear_window_index_cache()


def _fleet(n=40, seed=21, walker=False):
    if walker:
        tles = walker_delta(n, max(1, n // 10), 1, 53.0, 550.0, EPOCH)
    else:
        tles = synthetic_leo_constellation(n, EPOCH, seed=seed)
    sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
    for sat in sats:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return sats


def _scheduler(satellites, network, **kwargs):
    return DownlinkScheduler(
        satellites,
        network,
        LatencyValue(),
        weather=QuantizedWeatherCache(RainCellField(seed=3)),
        **kwargs,
    )


def _attach_index(scheduler, satellites, network, table, num_steps):
    scheduler.window_index = shared_window_index(
        satellites, network, start=EPOCH, num_steps=num_steps,
        step_s=STEP_S, geometry=scheduler._geometry, ephemeris=table,
        link_budget_for=scheduler._link_budget_for,
        pair_groups=scheduler._pair_groups,
    )


def _assert_matches_oracle(spec):
    production = report_dict(spec.build().simulation.run())
    sim = spec.build().simulation
    use_oracle(sim.scheduler)
    assert production == report_dict(sim.run())


class TestGraphEquivalence:
    def test_identical_edges_against_culled_and_dense(self):
        """Index-served graphs == one-step scan graphs == the oracle."""
        satellites = _fleet(40)
        network = satnogs_like_network(40, seed=13)
        num_steps = 180
        table = shared_ephemeris_table(satellites, EPOCH, num_steps, STEP_S)
        windowed = _scheduler(satellites, network, ephemeris=table)
        _attach_index(windowed, satellites, network, table, num_steps)
        scanned = _scheduler(satellites, network, ephemeris=table)
        dense = use_oracle(_scheduler(satellites, network, ephemeris=table))
        total = 0
        for k in range(0, num_steps, 5):
            when = EPOCH + timedelta(minutes=k)
            graph_w = windowed.contact_graph(when)
            assert_graphs_identical(graph_w, scanned.contact_graph(when))
            assert_graphs_identical(graph_w, dense.contact_graph(when))
            total += graph_w.num_edges
        assert total > 0

    def test_off_grid_instants_fall_back_bitwise(self):
        """Instants between grid steps price like the oracle."""
        satellites = _fleet(30)
        network = satnogs_like_network(30, seed=13)
        table = shared_ephemeris_table(satellites, EPOCH, 60, STEP_S)
        windowed = _scheduler(satellites, network, ephemeris=table)
        _attach_index(windowed, satellites, network, table, 60)
        dense = use_oracle(_scheduler(satellites, network, ephemeris=table))
        total = 0
        for k in (10, 30, 50):
            when = EPOCH + timedelta(minutes=k, seconds=30)
            assert windowed.window_index.step_of(when) is None
            graph = windowed.contact_graph(when)
            assert_graphs_identical(graph, dense.contact_graph(when))
            total += graph.num_edges
        assert total > 0

    def test_identical_edges_with_constraints_and_plan_gating(self):
        """Bitmaps, availability holes, and plan gates mask identically."""
        satellites = _fleet(30)
        network_a = satnogs_like_network(30, seed=13)
        network_b = satnogs_like_network(30, seed=13)
        for network in (network_a, network_b):
            for j, station in enumerate(network):
                if j % 5 == 0:
                    station.constraints.bitmap = (1 << len(satellites)) - 2

        def available(index, when):
            return index % 7 != 0

        num_steps = 120
        table = shared_ephemeris_table(satellites, EPOCH, num_steps, STEP_S)
        kwargs = dict(
            ephemeris=table, station_available=available,
            require_current_plan=True, plan_max_age_s=3600.0,
        )
        windowed = _scheduler(satellites, network_a, **kwargs)
        _attach_index(windowed, satellites, network_a, table, num_steps)
        dense = use_oracle(_scheduler(satellites, network_b, **kwargs))
        satellites[0].receive_plan(EPOCH)
        satellites[2].receive_plan(EPOCH)
        for k in range(0, num_steps, 10):
            when = EPOCH + timedelta(minutes=k)
            assert_graphs_identical(
                windowed.contact_graph(when), dense.contact_graph(when)
            )


class TestSimulationEquivalence:
    def test_reports_identical_under_faults(self):
        _assert_matches_oracle(ScenarioSpec.dgs(
            num_satellites=20, num_stations=25, duration_s=7200.0,
            fault_intensity=0.25, fault_seed=11,
        ))

    def test_reports_identical_with_storms_and_diversity(self):
        _assert_matches_oracle(ScenarioSpec.dgs(
            num_satellites=15, num_stations=20, duration_s=7200.0,
            weather="storms", storm_rate=2.0, storm_speed=1.5,
            execution_mode="diversity", diversity_receivers=3,
        ))

    def test_reports_identical_with_forecast_scheduling(self):
        _assert_matches_oracle(ScenarioSpec.dgs(
            num_satellites=15, num_stations=20, duration_s=7200.0,
            use_forecast=True,
        ))

    def test_reports_identical_with_tenants(self):
        from repro.demand import tenant_mix

        _assert_matches_oracle(ScenarioSpec.dgs(
            num_satellites=15, num_stations=20, duration_s=7200.0,
            tenants=tenant_mix("balanced"), value="deadline",
        ))

    def test_reports_identical_for_horizon_and_beams_schedulers(self):
        """The replacements read the engine's index and match the oracle."""
        for extra in (
            dict(scheduler="horizon", horizon_steps=3),
            dict(scheduler="beamforming", beams=2),
        ):
            spec = ScenarioSpec.dgs(
                num_satellites=12, num_stations=15, duration_s=3600.0,
                fault_intensity=0.3, **extra,
            )
            sim = spec.build().simulation
            assert sim.window_index is not None
            assert sim.scheduler.window_index is sim.window_index
            _assert_matches_oracle(spec)


class TestMegaScaleWalker:
    def test_walker_2500x1000_edges_identical_with_culling(self):
        """The pair source at mega-constellation scale == dense geometry.

        On-grid instants are served from the index, off-grid ones by a
        scan step; both must return the dense oracle's rows bit for bit.
        """
        satellites = _fleet(2500, walker=True)
        network = satnogs_like_network(1000, seed=13)
        num_steps = 4
        table = shared_ephemeris_table(satellites, EPOCH, num_steps, STEP_S)
        scheduler = _scheduler(satellites, network, ephemeris=table)
        _attach_index(scheduler, satellites, network, table, num_steps)
        total = 0
        for when in (EPOCH + timedelta(minutes=3),
                     EPOCH + timedelta(minutes=1, seconds=30)):
            pairs = scheduler.visible_pairs(when)
            expected = oracle_visible_pairs(scheduler, when)
            for got, want in zip(pairs, expected):
                assert np.array_equal(got, want)
            total += pairs[0].size
        assert total > 0
