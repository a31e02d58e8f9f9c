"""Spatial culling: superset candidates, and the scan step vs the oracle.

The coarse-grid prefilter must be *conservative*: its candidate pairs are
a superset of the geometrically visible pairs, so the scan step (and the
contact-window index built from it) prices exactly the pairs dense
geometry sees -- and because the per-pair arithmetic is the same
elementwise operations, edges (and therefore schedules and reports) are
bit-identical to the dense scalar oracle in ``tests/oracle.py``.  These
tests pin that contract at candidate, graph, and full-simulation level,
including at the paper's population scale and under fault injection.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core.scenarios import ScenarioSpec
from repro.groundstations.network import satnogs_like_network
from repro.obs.recorder import Recorder
from repro.orbits.constellation import synthetic_leo_constellation, walker_delta
from repro.orbits.ephemeris import clear_ephemeris_cache, shared_ephemeris_table
from repro.satellites.satellite import Satellite
from repro.scheduling.culling import StationGrid, max_central_angle_rad
from repro.scheduling.graph import GeometryEngine
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import LatencyValue
from repro.scheduling.windows import clear_window_index_cache, shared_window_index
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache
from tests.oracle import (
    assert_graphs_identical,
    dense_visibility,
    report_dict,
    use_oracle,
)

EPOCH = datetime(2020, 6, 1)


@pytest.fixture(autouse=True)
def _fresh_cache():
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
    """A scheduler without a window index: every instant runs a scan step."""
    return DownlinkScheduler(
        satellites,
        network,
        LatencyValue(),
        weather=QuantizedWeatherCache(RainCellField(seed=3)),
        **kwargs,
    )


class TestCandidateSuperset:
    def test_candidates_cover_all_visible_pairs(self):
        """Every dense-visible pair appears among the grid's candidates."""
        satellites = _fleet(60)
        network = satnogs_like_network(50, seed=13)
        geometry = GeometryEngine(network)
        grid = StationGrid(network)
        covered_total = 0
        for k in range(0, 240, 10):
            when = EPOCH + timedelta(minutes=k)
            sat_ecef = geometry.satellite_ecef(satellites, when)
            _, _, visible = dense_visibility(geometry, sat_ecef)
            cand_sat, cand_gs = grid.candidate_pairs(sat_ecef)
            candidates = set(zip(cand_sat.tolist(), cand_gs.tolist()))
            vis_sat, vis_gs = np.nonzero(visible)
            for pair in zip(vis_sat.tolist(), vis_gs.tolist()):
                assert pair in candidates
            covered_total += vis_sat.size
        assert covered_total > 0  # the superset check actually bit

    def test_candidates_lexsorted_and_unique(self):
        """Candidate order must match np.nonzero's row-major order."""
        satellites = _fleet(30)
        network = satnogs_like_network(40, seed=13)
        geometry = GeometryEngine(network)
        grid = StationGrid(network)
        sat_ecef = geometry.satellite_ecef(satellites, EPOCH)
        cand_sat, cand_gs = grid.candidate_pairs(sat_ecef)
        flat = cand_sat * len(network) + cand_gs
        assert np.all(np.diff(flat) > 0)  # strictly increasing => sorted, unique

    def test_culling_actually_culls(self):
        """The prefilter must reject a large share of the M x N product."""
        satellites = _fleet(100, walker=True)
        network = satnogs_like_network(80, seed=13)
        geometry = GeometryEngine(network)
        grid = StationGrid(network)
        sat_ecef = geometry.satellite_ecef(satellites, EPOCH)
        cand_sat, _ = grid.candidate_pairs(sat_ecef)
        dense_pairs = len(satellites) * len(network)
        assert cand_sat.size < 0.5 * dense_pairs

    def test_max_central_angle_monotone_in_elevation(self):
        r = np.array([6378.0 + 550.0])
        low = max_central_angle_rad(r, 0.0)[0]
        high = max_central_angle_rad(r, 25.0)[0]
        assert 0.0 < high < low < np.pi / 2

    def test_empty_network_and_fleet(self):
        network = satnogs_like_network(10, seed=13)
        grid = StationGrid(network)
        empty_sat, empty_gs = grid.candidate_pairs(np.empty((0, 3)))
        assert empty_sat.size == 0 and empty_gs.size == 0


class TestGraphEquivalence:
    def test_identical_edges_across_a_horizon(self):
        satellites = _fleet(40)
        network = satnogs_like_network(40, seed=13)
        dense = use_oracle(_scheduler(satellites, network))
        culled = _scheduler(satellites, network)
        total = 0
        for k in range(0, 180, 5):
            when = EPOCH + timedelta(minutes=k)
            graph_c = culled.contact_graph(when)
            assert_graphs_identical(graph_c, dense.contact_graph(when))
            total += graph_c.num_edges
        assert total > 0

    def test_identical_edges_with_ephemeris_and_constraints(self):
        satellites = _fleet(30)
        network = satnogs_like_network(30, seed=13)
        # Give some stations restrictive constraint bitmaps and
        # availability holes, so every mask stage is exercised.
        for j, station in enumerate(network):
            if j % 5 == 0:
                station.constraints.bitmap = (1 << len(satellites)) - 2

        def available(index, when):
            return index % 7 != 0

        table = shared_ephemeris_table(satellites, EPOCH, 120, 60.0)
        kwargs = dict(
            ephemeris=table, station_available=available,
            require_current_plan=True, plan_max_age_s=3600.0,
        )
        dense = use_oracle(_scheduler(satellites, network, **kwargs))
        culled = _scheduler(satellites, network, **kwargs)
        satellites[0].receive_plan(EPOCH)
        satellites[2].receive_plan(EPOCH)
        for k in range(0, 120, 10):
            when = EPOCH + timedelta(minutes=k)
            assert_graphs_identical(
                culled.contact_graph(when), dense.contact_graph(when)
            )

    def test_visible_pair_counters_agree(self):
        """``visible_pairs`` counts the dense-visible pairs, on and off grid.

        On the index's grid the count comes from the index; off it, from
        the scan step, which also reports its candidates and culls.  Pair
        lookups outside a graph build (``DownlinkScheduler.visible_pairs``)
        add to none of these counters.
        """
        satellites = _fleet(30)
        network = satnogs_like_network(30, seed=13)
        table = shared_ephemeris_table(satellites, EPOCH, 10, 60.0)
        geometry = GeometryEngine(network)
        for when, on_grid in ((EPOCH + timedelta(minutes=4), True),
                              (EPOCH + timedelta(minutes=4, seconds=20),
                               False)):
            rec = Recorder()
            sched = _scheduler(satellites, network, ephemeris=table,
                               recorder=rec)
            sched.window_index = shared_window_index(
                satellites, network, start=EPOCH, num_steps=10, step_s=60.0,
                geometry=sched._geometry, ephemeris=table,
            )
            sched.contact_graph(when)
            counts = rec.counters_snapshot()
            positions = table.positions_ecef(when)
            if positions is None:
                positions = geometry.satellite_ecef(satellites, when)
            _, _, visible = dense_visibility(geometry, positions)
            assert counts["visible_pairs"] == int(visible.sum()) > 0
            assert ("window_index_hits" in counts) == on_grid
            if not on_grid:
                assert counts["candidate_pairs"] >= counts["visible_pairs"]
                assert counts["culled_pairs"] == (
                    len(satellites) * len(network) - counts["candidate_pairs"]
                )
            assert sched.visible_pairs(when)[0].size == counts["visible_pairs"]
            assert rec.counters_snapshot() == counts


class TestPaperScaleEquivalence:
    @staticmethod
    def _assert_matches_oracle(spec):
        production = report_dict(spec.build().simulation.run())
        sim = spec.build().simulation
        use_oracle(sim.scheduler)
        assert production == report_dict(sim.run())
        assert production["delivered_bits"] > 0

    def test_fig3a_reports_bit_identical(self):
        """fig3a at full paper scale: production report == oracle's."""
        self._assert_matches_oracle(ScenarioSpec.dgs(duration_s=1800.0))

    def test_fig3a_reports_bit_identical_under_faults(self):
        """The graded station_weight fault path must also match."""
        self._assert_matches_oracle(ScenarioSpec.dgs(
            duration_s=1800.0, fault_intensity=0.25, fault_seed=11,
        ))
