"""Mega-constellation scaling benchmarks and acceptance gates.

Two contracts at Starlink-class population scale, beyond the paper's
259 x 173 scenario:

1. pytest-benchmark timings of the scaling hot paths (candidate
   generation, the one-step culled graph build, Walker synthesis) feed
   the committed baseline that ``compare_bench.py`` gates in CI.  The
   2500 x 1000 pair source is checked bit for bit against dense geometry
   in ``tests/scheduling/test_windows_equivalence.py``, and its build
   cost is the ``walker-hour`` ledger workload's ``setup_s``.
2. A 10k-satellite x 1-hour run completes under a bounded peak-RSS
   budget, measured in a subprocess so the parent's allocations cannot
   mask a regression.

Like the component benches these are not tier-1 (``testpaths`` excludes
``benchmarks/``); the constellation-scaling CI job runs them.
"""

import json
import os
import subprocess
import sys
from datetime import datetime, timedelta

import pytest

from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import walker_delta
from repro.orbits.ephemeris import EphemerisTable, clear_ephemeris_cache
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import LatencyValue

EPOCH = datetime(2020, 6, 1)

#: The timed scenario: a 2500-satellite Walker shell (the 10k fleet's
#: measurement proxy -- same per-step kernels, CI-friendly runtime)
#: against a 1000-station network, the "1000+ stations" regime where a
#: dense M x N visibility matrix would be the cost floor.
GATE_SATELLITES = 2500
GATE_STATIONS = 1000

#: Peak-RSS budget for the 10k x 1 h run.  Measured 450 MB with the
#: float64 ephemeris table and the contact-window index built in bounded
#: scan chunks, both while the index also stored per-row link-budget
#: columns and since it stores geometry only, so those columns were not
#: this cell's peak (458 MB when the cell still stored a float32 table in
#: streamed windows), against 890-900 MB when the index build held 200k-row
#: scan chunks and whole-index sort and column temporaries at once;
#: 750 MB catches a return to that or to dense per-step matrices.
RSS_BUDGET_KB = 750 * 1024


@pytest.fixture(scope="module")
def scaling_world():
    """2500-sat Walker shell, 1000 stations, one shared ephemeris table."""
    clear_ephemeris_cache()
    tles = walker_delta(GATE_SATELLITES, 50, 1, 53.0, 550.0, EPOCH)
    fleet = [Satellite(tle=t) for t in tles]
    for sat in fleet:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    network = satnogs_like_network(GATE_STATIONS, seed=13)
    table = EphemerisTable.build(fleet, EPOCH, 1, 60.0)

    def make_scheduler():
        # Default weather (clear sky) isolates the geometry + pricing
        # cost the culling targets from the weather oracle's.  No window
        # index: every instant runs the one-step culled scan.
        return DownlinkScheduler(
            fleet, network, LatencyValue(), ephemeris=table,
        )

    return fleet, network, table, make_scheduler


def test_bench_culling_candidates(benchmark, scaling_world):
    """Per-step candidate generation alone (grid matmul + CSR expand)."""
    _fleet, _network, table, make_scheduler = scaling_world
    scheduler = make_scheduler()
    sat_ecef = table.positions_ecef(EPOCH)
    benchmark(scheduler._geometry.grid.candidate_pairs, sat_ecef)


def test_bench_contact_graph_walker2500(benchmark, scaling_world):
    """Full culled build + pricing per step at 2500 x 1000."""
    _fleet, _network, _table, make_scheduler = scaling_world
    scheduler = make_scheduler()
    scheduler.contact_graph(EPOCH)
    benchmark(scheduler.contact_graph, EPOCH)


def test_bench_walker_delta_synthesis(benchmark):
    """Deterministic Walker-shell TLE synthesis at 2.5k."""
    benchmark(walker_delta, GATE_SATELLITES, 50, 1, 53.0, 550.0, EPOCH)


_RSS_CHILD = """
import json
import resource

from repro.runners.grids import constellation_scaling_grid

cells = constellation_scaling_grid()
cell = next(c for c in cells if c.label == "walker10000")
result = cell.spec.run()
print(json.dumps({
    "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "delivered_tb": result.report.delivered_tb,
}))
"""


def test_walker10000_peak_rss_bounded():
    """10k sats x 1 h completes within the peak-RSS budget.

    Runs the grid's ``walker10000`` cell in a fresh interpreter and
    reads the child's own ``ru_maxrss``, so the measurement reflects
    exactly that run.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\nwalker10000 peak RSS: {payload['maxrss_kb'] / 1024:.0f} MB "
          f"(budget {RSS_BUDGET_KB / 1024:.0f} MB)")
    assert payload["maxrss_kb"] < RSS_BUDGET_KB
