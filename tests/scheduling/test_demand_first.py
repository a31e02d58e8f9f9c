"""Demand-first pricing: only pairs whose satellite holds data are priced.

The pricing tail refreshes the fleet queue profile for the satellites in
view and, when the value function declares ``zero_on_empty_queue``,
drops every pair whose satellite has nothing queued before the
link-budget kernel runs.  That is exact because such an ``edge_values``
prices an empty queue at 0.0 and zero-weight edges are never kept.
These tests pin the pieces of that contract:

* every in-tree value function declares ``zero_on_empty_queue`` and its
  ``edge_values`` returns exactly 0.0 for an empty queue, whatever the
  bitrate, the station, the instant, the other satellites' queues or the
  tenants' quota state;
* with a mix of empty and loaded satellites in view, production graphs
  equal the scalar oracle's edge for edge, and the weather cache sees
  the same samples (weather is sampled for every feasible station,
  before the demand mask);
* a value function that does not declare it has every pair priced:
  ``build_plan`` books contacts for empty-queue satellites through its
  anticipated-generation value.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.demand import DemandAssigner, RequestGenerator, tenant_mix
from repro.groundstations.network import satnogs_like_network
from repro.groundstations.station import DownlinkConstraints
from repro.obs import Recorder
from repro.orbits.constellation import synthetic_leo_constellation
from repro.orbits.ephemeris import clear_ephemeris_cache, shared_ephemeris_table
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import (
    AuctionValue,
    CompositeValue,
    DeadlineSlaValue,
    FleetQueueProfile,
    LatencyValue,
    PriorityValue,
    ThroughputValue,
)
from repro.scheduling.windows import (
    clear_window_index_cache,
    shared_window_index,
)
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache
from tests.oracle import assert_graphs_identical, oracle_visible_pairs, use_oracle

EPOCH = datetime(2020, 6, 1)
STEP_S = 60.0
NUM_STEPS = 60
MIX = tenant_mix("balanced")
TENANT_IDS = tuple(t.tenant_id for t in MIX)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_ephemeris_cache()
    clear_window_index_cache()
    yield
    clear_ephemeris_cache()
    clear_window_index_cache()


class _Quota:
    """Quota-ledger stand-in: the listed tenants are over today's quota."""

    def __init__(self, over):
        self.over = frozenset(over)

    def under_quota(self, tenant_id, now):
        return tenant_id not in self.over


def _value(name: str, over_quota=(TENANT_IDS[0],)):
    if name == "latency":
        return LatencyValue()
    if name == "deadline":
        return DeadlineSlaValue(tenants=MIX, accountant=_Quota(over_quota))
    if name == "priority":
        return PriorityValue(region_multipliers={"": 2.0})
    if name == "auction":
        return AuctionValue(default_bid=3.0)
    if name == "composite":
        return CompositeValue((
            (_value("deadline", over_quota), 0.5), (ThroughputValue(), 1e-6),
            (PriorityValue(), 2.0),
        ))
    return ThroughputValue()


VALUE_NAMES = ["latency", "deadline", "throughput", "priority", "auction",
               "composite"]


def _stamp(satellites):
    assigner = DemandAssigner(RequestGenerator(MIX, seed=13),
                              requests_per_day=24)
    for sat in satellites:
        sat.demand = assigner


# -- (a) the zero contract of every in-tree edge_values ---------------------

_TLES = synthetic_leo_constellation(6, EPOCH, seed=21)

_bitrates = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e9, 1e300]),
    st.floats(min_value=0.0, max_value=1e300),
)


@st.composite
def _pricing_cases(draw):
    # Hours of capture per satellite; 0 leaves its queue empty, and at
    # least one empty and one loaded queue share the profile, so the
    # empty rows are padded out to the loaded rows' length.
    hours = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0, 6.0]),
                          min_size=2, max_size=len(_TLES)))
    n = len(hours)
    empty = draw(st.integers(0, n - 1))
    loaded = (empty + draw(st.integers(1, n - 1))) % n
    hours[empty] = 0.0
    if hours[loaded] == 0.0:
        hours[loaded] = 2.0
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, 2), _bitrates),
                          max_size=15))
    edges.append((empty, draw(st.integers(0, 2)), draw(_bitrates)))
    # ``now`` from a day before the first capture to days after the last.
    offset_s = draw(st.one_of(
        st.sampled_from([-86400.0, -1.0, 0.0, 1.0, 7200.0, 5 * 86400.0]),
        st.floats(min_value=-1e6, max_value=1e7),
    ))
    over_quota = draw(st.frozensets(st.sampled_from(TENANT_IDS)))
    return hours, sorted(edges), offset_s, over_quota


class TestEmptyQueuePricesZero:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_pricing_cases(),
           name=st.sampled_from(VALUE_NAMES))
    def test_edge_values_zero_for_empty_queue(self, case, name):
        hours, edges, offset_s, over_quota = case
        satellites = [Satellite(tle=_TLES[i], chunk_size_gb=0.5)
                      for i in range(len(hours))]
        _stamp(satellites)
        for sat, h in zip(satellites, hours):
            if h:
                sat.generate_data(EPOCH, 3600.0 * h)
        profile = FleetQueueProfile(satellites, ("gs-0", "gs-1", "gs-2"))
        profile.refresh(np.arange(len(satellites)))
        sat_idx = np.array([i for i, _, _ in edges], dtype=np.intp)
        gs_idx = np.array([j for _, j, _ in edges], dtype=np.intp)
        bitrate = np.array([b for _, _, b in edges])
        now = EPOCH + timedelta(seconds=offset_s)

        value_function = _value(name, over_quota)
        assert value_function.zero_on_empty_queue
        values = value_function.edge_values(
            profile, sat_idx, gs_idx, bitrate, now, STEP_S
        )

        empty = profile.counts_of(sat_idx) == 0
        assert np.array_equal(
            empty, np.array([hours[i] == 0.0 for i in sat_idx.tolist()])
        )
        assert (values[empty] == 0.0).all(), values[empty]
        assert int(profile.counts_of(np.arange(len(hours))).max()) > 0


# -- (b) production vs the oracle with empty and loaded queues in view -----

def _mixed_fleet(n=40):
    """One satellite in three holds two hours of data; the rest are empty."""
    satellites = [Satellite(tle=t, chunk_size_gb=0.5)
                  for t in synthetic_leo_constellation(n, EPOCH, seed=21)]
    _stamp(satellites)
    for sat in satellites[::3]:
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return satellites


def _scheduler(satellites, network, value_function, **kwargs):
    return DownlinkScheduler(
        satellites, network, value_function,
        weather=QuantizedWeatherCache(RainCellField(seed=3)), **kwargs,
    )


def _attach_index(scheduler, satellites, network, table):
    scheduler.window_index = shared_window_index(
        satellites, network, start=EPOCH, num_steps=NUM_STEPS,
        step_s=STEP_S, geometry=scheduler._geometry, ephemeris=table,
        link_budget_for=scheduler._link_budget_for,
        pair_groups=scheduler._pair_groups,
    )


def _cache_state(scheduler):
    cache = scheduler.weather
    return dict(cache._cache), cache.hits, cache.misses


class TestMixedQueuesMatchOracle:
    @pytest.mark.parametrize("mode", ["plain", "outage", "bitmap", "plan"])
    @pytest.mark.parametrize("name", VALUE_NAMES)
    def test_graphs_and_weather_match_oracle(self, name, mode):
        satellites = _mixed_fleet()
        network = satnogs_like_network(30, seed=13)
        table = shared_ephemeris_table(satellites, EPOCH, NUM_STEPS, STEP_S)
        kwargs = dict(ephemeris=table)
        if mode == "outage":
            # Announced maintenance: every fourth station is down for
            # the first twenty minutes.
            kwargs["station_available"] = (
                lambda j, when: j % 4 != 1
                or when >= EPOCH + timedelta(minutes=20)
            )
        elif mode == "bitmap":
            # Every third station refuses the first five satellites.
            for station in list(network)[::3]:
                station.constraints = DownlinkConstraints.from_allowed_indices(
                    range(5, len(satellites)), len(satellites)
                )
        elif mode == "plan":
            kwargs["require_current_plan"] = True
            for sat in satellites[::2]:
                sat.receive_plan(EPOCH)

        def make():
            return _scheduler(satellites, network, _value(name), **kwargs)

        windowed = make()
        _attach_index(windowed, satellites, network, table)
        scanned = make()
        oracle = use_oracle(make())
        mixed_instants = starved_stations = total = 0
        for k in range(NUM_STEPS):
            when = EPOCH + timedelta(minutes=k)
            graph = oracle.contact_graph(when)
            assert_graphs_identical(windowed.contact_graph(when), graph)
            assert_graphs_identical(scanned.contact_graph(when), graph)
            total += graph.num_edges

            sat, gs, _, _ = oracle_visible_pairs(oracle, when)
            loaded = np.array([s.storage.backlog_bits > 0.0
                               for s in satellites])[sat]
            mixed_instants += bool(loaded.any() and not loaded.all())
            starved_stations += len(set(gs.tolist())
                                    - set(gs[loaded].tolist()))
            # Queues change between instants: an empty satellite starts
            # capturing, so stale queue rows would misprice it.
            if k % 5 == 4:
                satellites[k % len(satellites)].generate_data(when, 1800.0)

        assert total > 0
        # Most instants see both empty and loaded satellites, and some
        # station sees only empty ones (its weather is still sampled).
        assert mixed_instants > NUM_STEPS // 2
        assert starved_stations > 0
        # The scan path asks the provider once per feasible station per
        # instant, as the oracle does: same contents, hits and misses.
        assert _cache_state(scanned) == _cache_state(oracle)
        # The index path's per-station memo skips stations it already
        # sampled in the current bucket, so it asks the cache less often;
        # what the cache holds and every miss are the oracle's.
        contents, _hits, misses = _cache_state(windowed)
        oracle_contents, _oracle_hits, oracle_misses = _cache_state(oracle)
        assert contents == oracle_contents
        assert misses == oracle_misses

    def test_priced_pairs_counts_only_loaded_satellites(self):
        satellites = _mixed_fleet()
        network = satnogs_like_network(30, seed=13)
        table = shared_ephemeris_table(satellites, EPOCH, NUM_STEPS, STEP_S)
        recorder = Recorder()
        scheduler = _scheduler(satellites, network, LatencyValue(),
                               ephemeris=table, recorder=recorder)
        _attach_index(scheduler, satellites, network, table)
        loaded = np.array([s.storage.backlog_bits > 0.0 for s in satellites])
        visible = priced = 0
        for k in range(0, NUM_STEPS, 3):
            sat, _, _, _ = scheduler.visible_pairs(
                EPOCH + timedelta(minutes=k)
            )
            scheduler.contact_graph(EPOCH + timedelta(minutes=k))
            visible += sat.size
            priced += int(loaded[sat].sum())
        counts = recorder.counters_snapshot()
        assert counts["visible_pairs"] == visible
        assert 0 < counts["priced_pairs"] == priced < visible


# -- (c) undeclared value functions price empty queues: anticipation ------

class TestPlanBooksEmptyQueues:
    def test_build_plan_books_empty_queue_satellites(self):
        satellites = _mixed_fleet()
        network = satnogs_like_network(30, seed=13)
        table = shared_ephemeris_table(satellites, EPOCH, NUM_STEPS, STEP_S)
        production = _scheduler(satellites, network, LatencyValue(),
                                ephemeris=table)
        _attach_index(production, satellites, network, table)
        oracle = use_oracle(
            _scheduler(satellites, network, LatencyValue(), ephemeris=table)
        )
        plan = production.build_plan(EPOCH, NUM_STEPS * STEP_S)
        expected = oracle.build_plan(EPOCH, NUM_STEPS * STEP_S)
        assert plan.entries == expected.entries
        empty = {i for i, s in enumerate(satellites)
                 if s.storage.backlog_bits == 0.0}
        assert empty & set(plan.entries)
