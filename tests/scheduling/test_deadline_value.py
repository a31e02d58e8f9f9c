"""Tests for the tenant-priced DeadlineSlaValue.

Per-edge semantics first (weights, urgency pressure, quota discounting),
each price taken through ``edge_values`` and the per-edge reference in
``tests/oracle.py`` at once; then the contract the batched pipeline must
honor: production graphs and reports are bit-identical to the oracle's,
which prices every pair with the reference.
"""

from datetime import datetime, timedelta
from types import SimpleNamespace

import pytest

from repro.demand import DemandAssigner, DemandLayer, RequestGenerator, Tenant, tenant_mix
from repro.groundstations.network import satnogs_like_network
from repro.orbits.constellation import synthetic_leo_constellation
from repro.orbits.ephemeris import clear_ephemeris_cache
from repro.satellites.data import DataChunk
from repro.satellites.storage import OnboardStorage
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import DownlinkScheduler
from repro.scheduling.value_functions import DeadlineSlaValue
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import Simulation
from repro.weather.cells import RainCellField
from repro.weather.provider import QuantizedWeatherCache
from tests.oracle import price_one_edge, use_oracle

EPOCH = datetime(2020, 6, 1)

TENANTS = (
    Tenant("gold", tier=3, weight=4.0, sla_deadline_s=3600.0),
    Tenant("base", tier=1, weight=1.0, sla_deadline_s=86400.0),
)


def _satellite_with(chunks):
    storage = OnboardStorage()
    for chunk in chunks:
        storage.capture(chunk)
    return SimpleNamespace(storage=storage, satellite_id="sat-1")


def _chunk(tenant_id="", age_s=600.0, deadline_in_s=None, size_bits=4e9,
           chunk_id=0):
    capture = EPOCH - timedelta(seconds=age_s)
    deadline = None
    if deadline_in_s is not None:
        deadline = EPOCH + timedelta(seconds=deadline_in_s)
    return DataChunk(
        satellite_id="sat-1", size_bits=size_bits, capture_time=capture,
        chunk_id=chunk_id, tenant_id=tenant_id, deadline=deadline,
    )


class TestScalarSemantics:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlineSlaValue(urgency_horizon_s=0.0)
        with pytest.raises(ValueError):
            DeadlineSlaValue(over_quota_factor=0.0)

    def test_zero_bitrate_prices_zero(self):
        value = DeadlineSlaValue(tenants=TENANTS)
        sat = _satellite_with([_chunk("gold", deadline_in_s=7200.0)])
        assert price_one_edge(value, sat, "gs", 0.0, EPOCH, 60.0) == 0.0

    def test_tenant_weight_scales_price(self):
        value = DeadlineSlaValue(tenants=TENANTS)
        # Deadlines beyond the urgency horizon: pure age pricing, so the
        # ratio between the tenants is exactly the weight ratio.
        gold = _satellite_with([_chunk("gold", deadline_in_s=7200.0)])
        base = _satellite_with([_chunk("base", deadline_in_s=7200.0)])
        v_gold = price_one_edge(value, gold, "gs", 1e6, EPOCH, 60.0)
        v_base = price_one_edge(value, base, "gs", 1e6, EPOCH, 60.0)
        assert v_gold == pytest.approx(4.0 * v_base)

    def test_deadline_pressure_adds_urgency(self):
        value = DeadlineSlaValue(tenants=TENANTS)
        relaxed = _satellite_with([_chunk("base", deadline_in_s=86400.0)])
        due_now = _satellite_with([_chunk("base", deadline_in_s=0.0)])
        v_relaxed = price_one_edge(value, relaxed, "gs", 1e6, EPOCH, 60.0)
        v_due = price_one_edge(value, due_now, "gs", 1e6, EPOCH, 60.0)
        # Pressure at the deadline is exactly 1: one urgency_weight_s of
        # effective extra age, scaled by the sendable fraction.
        sendable_fraction = 1e6 * 60.0 / 4e9
        expected = value.urgency_weight_s * sendable_fraction
        assert v_due - v_relaxed == pytest.approx(expected)

    def test_pressure_clips_at_two_horizons(self):
        value = DeadlineSlaValue(tenants=TENANTS)
        overdue = _satellite_with(
            [_chunk("base", deadline_in_s=-value.urgency_horizon_s)]
        )
        ancient = _satellite_with(
            [_chunk("base", deadline_in_s=-10 * value.urgency_horizon_s)]
        )
        v_overdue = price_one_edge(value, overdue, "gs", 1e6, EPOCH, 60.0)
        v_ancient = price_one_edge(value, ancient, "gs", 1e6, EPOCH, 60.0)
        assert v_overdue == pytest.approx(v_ancient)

    def test_untenanted_chunk_prices_at_unit_weight(self):
        value = DeadlineSlaValue(tenants=TENANTS)
        plain = _satellite_with([_chunk("")])
        base = _satellite_with([_chunk("base", deadline_in_s=86400.0)])
        assert price_one_edge(value, plain, "gs", 1e6, EPOCH, 60.0) == \
            pytest.approx(price_one_edge(value, base, "gs", 1e6, EPOCH, 60.0))

    def test_over_quota_tenant_discounted(self):
        class _Ledger:
            def under_quota(self, tenant_id, now):
                return tenant_id != "gold"

        priced = DeadlineSlaValue(tenants=TENANTS, accountant=_Ledger())
        free = DeadlineSlaValue(tenants=TENANTS)
        sat = _satellite_with([_chunk("gold", deadline_in_s=7200.0)])
        discounted = price_one_edge(priced, sat, "gs", 1e6, EPOCH, 60.0)
        full = price_one_edge(free, sat, "gs", 1e6, EPOCH, 60.0)
        assert discounted == pytest.approx(priced.over_quota_factor * full)

    def test_all_new_data_fallback(self):
        value = DeadlineSlaValue(tenants=TENANTS)
        sat = _satellite_with([_chunk("base", age_s=0.0,
                                      deadline_in_s=86400.0)])
        priced = price_one_edge(value, sat, "gs", 1e6, EPOCH, 60.0)
        deliverable = 1e6 * 60.0
        assert priced == pytest.approx(
            value.min_age_factor * 60.0 * deliverable / 4e9
        )


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_ephemeris_cache()
    yield
    clear_ephemeris_cache()


MIX = tenant_mix("balanced")


def _stamped_fleet(n=10, seed=21):
    """A fleet with two hours of tenant-stamped backlog."""
    tles = synthetic_leo_constellation(n, EPOCH, seed=seed)
    sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
    assigner = DemandAssigner(RequestGenerator(MIX, seed=13),
                              requests_per_day=24)
    for sat in sats:
        sat.demand = assigner
        sat.generate_data(EPOCH - timedelta(hours=2), 7200.0)
    return sats


def _scheduler():
    return DownlinkScheduler(
        _stamped_fleet(),
        satnogs_like_network(24, seed=13),
        DeadlineSlaValue(tenants=MIX),
        weather=QuantizedWeatherCache(RainCellField(seed=3)),
    )


class TestBatchedEquivalence:
    """Vectorized deadline pricing vs the scalar oracle's per-edge calls."""

    def test_identical_weights_across_a_horizon(self):
        scalar = use_oracle(_scheduler())
        batched = _scheduler()
        total = 0
        for k in range(0, 180, 5):
            when = EPOCH + timedelta(minutes=k)
            graph_s = scalar.contact_graph(when)
            graph_b = batched.contact_graph(when)
            assert len(graph_s.edges) == len(graph_b.edges)
            for ea, eb in zip(graph_s.edges, graph_b.edges):
                assert ea.satellite_index == eb.satellite_index
                assert ea.station_index == eb.station_index
                assert ea.weight == eb.weight
                assert ea.bitrate_bps == eb.bitrate_bps
            total += len(graph_s.edges)
        assert total > 0

    def test_identical_simulation_reports(self):
        reports = {}
        for batched in (False, True):
            tles = synthetic_leo_constellation(8, EPOCH, seed=21)
            sats = [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]
            network = satnogs_like_network(20, seed=13)
            config = SimulationConfig(
                start=EPOCH, duration_s=3 * 3600.0, step_s=60.0,
            )
            demand = DemandLayer.build(
                tenants=MIX, requests_per_day=24, seed=13, start=EPOCH
            )
            sim = Simulation(
                satellites=sats, network=network,
                value_function=DeadlineSlaValue(
                    tenants=MIX, accountant=demand.accountant
                ),
                config=config,
                truth_weather=QuantizedWeatherCache(RainCellField(seed=3)),
                demand=demand,
            )
            if not batched:
                use_oracle(sim.scheduler)
            reports[batched] = sim.run()
        assert reports[False].to_json() == reports[True].to_json()
