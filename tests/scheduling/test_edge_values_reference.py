"""Every in-tree value function's ``edge_values`` equals its per-edge reference.

Production prices one instant's rows at once over a
:class:`FleetQueueProfile`; ``tests/oracle.py`` keeps the per-edge
scalar form of each value function (:func:`tests.oracle.edge_value`).
Hypothesis draws random send queues -- empty ones, all-new data (the
``min_age_factor`` fallback), partly sent chunks, deadlines that are
``None``, past or ahead, unknown tenants, regions missing from
``region_multipliers`` -- and random rows: bids present or left to the
default, zero and negative bitrates, composite weights, and
anticipated-value instants at and before the plan's issue instant.  Each
row's production price must equal the reference bit for bit.  That rests
on two identities the vectorized arithmetic keeps:
``(now_us - capture_us) / 1e6 == timedelta.total_seconds()`` and
``backlog_bits`` as Python's left-to-right ``sum`` in send order.
"""

from datetime import datetime, timedelta

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.demand import tenant_mix
from repro.orbits.constellation import synthetic_leo_constellation
from repro.satellites.data import DataChunk
from repro.satellites.satellite import Satellite
from repro.scheduling.scheduler import _AnticipatedGenerationValue
from repro.scheduling.value_functions import (
    AuctionValue,
    CompositeValue,
    DeadlineSlaValue,
    FleetQueueProfile,
    LatencyValue,
    PriorityValue,
    ThroughputValue,
)
from tests.oracle import edge_value

EPOCH = datetime(2020, 6, 1)
MIX = tenant_mix("balanced")
TENANT_IDS = tuple(t.tenant_id for t in MIX)
STATION_IDS = ("gs-a", "gs-b", "gs-c")
REGIONS = ("", "flood", "fire", "coast")
_TLES = synthetic_leo_constellation(4, EPOCH, seed=5)


class _Quota:
    """Quota-ledger stand-in: the listed tenants are over today's quota."""

    def __init__(self, over):
        self.over = frozenset(over)

    def under_quota(self, tenant_id, now):
        return tenant_id not in self.over


_offsets_us = st.one_of(
    st.sampled_from([0, 1, -1, 999_999, 60_000_000, -3_600_000_000]),
    st.integers(-5 * 86_400_000_000, 5 * 86_400_000_000),
)


@st.composite
def _chunk(draw, satellite_id: str):
    size = draw(st.sampled_from([1.0, 0.5, 8e3, 4e9, 1e12]))
    deadline = draw(st.one_of(st.none(), _offsets_us))
    chunk = DataChunk(
        satellite_id=satellite_id,
        size_bits=size,
        capture_time=EPOCH + timedelta(microseconds=draw(_offsets_us)),
        priority=draw(st.sampled_from([0.0, 1.0, 2.5, -1.0])),
        region=draw(st.sampled_from(REGIONS)),
        tenant_id=draw(st.sampled_from(TENANT_IDS + ("", "ghost"))),
        deadline=(None if deadline is None
                  else EPOCH + timedelta(microseconds=deadline)),
    )
    # Partly sent: the queue prices the remainder.
    chunk.remaining_bits = size * draw(st.sampled_from([1.0, 0.5, 1e-3]))
    return chunk


@st.composite
def _fleet(draw):
    satellites = []
    for k in range(draw(st.integers(1, len(_TLES)))):
        sat = Satellite(
            tle=_TLES[k],
            generation_gb_per_day=draw(st.sampled_from([0.0, 100.0, 7.5])),
            chunk_size_gb=draw(st.sampled_from([1.0, 0.25])),
        )
        # An empty queue, or a few chunks (all-new data when every
        # capture lands on the pricing instant).
        for chunk in draw(st.lists(_chunk(sat.satellite_id), max_size=5)):
            sat.storage.capture(chunk)
        satellites.append(sat)
    return satellites


_weights = st.sampled_from([1.0, 0.5, -2.0, 0.0, 3, 1e-9])


def _value_functions(satellite_ids):
    """Every in-tree value function, with drawn parameters."""
    latency = st.builds(LatencyValue, min_age_factor=st.sampled_from(
        [1.0, 0.5, 2.0]))
    deadline = st.builds(
        DeadlineSlaValue,
        tenants=st.sampled_from([(), MIX, MIX[:2]]),
        accountant=st.one_of(
            st.none(), st.frozensets(st.sampled_from(TENANT_IDS)).map(_Quota)
        ),
        urgency_weight_s=st.sampled_from([1800.0, 0.0, 60.0]),
        urgency_horizon_s=st.sampled_from([3600.0, 1.0, 86400.0]),
        over_quota_factor=st.sampled_from([0.25, 1.0]),
        min_age_factor=st.sampled_from([1.0, 0.5]),
    )
    throughput = st.just(ThroughputValue())
    priority = st.builds(
        PriorityValue,
        region_multipliers=st.dictionaries(
            st.sampled_from(REGIONS[1:]), st.sampled_from([4.0, 0.5, -1.0]),
            max_size=2,
        ),
        priority_weight=st.sampled_from([3600.0, 0.0, 1.5]),
    )
    auction = st.builds(
        AuctionValue,
        bids=st.dictionaries(
            st.tuples(st.sampled_from(satellite_ids + ("other",)),
                      st.sampled_from(STATION_IDS)),
            st.sampled_from([3.0, 0.0, -1.0, 2, 0.1]),
            max_size=6,
        ),
        default_bid=st.sampled_from([1.0, 2, 0.0, -0.5]),
    )
    leaf = st.one_of(latency, deadline, throughput, priority, auction)
    composite = st.lists(st.tuples(leaf, _weights), max_size=3).map(
        lambda parts: CompositeValue(tuple(parts))
    )
    return st.one_of(leaf, composite)


_bitrates = st.one_of(
    st.sampled_from([0.0, -0.0, -1e6, 5e-324, 1.0, 1e6, 1.5e8, 1e300]),
    st.floats(min_value=-1e9, max_value=1e12),
)


@st.composite
def _cases(draw):
    satellites = draw(_fleet())
    ids = tuple(sat.satellite_id for sat in satellites)
    value_function = draw(_value_functions(ids))
    now = EPOCH + timedelta(microseconds=draw(_offsets_us))
    if draw(st.booleans()):
        # The plan's anticipated generation, issued at or before ``now``
        # (or after it: the anticipated term is then 0).
        issued = now - timedelta(seconds=draw(st.sampled_from(
            [0.0, 60.0, 1e-6, 5400.0, -60.0])))
        value_function = _AnticipatedGenerationValue(value_function, issued)
    rows = draw(st.lists(
        st.tuples(st.integers(0, len(satellites) - 1),
                  st.integers(0, len(STATION_IDS) - 1), _bitrates),
        min_size=1, max_size=12,
    ))
    step_s = draw(st.sampled_from([60.0, 1.0, 0.5, 30]))
    return satellites, value_function, sorted(rows), now, step_s


class TestEdgeValuesEqualReference:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(case=_cases())
    def test_bit_for_bit(self, case):
        satellites, value_function, rows, now, step_s = case
        profile = FleetQueueProfile(satellites, STATION_IDS)
        profile.refresh(np.arange(len(satellites)))
        sat_idx = np.array([i for i, _, _ in rows], dtype=np.intp)
        gs_idx = np.array([j for _, j, _ in rows], dtype=np.intp)
        bitrate = np.array([b for _, _, b in rows], dtype=float)

        priced = value_function.edge_values(
            profile, sat_idx, gs_idx, bitrate, now, step_s
        )
        reference = np.array([
            edge_value(value_function, satellites[i], STATION_IDS[j], b,
                       now, step_s)
            for i, j, b in rows
        ], dtype=float)

        assert priced.dtype == np.float64
        assert priced.tobytes() == reference.tobytes(), (priced, reference)
