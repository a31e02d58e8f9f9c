"""The contact-graph oracle: dense visibility and per-pair scalar pricing.

Production (:mod:`repro.scheduling.graph`) reads visible pairs from the
contact-window index or one culled scan step and prices them through the
batched link-budget kernel.  This module is the reference those paths
are checked against, and the only place the reference lives:

* :func:`dense_visibility` -- the full ``M x N`` elevation/range matrix,
  one elementwise pass, no prefilter;
* :func:`pair_visibility` -- the same arithmetic on candidate pairs only,
  written the plain way (whole-row gathers, ``np.linalg.norm``,
  ``np.einsum``), for checking the reordered per-component form of
  :func:`~repro.scheduling.graph.pair_geometry`, which the scan, the
  pricing tail and the pass records share;
* :func:`scalar_edges` -- one :meth:`LinkBudget.evaluate` and one
  per-edge price (:func:`edge_value`) per visible pair, weather sampled
  per station;
* :func:`edge_value` -- the per-edge scalar form of every in-tree value
  function (and a user's own ``edge_value``), for checking each
  vectorized ``edge_values`` bit for bit;
* :func:`reference_evaluate_batch` -- the batched link budget in two
  phases: geometry-only columns first (:func:`reference_statics`), then
  the weather-dependent terms from them, for checking the one in-step
  kernel (:meth:`LinkBudget.evaluate_batch`) bit for bit.

:func:`use_oracle` swaps a scheduler's graph build and pair source for
these, so a whole simulation can run on the oracle and its report be
compared with production byte for byte.
"""

from __future__ import annotations

import math
from datetime import datetime
from typing import NamedTuple

import numpy as np

from repro.linkbudget.budget import BatchLinkResult, LinkBudget
from repro.linkbudget.dvbs2 import ESN0_THRESHOLDS_DB, best_modcod_indices
from repro.linkbudget.itu import (
    _gas_zenith_db,
    cloud_specific_coefficient,
    rain_coefficients,
    rain_height_km_batch,
)
from repro.orbits.constants import BOLTZMANN_DBW, SPEED_OF_LIGHT_M_S
from repro.scheduling.graph import (
    ContactEdge,
    ContactGraph,
    EdgeColumns,
    GeometryEngine,
)
from repro.scheduling.scheduler import _AnticipatedGenerationValue
from repro.scheduling.value_functions import (
    AuctionValue,
    CompositeValue,
    DeadlineSlaValue,
    FleetQueueProfile,
    LatencyValue,
    PerEdgeValue,
    PriorityValue,
    ThroughputValue,
    _microseconds_since_ref,
)


def zenith(geometry: GeometryEngine) -> np.ndarray:
    """The stations' geodetic zenith unit vectors, ``(N, 3)``."""
    return np.ascontiguousarray(geometry._up_xyz.T)


def dense_visibility(
    geometry: GeometryEngine, sat_ecef: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(elevation_deg, range_km, visible)`` matrices, shape ``(M, N)``."""
    # rel[i, j] = satellite i relative to station j.
    rel = sat_ecef[:, None, :] - geometry._station_ecef[None, :, :]
    rng = np.linalg.norm(rel, axis=2)
    up_component = np.einsum("ijk,jk->ij", rel, zenith(geometry))
    with np.errstate(invalid="ignore", divide="ignore"):
        elevation = np.degrees(
            np.arcsin(np.clip(up_component / rng, -1.0, 1.0))
        )
    visible = elevation > geometry._min_elevation[None, :]
    return elevation, rng, visible


def pair_visibility(
    geometry: GeometryEngine,
    sat_ecef: np.ndarray,
    sat_idx: np.ndarray,
    gs_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-candidate ``(elevation_deg, range_km, visible)``.

    Subtract, norm, 3-term dot and arcsin per pair, on ``(R, 3)`` row
    gathers.
    """
    rel = sat_ecef[sat_idx] - geometry._station_ecef[gs_idx]
    rng = np.linalg.norm(rel, axis=1)
    up_component = np.einsum("ij,ij->i", rel, zenith(geometry)[gs_idx])
    with np.errstate(invalid="ignore", divide="ignore"):
        elevation = np.degrees(
            np.arcsin(np.clip(up_component / rng, -1.0, 1.0))
        )
    visible = elevation > geometry._min_elevation[gs_idx]
    return elevation, rng, visible


def oracle_scan(geometry: GeometryEngine, positions: np.ndarray):
    """The visible ``(row, station, elevation_deg, range_km)`` of a block.

    :meth:`GeometryEngine.scan_visible`'s ids, with the geometry
    :func:`~repro.scheduling.graph.pair_geometry` derives for them, via
    :func:`pair_visibility`.
    """
    sat_idx, gs_idx = geometry.grid.candidate_pairs(positions)
    elevation, rng, visible = pair_visibility(
        geometry, positions, sat_idx, gs_idx
    )
    sel = np.flatnonzero(visible)
    return sat_idx[sel], gs_idx[sel], elevation[sel], rng[sel]


def fleet_positions(scheduler, when: datetime) -> np.ndarray:
    """Fleet ECEF at ``when`` from the source production uses.

    The scheduler's ephemeris row when it has one, per-satellite
    propagation otherwise -- so a difference from production is a
    difference in visibility or pricing, never in orbit propagation.
    """
    sat_ecef = None
    if scheduler.ephemeris is not None:
        sat_ecef = scheduler.ephemeris.positions_ecef(when)
    if sat_ecef is None:
        sat_ecef = scheduler._geometry.satellite_ecef(
            scheduler.satellites, when
        )
    return np.asarray(sat_ecef, dtype=float)


def oracle_visible_pairs(scheduler, when: datetime):
    """The dense oracle's ``(sat, gs, elevation_deg, range_km)`` rows."""
    elevation, rng, visible = dense_visibility(
        scheduler._geometry, fleet_positions(scheduler, when)
    )
    sat, gs = np.nonzero(visible)
    return sat, gs, elevation[sat, gs], rng[sat, gs]


def scalar_edges(satellites, network, when, value_function, link_budget_for,
                 forecast, step_s, elevation, rng_km, visible, unavailable,
                 require_current_plan, plan_max_age_s,
                 weight_factor=None) -> list[ContactEdge]:
    """One scalar budget call per visible pair, row-major edge order."""
    edges: list[ContactEdge] = []
    weather_cache = {}
    for i, sat in enumerate(satellites):
        visible_stations = np.nonzero(visible[i])[0]
        if visible_stations.size == 0:
            continue
        has_plan = sat.has_current_plan(when, plan_max_age_s)
        for j in visible_stations.tolist():
            if j in unavailable:
                continue
            station = network[j]
            if not station.allows_satellite(i):
                continue
            if require_current_plan and not has_plan \
                    and not station.can_transmit:
                continue
            sample = weather_cache.get(j)
            if sample is None:
                sample = forecast(
                    station.latitude_deg, station.longitude_deg, when
                )
                weather_cache[j] = sample
            result = link_budget_for(sat, j).evaluate(
                range_km=float(rng_km[i, j]),
                elevation_deg=float(elevation[i, j]),
                station_latitude_deg=station.latitude_deg,
                rain_rate_mm_h=sample.rain_rate_mm_h,
                cloud_water_kg_m2=sample.cloud_water_kg_m2,
                station_altitude_km=station.altitude_km,
            )
            if not result.closes:
                continue
            weight = edge_value(
                value_function, sat, station.station_id,
                result.bitrate_bps, when, step_s,
            )
            if weight_factor is not None:
                weight *= weight_factor[j]
            if weight <= 0.0:
                continue
            edges.append(ContactEdge(
                satellite_index=i,
                station_index=j,
                weight=weight,
                bitrate_bps=result.bitrate_bps,
                elevation_deg=float(elevation[i, j]),
                range_km=float(rng_km[i, j]),
                required_esn0_db=result.modcod.esn0_db,
            ))
    return edges


def columns_from_edges(edges: list[ContactEdge]) -> EdgeColumns:
    """:class:`EdgeColumns` holding ``edges`` in order (bit-identical)."""
    count = len(edges)
    return EdgeColumns(
        np.fromiter((e.satellite_index for e in edges), np.intp, count),
        np.fromiter((e.station_index for e in edges), np.intp, count),
        np.fromiter((e.weight for e in edges), float, count),
        np.fromiter((e.bitrate_bps for e in edges), float, count),
        np.fromiter((e.elevation_deg for e in edges), float, count),
        np.fromiter((e.range_km for e in edges), float, count),
        np.fromiter((e.required_esn0_db for e in edges), float, count),
    )


# --------------------------------------------------------------------------
# Per-edge prices: one satellite, one station, one bitrate per call.  Each
# in-tree value function's vectorized ``edge_values`` must reproduce its
# reference here bit for bit.
# --------------------------------------------------------------------------

def prefix_age_value(storage, bits_budget: float, now: datetime) -> float:
    """Summed age (seconds, chunk-weighted) of the data a link could move.

    The paper's latency value on the subset x that fits in a step: over
    the send-queue prefix, (chunk age) x (fraction of the chunk that
    fits), chunk by chunk.
    """
    if bits_budget <= 0.0:
        return 0.0
    value = 0.0
    remaining_budget = bits_budget
    for chunk in storage.onboard_chunks:
        if remaining_budget <= 0.0:
            break
        sendable = min(chunk.remaining_bits, remaining_budget)
        age_s = max(0.0, (now - chunk.capture_time).total_seconds())
        value += age_s * (sendable / chunk.size_bits)
        remaining_budget -= sendable
    return value


def _all_new_fallback(value: float, storage, bitrate_bps: float,
                      step_s: float, min_age_factor: float) -> float:
    if value <= 0.0 and storage.backlog_bits > 0.0:
        # All-new data: value by deliverable volume at a one-step age.
        deliverable = min(bitrate_bps * step_s, storage.backlog_bits)
        chunk = storage.peek_sendable()
        size = chunk.size_bits if chunk is not None else deliverable
        value = min_age_factor * step_s * deliverable / max(size, 1.0)
    return value


def _latency(vf: LatencyValue, satellite, station_id, bitrate_bps, now,
             step_s) -> float:
    if bitrate_bps <= 0.0:
        return 0.0
    value = prefix_age_value(satellite.storage, bitrate_bps * step_s, now)
    return _all_new_fallback(value, satellite.storage, bitrate_bps, step_s,
                             vf.min_age_factor)


def _deadline(vf: DeadlineSlaValue, satellite, station_id, bitrate_bps,
              now, step_s) -> float:
    if bitrate_bps <= 0.0:
        return 0.0
    storage = satellite.storage
    weights = vf._slot_weights(now)
    slot = {tid: k + 1 for k, tid in enumerate(vf._order)}
    now_us = _microseconds_since_ref(now)
    left = bitrate_bps * step_s
    value = 0.0
    for chunk in storage.onboard_chunks:
        if left <= 0.0:
            break
        sendable = min(chunk.remaining_bits, left)
        ages = max(
            0.0,
            (now_us - _microseconds_since_ref(chunk.capture_time)) / 1e6,
        )
        if chunk.deadline is None:
            pressure = 0.0
        else:
            slack_s = (
                _microseconds_since_ref(chunk.deadline) - now_us
            ) / 1e6
            pressure = min(max(
                (vf.urgency_horizon_s - slack_s) / vf.urgency_horizon_s, 0.0
            ), 2.0)
        value = value + weights[slot.get(chunk.tenant_id, 0)] * (
            ages + vf.urgency_weight_s * pressure
        ) * (sendable / chunk.size_bits)
        left = left - sendable
    return _all_new_fallback(value, storage, bitrate_bps, step_s,
                             vf.min_age_factor)


def _throughput(vf: ThroughputValue, satellite, station_id, bitrate_bps,
                now, step_s) -> float:
    if bitrate_bps <= 0.0:
        return 0.0
    sendable = satellite.storage.backlog_bits
    if sendable <= 0.0:
        return 0.0
    return min(bitrate_bps * step_s, sendable)


def _priority(vf: PriorityValue, satellite, station_id, bitrate_bps, now,
              step_s) -> float:
    if bitrate_bps <= 0.0:
        return 0.0
    head = satellite.storage.peek_sendable()
    if head is None:
        return 0.0
    age_s = max(step_s, (now - head.capture_time).total_seconds())
    multiplier = vf.region_multipliers.get(head.region, 1.0)
    return multiplier * (age_s + vf.priority_weight * head.priority)


def _auction(vf: AuctionValue, satellite, station_id, bitrate_bps, now,
             step_s) -> float:
    if bitrate_bps <= 0.0 or satellite.storage.backlog_bits <= 0.0:
        return 0.0
    bid = vf.bids.get((satellite.satellite_id, station_id), vf.default_bid)
    deliverable = min(bitrate_bps * step_s, satellite.storage.backlog_bits)
    return bid * deliverable


def _composite(vf: CompositeValue, satellite, station_id, bitrate_bps, now,
               step_s) -> float:
    return sum(
        weight * edge_value(component, satellite, station_id, bitrate_bps,
                            now, step_s)
        for component, weight in vf.components
    )


def _anticipated(vf: _AnticipatedGenerationValue, satellite, station_id,
                 bitrate_bps, now, step_s) -> float:
    value = edge_value(vf.inner, satellite, station_id, bitrate_bps, now,
                       step_s)
    if value > 0.0 or bitrate_bps <= 0.0:
        return value
    elapsed_s = (now - vf.issued_at).total_seconds()
    if elapsed_s <= 0.0:
        return 0.0
    rate_bits_s = satellite.generation_gb_per_day * 8e9 / 86400.0
    anticipated_bits = rate_bits_s * elapsed_s
    if anticipated_bits <= 0.0:
        return 0.0
    deliverable = min(bitrate_bps * step_s, anticipated_bits)
    chunk_bits = satellite.chunk_size_gb * 8e9
    return vf.DISCOUNT * (elapsed_s / 2.0) * deliverable / chunk_bits


def _per_edge(vf: PerEdgeValue, satellite, station_id, bitrate_bps, now,
              step_s) -> float:
    return edge_value(vf.inner, satellite, station_id, bitrate_bps, now,
                      step_s)


_REFERENCES = {
    LatencyValue: _latency,
    DeadlineSlaValue: _deadline,
    ThroughputValue: _throughput,
    PriorityValue: _priority,
    AuctionValue: _auction,
    CompositeValue: _composite,
    _AnticipatedGenerationValue: _anticipated,
    PerEdgeValue: _per_edge,
}


def edge_value(value_function, satellite, station_id: str,
               bitrate_bps: float, now: datetime, step_s: float) -> float:
    """The per-edge price of ``value_function`` for one step.

    The scalar reference of an in-tree value function; a user's value
    function is asked through its own ``edge_value``.
    """
    reference = _REFERENCES.get(type(value_function))
    if reference is None:
        return value_function.edge_value(
            satellite, station_id, bitrate_bps, now, step_s
        )
    return reference(value_function, satellite, station_id, bitrate_bps,
                     now, step_s)


def price_one_edge(value_function, satellite, station_id: str,
                   bitrate_bps: float, now: datetime,
                   step_s: float) -> float:
    """One edge priced by production ``edge_values`` and by the reference.

    ``satellite`` needs only a ``storage`` (and a ``satellite_id`` for
    bids).  Asserts that the two prices agree bit for bit, and returns
    it.
    """
    profile = FleetQueueProfile([satellite], [station_id])
    profile.refresh(np.arange(1))
    priced = value_function.edge_values(
        profile, np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp),
        np.array([bitrate_bps], dtype=float), now, step_s,
    )
    reference = edge_value(value_function, satellite, station_id,
                           bitrate_bps, now, step_s)
    assert np.array([reference], dtype=float).tobytes() == priced.tobytes(), \
        (reference, priced)
    return float(priced[0])


def _forecast_fn(provider, issued_at: datetime | None):
    """Nowcast (``issued_at`` None) or forecast sampling, as scheduled."""
    def forecast(lat: float, lon: float, valid_at: datetime):
        if issued_at is not None and hasattr(provider, "forecast"):
            return provider.forecast(lat, lon, issued_at, valid_at)
        if hasattr(provider, "sample"):
            return provider.sample(lat, lon, valid_at)
        return provider.forecast(lat, lon, valid_at, valid_at)
    return forecast


def oracle_contact_graph(scheduler, when: datetime,
                         forecast_issued_at: datetime | None = None
                         ) -> ContactGraph:
    """``scheduler``'s contact graph at ``when``, built the reference way."""
    network = scheduler.network
    unavailable: set[int] = set()
    if scheduler.station_available is not None:
        unavailable = {
            j for j in range(len(network))
            if not scheduler.station_available(j, when)
        }
    weight_factor = None
    if scheduler.station_weight is not None:
        weight_factor = [
            float(scheduler.station_weight(j, when))
            for j in range(len(network))
        ]
        unavailable |= {j for j, f in enumerate(weight_factor) if f <= 0.0}
    elevation, rng, visible = dense_visibility(
        scheduler._geometry, fleet_positions(scheduler, when)
    )
    edges = scalar_edges(
        scheduler.satellites, network, when, scheduler.value_function,
        scheduler._link_budget_for,
        _forecast_fn(scheduler.weather, forecast_issued_at),
        scheduler.step_s, elevation, rng, visible, unavailable,
        scheduler.require_current_plan, scheduler.plan_max_age_s,
        weight_factor,
    )
    return ContactGraph(when, columns_from_edges(edges),
                        len(scheduler.satellites), len(network))


def use_oracle(scheduler):
    """Route ``scheduler``'s graphs and pair lists through the oracle.

    The window index is detached, so no instant is served from it and no
    idle tick is skipped: every step builds its graph densely and prices
    it pair by pair.  Returns the scheduler.
    """
    scheduler.window_index = None
    scheduler.contact_graph = (
        lambda when, forecast_issued_at=None:
        oracle_contact_graph(scheduler, when, forecast_issued_at)
    )
    scheduler.visible_pairs = (
        lambda when: oracle_visible_pairs(scheduler, when)
    )
    return scheduler


def report_dict(report) -> dict:
    """A report's JSON form without its wall-clock stage timings."""
    raw = report.to_dict()
    raw.pop("stage_timings", None)
    return raw


def assert_graphs_identical(graph_a, graph_b) -> None:
    """Bitwise edge-for-edge equality, order included."""
    assert graph_a.num_edges == graph_b.num_edges
    for edge_a, edge_b in zip(graph_a.edges, graph_b.edges):
        assert edge_a == edge_b


# --------------------------------------------------------------------------
# The batched link budget in two phases: per-row geometry columns, then
# the weather-dependent terms.  This is the arithmetic the window index
# once stored per (pair, step) row; the in-step kernel must reproduce it.
# --------------------------------------------------------------------------

class ReferenceStatics(NamedTuple):
    """Geometry-only kernel terms of a fixed set of rows."""

    fspl_db: np.ndarray
    gas_db: np.ndarray
    sin_el: np.ndarray
    rain_slant: np.ndarray
    rain_lg: np.ndarray
    rain_b: np.ndarray

    def take(self, idx: np.ndarray) -> "ReferenceStatics":
        return ReferenceStatics(*(column[idx] for column in self))


def reference_statics(
    budget: LinkBudget,
    range_km: np.ndarray,
    elevation_deg: np.ndarray,
    station_latitude_deg: np.ndarray | float,
    station_altitude_km: np.ndarray | float = 0.0,
) -> ReferenceStatics:
    """Path loss, gas, the clamped elevation sine and the rain geometry.

    Latitude and altitude broadcast against the 1-D rows.
    """
    range_km = np.asarray(range_km, dtype=float)
    elevation_deg = np.asarray(elevation_deg, dtype=float)
    rows = range_km.shape[0]
    freq = budget.radio.frequency_ghz
    distance_m = range_km * 1e3
    ratio = 4.0 * math.pi * distance_m * (freq * 1e9) / SPEED_OF_LIGHT_M_S
    fspl = 10.0 * np.log10(ratio * ratio)
    rad_el = np.radians(np.maximum(elevation_deg, 5.0))
    sin_el = np.sin(rad_el)
    gas = _gas_zenith_db(freq) / sin_el
    height = np.maximum(
        0.0,
        rain_height_km_batch(station_latitude_deg)
        - np.asarray(station_altitude_km, dtype=float),
    )
    height = np.broadcast_to(height, (rows,))
    slant = np.where(height > 0.0, height / sin_el, 0.0)
    lg = slant * np.cos(rad_el)
    rain_b = 0.38 * (1.0 - np.exp(-2.0 * lg))
    return ReferenceStatics(fspl, gas, sin_el, slant, lg, rain_b)


def reference_cloud_db(cloud_water_kg_m2, frequency_ghz: float,
                       sin_el: np.ndarray) -> np.ndarray:
    """Cloud attenuation from the stored sine, on the cloudy rows."""
    clw = np.asarray(cloud_water_kg_m2, dtype=float)
    if clw.shape != sin_el.shape:
        clw, sin_el = np.broadcast_arrays(clw, sin_el)
    wet = np.flatnonzero(clw > 0.0)
    out = np.zeros(clw.shape)
    kl = cloud_specific_coefficient(frequency_ghz, 273.15)
    out.ravel()[wet] = clw.ravel()[wet] * kl / sin_el.ravel()[wet]
    return out


def reference_rain_db(rain_rate_mm_h, frequency_ghz: float,
                      statics: ReferenceStatics,
                      polarization: str = "circular") -> np.ndarray:
    """Rain attenuation from the stored geometry, on the wet rows."""
    rain = np.asarray(rain_rate_mm_h, dtype=float)
    slant, lg, b_term = statics.rain_slant, statics.rain_lg, statics.rain_b
    if rain.shape != slant.shape:
        rain, slant, lg, b_term = np.broadcast_arrays(rain, slant, lg, b_term)
    wet = np.flatnonzero(rain > 0.0)
    out = np.zeros(rain.shape)
    if wet.size == 0:
        return out
    rain_w = rain.ravel()[wet]
    lg_w = lg.ravel()[wet]
    k, alpha = rain_coefficients(frequency_ghz, polarization)
    gamma = k * rain_w**alpha
    r = 1.0 / (
        1.0
        + 0.78 * np.sqrt(lg_w * gamma / frequency_ghz)
        - b_term.ravel()[wet]
    )
    reduction = np.where(lg_w <= 0.0, 1.0, np.clip(r, 0.05, 2.5))
    out.ravel()[wet] = gamma * slant.ravel()[wet] * reduction
    return out


def reference_evaluate_batch(
    budget: LinkBudget,
    range_km: np.ndarray,
    elevation_deg: np.ndarray,
    station_latitude_deg: np.ndarray | float = 45.0,
    rain_rate_mm_h: np.ndarray | float = 0.0,
    cloud_water_kg_m2: np.ndarray | float = 0.0,
    station_altitude_km: np.ndarray | float = 0.0,
    statics: ReferenceStatics | None = None,
) -> BatchLinkResult:
    """:meth:`LinkBudget.evaluate_batch` from precomputed geometry columns.

    ``statics`` defaults to :func:`reference_statics` of the same rows.
    """
    elevation_deg = np.asarray(elevation_deg, dtype=float)
    if statics is None:
        statics = reference_statics(
            budget, range_km, elevation_deg, station_latitude_deg,
            station_altitude_km,
        )
    freq = budget.radio.frequency_ghz
    fspl = statics.fspl_db
    gas = statics.gas_db
    cloud = reference_cloud_db(cloud_water_kg_m2, freq, statics.sin_el)
    rain = reference_rain_db(rain_rate_mm_h, freq, statics,
                             budget.radio.polarization)
    channels = min(budget.radio.channels, budget.receiver.channels)
    cn0_dbhz = budget.radio.eirp_dbw_per_channel(channels) \
        + budget.receiver.g_over_t_db(freq)
    cn0_dbhz = cn0_dbhz - fspl
    cn0_dbhz = cn0_dbhz - rain
    cn0_dbhz = cn0_dbhz - cloud
    cn0_dbhz = cn0_dbhz - gas
    cn0_dbhz = cn0_dbhz - budget.receiver.antenna.pointing_loss_db
    cn0_dbhz = cn0_dbhz - budget.receiver.implementation_loss_db
    cn0_dbhz = cn0_dbhz - budget.hardware_calibration_db
    cn0_dbhz = cn0_dbhz - BOLTZMANN_DBW
    esn0 = cn0_dbhz - 10.0 * math.log10(budget.radio.symbol_rate_baud)
    index = best_modcod_indices(esn0, budget.acm_margin_db)
    index = np.where(elevation_deg <= 0.0, -1, index)
    open_link = index < 0
    safe = np.where(open_link, 0, index)
    bitrate = np.where(open_link, 0.0, budget._bitrate_table_bps()[safe])
    required = np.where(open_link, -100.0, ESN0_THRESHOLDS_DB[safe])
    return BatchLinkResult(
        esn0_db=esn0,
        modcod_index=index,
        bitrate_bps=bitrate,
        required_esn0_db=required,
        fspl_db=fspl,
        rain_db=rain,
        cloud_db=cloud,
        gas_db=gas,
    )
