"""The contact-graph oracle: dense visibility and per-pair scalar pricing.

Production (:mod:`repro.scheduling.graph`) reads visible pairs from the
contact-window index or one culled scan step and prices them through the
batched link-budget kernel.  This module is the reference those paths
are checked against, and the only place the reference lives:

* :func:`dense_visibility` -- the full ``M x N`` elevation/range matrix,
  one elementwise pass, no prefilter;
* :func:`pair_visibility` -- the same arithmetic on candidate pairs only,
  written the plain way (whole-row gathers, ``np.linalg.norm``,
  ``np.einsum``), for checking the scan's reordered per-component form;
* :func:`scalar_edges` -- one :meth:`LinkBudget.evaluate` and one
  ``ValueFunction.edge_value`` call per visible pair, weather sampled per
  station.

:func:`use_oracle` swaps a scheduler's graph build and pair source for
these, so a whole simulation can run on the oracle and its report be
compared with production byte for byte.
"""

from __future__ import annotations

from datetime import datetime

import numpy as np

from repro.scheduling.graph import ContactEdge, ContactGraph, GeometryEngine


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
    gathers.  Pairs the sine-space prescreen drops read -90 deg.
    """
    rel = sat_ecef[sat_idx] - geometry._station_ecef[gs_idx]
    rng = np.linalg.norm(rel, axis=1)
    up_component = np.einsum("ij,ij->i", rel, zenith(geometry)[gs_idx])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.clip(up_component / rng, -1.0, 1.0)
    sin_mask = np.sin(np.radians(geometry._min_elevation))
    maybe = np.nonzero(ratio >= sin_mask[gs_idx] - 1e-9)[0]
    elevation = np.full(ratio.shape, -90.0)
    visible = np.zeros(ratio.shape, dtype=bool)
    if maybe.size:
        elev_maybe = np.degrees(np.arcsin(ratio[maybe]))
        elevation[maybe] = elev_maybe
        visible[maybe] = elev_maybe > geometry._min_elevation[gs_idx[maybe]]
    return elevation, rng, visible


def oracle_scan(geometry: GeometryEngine, positions: np.ndarray):
    """:meth:`GeometryEngine.scan_visible` rows via :func:`pair_visibility`."""
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
            weight = value_function.edge_value(
                sat, station.station_id, result.bitrate_bps, when, step_s
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
    return ContactGraph(when, edges=edges,
                        num_satellites=len(scheduler.satellites),
                        num_stations=len(network))


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
