"""Time-instant contact graph construction (paper Sec. 3.1, steps 1-2).

At each scheduling instant we need the weighted bipartite graph between
satellites and ground stations: an edge exists when the satellite is above
the station's elevation mask and the station's constraint bitmap allows it;
the edge weight is the value function applied to the link-model bitrate.

:func:`build_contact_graph` has one path, in two stages:

1. The **pair source** (:func:`pair_source`) returns the visible
   ``(satellite, station)`` ids, row-major by (satellite, station), and
   the fleet positions they were found from.  On the step grid of a
   :class:`~repro.scheduling.windows.ContactWindowIndex` the ids are two
   pointer reads into the precomputed pass structure; any other instant
   runs one step of the same scan the index build runs per chunk
   (:meth:`GeometryEngine.scan_visible`: the regional-coverage prefilter,
   then the exact elevation-mask test on the candidates).
2. The **mask-and-price tail** (:func:`_mask_and_price`) drops pairs the
   scheduler may not use (announced outages, constraint bitmaps, plan
   gating), derives the elevation and range of the rows it prices
   (:func:`pair_geometry`, the scan's own arithmetic) and prices them
   through the batched link-budget kernel
   (:meth:`LinkBudget.evaluate_batch`) and the value function's
   ``edge_values``.

The graph is :class:`EdgeColumns` arrays from end to end; a per-edge
:class:`ContactEdge` exists only when a caller reads
:attr:`ContactGraph.edges`.  The scalar per-pair reference path (one
link-budget and one per-edge value call per pair) and the dense
``M x N`` visibility matrix live on only as the test oracle
(``tests/oracle.py``).
"""

from __future__ import annotations

import math
import time
from datetime import datetime
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from repro.groundstations.network import GroundStationNetwork
from repro.linkbudget.budget import LinkBudget
from repro.linkbudget.itu import rain_height_above_station_km
from repro.orbits.frames import geodetic_to_ecef
from repro.orbits.timebase import datetime_to_jd, gmst_rad
from repro.satellites.satellite import Satellite
from repro.scheduling.culling import StationGrid, _take
from repro.scheduling.value_functions import (
    FleetQueueProfile,
    ValueFunction,
    _run_starts,
)
from repro.weather.cells import WeatherSample

if TYPE_CHECKING:
    from repro.orbits.ephemeris import EphemerisTable

#: Forecast oracle: (lat, lon, valid_at) -> WeatherSample, already bound to
#: an issue time by the caller.
ForecastFn = Callable[[float, float, datetime], WeatherSample]

#: Visible pairs at one instant: ``(satellite, station)`` id arrays,
#: row-major by (satellite, station), and the fleet's ``(M, 3)`` ECEF
#: positions they were found from (what :func:`pair_geometry` reads).
Pairs = tuple[np.ndarray, np.ndarray, np.ndarray]


class ContactEdge(NamedTuple):
    """One feasible satellite-station link at one instant.

    A NamedTuple rather than a dataclass: tens of thousands of edges are
    constructed per scheduling instant at mega-constellation scale, and
    tuple construction is ~3x cheaper than frozen-dataclass ``__init__``.
    """

    satellite_index: int
    station_index: int
    weight: float
    bitrate_bps: float
    elevation_deg: float
    range_km: float
    #: Ideal Es/N0 threshold (dB) of the MODCOD the plan commits to; the
    #: transmission decodes iff the truth-weather Es/N0 clears this.
    required_esn0_db: float = -100.0


class EdgeColumns(NamedTuple):
    """Column-array form of a graph's edges, in edge order.

    The contact graph's one representation: seven parallel arrays, one
    entry per edge, with the fields of :class:`ContactEdge`.  The
    pricing tail produces it and the matchers consume it, so no per-edge
    Python object exists unless something asks for ``.edges``.
    """

    satellite_index: np.ndarray  # intp
    station_index: np.ndarray  # intp
    weight: np.ndarray
    bitrate_bps: np.ndarray
    elevation_deg: np.ndarray
    range_km: np.ndarray
    required_esn0_db: np.ndarray

    def edge_at(self, position: int) -> ContactEdge:
        """Edge ``position`` as a :class:`ContactEdge` (bit-identical fields)."""
        return ContactEdge._make(col[position].item() for col in self)

    def to_edges(self) -> list[ContactEdge]:
        """Materialize :class:`ContactEdge` objects (bit-identical fields)."""
        return list(map(ContactEdge._make, zip(*(col.tolist() for col in self))))


class ContactGraph:
    """The bipartite graph for one instant: its :class:`EdgeColumns`.

    The columns are the only thing stored.  :attr:`edges` is a read-only
    row view built from them on each access, for callers that walk edges
    one by one; the matchers and ``diversity_groups`` read the columns.
    """

    __slots__ = ("when", "num_satellites", "num_stations", "_columns")

    def __init__(self, when: datetime, columns: EdgeColumns,
                 num_satellites: int = 0, num_stations: int = 0):
        self.when = when
        self.num_satellites = num_satellites
        self.num_stations = num_stations
        self._columns = columns

    @classmethod
    def empty(cls, when: datetime, num_satellites: int,
              num_stations: int) -> "ContactGraph":
        """The edgeless graph (an instant with no pair in a pass)."""
        return cls(when, _empty_columns(), num_satellites, num_stations)

    @property
    def edges(self) -> list[ContactEdge]:
        """The edges as :class:`ContactEdge` rows, in edge order."""
        return self._columns.to_edges()

    @property
    def num_edges(self) -> int:
        """Edge count without materializing edge objects."""
        return int(self._columns.satellite_index.size)

    def columns(self) -> EdgeColumns:
        """The column arrays of the edges."""
        return self._columns

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse form: ``(sat_idx, gs_idx, weights)`` candidate-pair arrays.

        The scale-friendly counterpart of :meth:`weight_matrix` -- O(E)
        instead of O(M x N) -- in the graph's edge order (row-major by
        (satellite, station), matching the dense matrix flattening).
        """
        cols = self.columns()
        return cols.satellite_index, cols.station_index, cols.weight

    def weight_matrix(self) -> np.ndarray:
        """Dense M x N weight matrix (0 where no edge).

        Kept for small-population analysis; at mega-constellation scale
        use :meth:`edge_arrays`, which does not materialize M x N.
        """
        mat = np.zeros((self.num_satellites, self.num_stations))
        if self.num_edges == 0:
            return mat
        sat_idx, gs_idx, weights = self.edge_arrays()
        mat[sat_idx, gs_idx] = weights
        return mat


class GeometryEngine:
    """Precomputed station geometry and the visible-pair scan."""

    def __init__(self, network: GroundStationNetwork):
        self.network = network
        positions = []
        ups = []
        for st in network:
            positions.append(
                geodetic_to_ecef(st.latitude_deg, st.longitude_deg, st.altitude_km)
            )
            lat = math.radians(st.latitude_deg)
            lon = math.radians(st.longitude_deg)
            ups.append(
                [
                    math.cos(lat) * math.cos(lon),
                    math.cos(lat) * math.sin(lon),
                    math.sin(lat),
                ]
            )
        self._station_ecef = np.array(positions).reshape(-1, 3)  # (N, 3)
        # Component-major ``(3, N)`` station positions and geodetic zenith
        # unit vectors: the scan gathers one contiguous component at a
        # time.
        self._station_xyz = np.ascontiguousarray(self._station_ecef.T)
        self._up_xyz = np.ascontiguousarray(np.reshape(ups, (-1, 3)).T)
        self._min_elevation = np.array([st.min_elevation_deg for st in network])
        # The rain height above each station, the only station term of
        # the batched budget kernel.
        self._station_rain_height_km = rain_height_above_station_km(
            np.array([st.latitude_deg for st in network], dtype=float),
            np.array([st.altitude_km for st in network], dtype=float),
        )
        self._can_transmit = np.array(
            [st.can_transmit for st in network], dtype=bool
        )
        #: Coarse-cell candidate prefilter (the regional-coverage bound,
        #: arXiv 1910.10704): the scan's first stage.
        self.grid = StationGrid(network)

    def satellite_ecef(self, satellites: list[Satellite],
                       when: datetime) -> np.ndarray:
        """Fleet ECEF positions ``(M, 3)`` by per-satellite propagation."""
        jd = datetime_to_jd(when)
        theta = gmst_rad(jd)
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        rot = np.array(
            [[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]]
        )
        sat_ecef = np.empty((len(satellites), 3))
        for i, sat in enumerate(satellites):
            pos_teme, _ = sat.position_teme(when)
            sat_ecef[i] = rot @ pos_teme
        return sat_ecef

    def scan_visible(
        self, positions: np.ndarray, recorder=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Visible ``(row, station)`` ids of a block.

        The one visibility scan: the grid's candidate pairs (a
        conservative superset of the visible ones), then the exact
        elevation-mask test on the candidates only, in row-major
        (row, station) order.  ``positions`` is ``(R, 3)`` ECEF km: one
        fleet for an instant off the window index's grid, or several
        steps' fleets stacked step-major when the index build scans a
        chunk.  The ids are all it keeps: :func:`pair_geometry` on them
        gives back the elevations and ranges the test read, bit for bit.
        ``recorder`` receives the candidate counters.
        """
        cand_sat, cand_gs = self.grid.candidate_pairs(positions)
        if recorder is not None and recorder.enabled:
            recorder.counter("candidate_pairs", int(cand_sat.size))
            recorder.counter(
                "culled_pairs",
                len(positions) * self.grid.num_stations - int(cand_sat.size),
            )
        elevation = pair_geometry(self, positions, cand_sat, cand_gs)[0]
        above = np.flatnonzero(
            elevation > _take(self._min_elevation, cand_gs)
        )
        return _take(cand_sat, above), _take(cand_gs, above)


def pair_geometry(
    geometry: GeometryEngine,
    positions: np.ndarray,
    sat_idx: np.ndarray,
    gs_idx: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(elevation_deg, range_km)`` of each (row, station) pair.

    ``positions`` is ``(R, 3)`` ECEF km and ``sat_idx`` indexes its rows.
    Per pair: subtract, range, 3-term dot with the station zenith and
    arcsin -- element for element the arithmetic of a dense ``M x N``
    elevation matrix (``tests/oracle.py``), restricted to the given
    pairs.  Every step is elementwise, so the pairs' values do not depend
    on which other pairs are computed with them: the scan's mask test,
    the pricing tail (on the priced rows only) and the pass records read
    the same bits for the same pair.  The work is laid out for cost, not
    the arithmetic: each coordinate is gathered from a contiguous
    component array, and the sums are written out in the order the
    dense matrix adds them -- the squared range as ``(x*x + y*y) + z*z``
    (``np.linalg.norm``), the zenith component as ``(x*ux + z*uz) +
    y*uy`` (``np.einsum``'s paired SIMD lanes).
    """
    # Promote before any in-place arithmetic: a float32 positions array
    # would otherwise round each difference to float32.
    columns = np.ascontiguousarray(np.asarray(positions, dtype=float).T)
    x, y, z = (_take(columns[c], sat_idx) for c in range(3))
    x -= _take(geometry._station_xyz[0], gs_idx)
    y -= _take(geometry._station_xyz[1], gs_idx)
    z -= _take(geometry._station_xyz[2], gs_idx)
    rng = x * x
    rng += y * y
    rng += z * z
    np.sqrt(rng, out=rng)
    ratio = x
    ratio *= _take(geometry._up_xyz[0], gs_idx)
    z *= _take(geometry._up_xyz[2], gs_idx)
    ratio += z
    del z
    y *= _take(geometry._up_xyz[1], gs_idx)
    ratio += y
    del y
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio /= rng
    # np.clip's bounds, as two ufuncs (the same values, less overhead).
    np.maximum(ratio, -1.0, out=ratio)
    np.minimum(ratio, 1.0, out=ratio)
    elevation = np.degrees(np.arcsin(ratio, out=ratio), out=ratio)
    return elevation, rng


def pair_source(
    satellites: list[Satellite],
    when: datetime,
    geometry: GeometryEngine,
    ephemeris: "EphemerisTable | None" = None,
    window_index=None,
    recorder=None,
) -> Pairs:
    """The visible pairs at ``when``, and the fleet positions behind them.

    The fleet is the ``ephemeris`` row at ``when`` (per-satellite
    propagation when the row is missing), the row the window index was
    scanned from.  On the step grid of ``window_index`` (a
    :class:`~repro.scheduling.windows.ContactWindowIndex`) the pair ids
    are zero-copy slices of its CSR arrays.  Off that grid -- plan-horizon
    look-ahead past the last step, a fleet whose batch propagation
    failed, callers without an index -- one :meth:`GeometryEngine.
    scan_visible` step runs on the fleet, the same scan and arithmetic
    that built the index.  Both branches return identical ids, and
    :func:`pair_geometry` identical elevations and ranges, for the same
    instant.
    """
    record = recorder is not None and recorder.enabled
    k = window_index.step_of(when) if window_index is not None else None
    sat_ecef = None
    if ephemeris is not None:
        sat_ecef = ephemeris.positions_ecef(when)
    # The row counters describe what an off-grid scan ran on; an index
    # hit is counted as one.
    if record and k is None:
        recorder.counter(
            "ephemeris_row_hits" if sat_ecef is not None
            else "ephemeris_row_misses"
        )
    if sat_ecef is None:
        sat_ecef = geometry.satellite_ecef(satellites, when)
    if k is not None:
        pair_sat, pair_gs = window_index.pairs_at(k)
        if record:
            recorder.counter("window_index_hits")
    else:
        pair_sat, pair_gs = geometry.scan_visible(sat_ecef, recorder)
    if record:
        recorder.counter("visible_pairs", int(pair_sat.size))
    return pair_sat, pair_gs, sat_ecef


def build_contact_graph(
    satellites: list[Satellite],
    network: GroundStationNetwork,
    when: datetime,
    value_function: ValueFunction,
    link_budget_for: Callable[[Satellite, int], LinkBudget],
    forecast: ForecastFn,
    step_s: float,
    geometry: GeometryEngine | None = None,
    require_current_plan: bool = False,
    plan_max_age_s: float = float("inf"),
    station_available: Callable[[int, datetime], bool] | None = None,
    station_weight: Callable[[int, datetime], float] | None = None,
    ephemeris: "EphemerisTable | None" = None,
    pair_groups: PairGroupCache | None = None,
    queue_profile: FleetQueueProfile | None = None,
    recorder=None,
    window_index=None,
    weather_memo=None,
) -> ContactGraph:
    """Construct the weighted bipartite graph at ``when``.

    ``value_function`` prices the closing pairs through its
    ``edge_values``, against ``queue_profile`` (a
    :class:`~repro.scheduling.value_functions.FleetQueueProfile` of
    ``satellites`` and the network's station ids; one is made when none
    is passed).  A scalar value function goes in wrapped in
    :class:`~repro.scheduling.value_functions.PerEdgeValue`.
    ``link_budget_for(sat, station_index)`` returns the budget calculator
    binding that pair (callers usually cache these).  When
    ``require_current_plan`` is set, satellites without a sufficiently
    fresh uplinked plan contribute no edges to receive-only stations --
    they do not know where to point -- but still get edges to
    transmit-capable stations, which can retask them in real time.
    ``station_available(station_index, when)`` lets callers exclude
    stations the scheduler knows to be down (announced maintenance).
    ``station_weight(station_index, when)`` is the graded variant used by
    the fault layer: every edge weight to the station is multiplied by
    the returned factor (a partial outage down-weights the station, an
    availability prior keeps a gamble edge to a dark one), and a factor
    <= 0 prunes the station entirely.

    ``ephemeris`` and ``window_index`` feed the :func:`pair_source`.
    ``weather_memo`` (a ``_StationWeatherMemo``) reuses per-station
    samples within one provider quantization bucket; it is
    value-neutral.  ``recorder`` (a :class:`repro.obs.Recorder`)
    receives visible-pair, priced-pair, candidate-pair and ephemeris-row
    counters; it never influences the constructed graph.
    """
    if geometry is None:
        geometry = GeometryEngine(network)
    unavailable: set[int] = set()
    if station_available is not None:
        unavailable = {
            j for j in range(len(network)) if not station_available(j, when)
        }
    weight_factor: list[float] | None = None
    if station_weight is not None:
        weight_factor = [
            float(station_weight(j, when)) for j in range(len(network))
        ]
        unavailable |= {
            j for j, f in enumerate(weight_factor) if f <= 0.0
        }
    if queue_profile is None:
        queue_profile = FleetQueueProfile(
            satellites, [station.station_id for station in network]
        )
    pairs = pair_source(
        satellites, when, geometry, ephemeris, window_index, recorder
    )
    columns = _mask_and_price(
        satellites, network, when, value_function, link_budget_for,
        forecast, step_s, geometry, pairs, unavailable,
        require_current_plan, plan_max_age_s, weight_factor, pair_groups,
        queue_profile, weather_memo, recorder,
    )
    return ContactGraph(when, columns, len(satellites), len(network))


def _empty_columns() -> EdgeColumns:
    empty_f = np.empty(0)
    return EdgeColumns(
        np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
        empty_f, empty_f.copy(), empty_f.copy(), empty_f.copy(),
        empty_f.copy(),
    )


def _budget_group_key(budget: LinkBudget) -> tuple:
    """Pairs sharing this key evaluate identically and can batch together."""
    return (
        budget.radio,
        budget.receiver,
        budget.acm_margin_db,
        budget.hardware_calibration_db,
        budget.pilots,
    )


#: Interned hardware-class ids: hashing the full (radio, receiver, ...)
#: tuple per pair per step is measurable, so each LinkBudget caches its
#: small-int class id after the first lookup.  The registry stays tiny --
#: one entry per distinct hardware class ever seen.
_GROUP_IDS: dict[tuple, int] = {}


def _budget_group_id(budget: LinkBudget) -> int:
    gid = budget.__dict__.get("_group_id")
    if gid is None:
        key = _budget_group_key(budget)
        gid = _GROUP_IDS.setdefault(key, len(_GROUP_IDS))
        budget.__dict__["_group_id"] = gid
    return gid


class PairGroupCache:
    """Lazily-filled (satellite, station) -> hardware-class-id matrix.

    Budget assignment is time-invariant, so after the first step touching
    a pair the pricing tail resolves its hardware class with one fancy
    index instead of a ``link_budget_for`` call per pair per step.
    """

    def __init__(self, num_satellites: int, num_stations: int):
        self.gid = np.full((num_satellites, num_stations), -1, dtype=np.int32)
        #: One representative (value-identical) budget per class id.
        self.budget_of: dict[int, LinkBudget] = {}


def _mask_and_price(
    satellites: list[Satellite],
    network: GroundStationNetwork,
    when: datetime,
    value_function: ValueFunction,
    link_budget_for: Callable[[Satellite, int], LinkBudget],
    forecast: ForecastFn,
    step_s: float,
    geometry: GeometryEngine,
    pairs: Pairs,
    unavailable: set[int],
    require_current_plan: bool,
    plan_max_age_s: float,
    weight_factor: list[float] | None,
    pair_groups: PairGroupCache | None,
    queue_profile: FleetQueueProfile,
    weather_memo,
    recorder,
) -> EdgeColumns:
    """The tail: feasibility masks on the visible pairs, then pricing.

    The visible pairs arrive row-major by (satellite, station) and the
    masks only remove entries, so the survivors reach
    :func:`_price_pairs` in that order (matchers tie-break on it).  In
    the common unmasked case the pair arrays flow through without a copy.
    """
    pair_sat, pair_gs, _positions = pairs
    num_sats = len(satellites)
    n = int(pair_sat.size)
    keep: np.ndarray | None = None  # None == every visible pair survives
    if unavailable:
        down = np.zeros(len(network), dtype=bool)
        down[sorted(unavailable)] = True
        keep = ~down[pair_gs]
    for j, station in enumerate(network):
        if station.constraints.bitmap == -1:
            continue
        base = keep if keep is not None else np.ones(n, dtype=bool)
        at_station = base & (pair_gs == j)
        if not at_station.any():
            continue
        allowed = np.fromiter(
            (station.allows_satellite(i) for i in range(num_sats)),
            bool, num_sats,
        )
        keep = base & (allowed[pair_sat] | ~at_station)
    if require_current_plan:
        has_plan = np.fromiter(
            (s.has_current_plan(when, plan_max_age_s) for s in satellites),
            bool, num_sats,
        )
        mask = has_plan[pair_sat] | geometry._can_transmit[pair_gs]
        keep = mask if keep is None else keep & mask
    if keep is not None and bool(keep.all()):
        keep = None
    return _price_pairs(
        satellites, network, when, value_function, link_budget_for,
        forecast, step_s, geometry, pairs,
        None if keep is None else np.flatnonzero(keep),
        weight_factor, pair_groups, queue_profile, weather_memo, recorder,
    )


def _price_pairs(
    satellites: list[Satellite],
    network: GroundStationNetwork,
    when: datetime,
    value_function: ValueFunction,
    link_budget_for: Callable[[Satellite, int], LinkBudget],
    forecast: ForecastFn,
    step_s: float,
    geometry: GeometryEngine,
    pairs: Pairs,
    rows: np.ndarray | None,
    weight_factor: list[float] | None,
    pair_groups: PairGroupCache | None,
    queue_profile: FleetQueueProfile,
    weather_memo,
    recorder,
) -> EdgeColumns:
    """Price the feasible pairs: the kernel, then ``edge_values``.

    The pricing half of :func:`_mask_and_price`: ``rows`` indexes the
    feasible entries of ``pairs`` (``None`` when every pair is feasible).
    One path, in order: weather for every feasible station; the queue
    profile refreshed for the satellites in view; the demand-first drop;
    geometry (:func:`pair_geometry` on the fleet positions ``pairs``
    carries) and the batched kernel (:meth:`LinkBudget.evaluate_batch`)
    on the rows left; ``value_function.edge_values`` on the rows whose
    link closes; the station weight factor; and the rows weighing more
    than 0, as :class:`EdgeColumns` in row order.

    The demand-first drop removes the pairs whose satellite has nothing
    queued, before any geometry, per-pair gather or kernel call, when
    the value function declares ``zero_on_empty_queue``: it prices them
    at exactly 0.0 and zero-weight edges are never kept, so the graph is
    unchanged.  A value function that does not declare it (the plan's
    anticipated-generation value, a scalar one through ``PerEdgeValue``)
    has every feasible pair priced.

    ``weather_memo`` substitutes a per-station sample memo for the
    involved-station oracle loop; it issues the identical first call per
    provider quantization bucket, so the returned values (and the
    provider's cache contents) are bit-identical to the loop's.  With
    ``recorder`` enabled the weather block is timed as one
    ``weather_sampling`` interval per build and its provider calls are
    counted as ``weather_samples``.
    """
    pair_sat, pair_gs, positions = pairs
    sat_idx = pair_sat if rows is None else pair_sat[rows]
    gs_idx = pair_gs if rows is None else pair_gs[rows]
    if sat_idx.size == 0:
        return _empty_columns()
    num_sats, num_stations = len(satellites), len(network)

    # Weather once per involved station, over every feasible pair: a
    # QuantizedWeatherCache keeps the first instant it sees per bucket,
    # so skipping a station here would change what it later returns.
    # Involved stations via a bincount-style flag pass: gs_idx is bounded
    # by the (small) station count, so this avoids sorting the pair list.
    # An identically-clear provider skips the oracle loop: every sample
    # would be exactly zero.  An observed build times the whole block once
    # and counts its provider calls; the calls themselves are the same.
    timed = recorder is not None and recorder.enabled
    if timed:
        started = time.perf_counter()
    if getattr(forecast, "always_clear", False):
        rain = np.zeros(num_stations)
        cloud = np.zeros(num_stations)
        samples = 0
    elif weather_memo is not None:
        rain, cloud, samples = weather_memo.station_weather(gs_idx, when)
    else:
        rain = np.zeros(num_stations)
        cloud = np.zeros(num_stations)
        involved = np.zeros(num_stations, dtype=bool)
        involved[gs_idx] = True
        stations = np.flatnonzero(involved).tolist()
        for j in stations:
            station = network[j]
            sample = forecast(
                station.latitude_deg, station.longitude_deg, when
            )
            rain[j] = sample.rain_rate_mm_h
            cloud[j] = sample.cloud_water_kg_m2
        samples = len(stations)
    if timed:
        recorder.add_time("weather_sampling", time.perf_counter() - started)
        if samples:
            recorder.counter("weather_samples", samples)

    # Demand first: under a value function that prices an empty queue at
    # 0.0, only a satellite with queued data can carry an edge.  Counts
    # are read after the refresh (a row is only as fresh as the storage
    # version it last saw).
    queue_profile.refresh(_run_starts(sat_idx))
    if value_function.zero_on_empty_queue:
        loaded = np.flatnonzero(queue_profile.counts_of(sat_idx))
        if loaded.size < sat_idx.size:
            sat_idx = sat_idx[loaded]
            gs_idx = gs_idx[loaded]
            if sat_idx.size == 0:
                return _empty_columns()
    if recorder is not None and recorder.enabled:
        recorder.counter("priced_pairs", int(sat_idx.size))
    pair_elevation, pair_range = pair_geometry(
        geometry, positions, sat_idx, gs_idx
    )

    # Group pairs by budget hardware class; the paper's scenarios collapse
    # to one or two classes, so the kernel runs once or twice per instant.
    # The class of a pair never changes, so the PairGroupCache resolves
    # previously-seen pairs with one fancy index (and the window index
    # pre-resolves every pair it will ever emit at build time).
    if pair_groups is None:
        pair_groups = PairGroupCache(num_sats, num_stations)
    gids = pair_groups.gid[sat_idx, gs_idx]
    unresolved = np.nonzero(gids < 0)[0]
    if unresolved.size:
        sat_list = sat_idx.tolist()
        gs_list = gs_idx.tolist()
        for p in unresolved.tolist():
            i, j = sat_list[p], gs_list[p]
            budget = link_budget_for(satellites[i], j)
            gid = _budget_group_id(budget)
            pair_groups.gid[i, j] = gid
            pair_groups.budget_of.setdefault(gid, budget)
            gids[p] = gid
    rain_height = geometry._station_rain_height_km[gs_idx]

    pair_count = sat_idx.size
    gid_lo = int(gids.min())
    gid_hi = int(gids.max())
    if gid_lo == gid_hi:
        # Single hardware class (the common case): evaluate the whole
        # pair set in one kernel call, no group masking or scatters.
        budget = pair_groups.budget_of[gid_lo]
        result = budget.evaluate_batch(
            range_km=pair_range,
            elevation_deg=pair_elevation,
            rain_rate_mm_h=rain[gs_idx],
            cloud_water_kg_m2=cloud[gs_idx],
            rain_height_km=rain_height,
        )
        closes = result.closes
        bitrate = result.bitrate_bps
        required_esn0 = result.required_esn0_db
    else:
        closes = np.zeros(pair_count, dtype=bool)
        bitrate = np.zeros(pair_count)
        required_esn0 = np.full(pair_count, -100.0)
        present = np.flatnonzero(
            np.bincount(gids - gid_lo, minlength=gid_hi - gid_lo + 1)
        )
        for gid in (present + gid_lo).tolist():
            budget = pair_groups.budget_of[gid]
            pos = np.nonzero(gids == gid)[0]
            stations_of = gs_idx[pos]
            result = budget.evaluate_batch(
                range_km=pair_range[pos],
                elevation_deg=pair_elevation[pos],
                rain_rate_mm_h=rain[stations_of],
                cloud_water_kg_m2=cloud[stations_of],
                rain_height_km=rain_height[pos],
            )
            closes[pos] = result.closes
            bitrate[pos] = result.bitrate_bps
            required_esn0[pos] = result.required_esn0_db

    # Value pricing: the closing pairs, priced against the fleet queue
    # profile in one edge_values call.
    keep = np.nonzero(closes)[0]
    if keep.size == 0:
        return _empty_columns()
    k_sat = sat_idx[keep]
    k_gs = gs_idx[keep]
    weights = value_function.edge_values(
        queue_profile, k_sat, k_gs, bitrate[keep], when, step_s
    )
    if weight_factor is not None:
        weights = weights * np.asarray(weight_factor)[k_gs]
    pos = np.nonzero(weights > 0.0)[0]
    return EdgeColumns(
        k_sat[pos], k_gs[pos], weights[pos], bitrate[keep][pos],
        pair_elevation[keep][pos], pair_range[keep][pos],
        required_esn0[keep][pos],
    )
