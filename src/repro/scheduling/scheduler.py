"""The DGS downlink scheduler: graph construction + matching, per instant.

"Finally, we run the stable matching algorithm at each time instance to
capture the temporal variation of the links.  We do not optimize for links
across time." (Sec. 3.1.)  The scheduler therefore has no cross-step
state; it rebuilds the contact graph and re-matches at every step, with
the matcher and value function pluggable.

:meth:`DownlinkScheduler.build_plan` rolls the same machinery forward over
a horizon using forecasts *issued now* -- this is the plan a
transmit-capable station uploads to a satellite, and what receive-only
stations receive over the Internet (Sec. 3, Overview).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Literal

import numpy as np

from repro.groundstations.network import GroundStationNetwork
from repro.linkbudget.budget import LinkBudget
from repro.orbits.ephemeris import EphemerisTable
from repro.satellites.satellite import Satellite
from repro.scheduling.graph import (
    ContactGraph,
    GeometryEngine,
    PairGroupCache,
    build_contact_graph,
    pair_geometry,
    pair_source,
)
from repro.scheduling.matching import (
    Assignment,
    gale_shapley,
    greedy_matching,
    max_weight_matching,
)
from repro.scheduling.value_functions import (
    FleetQueueProfile,
    LatencyValue,
    PerEdgeValue,
    ValueFunction,
)
from repro.weather.provider import ClearSkyProvider, WeatherProvider

MatcherName = Literal["stable", "optimal", "greedy"]

_MATCHERS = {
    "stable": gale_shapley,
    "optimal": max_weight_matching,
    "greedy": greedy_matching,
}


@dataclass
class ScheduleStep:
    """The matching chosen for one time instant."""

    when: datetime
    assignments: list[Assignment]
    num_edges: int
    #: The priced contact graph the matching ran on; only retained when
    #: the caller asked (``schedule_step(keep_graph=True)``), e.g. for
    #: diversity-mode secondary-receiver selection.
    graph: "ContactGraph | None" = None

    @property
    def matched_satellites(self) -> set[int]:
        return {a.satellite_index for a in self.assignments}

    def station_for_satellite(self, sat_index: int) -> int | None:
        for a in self.assignments:
            if a.satellite_index == sat_index:
                return a.station_index
        return None


@dataclass
class SatellitePlanEntry:
    """One planned contact in an uplinked schedule.

    Carries everything the spacecraft needs to execute blind: where to
    point (station), when, the committed rate, and the geometry/MODCOD
    context the ground uses to judge decode success.
    """

    start: datetime
    station_index: int
    expected_bitrate_bps: float
    elevation_deg: float = 90.0
    range_km: float = 0.0
    required_esn0_db: float = -100.0


@dataclass
class DownlinkPlan:
    """A horizon plan: per-satellite contact sequences, plus issue metadata."""

    issued_at: datetime
    horizon_s: float
    entries: dict[int, list[SatellitePlanEntry]] = field(default_factory=dict)

    def for_satellite(self, sat_index: int) -> list[SatellitePlanEntry]:
        return self.entries.get(sat_index, [])

    def entry_at(self, sat_index: int, when: datetime,
                 tolerance_s: float = 1.0) -> SatellitePlanEntry | None:
        """The satellite's planned contact starting at ``when``, if any."""
        for entry in self.entries.get(sat_index, []):
            if abs((entry.start - when).total_seconds()) <= tolerance_s:
                return entry
        return None

    def station_targets(self, when: datetime,
                        tolerance_s: float = 1.0) -> dict[int, int]:
        """station_index -> satellite_index the plan points each dish at."""
        targets: dict[int, int] = {}
        for sat_index, entries in self.entries.items():
            for entry in entries:
                if abs((entry.start - when).total_seconds()) <= tolerance_s:
                    targets[entry.station_index] = sat_index
        return targets

    @property
    def covers_until(self) -> datetime:
        return self.issued_at + timedelta(seconds=self.horizon_s)


class _AnticipatedGenerationValue:
    """Planning-time wrapper: price future contacts for data not yet taken.

    When a plan is built at T0, the value functions see the queue as of T0
    -- a satellite with an empty recorder would get no contacts for the
    whole horizon even though it captures continuously.  This wrapper
    falls back, for edges the inner function prices at zero, to the
    imagery the satellite will have *accumulated by that future instant*
    (generation rate x elapsed), discounted below real-backlog value so
    actual data always wins contested stations.  It prices empty queues
    above zero, so it declares ``zero_on_empty_queue = False``.
    """

    #: Anticipated data competes below real data: scale its value down.
    DISCOUNT = 0.25

    zero_on_empty_queue = False

    def __init__(self, inner: ValueFunction, issued_at: datetime):
        self.inner = inner
        self.issued_at = issued_at

    def edge_values(self, profile: FleetQueueProfile, sat_idx: np.ndarray,
                    gs_idx: np.ndarray, bitrate_bps: np.ndarray,
                    now: datetime, step_s: float) -> np.ndarray:
        """The inner value, then the anticipated term where it is <= 0.

        Rows with a positive inner value or no link keep the inner
        value.  The others get the anticipated term, 0.0 at or before
        the issue instant or without generation.
        """
        # A copy: the anticipated rows are written into it.
        value = np.array(self.inner.edge_values(
            profile, sat_idx, gs_idx, bitrate_bps, now, step_s
        ), dtype=float)
        fill = np.flatnonzero(~(value > 0.0) & ~(bitrate_bps <= 0.0))
        if fill.size == 0:
            return value
        value[fill] = 0.0
        elapsed_s = (now - self.issued_at).total_seconds()
        if elapsed_s <= 0.0:
            return value
        satellites = profile.satellites
        rows = sat_idx[fill]
        rate_bits_s = np.array(
            [sat.generation_gb_per_day for sat in satellites], dtype=float
        )[rows] * 8e9 / 86400.0
        anticipated_bits = rate_bits_s * elapsed_s
        deliverable = np.minimum(bitrate_bps[fill] * step_s, anticipated_bits)
        # Mean age of a continuously-filling queue is elapsed/2; weight it
        # by deliverable volume in chunk-equivalents, matching the units of
        # latency pricing (age x chunks moved).
        chunk_bits = np.array(
            [sat.chunk_size_gb for sat in satellites], dtype=float
        )[rows] * 8e9
        anticipated = (self.DISCOUNT * (elapsed_s / 2.0) * deliverable
                       / chunk_bits)
        value[fill] = np.where(anticipated_bits > 0.0, anticipated, 0.0)
        return value


class _StationWeatherMemo:
    """Per-station (rain, cloud) memo keyed on the provider's time bucket.

    A :class:`~repro.weather.provider.QuantizedWeatherCache` returns one
    sample per (station, bucket) no matter how many times it is asked, so
    the per-step oracle loop mostly re-reads values it already has.  This
    memo keeps the last sample per station with a bucket stamp and only
    calls the provider for stations whose stamp is stale -- issuing exactly
    the first call per (station, bucket) the unmemoized loop would have
    issued, so the provider's cache contents (which capture the first
    ``when`` seen per bucket) and every value consumed downstream are
    bit-identical.  Only valid for nowcast sampling against a provider
    that publishes ``quantize_s``; the scheduler enables it accordingly.
    """

    def __init__(self, network, provider):
        self.quantize_s = float(provider.quantize_s)
        num_stations = len(network)
        self._bucket = np.full(num_stations, -1, dtype=np.int64)
        self._rain = np.zeros(num_stations)
        self._cloud = np.zeros(num_stations)
        self._coords = [
            (round(s.latitude_deg, 3), round(s.longitude_deg, 3),
             s.latitude_deg, s.longitude_deg)
            for s in network
        ]
        #: The provider call, fixed once: ``sample_prequantized`` when
        #: the provider has it (station coordinates never change, so
        #: their cache-key rounding runs once, above, instead of twice
        #: per sample), its ``sample`` otherwise.
        self._sample_pq = getattr(provider, "sample_prequantized", None)
        self._sample = provider.sample

    def station_weather(self, gs_idx, when):
        """Per-station (rain, cloud) arrays, fresh for ``gs_idx``, and
        the number of provider calls made.

        Entries for stations outside ``gs_idx`` may be stale; callers
        only ever gather the involved stations.
        """
        bucket = int(when.timestamp() // self.quantize_s)
        involved = np.zeros(self._bucket.size, dtype=bool)
        involved[gs_idx] = True
        stale = np.flatnonzero(involved & (self._bucket != bucket)).tolist()
        rain_out = self._rain
        cloud_out = self._cloud
        bucket_out = self._bucket
        coords = self._coords
        sample_pq = self._sample_pq
        if sample_pq is not None:
            for j in stale:
                lat_q, lon_q, lat, lon = coords[j]
                sample = sample_pq(lat_q, lon_q, lat, lon, when)
                rain_out[j] = sample.rain_rate_mm_h
                cloud_out[j] = sample.cloud_water_kg_m2
                bucket_out[j] = bucket
            return rain_out, cloud_out, len(stale)
        sample_fn = self._sample
        for j in stale:
            lat_q, lon_q, lat, lon = coords[j]
            sample = sample_fn(lat, lon, when)
            rain_out[j] = sample.rain_rate_mm_h
            cloud_out[j] = sample.cloud_water_kg_m2
            bucket_out[j] = bucket
        return rain_out, cloud_out, len(stale)


class DownlinkScheduler:
    """Builds contact graphs and matches them, one instant at a time."""

    def __init__(
        self,
        satellites: list[Satellite],
        network: GroundStationNetwork,
        value_function: ValueFunction | None = None,
        matcher: MatcherName = "stable",
        weather: WeatherProvider | None = None,
        step_s: float = 60.0,
        capacities: list[int] | None = None,
        acm_margin_db: float = 1.0,
        require_current_plan: bool = False,
        plan_max_age_s: float = float("inf"),
        station_available=None,
        station_weight=None,
        ephemeris: EphemerisTable | None = None,
        recorder=None,
    ):
        if matcher not in _MATCHERS:
            raise ValueError(f"unknown matcher {matcher!r}; use {sorted(_MATCHERS)}")
        if step_s <= 0:
            raise ValueError("step must be positive")
        self.satellites = satellites
        self.network = network
        self.value_function = value_function or LatencyValue()
        self.matcher_name: MatcherName = matcher
        self.weather = weather or ClearSkyProvider()
        self.step_s = step_s
        self.capacities = capacities
        self.require_current_plan = require_current_plan
        self.plan_max_age_s = plan_max_age_s
        #: Optional (station_index, when) -> bool availability oracle used
        #: to route around announced outages.
        self.station_available = station_available
        #: Optional (station_index, when) -> float availability weight from
        #: the fault layer: edge weights are scaled by it, and a factor
        #: <= 0 prunes the station from the graph.
        self.station_weight = station_weight
        #: Precomputed fleet positions for on-grid instants (shared across
        #: variants via :func:`repro.orbits.ephemeris.shared_ephemeris_table`);
        #: off-grid instants fall back to per-satellite propagation.
        self.ephemeris = ephemeris
        #: Fleet-wide send-queue snapshot for vectorized edge pricing;
        #: rows invalidate via the storage version counter, so
        #: steady-state refreshes touch only mutated queues.
        self._queue_profile = FleetQueueProfile(
            satellites, [station.station_id for station in network]
        )
        #: Observability sink for graph-build/matching spans and counters;
        #: the shared no-op recorder unless the engine passed a live one.
        from repro.obs.recorder import NULL_RECORDER

        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._geometry = GeometryEngine(network)
        self._budgets: dict[tuple[int, int], LinkBudget] = {}
        self._acm_margin_db = acm_margin_db
        self._pair_groups = PairGroupCache(len(satellites), len(network))
        #: Precomputed pass structure
        #: (:class:`repro.scheduling.windows.ContactWindowIndex`), set by
        #: the engine after construction.  On its step grid the pair
        #: source reads active pairs from it; other instants run one
        #: step of the same scan.
        self.window_index = None
        #: Lazily-built per-station weather memo (nowcast path only).
        self._weather_memo: _StationWeatherMemo | None = None

    @property
    def value_function(self) -> ValueFunction:
        """The edge pricer.

        Setting a value function with only a scalar ``edge_value`` stores
        it wrapped in ``PerEdgeValue``: the one place a scalar value
        function is adapted.
        """
        return self._value_function

    @value_function.setter
    def value_function(self, value_function) -> None:
        if not isinstance(value_function, ValueFunction):
            value_function = PerEdgeValue(value_function)
        self._value_function = value_function

    def wiring(self) -> dict:
        """Constructor keywords that rebuild this scheduler's inputs.

        A scheduler-family swap (horizon, beamforming) passes all of
        them, so the replacement sees the same faults, outages, plan
        rules, capacities, margin, ephemeris and recorder as the
        scheduler it replaces.
        """
        return dict(
            satellites=self.satellites,
            network=self.network,
            value_function=self.value_function,
            matcher=self.matcher_name,
            weather=self.weather,
            step_s=self.step_s,
            capacities=self.capacities,
            acm_margin_db=self._acm_margin_db,
            require_current_plan=self.require_current_plan,
            plan_max_age_s=self.plan_max_age_s,
            station_available=self.station_available,
            station_weight=self.station_weight,
            ephemeris=self.ephemeris,
            recorder=self.recorder,
        )

    # -- link budget cache ---------------------------------------------------

    def _link_budget_for(self, sat: Satellite, station_index: int) -> LinkBudget:
        key = (id(sat.radio), station_index)
        budget = self._budgets.get(key)
        if budget is None:
            budget = LinkBudget(
                radio=sat.radio,
                receiver=self.network[station_index].receiver,
                acm_margin_db=self._acm_margin_db,
            )
            self._budgets[key] = budget
        return budget

    # -- one instant -----------------------------------------------------------

    def contact_graph(self, when: datetime,
                      forecast_issued_at: datetime | None = None) -> ContactGraph:
        """The weighted bipartite graph at ``when``.

        With ``forecast_issued_at`` set, weather is what a forecast issued
        then would predict (plan building); otherwise it is a nowcast.
        """
        def forecast_fn(lat: float, lon: float, valid_at: datetime):
            provider = self.weather
            if forecast_issued_at is not None and hasattr(provider, "forecast"):
                return provider.forecast(lat, lon, forecast_issued_at, valid_at)
            if hasattr(provider, "sample"):
                return provider.sample(lat, lon, valid_at)
            return provider.forecast(lat, lon, valid_at, valid_at)

        # A provider that is identically clear lets the pricing kernel
        # skip the per-station weather oracle loop outright.
        forecast_fn.always_clear = getattr(self.weather, "always_clear", False)

        # Nowcast sampling against a quantized provider: reuse samples
        # within one provider bucket (bit-identical values; see
        # _StationWeatherMemo).  Forecast-mode pricing bypasses the memo
        # -- its samples depend on the issue time, not just the bucket.
        weather_memo = None
        if (
            self.window_index is not None
            and forecast_issued_at is None
            and not forecast_fn.always_clear
        ):
            if self._weather_memo is None and getattr(
                self.weather, "quantize_s", None
            ):
                self._weather_memo = _StationWeatherMemo(
                    self.network, self.weather
                )
            weather_memo = self._weather_memo

        return build_contact_graph(
            satellites=self.satellites,
            network=self.network,
            when=when,
            value_function=self.value_function,
            link_budget_for=self._link_budget_for,
            forecast=forecast_fn,
            step_s=self.step_s,
            geometry=self._geometry,
            require_current_plan=self.require_current_plan,
            plan_max_age_s=self.plan_max_age_s,
            station_available=self.station_available,
            station_weight=self.station_weight,
            ephemeris=self.ephemeris,
            pair_groups=self._pair_groups,
            queue_profile=self._queue_profile,
            recorder=self.recorder,
            window_index=self.window_index,
            weather_memo=weather_memo,
        )

    def visible_pairs(
        self, when: datetime
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(sat, gs, elevation_deg, range_km)`` of every pair in sight.

        The contact graph's pair source: every pair above its station's
        elevation mask at ``when``, before outages, constraint bitmaps,
        plan gating or pricing remove any, with the geometry the pricing
        tail would compute for it.  It records no counters: those count
        graph builds only.
        """
        sat, gs, positions = pair_source(
            self.satellites, when, self._geometry, self.ephemeris,
            self.window_index,
        )
        return (sat, gs) + pair_geometry(self._geometry, positions, sat, gs)

    def schedule_step(self, when: datetime,
                      forecast_issued_at: datetime | None = None,
                      keep_graph: bool = False) -> ScheduleStep:
        """Match the contact graph at ``when``.

        ``keep_graph=True`` retains the priced graph on the returned step
        (diversity mode reuses it to pick secondary receivers without a
        second graph build); the matching itself is unaffected.

        An instant the window index reports idle (no pair in a pass)
        skips graph build and matching: its graph is empty by
        construction -- no weather sample, no queue refresh, nothing to
        match -- so the skip changes no output.  ``idle_ticks_skipped``
        counts every skipped step, :meth:`build_plan` look-ahead too.
        """
        rec = self.recorder
        index = self.window_index
        k = index.step_of(when) if index is not None else None
        if k is not None and index.active_count(k) == 0:
            if rec.enabled:
                rec.counter("idle_ticks_skipped")
            graph = None
            if keep_graph:
                graph = ContactGraph.empty(
                    when, len(self.satellites), len(self.network)
                )
            return ScheduleStep(when=when, assignments=[], num_edges=0,
                                graph=graph)
        with rec.span("graph_build"):
            graph = self.contact_graph(when, forecast_issued_at)
        matcher = _MATCHERS[self.matcher_name]
        with rec.span("matching"):
            assignments = matcher(graph, self.capacities)
        if rec.enabled:
            rec.counter("contact_edges", graph.num_edges)
            rec.counter("assignments", len(assignments))
        return ScheduleStep(
            when=when, assignments=assignments, num_edges=graph.num_edges,
            graph=graph if keep_graph else None,
        )

    # -- horizon plans ------------------------------------------------------------

    def build_plan(self, issued_at: datetime, horizon_s: float) -> DownlinkPlan:
        """Roll the scheduler over a horizon with forecasts issued now.

        This is the artifact a transmit-capable station uploads: for each
        satellite, the timed sequence of stations to dump to.  Note the
        plan uses *forecast* weather -- by the time a contact actually
        happens the truth may differ, which is exactly the robustness
        question the hybrid design raises.

        Edge pricing anticipates data generation: a satellite whose queue
        is empty *now* will have accumulated imagery by a contact an hour
        into the horizon, so the plan books stations for it anyway
        (at lower priority than real backlog).
        """
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        planning_value = _AnticipatedGenerationValue(
            self.value_function, issued_at
        )
        original_value = self.value_function
        plan = DownlinkPlan(issued_at=issued_at, horizon_s=horizon_s)
        steps = int(horizon_s // self.step_s)
        try:
            self.value_function = planning_value
            for k in range(steps):
                when = issued_at + timedelta(seconds=k * self.step_s)
                step = self.schedule_step(when, forecast_issued_at=issued_at)
                self._append_plan_entries(plan, step, when)
        finally:
            self.value_function = original_value
        return plan

    def _append_plan_entries(self, plan: DownlinkPlan, step: "ScheduleStep",
                             when: datetime) -> None:
        for a in step.assignments:
            plan.entries.setdefault(a.satellite_index, []).append(
                SatellitePlanEntry(
                    start=when,
                    station_index=a.station_index,
                    expected_bitrate_bps=a.bitrate_bps,
                    elevation_deg=a.elevation_deg,
                    range_km=a.range_km,
                    required_esn0_db=a.required_esn0_db,
                )
            )
