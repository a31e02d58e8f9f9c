"""Contact-window interval index: precomputed pass structure for the loop.

The paper's core observation (Sec. 2) is that LEO contact structure is
sparse and piecewise-constant: a pass lasts seven to ten minutes and a
satellite sees a given station only two-to-three times a day.  Yet the
per-step loop re-derives visibility from scratch every tick -- culling
cosine math, the elevation-mask test -- even on ticks where nothing
rises or sets.  :class:`ContactWindowIndex` computes the pass structure **once**
per run: a single chronological scan over the shared
:class:`~repro.orbits.ephemeris.EphemerisTable` runs
:meth:`GeometryEngine.scan_visible` -- the candidate prefilter plus the
exact elevation-mask test, the same scan an off-grid instant runs for
one step -- and stores the visible pairs of every step as CSR arrays:

* ``step_ptr[k]:step_ptr[k+1]`` slices the flat pair-id arrays
  (``pair_sat``/``pair_gs``) for step ``k``, in the row-major
  (satellite, station) order the graph's pricing tail keeps.  A tick
  answers "which pairs are in a pass right now" with two pointer reads
  -- O(active pairs), zero geometry.
* Runs of consecutive steps per (sat, station) pair become **half-open**
  interval records ``[rise_step, set_step)`` -- the
  :class:`~repro.orbits.passes.ContactWindow` boundary contract, so a
  set landing exactly on a tick is never double-counted.
* ``boundary[k]`` flags ticks where some pair rises or sets; between
  boundaries the edge *topology* is constant.

The index keeps pass structure only, no geometry: the pricing tail
computes the elevation and range of the rows it prices, in-step, with
:func:`~repro.scheduling.graph.pair_geometry` -- the scan's own
arithmetic, elementwise -- on the same ephemeris row the index was
scanned from.  So an instant answers identically from the index and
from a one-step scan; ``tests/scheduling/test_differential.py`` checks
both against the dense scalar oracle in ``tests/oracle.py``.

The scan iterates steps chronologically in chunks of at most
:data:`_SCAN_CHUNK_ROWS` (step, satellite) rows, so its transient
memory stays bounded while the float64 ephemeris table and the index
it produces stay whole.  The index costs 8 B per stored (pair, step)
row (two int32 ids), 16 B per pass and 9 B per step: 14.8 MiB beside
the ephemeris table's 8.5 MiB on the paper's 259 x 173 day, 49.8 vs
3.4 MiB for an hour of 2500 x 1000.

The scalar :class:`~repro.orbits.passes.PassPredictor` is the
sub-second-precision reference for a single (satellite, site) pair; its
bisected rise/set times always bracket this index's step-sampled
intervals (pinned by ``tests/scheduling/test_windows.py``).
"""

from __future__ import annotations

from datetime import datetime, timedelta
from typing import Callable

import numpy as np

from repro.groundstations.network import GroundStationNetwork
from repro.orbits.passes import ContactWindow
from repro.satellites.satellite import Satellite
from repro.scheduling.graph import (
    GeometryEngine,
    _budget_group_id,
    pair_geometry,
)

#: Scan-chunk bound: stacked (step, satellite) rows per chunk.  A
#: chunk's candidate and visibility temporaries are the scan's only
#: transient memory, so this caps it (32 MB at 2500 x 1000 stations:
#: four steps per chunk), which keeps the scan's peak below the ones
#: the ephemeris build and interval extraction reach.
_SCAN_CHUNK_ROWS = 10_000

__all__ = [
    "ContactWindowIndex",
    "shared_window_index",
    "clear_window_index_cache",
]


class ContactWindowIndex:
    """CSR pass-window index over a fixed step grid.

    Construct via :meth:`build`; query with :meth:`step_of` +
    :meth:`pairs_at`.  All per-pair arrays are immutable after build and
    shared (sliced, never copied) with the per-step consumers.
    """

    def __init__(
        self,
        start: datetime,
        step_s: float,
        num_steps: int,
        num_satellites: int,
        num_stations: int,
        step_ptr: np.ndarray,
        pair_sat: np.ndarray,
        pair_gs: np.ndarray,
        window_sat: np.ndarray,
        window_gs: np.ndarray,
        window_rise_step: np.ndarray,
        window_set_step: np.ndarray,
        boundary: np.ndarray,
    ):
        self.start = start
        self.step_s = float(step_s)
        self.num_steps = int(num_steps)
        self.num_satellites = int(num_satellites)
        self.num_stations = int(num_stations)
        self.step_ptr = step_ptr
        self.pair_sat = pair_sat
        self.pair_gs = pair_gs
        #: One record per pass: pair endpoints and half-open step span
        #: ``[rise_step, set_step)`` (the pair is visible at every step in
        #: the span and at neither endpoint's outside neighbour).
        self.window_sat = window_sat
        self.window_gs = window_gs
        self.window_rise_step = window_rise_step
        self.window_set_step = window_set_step
        #: ``boundary[k]`` is True when the visible-pair set at ``k``
        #: differs from step ``k - 1`` (some pass rose or set).
        self.boundary = boundary

    # -- construction ----------------------------------------------------

    @classmethod
    def build(
        cls,
        satellites: list[Satellite],
        network: GroundStationNetwork,
        *,
        start: datetime,
        num_steps: int,
        step_s: float,
        geometry: GeometryEngine | None = None,
        ephemeris=None,
        link_budget_for=None,
        pair_groups=None,
        recorder=None,
    ) -> "ContactWindowIndex":
        """One-shot chronological scan producing the full index.

        Runs :meth:`GeometryEngine.scan_visible` over the steps in time
        order.
        ``link_budget_for`` + ``pair_groups`` optionally pre-resolve the
        hardware-class id of every pair that is ever visible, moving the
        per-pair budget lookups out of the hot loop entirely.
        """
        if geometry is None:
            geometry = GeometryEngine(network)
        num_sats = len(satellites)
        num_stations = len(network)
        counts = np.zeros(num_steps + 1, dtype=np.int64)
        rows = _RowStore(num_steps)
        # Chunk the chronological scan: stacking S steps of fleet
        # positions into one (S*M, 3) block treats (step, satellite) as a
        # single row axis, so the culling matmul and the exact elevation
        # test each run once per chunk instead of once per step.  Per-row
        # arithmetic is unchanged -- candidate refinement is exact per
        # row and the visibility test is elementwise -- so the rows are
        # bit-identical to a step-at-a-time scan whatever the chunk size.
        chunk = max(1, min(32, _SCAN_CHUNK_ROWS // max(1, num_sats)))
        for c0 in range(0, num_steps, chunk):
            c1 = min(c0 + chunk, num_steps)
            blocks = []
            for k in range(c0, c1):
                when = start + timedelta(seconds=k * step_s)
                if ephemeris is not None:
                    block = np.asarray(
                        ephemeris.positions_ecef(when), dtype=float
                    )
                else:
                    block = geometry.satellite_ecef(satellites, when)
                blocks.append(block)
            step_counts, sat, gs = _scan_chunk(
                np.concatenate(blocks, axis=0), c1 - c0, num_sats, geometry,
            )
            counts[c0 + 1:c1 + 1] = step_counts
            rows.append(c1 - c0, sat, gs)
            # Free the chunk before the next one is scanned.
            del sat, gs

        step_ptr = np.cumsum(counts)
        total = int(step_ptr[-1])
        pair_sat, pair_gs = rows.finish()

        window_sat, window_gs, window_rise, window_set = _extract_windows(
            pair_sat, pair_gs, step_ptr, num_sats, num_stations
        )

        boundary = np.zeros(num_steps, dtype=bool)
        if num_steps:
            boundary[0] = True
            boundary[window_rise] = True
            sets_inside = window_set[window_set < num_steps]
            boundary[sets_inside] = True

        # Pre-resolve the hardware class of every pair that ever appears:
        # the per-step pricing path then never runs its per-pair budget
        # resolution loop (budget assignment is time-invariant).
        if link_budget_for is not None and pair_groups is not None:
            _preresolve_pair_groups(
                window_gs, satellites, link_budget_for, pair_groups,
            )

        if recorder is not None and recorder.enabled:
            recorder.counter("window_index_pair_steps", total)
            recorder.counter("window_index_windows", int(window_sat.size))

        return cls(
            start=start,
            step_s=step_s,
            num_steps=num_steps,
            num_satellites=num_sats,
            num_stations=num_stations,
            step_ptr=step_ptr,
            pair_sat=pair_sat,
            pair_gs=pair_gs,
            window_sat=window_sat,
            window_gs=window_gs,
            window_rise_step=window_rise,
            window_set_step=window_set,
            boundary=boundary,
        )

    # -- per-step queries ------------------------------------------------

    def step_of(self, when: datetime) -> int | None:
        """Grid step index of ``when``, or ``None`` when off-grid.

        The index only answers for instants exactly on its step grid;
        off-grid callers must fall back to direct geometry.
        """
        delta = (when - self.start).total_seconds()
        k = delta / self.step_s
        ki = int(round(k))
        if abs(k - ki) > 1e-6 or not 0 <= ki < self.num_steps:
            return None
        return ki

    def pairs_at(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Visible ``(sat, gs)`` id views at step ``k``.

        Zero-copy slices of the CSR arrays, row-major by (sat, station) --
        the exact pair set the per-step elevation-mask test produces at
        this instant.  :func:`~repro.scheduling.graph.pair_geometry` on
        the step's fleet row gives their elevations and ranges.
        """
        lo = self.step_ptr[k]
        hi = self.step_ptr[k + 1]
        return self.pair_sat[lo:hi], self.pair_gs[lo:hi]

    def active_count(self, k: int) -> int:
        """Number of pairs in a pass at step ``k`` (two pointer reads)."""
        return int(self.step_ptr[k + 1] - self.step_ptr[k])

    @property
    def num_windows(self) -> int:
        return int(self.window_sat.size)

    # -- pass-level queries ----------------------------------------------

    def windows_for(
        self,
        sat_index: int,
        gs_index: int,
        geometry: GeometryEngine,
        positions_ecef: Callable[[datetime], np.ndarray],
    ) -> list[ContactWindow]:
        """Step-sampled :class:`ContactWindow` records for one pair.

        ``rise_time``/``set_time`` are grid instants (half-open:
        ``set_time`` is the first step *below* the mask), so the scalar
        :class:`~repro.orbits.passes.PassPredictor`'s sub-second crossing
        times always bracket them: ``predictor_rise <= rise_time`` and
        ``set_time <= predictor_set + step_s``.  The culmination is the
        pass step of highest elevation (the first, on a tie), computed by
        :func:`~repro.scheduling.graph.pair_geometry` from
        ``positions_ecef(when)``: the fleet rows the index was scanned
        from, e.g. ``EphemerisTable.positions_ecef``.
        """
        mine = np.flatnonzero(
            (self.window_sat == sat_index) & (self.window_gs == gs_index)
        )
        out: list[ContactWindow] = []
        for w in mine.tolist():
            rise = int(self.window_rise_step[w])
            set_ = int(self.window_set_step[w])
            track = np.array([
                positions_ecef(self._instant(k))[sat_index]
                for k in range(rise, set_)
            ])
            steps = np.arange(set_ - rise)
            elevation = pair_geometry(
                geometry, track, steps, np.full_like(steps, gs_index)
            )[0]
            best = int(np.argmax(elevation))
            out.append(
                ContactWindow(
                    rise_time=self._instant(rise),
                    set_time=self._instant(set_),
                    culmination_time=self._instant(rise + best),
                    max_elevation_deg=float(elevation[best]),
                )
            )
        return out

    def _instant(self, k: int) -> datetime:
        """Grid step ``k``'s instant, as the build scanned it."""
        return self.start + timedelta(seconds=k * self.step_s)


def _scan_chunk(
    stacked: np.ndarray,
    span: int,
    num_sats: int,
    geometry: GeometryEngine,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visible rows of one stacked chunk of ``span`` steps.

    ``stacked`` holds the chunk's fleet positions, step-major.  Returns
    the per-step row counts and the ``(sat, gs)`` id columns in (step,
    satellite, station) order -- CSR order already.  The candidate and
    visibility temporaries die with this frame, so a scan never holds
    more than one chunk of them.
    """
    glob, gi = geometry.scan_visible(stacked)
    krow = glob // num_sats
    return np.bincount(krow, minlength=span), glob - krow * num_sats, gi


def _extract_windows(
    pair_sat: np.ndarray,
    pair_gs: np.ndarray,
    step_ptr: np.ndarray,
    num_sats: int,
    num_stations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pass records ``(sat, gs, rise_step, set_step)`` from the CSR rows.

    A pass is a maximal run of consecutive steps of one pair, in (pair,
    rise) order; spans are half-open, ``set_step`` one past the last
    visible step.  Each row is coded as ``key * (num_steps + 1) + step``:
    the code is unique (a pair appears at most once per step) and sorts
    in (pair, step) order, so one value sort orders every row, and the
    unused code after each pair's last possible step means two rows
    continue a run exactly when their codes differ by one.
    """
    total = int(step_ptr[-1])
    if not total:
        return tuple(np.empty(0, np.int32) for _ in range(4))
    num_steps = step_ptr.size - 1
    stride = num_steps + 1
    code_dtype = (
        np.int32 if num_sats * num_stations * stride < 2**31 else np.int64
    )
    code = pair_sat.astype(code_dtype)
    code *= num_stations
    code += pair_gs
    code *= stride
    code += np.repeat(
        np.arange(num_steps, dtype=code_dtype), np.diff(step_ptr)
    )
    code.sort()
    new_run = np.empty(total, dtype=bool)
    new_run[0] = True
    np.not_equal(np.diff(code), 1, out=new_run[1:])
    run_starts = np.flatnonzero(new_run)
    run_ends = np.append(run_starts[1:], total) - 1
    key, rise = np.divmod(code[run_starts], stride)
    return (
        (key // num_stations).astype(np.int32),
        (key % num_stations).astype(np.int32),
        rise.astype(np.int32),
        (code[run_ends] % stride + 1).astype(np.int32),
    )


class _RowStore:
    """The scan's visible ``(sat, gs)`` ids, copied chunk by chunk.

    Both columns are stored as int32.  Each chunk is copied in and freed
    before the next one is scanned, so no list of chunk arrays sits in
    the heap beside the columns built from it (the allocator kept that
    memory resident after the build).
    Capacity is projected from the rows per step seen so far over the
    whole grid, plus 1/8 slack; a chunk that does not fit re-projects it
    and copies the columns once into larger arrays, and :meth:`finish`
    trims the unused tail in place.
    """

    _DTYPES = (np.int32, np.int32)

    def __init__(self, num_steps: int):
        self.num_steps = num_steps
        self.steps = 0
        self.size = 0
        self.columns = [np.empty(0, dtype) for dtype in self._DTYPES]

    def append(self, steps: int, *chunk: np.ndarray) -> None:
        self.steps += steps
        end = self.size + chunk[0].size
        if end > self.columns[0].size:
            remaining = self.num_steps - self.steps
            capacity = end + -(-end * remaining * 9 // (8 * self.steps))
            grown = []
            for column in self.columns:
                larger = np.empty(capacity, column.dtype)
                larger[:self.size] = column[:self.size]
                grown.append(larger)
            self.columns = grown
        for column, values in zip(self.columns, chunk):
            column[self.size:end] = values
        self.size = end

    def finish(self) -> list[np.ndarray]:
        """The two columns, trimmed to the rows stored."""
        for column in self.columns:
            column.resize(self.size, refcheck=False)
        return self.columns


# --------------------------------------------------------------------------
# Session-scoped index cache, mirroring
# :func:`repro.orbits.ephemeris.shared_ephemeris_table`: fig3a/3b/3c
# sweeps, scheduler-service sessions, and ablations over one scenario
# population rebuild the Simulation but re-derive the identical pass
# structure, so the scan runs once per population and later builds are a
# dictionary hit.  Soundness: the index content is a pure function of
# the ephemeris table (keyed by object -- the ephemeris cache already
# interns tables by TLE elements / start / step), the station geometry
# + mask fingerprint, and the step grid.  It holds pass structure only,
# no pricing terms, so schedulers with different hardware classes share
# it; a hit replays just the caller's own class pre-resolution.
# --------------------------------------------------------------------------

#: Cached entries hold a strong reference to their ephemeris table, so a
#: table id in a live key can never be a reused address.
_INDEX_CACHE: dict[tuple, tuple[object, "ContactWindowIndex"]] = {}
_INDEX_CACHE_MAX = 4


def _preresolve_pair_groups(
    window_gs: np.ndarray,
    satellites: list[Satellite],
    link_budget_for,
    pair_groups,
) -> None:
    """Resolve the hardware class of every pair that ever has a pass.

    The assignments :func:`repro.scheduling.graph._price_pairs` would
    make lazily on each pair's first priced tick, done up front so the
    hot loop never runs its per-pair resolution branch.  A budget's
    class key is pure value -- ``(radio, receiver, margins)`` -- so
    satellites sharing a value-identical :class:`RadioConfig` resolve to
    the same class at every station; resolution runs once per (radio
    class, station with a pass) and fills whole grid columns.
    """
    gid_grid = pair_groups.gid
    pass_stations = np.flatnonzero(
        np.bincount(window_gs, minlength=gid_grid.shape[1])
    )
    radio_rows: dict = {}
    for i, sat in enumerate(satellites):
        radio_rows.setdefault(sat.radio, []).append(i)
    for rows in radio_rows.values():
        rep = satellites[rows[0]]
        gid_row = np.empty(pass_stations.size, dtype=gid_grid.dtype)
        for p, j in enumerate(pass_stations.tolist()):
            budget = link_budget_for(rep, j)
            gid = _budget_group_id(budget)
            pair_groups.budget_of.setdefault(gid, budget)
            gid_row[p] = gid
        gid_grid[np.ix_(rows, pass_stations)] = gid_row


def _geometry_fingerprint(geometry: GeometryEngine) -> tuple:
    """Byte-level identity of everything geometry feeds the scan."""
    return (
        geometry._station_ecef.tobytes(),
        geometry._min_elevation.tobytes(),
        geometry._can_transmit.tobytes(),
    )


def shared_window_index(
    satellites: list[Satellite],
    network: GroundStationNetwork,
    *,
    start: datetime,
    num_steps: int,
    step_s: float,
    geometry: GeometryEngine | None = None,
    ephemeris=None,
    link_budget_for=None,
    pair_groups=None,
    recorder=None,
) -> ContactWindowIndex:
    """Fetch (or build) the contact-window index from the session cache.

    Same signature and result as :meth:`ContactWindowIndex.build`; a hit
    skips the chronological scan entirely and only replays the pair
    hardware-class pre-resolution (a per-scheduler side effect) against
    the caller's ``pair_groups``.  ``recorder`` receives
    ``window_index_cache/memory_hit`` / ``build`` counters.
    """
    key = None
    if ephemeris is not None and geometry is not None:
        key = (
            id(ephemeris),
            start,
            int(num_steps),
            float(step_s),
            _geometry_fingerprint(geometry),
        )
        entry = _INDEX_CACHE.get(key)
        if entry is not None and entry[0] is ephemeris:
            index = entry[1]
            if link_budget_for is not None and pair_groups is not None:
                # The index is shared; class resolution is a side effect
                # on *this* scheduler's PairGroupCache, so redo it (same
                # assignments the lazy per-tick path would make).
                _preresolve_pair_groups(
                    index.window_gs, satellites, link_budget_for, pair_groups,
                )
            if recorder is not None and recorder.enabled:
                recorder.counter("window_index_cache/memory_hit")
            return index
    index = ContactWindowIndex.build(
        satellites,
        network,
        start=start,
        num_steps=num_steps,
        step_s=step_s,
        geometry=geometry,
        ephemeris=ephemeris,
        link_budget_for=link_budget_for,
        pair_groups=pair_groups,
        recorder=recorder,
    )
    if recorder is not None and recorder.enabled:
        recorder.counter("window_index_cache/build")
    if key is not None:
        while len(_INDEX_CACHE) >= _INDEX_CACHE_MAX:
            _INDEX_CACHE.pop(next(iter(_INDEX_CACHE)))
        _INDEX_CACHE[key] = (ephemeris, index)
    return index


def clear_window_index_cache() -> None:
    """Drop all cached indexes (tests and benchmarks use this)."""
    _INDEX_CACHE.clear()
