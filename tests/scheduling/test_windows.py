"""Unit tests for the contact-window index: CSR shape, boundaries, cache.

Equivalence against the dense scalar oracle lives in
``test_windows_equivalence.py``; this file pins the index's own
contracts -- that the stored per-step pair sets are exactly what direct
dense geometry computes, and the geometry derived for them exactly its
elevations and ranges, that pass intervals are half-open ``[rise, set)``
and their culminations the dense maximum, that the scalar
:class:`PassPredictor` brackets the step-sampled windows, that
scan-chunk sizes bound memory without changing a bit of the result, that
the index holds exactly its documented arrays -- pair ids, no per-row
geometry or pricing columns -- and that the session cache returns the
same object without re-scanning.
"""

from datetime import datetime, timedelta

import numpy as np
import pytest

import repro.scheduling.windows as windows_module
from repro.groundstations.network import satnogs_like_network
from repro.linkbudget.budget import LinkBudget, baseline_receiver
from repro.obs.recorder import Recorder
from repro.orbits.constellation import synthetic_leo_constellation
from repro.orbits.ephemeris import clear_ephemeris_cache, shared_ephemeris_table
from repro.orbits.passes import PassPredictor
from repro.satellites.satellite import Satellite
from repro.scheduling.graph import GeometryEngine, PairGroupCache, pair_geometry
from repro.scheduling.windows import (
    ContactWindowIndex,
    _extract_windows,
    _RowStore,
    clear_window_index_cache,
    shared_window_index,
)
from tests.oracle import dense_visibility

EPOCH = datetime(2020, 6, 1)
STEP_S = 60.0
NUM_STEPS = 180


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_ephemeris_cache()
    clear_window_index_cache()
    yield
    clear_ephemeris_cache()
    clear_window_index_cache()


def _fleet(n=25, seed=21):
    tles = synthetic_leo_constellation(n, EPOCH, seed=seed)
    return [Satellite(tle=t, chunk_size_gb=0.5) for t in tles]


def _build(satellites, network, num_steps=NUM_STEPS, **kwargs):
    return ContactWindowIndex.build(
        satellites, network, start=EPOCH, num_steps=num_steps,
        step_s=STEP_S, **kwargs,
    )


def _propagated(geometry, satellites):
    """Fleet positions at an instant, as an index built without an
    ephemeris table scans them."""
    return lambda when: geometry.satellite_ecef(satellites, when)


class TestCsrAgainstDirectGeometry:
    def test_pairs_match_dense_visibility_bitwise(self):
        """Every step's stored pairs == direct geometry's visible pairs,
        and the elevations and ranges derived for them on the step's
        fleet row == the dense matrices', bit for bit."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        geometry = GeometryEngine(network)
        index = _build(satellites, network, geometry=geometry)
        assert index.step_ptr.shape == (NUM_STEPS + 1,)
        assert np.all(np.diff(index.step_ptr) >= 0)
        total_pairs = 0
        for k in range(NUM_STEPS):
            when = EPOCH + timedelta(seconds=k * STEP_S)
            sat_ecef = geometry.satellite_ecef(satellites, when)
            elevation, rng_km, visible = dense_visibility(geometry, sat_ecef)
            vs, vg = np.nonzero(visible)
            sat, gs = index.pairs_at(k)
            elev, rng = pair_geometry(geometry, sat_ecef, sat, gs)
            assert np.array_equal(sat, vs.astype(np.int32))
            assert np.array_equal(gs, vg.astype(np.int32))
            # Bitwise: same elementwise arithmetic on the same positions.
            assert np.array_equal(elev, elevation[vs, vg])
            assert np.array_equal(rng, rng_km[vs, vg])
            assert index.active_count(k) == vs.size
            total_pairs += vs.size
        assert total_pairs > 0  # the comparison actually bit

    def test_windows_partition_the_pair_steps(self):
        """Interval records replay exactly the stored per-step pair sets."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        index = _build(satellites, network)
        from_windows: dict[int, set] = {k: set() for k in range(NUM_STEPS)}
        for w in range(index.num_windows):
            pair = (int(index.window_sat[w]), int(index.window_gs[w]))
            rise = int(index.window_rise_step[w])
            set_ = int(index.window_set_step[w])
            assert 0 <= rise < set_ <= NUM_STEPS  # half-open, non-empty
            for k in range(rise, set_):
                assert pair not in from_windows[k]  # no overlapping passes
                from_windows[k].add(pair)
        for k in range(NUM_STEPS):
            sat, gs = index.pairs_at(k)
            assert from_windows[k] == set(zip(sat.tolist(), gs.tolist()))

    def test_boundary_flags(self):
        """Boundary iff the pair set changed since the previous step."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        index = _build(satellites, network)
        previous: set = set()
        for k in range(NUM_STEPS):
            sat, gs = index.pairs_at(k)
            current = set(zip(sat.tolist(), gs.tolist()))
            if k == 0:
                assert index.boundary[0]
            else:
                assert bool(index.boundary[k]) == (current != previous)
            previous = current


_INDEX_ARRAYS = (
    "step_ptr", "pair_sat", "pair_gs", "window_sat", "window_gs",
    "window_rise_step", "window_set_step", "boundary",
)


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _two_class_build():
    """25 x 30, 3 h, half the stations with the 4 m baseline dish: two
    hardware classes, with every pair's class pre-resolved."""
    satellites = _fleet()
    network = satnogs_like_network(30, seed=13)
    for j, station in enumerate(network):
        if j % 2:
            station.receiver = baseline_receiver()
    geometry = GeometryEngine(network)
    budgets: dict = {}

    def link_budget_for(sat, j):
        return budgets.setdefault(
            (id(sat.radio), j),
            LinkBudget(radio=sat.radio, receiver=network[j].receiver),
        )

    pair_groups = PairGroupCache(len(satellites), len(network))
    index = _build(
        satellites, network, geometry=geometry,
        link_budget_for=link_budget_for, pair_groups=pair_groups,
    )
    return index, pair_groups


class TestBuildInvariance:
    """Scan-chunk sizes bound the build's transient memory; no size may
    change a bit of the index."""

    @pytest.mark.parametrize("chunk_steps", [
        1,  # one step per scan chunk
        7,  # 7 does not divide the 180 steps
    ])
    def test_chunk_sizes_are_bit_identical(self, monkeypatch, chunk_steps):
        default, _ = _two_class_build()
        # 25 satellites: exactly ``chunk_steps`` steps per chunk.
        monkeypatch.setattr(
            windows_module, "_SCAN_CHUNK_ROWS", chunk_steps * 25
        )
        rebuilt, _ = _two_class_build()
        for name in _INDEX_ARRAYS:
            assert _same_bits(getattr(default, name),
                              getattr(rebuilt, name)), name


def _held_arrays(obj, seen=None) -> list[np.ndarray]:
    """Every ndarray reachable from ``obj``'s attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return []
    return [a for child in children for a in _held_arrays(child, seen)]


class TestIndexLayout:
    def test_bytes_per_row_window_and_step(self):
        """Every array the index holds, and nothing per row beyond them.

        8 B per stored row (int32 satellite and station), 16 B per
        pass record (four int32), 9 B per step (an int64 pointer and a
        bool boundary flag) and the pointer array's closing 8 B.
        Pricing a row derives its range and elevation in-step from the
        fleet row, so no per-row geometry or pricing column may come
        back, whatever hardware classes the build pre-resolves, and the
        index may not hold the fleet positions either.
        """
        index, pair_groups = _two_class_build()
        assert len(pair_groups.budget_of) == 2
        rows = int(index.step_ptr[-1])
        assert rows > 0
        assert sum(a.nbytes for a in _held_arrays(index)) == (
            8 * rows + 16 * index.num_windows + 9 * index.num_steps + 8
        )


class TestWindowExtraction:
    @staticmethod
    def _runs(visible):
        """Reference: each pair's maximal runs, by a plain scan."""
        num_steps, num_sats, num_stations = visible.shape
        out = []
        for s in range(num_sats):
            for g in range(num_stations):
                k = 0
                while k < num_steps:
                    if not visible[k, s, g]:
                        k += 1
                        continue
                    rise = k
                    while k < num_steps and visible[k, s, g]:
                        k += 1
                    out.append((s, g, rise, k))
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_pair_run_scan(self, seed):
        """Dense random visibility: many pairs visible at the last step
        next to pairs visible at step 0, whose sort codes are adjacent
        unless the code leaves a gap after each pair's last step."""
        rng = np.random.default_rng(seed)
        visible = rng.random((9, 3, 4)) < 0.6
        ks, ss, gs = np.nonzero(visible)  # CSR order: step, sat, station
        step_ptr = np.concatenate(
            ([0], np.cumsum(np.bincount(ks, minlength=9)))
        )
        got = _extract_windows(
            ss.astype(np.int32), gs.astype(np.int32), step_ptr, 3, 4
        )
        assert all(w.dtype == np.int32 for w in got)
        assert list(zip(*(w.tolist() for w in got))) == self._runs(visible)


class TestRowStore:
    @pytest.mark.parametrize("sizes", [
        [(2, 5), (2, 50), (1, 0), (3, 400), (2, 7)],  # grows twice
        [(4, 30), (4, 10), (2, 0)],                    # trims slack
        [(1, 0), (3, 0)],                              # nothing visible
    ])
    def test_matches_concatenation(self, sizes):
        """Chunks copied into the store, grown and trimmed as needed,
        equal the chunks concatenated, in the stored dtypes."""
        rng = np.random.default_rng(len(sizes))
        store = _RowStore(sum(steps for steps, _rows in sizes))
        chunks = []
        for steps, rows in sizes:
            chunk = (rng.integers(0, 1000, rows), rng.integers(0, 50, rows))
            store.append(steps, *chunk)
            chunks.append(chunk)
        got = store.finish()
        for column, dtype, parts in zip(got, _RowStore._DTYPES,
                                        zip(*chunks)):
            assert column.dtype == dtype
            assert np.array_equal(column, np.concatenate(parts))


class TestStepOf:
    def test_on_grid_off_grid_and_out_of_range(self):
        satellites = _fleet(10)
        network = satnogs_like_network(10, seed=13)
        index = _build(satellites, network, num_steps=30)
        assert index.step_of(EPOCH) == 0
        assert index.step_of(EPOCH + timedelta(seconds=29 * STEP_S)) == 29
        assert index.step_of(EPOCH + timedelta(seconds=30 * STEP_S)) is None
        assert index.step_of(EPOCH - timedelta(seconds=STEP_S)) is None
        assert index.step_of(EPOCH + timedelta(seconds=90.0)) is None


class TestHalfOpenBoundaries:
    def test_set_step_is_first_invisible_step(self):
        """A pair is visible on [rise, set) and invisible just outside."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        index = _build(satellites, network)
        assert index.num_windows > 0
        checked = 0
        for w in range(index.num_windows):
            pair = (int(index.window_sat[w]), int(index.window_gs[w]))
            rise = int(index.window_rise_step[w])
            set_ = int(index.window_set_step[w])

            def present(k):
                sat, gs = index.pairs_at(k)
                return pair in set(zip(sat.tolist(), gs.tolist()))

            assert present(rise) and present(set_ - 1)
            if rise > 0:
                assert not present(rise - 1)
            if set_ < NUM_STEPS:
                assert not present(set_)
                checked += 1
        assert checked > 0  # at least one set landed inside the horizon

    def test_windows_for_contains_respects_half_open_set(self):
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        geometry = GeometryEngine(network)
        index = _build(satellites, network, geometry=geometry)
        positions = _propagated(geometry, satellites)
        found = 0
        for w in range(min(index.num_windows, 10)):
            sat = int(index.window_sat[w])
            gs = int(index.window_gs[w])
            for window in index.windows_for(sat, gs, geometry, positions):
                assert window.contains(window.rise_time)
                assert not window.contains(window.set_time)
                found += 1
        assert found > 0


class TestCulmination:
    def test_max_elevation_is_the_dense_maximum_over_the_pass(self):
        """``windows_for``'s culmination, from the ephemeris rows the
        index was scanned from, is the dense oracle's highest elevation
        over the pass's steps (the first such step on a tie)."""
        satellites = _fleet()
        network = satnogs_like_network(30, seed=13)
        geometry = GeometryEngine(network)
        table = shared_ephemeris_table(satellites, EPOCH, NUM_STEPS, STEP_S)
        index = _build(satellites, network, geometry=geometry,
                       ephemeris=table)
        dense = [
            dense_visibility(geometry, table.positions[k])
            for k in range(NUM_STEPS)
        ]
        pairs = sorted(set(zip(index.window_sat.tolist(),
                               index.window_gs.tolist())))
        checked = 0
        for i, j in pairs[:40]:
            for window in index.windows_for(i, j, geometry,
                                            table.positions_ecef):
                rise = index.step_of(window.rise_time)
                set_ = index.step_of(window.set_time) or NUM_STEPS
                elevation = [dense[k][0][i, j] for k in range(rise, set_)]
                assert all(dense[k][2][i, j] for k in range(rise, set_))
                best = int(np.argmax(elevation))
                assert window.max_elevation_deg == elevation[best]
                assert window.culmination_time == EPOCH + timedelta(
                    seconds=(rise + best) * STEP_S
                )
                checked += 1
        assert checked > 0


class TestPassPredictorBracket:
    def test_predictor_crossings_bracket_step_sampled_windows(self):
        """Scalar bisected rise/set always bracket the grid intervals.

        The index samples the elevation mask on the step grid, so its
        rise lands at-or-after the true crossing and its set at most one
        step after: ``predictor_rise <= rise_time`` and
        ``set_time <= predictor_set + step_s``.
        """
        satellites = _fleet(12, seed=5)
        network = satnogs_like_network(12, seed=13)
        geometry = GeometryEngine(network)
        index = _build(satellites, network, geometry=geometry)
        positions = _propagated(geometry, satellites)
        end = EPOCH + timedelta(seconds=NUM_STEPS * STEP_S)
        step = timedelta(seconds=STEP_S)
        matched = 0
        for i, sat in enumerate(satellites):
            for j, station in enumerate(network):
                grid_windows = index.windows_for(i, j, geometry, positions)
                if not grid_windows:
                    continue
                predictor = PassPredictor(
                    sat.position_teme,
                    station.latitude_deg,
                    station.longitude_deg,
                    station.altitude_km,
                    station.min_elevation_deg,
                )
                exact = list(predictor.passes(EPOCH, end))
                for grid in grid_windows:
                    bracketing = [
                        w for w in exact
                        if w.rise_time <= grid.rise_time
                        and grid.set_time <= w.set_time + step
                    ]
                    assert bracketing, (
                        f"no predictor pass brackets sat {i} / station {j} "
                        f"window {grid.rise_time}..{grid.set_time}"
                    )
                    matched += 1
            if matched >= 8:
                break
        assert matched > 0


class TestSharedIndexCache:
    def test_memory_hit_returns_same_object(self):
        satellites = _fleet(10)
        network = satnogs_like_network(10, seed=13)
        geometry = GeometryEngine(network)
        table = shared_ephemeris_table(satellites, EPOCH, 60, STEP_S)
        recorder = Recorder()
        kwargs = dict(
            start=EPOCH, num_steps=60, step_s=STEP_S,
            geometry=geometry, ephemeris=table, recorder=recorder,
        )
        first = shared_window_index(satellites, network, **kwargs)
        second = shared_window_index(satellites, network, **kwargs)
        assert second is first
        counters = recorder.counters_snapshot()
        assert counters["window_index_cache/build"] == 1
        assert counters["window_index_cache/memory_hit"] == 1

    def test_different_grid_or_mask_misses(self):
        satellites = _fleet(10)
        network = satnogs_like_network(10, seed=13)
        geometry = GeometryEngine(network)
        table = shared_ephemeris_table(satellites, EPOCH, 60, STEP_S)
        base = shared_window_index(
            satellites, network, start=EPOCH, num_steps=60, step_s=STEP_S,
            geometry=geometry, ephemeris=table,
        )
        shorter = shared_window_index(
            satellites, network, start=EPOCH, num_steps=30, step_s=STEP_S,
            geometry=geometry, ephemeris=table,
        )
        assert shorter is not base
        # A different elevation mask changes the geometry fingerprint.
        strict = satnogs_like_network(10, seed=13)
        for station in strict:
            station.min_elevation_deg = station.min_elevation_deg + 10.0
        other = shared_window_index(
            satellites, strict, start=EPOCH, num_steps=60, step_s=STEP_S,
            geometry=GeometryEngine(strict), ephemeris=table,
        )
        assert other is not base

    def test_clear_cache_forces_rebuild(self):
        satellites = _fleet(10)
        network = satnogs_like_network(10, seed=13)
        geometry = GeometryEngine(network)
        table = shared_ephemeris_table(satellites, EPOCH, 60, STEP_S)
        first = shared_window_index(
            satellites, network, start=EPOCH, num_steps=60, step_s=STEP_S,
            geometry=geometry, ephemeris=table,
        )
        clear_window_index_cache()
        rebuilt = shared_window_index(
            satellites, network, start=EPOCH, num_steps=60, step_s=STEP_S,
            geometry=geometry, ephemeris=table,
        )
        assert rebuilt is not first
        assert np.array_equal(rebuilt.step_ptr, first.step_ptr)
        assert np.array_equal(rebuilt.pair_sat, first.pair_sat)
        assert np.array_equal(rebuilt.pair_gs, first.pair_gs)
