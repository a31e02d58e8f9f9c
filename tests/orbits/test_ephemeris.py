"""Batched fleet propagation vs the scalar SGP4 reference."""

import dataclasses
from datetime import datetime, timedelta

import numpy as np
import pytest

import repro.orbits.ephemeris as ephemeris_module
from repro.orbits.constellation import synthetic_leo_constellation
from repro.orbits.ephemeris import (
    BatchSGP4,
    EphemerisTable,
    clear_ephemeris_cache,
    shared_ephemeris_table,
)
from repro.orbits.sgp4 import SGP4
from repro.orbits.timebase import datetime_to_jd, gmst_rad
from repro.orbits.tle import TLEError
from repro.satellites.satellite import Satellite

EPOCH = datetime(2020, 6, 1)


@pytest.fixture(scope="module")
def tles():
    return synthetic_leo_constellation(12, EPOCH, seed=3)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_ephemeris_cache()
    yield
    clear_ephemeris_cache()


class TestBatchSGP4:
    def test_matches_scalar_over_a_day(self, tles):
        """Sub-metre agreement with per-satellite SGP4 across 24 h."""
        props = [SGP4(t) for t in tles]
        batch = BatchSGP4(props)
        # One tsince grid per satellite: minutes since its own epoch.
        minutes = np.arange(0.0, 1440.0, 30.0)
        for tsince in minutes:
            pos_b, vel_b = batch.propagate_tsince(
                np.full(len(props), tsince)
            )
            for i, prop in enumerate(props):
                pos_s, vel_s = prop.propagate_tsince(float(tsince))
                assert np.max(np.abs(pos_b[i] - pos_s)) < 1e-3  # < 1 m
                assert np.max(np.abs(vel_b[i] - vel_s)) < 1e-6

    def test_broadcasts_time_grids(self, tles):
        props = [SGP4(t) for t in tles]
        batch = BatchSGP4(props)
        grid = np.arange(0.0, 60.0, 10.0)[:, None] + np.zeros(len(props))
        pos, vel = batch.propagate_tsince(grid)
        assert pos.shape == (6, len(props), 3)
        assert vel.shape == (6, len(props), 3)


class TestEphemerisTable:
    def test_positions_match_scalar_pipeline(self, tles):
        """Table rows equal scalar propagate + GMST rotation, < 1 m."""
        fleet = [Satellite(tle=t) for t in tles]
        table = EphemerisTable.build(fleet, EPOCH, 48, 60.0)
        for k in (0, 1, 17, 47):
            when = EPOCH + timedelta(seconds=60.0 * k)
            theta = gmst_rad(datetime_to_jd(when))
            cos_t, sin_t = np.cos(theta), np.sin(theta)
            rot = np.array(
                [[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]]
            )
            grid = table.positions_ecef(when)
            for i, sat in enumerate(fleet):
                pos_teme, _ = sat.position_teme(when)
                assert np.max(np.abs(grid[i] - rot @ pos_teme)) < 1e-3

    def test_chunked_build_matches_single_pass(self, tles, monkeypatch):
        """The build-chunk size bounds temporaries; it moves no bit."""
        fleet = [Satellite(tle=t) for t in tles]
        whole = EphemerisTable.build(fleet, EPOCH, 61, 60.0)
        monkeypatch.setattr(ephemeris_module, "_BUILD_CHUNK_STEPS", 7)
        chunked = EphemerisTable.build(fleet, EPOCH, 61, 60.0)
        np.testing.assert_array_equal(whole.positions, chunked.positions)

    def test_off_grid_and_out_of_range_lookups(self, tles):
        fleet = [Satellite(tle=t) for t in tles]
        table = EphemerisTable.build(fleet, EPOCH, 10, 60.0)
        assert table.index_of(EPOCH + timedelta(seconds=300)) == 5
        assert table.index_of(EPOCH + timedelta(seconds=330)) is None
        assert table.index_of(EPOCH - timedelta(seconds=60)) is None
        assert table.index_of(EPOCH + timedelta(seconds=600)) is None
        assert table.positions_ecef(EPOCH + timedelta(seconds=90)) is None

    def test_covers(self, tles):
        fleet = [Satellite(tle=t) for t in tles]
        table = EphemerisTable.build(fleet, EPOCH, 10, 60.0)
        assert table.covers(EPOCH, 10, 60.0)
        assert table.covers(EPOCH, 4, 60.0)
        assert not table.covers(EPOCH, 11, 60.0)
        assert not table.covers(EPOCH, 4, 30.0)
        assert not table.covers(EPOCH + timedelta(seconds=60), 4, 60.0)

    def test_save_load_roundtrip(self, tles, tmp_path):
        fleet = [Satellite(tle=t) for t in tles]
        table = EphemerisTable.build(fleet, EPOCH, 5, 60.0)
        path = str(tmp_path / "table.npz")
        table.save(path)
        loaded = EphemerisTable.load(path)
        assert loaded.start == table.start
        assert loaded.step_s == table.step_s
        np.testing.assert_array_equal(loaded.positions, table.positions)


class TestSharedCache:
    def test_same_table_served_across_variants(self, tles):
        fleet_a = [Satellite(tle=t) for t in tles]
        fleet_b = [Satellite(tle=t) for t in tles]  # same orbits, new objects
        table_a = shared_ephemeris_table(fleet_a, EPOCH, 20, 60.0)
        table_b = shared_ephemeris_table(fleet_b, EPOCH, 20, 60.0)
        assert table_a is table_b

    def test_elements_below_print_precision_get_their_own_table(self, tles):
        """Mean anomalies 30.0 and 30.00004 deg print the same TLE lines.
        Keyed on the lines, the second fleet was served the first fleet's
        table, metres off its own positions."""
        base = dataclasses.replace(tles[0], mean_anomaly_deg=30.0)
        nudged = dataclasses.replace(tles[0], mean_anomaly_deg=30.00004)
        assert base.to_lines() == nudged.to_lines()
        shared_ephemeris_table([Satellite(tle=base)], EPOCH, 10, 60.0)
        fleet = [Satellite(tle=nudged)]
        served = shared_ephemeris_table(fleet, EPOCH, 10, 60.0)
        built = EphemerisTable.build(fleet, EPOCH, 10, 60.0)
        np.testing.assert_array_equal(served.positions, built.positions)

    def test_element_set_outside_print_range_is_cached(self, tles):
        """SGP4 ignores ndot, so an element set with |ndot| >= 1 builds
        a table; its cache key must not need the lines it cannot print."""
        tle = dataclasses.replace(tles[0], ndot=1.5)
        with pytest.raises(TLEError):
            tle.to_lines()
        fleet = [Satellite(tle=tle)]
        table = shared_ephemeris_table(fleet, EPOCH, 10, 60.0)
        built = EphemerisTable.build(fleet, EPOCH, 10, 60.0)
        np.testing.assert_array_equal(table.positions, built.positions)
        assert shared_ephemeris_table(fleet, EPOCH, 10, 60.0) is table

    def test_longer_table_serves_shorter_request(self, tles):
        fleet = [Satellite(tle=t) for t in tles]
        long_table = shared_ephemeris_table(fleet, EPOCH, 30, 60.0)
        short_table = shared_ephemeris_table(fleet, EPOCH, 10, 60.0)
        assert short_table is long_table

    def test_corrupt_disk_cache_is_rebuilt(self, tles, tmp_path):
        fleet = [Satellite(tle=t) for t in tles]
        table = shared_ephemeris_table(
            fleet, EPOCH, 6, 60.0, cache_dir=str(tmp_path)
        )
        (cache_file,) = tmp_path.glob("ephemeris_*.npz")
        cache_file.write_text("garbage")
        clear_ephemeris_cache()
        rebuilt = shared_ephemeris_table(
            fleet, EPOCH, 6, 60.0, cache_dir=str(tmp_path)
        )
        np.testing.assert_array_equal(rebuilt.positions, table.positions)

    def test_truncated_disk_cache_is_rebuilt(self, tles, tmp_path):
        """A file cut off mid-array (killed writer on a non-atomic
        filesystem, torn download, ...) must be treated as corrupt."""
        fleet = [Satellite(tle=t) for t in tles]
        table = shared_ephemeris_table(
            fleet, EPOCH, 6, 60.0, cache_dir=str(tmp_path)
        )
        (cache_file,) = tmp_path.glob("ephemeris_*.npz")
        payload = cache_file.read_bytes()
        # Keep the zip header and most of the positions array, drop the tail.
        cache_file.write_bytes(payload[: int(len(payload) * 0.6)])
        clear_ephemeris_cache()
        rebuilt = shared_ephemeris_table(
            fleet, EPOCH, 6, 60.0, cache_dir=str(tmp_path)
        )
        np.testing.assert_array_equal(rebuilt.positions, table.positions)
        # The rebuild also repaired the on-disk copy.
        clear_ephemeris_cache()
        reloaded = shared_ephemeris_table(
            fleet, EPOCH, 6, 60.0, cache_dir=str(tmp_path)
        )
        np.testing.assert_array_equal(reloaded.positions, table.positions)

    def test_no_temp_files_left_behind(self, tles, tmp_path):
        fleet = [Satellite(tle=t) for t in tles]
        shared_ephemeris_table(fleet, EPOCH, 6, 60.0, cache_dir=str(tmp_path))
        assert not list(tmp_path.glob(".ephemeris_tmp_*"))

    def test_disk_cache_roundtrip(self, tles, tmp_path):
        fleet = [Satellite(tle=t) for t in tles]
        table = shared_ephemeris_table(
            fleet, EPOCH, 8, 60.0, cache_dir=str(tmp_path)
        )
        assert list(tmp_path.glob("ephemeris_*.npz"))
        clear_ephemeris_cache()
        reloaded = shared_ephemeris_table(
            fleet, EPOCH, 8, 60.0, cache_dir=str(tmp_path)
        )
        assert reloaded is not table
        np.testing.assert_array_equal(reloaded.positions, table.positions)
