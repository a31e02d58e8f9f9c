"""The visibility scan against its plain-arithmetic oracle, bit for bit.

:meth:`GeometryEngine.scan_visible` gathers one coordinate at a time and
writes the range and zenith sums out in the order ``np.linalg.norm`` and
``np.einsum`` add them; :func:`tests.oracle.pair_visibility` is the
plain form on ``(R, 3)`` row gathers.  Random blocks cover ordinary
geometry; the named cases cover a zenith pass (the sine ratio rounds to
or past 1 and is clipped), rows a hair either side of a station's mask,
a block with no candidates, and a float32 ephemeris row.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.groundstations.network import (
    GroundStationNetwork,
    satnogs_like_network,
)
from repro.scheduling.graph import GeometryEngine
from tests.oracle import oracle_scan, zenith

MASKS_DEG = (0.0, 5.0, 10.0, 17.5, 40.0)


def _network(count=80, seed=5):
    """A SatNOGS-like network with masks cycling through ``MASKS_DEG``."""
    stations = [
        dataclasses.replace(st, min_elevation_deg=MASKS_DEG[j % len(MASKS_DEG)])
        for j, st in enumerate(satnogs_like_network(count, seed=seed))
    ]
    return GroundStationNetwork(stations)


def _shell(rng, rows, lo_km=6700.0, hi_km=7600.0):
    """``rows`` ECEF positions in a LEO shell, directions uniform."""
    direction = rng.normal(size=(rows, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * rng.uniform(lo_km, hi_km, size=(rows, 1))


def _same_rows(engine, positions):
    """Scan ``positions`` and check every column against the oracle."""
    got = engine.scan_visible(positions)
    want = oracle_scan(engine, positions)
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()
    return got


def _east(engine):
    """Unit east vectors at each station, ``(N, 3)``."""
    east = np.cross([0.0, 0.0, 1.0], zenith(engine))
    return east / np.linalg.norm(east, axis=1, keepdims=True)


class TestScanMatchesOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_blocks(self, seed):
        engine = GeometryEngine(_network())
        sat, _gs, _elev, _rng = _same_rows(
            engine, _shell(np.random.default_rng(seed), 3000)
        )
        assert sat.size > 100

    def test_zenith_pass(self):
        """One satellite straight above each station."""
        engine = GeometryEngine(_network())
        up = zenith(engine)
        heights = np.linspace(400.0, 1200.0, len(up))[:, None]
        positions = engine._station_ecef + up * heights
        sat, gs, elev, _rng = _same_rows(engine, positions)
        overhead = sat == gs
        assert overhead.sum() == len(positions)
        assert np.all(elev[overhead] > 89.999)

    def test_rows_at_the_mask(self):
        """Satellites 800 km out at each station's mask elevation, and
        1e-9 rad either side: the sine prescreen keeps all three, the
        exact test splits them at the mask."""
        engine = GeometryEngine(_network())
        east = _east(engine)
        up = zenith(engine)
        masks = np.radians(engine._min_elevation)
        rows, offsets = [], []
        for offset in (-1e-9, 0.0, 1e-9):
            elevation = (masks + offset)[:, None]
            direction = np.cos(elevation) * east + np.sin(elevation) * up
            rows.append(engine._station_ecef + 800.0 * direction)
            offsets.append(np.full(len(masks), offset))
        positions = np.concatenate(rows)
        offsets = np.concatenate(offsets)
        sat, gs, _elev, _rng = _same_rows(engine, positions)
        own = sat % len(masks) == gs
        seen = set(sat[own].tolist())
        above = set(np.flatnonzero(offsets > 0).tolist())
        below = set(np.flatnonzero(offsets < 0).tolist())
        assert above <= seen
        assert not below & seen

    def test_block_with_no_candidates(self):
        """Every satellite over the far side of a one-region network."""
        network = _network()
        stations = [
            dataclasses.replace(st, latitude_deg=40.0 + (j % 10),
                                longitude_deg=float(j % 10))
            for j, st in enumerate(network)
        ]
        engine = GeometryEngine(GroundStationNetwork(stations))
        lat = math.radians(-45.0)
        lon = math.radians(-175.0)
        antipode = np.array([math.cos(lat) * math.cos(lon),
                             math.cos(lat) * math.sin(lon), math.sin(lat)])
        positions = 7000.0 * antipode + _shell(np.random.default_rng(1), 50,
                                               0.0, 300.0)
        for block in (positions, positions[:0]):
            assert engine.grid.candidate_pairs(block)[0].size == 0
            sat, gs, elev, rng = _same_rows(engine, block)
            assert sat.size == gs.size == elev.size == rng.size == 0
            assert sat.dtype == gs.dtype == np.intp
            assert elev.dtype == rng.dtype == np.float64

    def test_float32_row(self):
        """A float32 ephemeris row is promoted before the in-place
        differences, so ranges keep float64 precision."""
        engine = GeometryEngine(_network())
        positions = _shell(np.random.default_rng(7), 3000).astype(np.float32)
        _sat, _gs, _elev, rng = _same_rows(engine, positions)
        assert rng.dtype == np.float64
        assert np.any(rng != rng.astype(np.float32))
