"""The visibility scan and its geometry against the plain oracle, bit for bit.

:meth:`GeometryEngine.scan_visible` returns pair ids only, and
:func:`pair_geometry` -- the arithmetic the scan's mask test runs --
derives their elevation and range wherever they are needed: in the
scan, in the pricing tail and in the pass records.  It gathers one
coordinate at a time and writes the range and zenith sums out in the
order ``np.linalg.norm`` and ``np.einsum`` add them;
:func:`tests.oracle.pair_visibility` is the plain form on ``(R, 3)`` row
gathers.  Random blocks cover ordinary geometry; the named cases cover a
zenith pass (the sine ratio rounds to or past 1 and is clipped), rows a
hair either side of a station's mask, a block with no candidates, and a
float32 ephemeris row.  The property tests draw the same kinds of block
and check that a pair's geometry does not depend on which other pairs,
or which copy of its fleet row, it is computed with: the index stores
ids and the pricing tail recomputes the geometry of the rows it prices.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.groundstations.network import (
    GroundStationNetwork,
    satnogs_like_network,
)
from repro.scheduling.graph import GeometryEngine, pair_geometry
from tests.oracle import oracle_scan, pair_visibility, zenith

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
    """Scan ``positions``, derive the visible rows' geometry, and check
    every column against the oracle."""
    sat, gs = engine.scan_visible(positions)
    got = (sat, gs) + pair_geometry(engine, positions, sat, gs)
    want = oracle_scan(engine, positions)
    assert len(got) == len(want)
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()
    return got


def _east(engine):
    """Unit east vectors at each station, ``(N, 3)``."""
    east = np.cross([0.0, 0.0, 1.0], zenith(engine))
    return east / np.linalg.norm(east, axis=1, keepdims=True)


def _zenith_block(engine):
    """One satellite straight above each station, 400 to 1200 km up."""
    up = zenith(engine)
    heights = np.linspace(400.0, 1200.0, len(up))[:, None]
    return engine._station_ecef + up * heights


def _at_the_mask(engine):
    """Rows 800 km out at each station's mask elevation and 1e-9 rad
    either side, with each row's offset from the mask."""
    east = _east(engine)
    up = zenith(engine)
    masks = np.radians(engine._min_elevation)
    rows, offsets = [], []
    for offset in (-1e-9, 0.0, 1e-9):
        elevation = (masks + offset)[:, None]
        direction = np.cos(elevation) * east + np.sin(elevation) * up
        rows.append(engine._station_ecef + 800.0 * direction)
        offsets.append(np.full(len(masks), offset))
    return np.concatenate(rows), np.concatenate(offsets)


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
        positions = _zenith_block(engine)
        sat, gs, elev, _rng = _same_rows(engine, positions)
        overhead = sat == gs
        assert overhead.sum() == len(positions)
        assert np.all(elev[overhead] > 89.999)

    def test_rows_at_the_mask(self):
        """Satellites 800 km out at each station's mask elevation, and
        1e-9 rad either side: the exact test splits them at the mask."""
        engine = GeometryEngine(_network())
        positions, offsets = _at_the_mask(engine)
        sat, gs, _elev, _rng = _same_rows(engine, positions)
        own = sat % engine.grid.num_stations == gs
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


@functools.lru_cache(maxsize=None)
def _engine():
    return GeometryEngine(_network())


@st.composite
def blocks(draw):
    """A fleet block -- a random LEO shell, a zenith pass over every
    station, rows at every station's mask, or no rows -- in float64 or
    as a float32 ephemeris row."""
    kind = draw(st.sampled_from(["shell", "zenith", "mask", "empty"]))
    if kind == "shell":
        seed = draw(st.integers(0, 2**32 - 1))
        positions = _shell(np.random.default_rng(seed),
                           draw(st.integers(1, 400)))
    elif kind == "zenith":
        positions = _zenith_block(_engine())
    elif kind == "mask":
        positions = _at_the_mask(_engine())[0]
    else:
        positions = np.empty((0, 3))
    if draw(st.booleans()):
        positions = positions.astype(np.float32)
    return positions


def _assert_same_bits(got, want):
    assert len(got) == len(want)
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes()


class TestPairGeometry:
    @settings(max_examples=80, deadline=None)
    @given(positions=blocks(), seed=st.integers(0, 2**32 - 1),
           id_dtype=st.sampled_from([np.int32, np.intp]))
    def test_gathering_rows_commutes_with_the_geometry(
        self, positions, seed, id_dtype
    ):
        """``pair_geometry(x)[idx] == pair_geometry(x[idx])``: a pair's
        elevation and range are the same bits whichever pairs it is
        computed with (the scan's chunk, one tick's priced rows) and
        whichever copy of its fleet row it reads (a stacked chunk, one
        step's fleet, one satellite's track)."""
        engine = _engine()
        rng = np.random.default_rng(seed)
        sat, gs = engine.grid.candidate_pairs(positions)
        # Pairs the prefilter drops too: far below the horizon, or
        # across the Earth.
        extra = min(200, len(positions) * engine.grid.num_stations)
        sat = np.concatenate(
            [sat, rng.integers(0, max(1, len(positions)), extra)]
        ).astype(id_dtype)
        gs = np.concatenate(
            [gs, rng.integers(0, engine.grid.num_stations, extra)]
        ).astype(id_dtype)
        full = pair_geometry(engine, positions, sat, gs)
        # Any subset, in any order, with repeats.
        idx = rng.integers(0, max(1, sat.size), rng.integers(0, sat.size + 1))
        _assert_same_bits(
            pair_geometry(engine, positions, sat[idx], gs[idx]),
            tuple(column[idx] for column in full),
        )
        _assert_same_bits(
            pair_geometry(engine, positions[sat[idx]],
                          np.arange(idx.size), gs[idx]),
            tuple(column[idx] for column in full),
        )

    @settings(max_examples=80, deadline=None)
    @given(positions=blocks())
    def test_scan_ids_carry_the_oracles_geometry(self, positions):
        """On ``scan_visible``'s ids, and on every candidate, the
        geometry equals :func:`tests.oracle.pair_visibility`'s."""
        engine = _engine()
        _same_rows(engine, positions)
        sat, gs = engine.grid.candidate_pairs(positions)
        elevation, rng, _visible = pair_visibility(engine, positions, sat, gs)
        _assert_same_bits(pair_geometry(engine, positions, sat, gs),
                          (elevation, rng))
