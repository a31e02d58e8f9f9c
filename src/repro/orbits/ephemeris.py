"""Fleet-wide ephemeris: batched SGP4 and a cached position grid.

The scheduling loop needs every satellite's ECEF position at every
scheduling instant, and every experiment variant (fig3a/3b/3c, the
ablations) needs them over the *same* horizon for the *same* fleet.  The
seed implementation called the scalar :meth:`repro.orbits.sgp4.SGP4.propagate`
once per satellite per step -- ~375k pure-Python propagations per
simulated day, repeated per variant.  This module removes both costs:

* :class:`BatchSGP4` stacks the per-satellite SGP4 coefficients into
  NumPy arrays and propagates the whole fleet (for any number of time
  offsets) in one vectorized pass, including the Kepler solve.  The math
  mirrors ``sgp4.py`` term for term, so positions agree with the scalar
  propagator to well under a metre (see ``tests/orbits/test_ephemeris.py``).
* :class:`EphemerisTable` evaluates the batch propagator on a fixed
  ``(start, step_s, num_steps)`` grid, rotates TEME -> ECEF once per step,
  and stores the resulting ``(num_steps, M, 3)`` position grid for O(1)
  per-instant lookup.
* :func:`shared_ephemeris_table` memoizes tables by fleet + grid so the
  figure runs and every ablation variant reuse one propagation, and can
  optionally persist tables to disk (``REPRO_EPHEMERIS_CACHE`` or the
  ``cache_dir`` argument).

Satellites whose batched positions disagree with the scalar propagator at
the grid start (exotic element sets; none in the paper's fleet) fall back
to per-satellite scalar propagation for their column of the table.
"""

from __future__ import annotations

import hashlib
import operator
import os
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

from repro.orbits.sgp4 import SGP4, SGP4Error
from repro.orbits.timebase import datetime_to_jd, gmst_rad

__all__ = [
    "BatchSGP4",
    "EphemerisTable",
    "StreamingEphemerisTable",
    "attach_shared_tables",
    "clear_ephemeris_cache",
    "export_shared_table",
    "shared_ephemeris_table",
]

#: Batch-vs-scalar disagreement (km) above which a satellite's column is
#: recomputed with the scalar propagator.  The vectorized math tracks the
#: scalar path to ~1e-9 km, so anything past this is a genuinely exotic
#: element set.
_FALLBACK_TOLERANCE_KM = 1e-3

#: float32 storage rounds positions by up to ~1 m at LEO radii, so the
#: fallback comparison needs commensurate slack -- anything below it is
#: storage rounding, not an exotic element set.
_FALLBACK_TOLERANCE_F32_KM = 5e-2

#: Grid-alignment slack when mapping a datetime onto a table row.
_GRID_TOLERANCE_S = 1e-6


def _fallback_tolerance_km(dtype: np.dtype) -> float:
    return (_FALLBACK_TOLERANCE_F32_KM if np.dtype(dtype) == np.float32
            else _FALLBACK_TOLERANCE_KM)


def _fallback_satellites(row0: np.ndarray, propagators: Sequence[SGP4],
                         start: datetime) -> list[int]:
    """Satellites whose batched ``row0`` disagrees with scalar SGP4.

    ``row0`` is the fleet's stored ``(M, 3)`` ECEF row at ``start``.  One
    scalar propagation per satellite, then one rotation and one distance
    comparison for the whole fleet.
    """
    scalar_teme = np.array([prop.propagate(start)[0] for prop in propagators])
    scalar_ecef = _rotate_teme_to_ecef(
        scalar_teme.reshape(1, -1, 3),
        np.array([gmst_rad(datetime_to_jd(start))]),
    )[0]
    distance_km = np.linalg.norm(row0 - scalar_ecef, axis=1)
    return np.flatnonzero(
        distance_km > _fallback_tolerance_km(row0.dtype)
    ).tolist()


class BatchSGP4:
    """Vectorized SGP4 over a fleet: one propagation call, M satellites.

    Construction stacks the coefficients that each satellite's scalar
    :class:`SGP4` initialization already computed; :meth:`propagate_tsince`
    then evaluates the whole near-Earth propagation (secular gravity,
    drag, long/short-period periodics, vectorized Kepler solve) as NumPy
    array expressions.  ``tsince`` may be shape ``(M,)`` for one instant
    or ``(K, M)`` for K instants at once.
    """

    _COEFFS = (
        "_eo", "_xincl", "_omegao", "_xmo", "_xnodeo", "_bstar",
        "_xnodp", "_aodp", "_xmdot", "_omgdot", "_xnodot", "_xnodcf",
        "_t2cof", "_c1", "_c4", "_c5", "_omgcof", "_xmcof", "_eta",
        "_delmo", "_sinmo", "_xlcof", "_aycof", "_x3thm1", "_x1mth2",
        "_x7thm1", "_cosio", "_sinio", "_ck2",
    )
    _DRAG_COEFFS = ("_d2", "_d3", "_d4", "_t3cof", "_t4cof", "_t5cof")

    def __init__(self, propagators: Sequence[SGP4]):
        self.propagators = list(propagators)
        self.num_satellites = len(self.propagators)
        self.satnums = np.array(
            [p.tle.satnum for p in self.propagators], dtype=np.int64
        )
        for name in self._COEFFS:
            values = [getattr(p, name) for p in self.propagators]
            setattr(self, name, np.array(values, dtype=float))
        # Higher-order drag terms exist only for perigee >= 220 km; a zero
        # coefficient is exactly the scalar "skip this term" branch for
        # tempa/tempe/templ, and _isimp masks the delomg/delm correction.
        self._isimp = np.array(
            [p._isimp for p in self.propagators], dtype=bool
        )
        for name in self._DRAG_COEFFS:
            values = [getattr(p, name, 0.0) for p in self.propagators]
            setattr(self, name, np.array(values, dtype=float))
        if self.propagators:
            self._xke = self.propagators[0]._xke
            self._xkmper = self.propagators[0]._xkmper
        else:  # empty fleet: keep propagate() well-defined
            self._xke, self._xkmper = 0.0743669161, 6378.135

    def propagate_tsince(
        self, tsince_min: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched propagation ``tsince_min`` minutes past each TLE epoch.

        ``tsince_min`` has shape ``(..., M)``; returns TEME
        ``(position_km, velocity_km_s)`` of shape ``(..., M, 3)``.
        """
        t = np.asarray(tsince_min, dtype=float)
        if t.shape[-1:] != (self.num_satellites,):
            raise ValueError(
                f"tsince last axis must be {self.num_satellites}, "
                f"got shape {t.shape}"
            )

        # Secular gravity and atmospheric drag.
        xmdf = self._xmo + self._xmdot * t
        omgadf = self._omegao + self._omgdot * t
        xnoddf = self._xnodeo + self._xnodot * t
        tsq = t * t
        xnode = xnoddf + self._xnodcf * tsq
        tempa = 1.0 - self._c1 * t
        tempe = self._bstar * self._c4 * t
        templ = self._t2cof * tsq

        delomg = self._omgcof * t
        delm = self._xmcof * ((1.0 + self._eta * np.cos(xmdf)) ** 3 - self._delmo)
        corr = delomg + delm
        nonsimp = ~self._isimp
        xmp = np.where(nonsimp, xmdf + corr, xmdf)
        omega = np.where(nonsimp, omgadf - corr, omgadf)
        tcube = tsq * t
        tfour = t * tcube
        tempa = tempa - self._d2 * tsq - self._d3 * tcube - self._d4 * tfour
        tempe = np.where(
            nonsimp,
            tempe + self._bstar * self._c5 * (np.sin(xmp) - self._sinmo),
            tempe,
        )
        templ = templ + self._t3cof * tcube + self._t4cof * tfour \
            + self._t5cof * t * tfour

        a = self._aodp * tempa * tempa
        e = self._eo - tempe
        bad = (e >= 1.0) | (e < -0.001) | (a < 0.95)
        if bad.any():
            index = int(np.argwhere(bad)[0][-1])
            raise SGP4Error(
                f"satellite {int(self.satnums[index])} decayed or propagation "
                "diverged during batch propagation"
            )
        e = np.maximum(e, 1e-6)
        xl = xmp + omega + xnode + self._xnodp * templ
        beta = np.sqrt(1.0 - e * e)
        xn = self._xke / a**1.5

        # Long period periodics.
        axn = e * np.cos(omega)
        temp = 1.0 / (a * beta * beta)
        xll = temp * self._xlcof * axn
        aynl = temp * self._aycof
        xlt = xl + xll
        ayn = e * np.sin(omega) + aynl

        # Kepler solve in (axn, ayn) variables, all satellites at once.
        # Converged entries sit at a fixed point of the update, so running
        # them through the remaining iterations changes nothing material.
        capu = np.mod(xlt - xnode, 2.0 * np.pi)
        epw = capu.copy()
        for _ in range(10):
            sinepw = np.sin(epw)
            cosepw = np.cos(epw)
            temp3 = axn * sinepw
            temp4 = ayn * cosepw
            temp5 = axn * cosepw
            temp6 = ayn * sinepw
            new_epw = (capu - temp4 + temp3 - epw) / (1.0 - temp5 - temp6) + epw
            done = np.abs(new_epw - epw) <= 1e-12
            epw = new_epw
            if done.all():
                break
        sinepw = np.sin(epw)
        cosepw = np.cos(epw)
        temp3 = axn * sinepw
        temp4 = ayn * cosepw
        temp5 = axn * cosepw
        temp6 = ayn * sinepw

        # Short period preliminary quantities.
        ecose = temp5 + temp6
        esine = temp3 - temp4
        elsq = axn * axn + ayn * ayn
        temp = 1.0 - elsq
        pl = a * temp
        if (pl < 0.0).any():
            index = int(np.argwhere(pl < 0.0)[0][-1])
            raise SGP4Error(
                f"satellite {int(self.satnums[index])}: semilatus rectum "
                "went negative during batch propagation"
            )
        r = a * (1.0 - ecose)
        temp1 = 1.0 / r
        rdot = self._xke * np.sqrt(a) * esine * temp1
        rfdot = self._xke * np.sqrt(pl) * temp1
        temp2 = a * temp1
        betal = np.sqrt(temp)
        temp3 = 1.0 / (1.0 + betal)
        cosu = temp2 * (cosepw - axn + ayn * esine * temp3)
        sinu = temp2 * (sinepw - ayn - axn * esine * temp3)
        u = np.arctan2(sinu, cosu)
        sin2u = 2.0 * sinu * cosu
        cos2u = 2.0 * cosu * cosu - 1.0
        temp = 1.0 / pl
        temp1 = self._ck2 * temp
        temp2 = temp1 * temp

        # Update for short periodics.
        rk = r * (1.0 - 1.5 * temp2 * betal * self._x3thm1) \
            + 0.5 * temp1 * self._x1mth2 * cos2u
        uk = u - 0.25 * temp2 * self._x7thm1 * sin2u
        xnodek = xnode + 1.5 * temp2 * self._cosio * sin2u
        xinck = self._xincl + 1.5 * temp2 * self._cosio * self._sinio * cos2u
        rdotk = rdot - xn * temp1 * self._x1mth2 * sin2u
        rfdotk = rfdot + xn * temp1 * (self._x1mth2 * cos2u + 1.5 * self._x3thm1)

        # Orientation vectors.
        sinuk = np.sin(uk)
        cosuk = np.cos(uk)
        sinik = np.sin(xinck)
        cosik = np.cos(xinck)
        sinnok = np.sin(xnodek)
        cosnok = np.cos(xnodek)
        xmx = -sinnok * cosik
        xmy = cosnok * cosik
        ux = xmx * sinuk + cosnok * cosuk
        uy = xmy * sinuk + sinnok * cosuk
        uz = sinik * sinuk
        vx = xmx * cosuk - cosnok * sinuk
        vy = xmy * cosuk - sinnok * sinuk
        vz = sinik * cosuk

        pos = np.stack([rk * ux, rk * uy, rk * uz], axis=-1) * self._xkmper
        vel = np.stack(
            [
                rdotk * ux + rfdotk * vx,
                rdotk * uy + rfdotk * vy,
                rdotk * uz + rfdotk * vz,
            ],
            axis=-1,
        ) * (self._xkmper / 60.0)
        return pos, vel


class EphemerisTable:
    """Precomputed fleet ECEF positions on a fixed scheduling grid.

    ``positions_ecef[k, i]`` is satellite ``i``'s ECEF position (km) at
    ``start + k * step_s``.  Built once per (fleet, grid) and shared
    across experiment variants via :func:`shared_ephemeris_table`.
    """

    def __init__(self, start: datetime, step_s: float,
                 positions_ecef: np.ndarray):
        if step_s <= 0:
            raise ValueError("step must be positive")
        # Preserve float32 storage (and shared-memory buffer views -- no
        # copy when the dtype already matches); everything else normalizes
        # to float64 as before.
        positions_ecef = np.asarray(positions_ecef)
        if positions_ecef.dtype != np.float32:
            positions_ecef = np.asarray(positions_ecef, dtype=float)
        if positions_ecef.ndim != 3 or positions_ecef.shape[-1] != 3:
            raise ValueError(
                f"positions must have shape (num_steps, M, 3), "
                f"got {positions_ecef.shape}"
            )
        self.start = start
        self.step_s = float(step_s)
        self.positions = positions_ecef
        self.num_steps = positions_ecef.shape[0]
        self.num_satellites = positions_ecef.shape[1]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, satellites: Sequence, start: datetime, num_steps: int,
              step_s: float, chunk_steps: int = 128,
              dtype: str = "float64") -> "EphemerisTable":
        """Batch-propagate a fleet over the grid and rotate into ECEF.

        ``satellites`` is anything carrying a ``tle`` (a
        :class:`repro.satellites.satellite.Satellite` or a bare propagator
        wrapper).  ``chunk_steps`` bounds the size of the temporaries the
        vectorized propagation allocates.  ``dtype="float32"`` halves the
        stored table (propagation still runs in float64; only storage is
        rounded -- sub-metre at LEO radii).
        """
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        propagators = [_propagator_of(sat) for sat in satellites]
        batch = BatchSGP4(propagators)
        m = batch.num_satellites
        positions = np.empty((num_steps, m, 3), dtype=np.dtype(dtype))
        if m == 0:
            return cls(start, step_s, positions)

        epoch_offset_min = np.array(
            [
                (start - p.tle.epoch).total_seconds() / 60.0
                for p in propagators
            ]
        )
        step_min = step_s / 60.0
        jd0 = datetime_to_jd(start)
        for lo in range(0, num_steps, chunk_steps):
            hi = min(lo + chunk_steps, num_steps)
            k = np.arange(lo, hi, dtype=float)
            tsince = epoch_offset_min[None, :] + k[:, None] * step_min
            teme, _vel = batch.propagate_tsince(tsince)
            theta = np.array(
                [gmst_rad(jd0 + kk * step_s / 86400.0) for kk in k]
            )
            positions[lo:hi] = _rotate_teme_to_ecef(teme, theta)

        table = cls(start, step_s, positions)
        table._apply_scalar_fallback(propagators)
        return table

    def _apply_scalar_fallback(self, propagators: list[SGP4]) -> None:
        """Recompute columns where the batch path disagrees with scalar.

        :func:`_fallback_satellites` flags exotic element sets from the
        grid start; flagged satellites get their whole column from the
        reference scalar propagator.
        """
        for i in _fallback_satellites(self.positions[0], propagators,
                                      self.start):
            prop = propagators[i]
            for k in range(self.num_steps):
                when = self.start + timedelta(seconds=k * self.step_s)
                pos, _ = prop.propagate(when)
                theta = gmst_rad(datetime_to_jd(when))
                self.positions[k, i] = _rotate_teme_to_ecef(
                    pos[None, None, :], np.array([theta])
                )[0, 0]

    # -- lookup ------------------------------------------------------------

    def index_of(self, when: datetime) -> int | None:
        """Grid row for ``when``, or None when off-grid / out of range."""
        offset_s = (when - self.start).total_seconds()
        k = offset_s / self.step_s
        nearest = round(k)
        if abs(offset_s - nearest * self.step_s) > _GRID_TOLERANCE_S:
            return None
        if not 0 <= nearest < self.num_steps:
            return None
        return int(nearest)

    def positions_ecef(self, when: datetime) -> np.ndarray | None:
        """All-fleet ``(M, 3)`` ECEF positions at ``when``, if on-grid."""
        index = self.index_of(when)
        if index is None:
            return None
        return self.positions[index]

    def covers(self, start: datetime, num_steps: int, step_s: float) -> bool:
        """Whether this table serves a request for the given grid."""
        if abs(step_s - self.step_s) > 1e-9:
            return False
        if abs((start - self.start).total_seconds()) > _GRID_TOLERANCE_S:
            return False
        return num_steps <= self.num_steps

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the table as a compressed ``.npz`` archive."""
        np.savez_compressed(
            path,
            positions=self.positions,
            start=np.array([self.start.isoformat()]),
            step_s=np.array([self.step_s]),
        )

    @classmethod
    def load(cls, path: str) -> "EphemerisTable":
        with np.load(path, allow_pickle=False) as data:
            start = datetime.fromisoformat(str(data["start"][0]))
            return cls(start, float(data["step_s"][0]), data["positions"])


class StreamingEphemerisTable:
    """Window-on-demand ephemeris with the :class:`EphemerisTable` lookup API.

    A 10k-satellite day at minute cadence is 1440 x 10000 x 3 float64 --
    ~350 MB of positions, most of which the minute-by-minute scheduling
    loop never holds live at once.  This table materializes only
    ``window_steps``-row windows, built lazily as lookups walk the grid,
    keeping at most ``max_resident`` windows in memory (two, so the
    planned-mode lookahead that reads slightly ahead of the live cursor
    does not thrash).

    Rows are bit-identical to the monolithic :meth:`EphemerisTable.build`
    output: windows are computed with the *global* grid arithmetic
    (absolute row indices against the global start, the same expressions
    the monolithic chunk loop evaluates), and the scalar-fallback decision
    is made once from global row 0, exactly as the monolithic build does.
    """

    def __init__(self, satellites: Sequence, start: datetime,
                 num_steps: int, step_s: float, window_steps: int = 512,
                 dtype: str = "float64", max_resident: int = 2,
                 recorder=None):
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        if step_s <= 0:
            raise ValueError("step must be positive")
        if window_steps <= 0:
            raise ValueError("window_steps must be positive")
        if max_resident <= 0:
            raise ValueError("max_resident must be positive")
        self.start = start
        self.step_s = float(step_s)
        self.num_steps = int(num_steps)
        self.window_steps = int(window_steps)
        self.dtype = np.dtype(dtype)
        self.max_resident = int(max_resident)
        self._recorder = recorder
        self._propagators = [_propagator_of(sat) for sat in satellites]
        self._batch = BatchSGP4(self._propagators)
        self.num_satellites = self._batch.num_satellites
        self._windows: dict[int, np.ndarray] = {}
        self._lru: list[int] = []
        self.window_builds = 0
        self._epoch_offset_min = np.array(
            [
                (start - p.tle.epoch).total_seconds() / 60.0
                for p in self._propagators
            ]
        )
        self._jd0 = datetime_to_jd(start)
        # Flag exotic element sets once, from global row 0 -- the same
        # comparison (and therefore the same flags) as the monolithic
        # build, so fallback columns match too.
        self._fallback_sats: list[int] = []
        if self.num_satellites:
            self._fallback_sats = _fallback_satellites(
                self._compute_rows(0, 1, fallback=False)[0],
                self._propagators, start,
            )

    def _compute_rows(self, lo: int, hi: int,
                      fallback: bool = True) -> np.ndarray:
        """Rows ``[lo, hi)`` of the global grid, in storage dtype."""
        k = np.arange(lo, hi, dtype=float)
        step_min = self.step_s / 60.0
        tsince = self._epoch_offset_min[None, :] + k[:, None] * step_min
        teme, _vel = self._batch.propagate_tsince(tsince)
        theta = np.array(
            [gmst_rad(self._jd0 + kk * self.step_s / 86400.0) for kk in k]
        )
        rows = np.empty((hi - lo, self.num_satellites, 3), dtype=self.dtype)
        rows[:] = _rotate_teme_to_ecef(teme, theta)
        if fallback:
            for i in self._fallback_sats:
                for kk in range(lo, hi):
                    when = self.start + timedelta(seconds=kk * self.step_s)
                    pos, _ = self._propagators[i].propagate(when)
                    theta1 = gmst_rad(datetime_to_jd(when))
                    rows[kk - lo, i] = _rotate_teme_to_ecef(
                        pos[None, None, :], np.array([theta1])
                    )[0, 0]
        return rows

    def _window(self, w: int) -> np.ndarray:
        rows = self._windows.get(w)
        if rows is not None:
            self._lru.remove(w)
            self._lru.append(w)
            return rows
        lo = w * self.window_steps
        hi = min(lo + self.window_steps, self.num_steps)
        rows = self._compute_rows(lo, hi)
        self._windows[w] = rows
        self._lru.append(w)
        self.window_builds += 1
        if self._recorder is not None:
            self._recorder.counter("ephemeris_stream/window_builds")
        while len(self._lru) > self.max_resident:
            evicted = self._lru.pop(0)
            del self._windows[evicted]
        return rows

    # -- lookup (EphemerisTable interface) -------------------------------

    def index_of(self, when: datetime) -> int | None:
        offset_s = (when - self.start).total_seconds()
        k = offset_s / self.step_s
        nearest = round(k)
        if abs(offset_s - nearest * self.step_s) > _GRID_TOLERANCE_S:
            return None
        if not 0 <= nearest < self.num_steps:
            return None
        return int(nearest)

    def positions_ecef(self, when: datetime) -> np.ndarray | None:
        index = self.index_of(when)
        if index is None:
            return None
        w = index // self.window_steps
        return self._window(w)[index - w * self.window_steps]

    def covers(self, start: datetime, num_steps: int, step_s: float) -> bool:
        if abs(step_s - self.step_s) > 1e-9:
            return False
        if abs((start - self.start).total_seconds()) > _GRID_TOLERANCE_S:
            return False
        return num_steps <= self.num_steps


# --------------------------------------------------------------------------
# Shared keyed cache: one propagation per (fleet, grid) per process.
# --------------------------------------------------------------------------

_TABLE_CACHE: dict[tuple, EphemerisTable] = {}

#: Shared-memory ephemeris handles published by a parent process (sweep
#: runner): cache-key digest -> (shm_name, shape, dtype, start_iso,
#: step_s).  Workers consult it on cache miss and map the parent's table
#: instead of rebuilding.  Survives :func:`clear_ephemeris_cache` -- the
#: registry describes tables owned by the parent, not this process.
_SHM_REGISTRY: dict[str, tuple] = {}


def _propagator_of(sat) -> SGP4:
    """The scalar SGP4 propagator behind a satellite-like object."""
    prop = getattr(sat, "_propagator", None)
    if isinstance(prop, SGP4):
        return prop
    if isinstance(sat, SGP4):
        return sat
    return SGP4(sat.tle)


#: The TLE fields :meth:`~repro.orbits.tle.TLE.to_lines` prints.
_ELEMENT_FIELDS = (
    "satnum", "classification", "intl_designator", "epoch_year",
    "epoch_day", "ndot", "nddot", "bstar", "ephemeris_type",
    "element_set_no", "inclination_deg", "raan_deg", "eccentricity",
    "argp_deg", "mean_anomaly_deg", "mean_motion_rev_day", "rev_number",
)
_elements_of = operator.attrgetter(*_ELEMENT_FIELDS)


def _fleet_key(satellites: Sequence) -> tuple:
    """Identity of a fleet's orbits, order-sensitive.

    Each TLE's printed fields at their exact values: SGP4 reads the
    elements unrounded, so two sets that print the same lines can still
    propagate metres apart, and an element set outside the print range
    (|ndot| >= 1) still has a key.
    """
    return tuple(_elements_of(_propagator_of(sat).tle) for sat in satellites)


def _table_key(satellites: Sequence, start: datetime, step_s: float,
               dtype: str) -> tuple:
    return (
        _fleet_key(satellites), start.isoformat(),
        round(float(step_s), 9), str(np.dtype(dtype)),
    )


def _key_digest(key: tuple) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:24]


def shared_ephemeris_table(
    satellites: Sequence,
    start: datetime,
    num_steps: int,
    step_s: float,
    cache_dir: str | None = None,
    recorder=None,
    dtype: str = "float64",
) -> EphemerisTable:
    """Fetch (or build) the fleet's position grid from the shared cache.

    Tables are keyed by (exact TLE elements, start, step, dtype); a
    cached table with at least ``num_steps`` rows serves any shorter
    request, so fig3a/3b/3c and every ablation over the same horizon
    share one propagation.  With ``cache_dir`` (or
    ``$REPRO_EPHEMERIS_CACHE``) set, tables also persist to disk and
    survive across processes.  When the parent process
    published a shared-memory table for this key
    (:func:`export_shared_table` / :func:`attach_shared_tables`), a cache
    miss maps that table instead of rebuilding -- zero-copy, one
    propagation for the whole worker pool.  ``recorder`` (a
    :class:`repro.obs.Recorder`) receives hit/miss counters
    (``ephemeris_cache/memory_hit`` / ``shm_hit`` / ``disk_hit`` /
    ``build``).
    """
    key = _table_key(satellites, start, step_s, dtype)
    cached = _TABLE_CACHE.get(key)
    if cached is not None and cached.covers(start, num_steps, step_s):
        if recorder is not None:
            recorder.counter("ephemeris_cache/memory_hit")
        return cached

    digest = _key_digest(key)
    handle = _SHM_REGISTRY.get(digest)
    if handle is not None:
        table = _attach_shm_table(handle)
        if table is not None and table.covers(start, num_steps, step_s):
            _TABLE_CACHE[key] = table
            if recorder is not None:
                recorder.counter("ephemeris_cache/shm_hit")
            return table

    cache_dir = cache_dir or os.environ.get("REPRO_EPHEMERIS_CACHE")
    disk_path = None
    if cache_dir:
        disk_path = os.path.join(cache_dir, f"ephemeris_{digest}.npz")
        if os.path.exists(disk_path):
            try:
                table = EphemerisTable.load(disk_path)
            except Exception:
                # Corrupt / truncated / foreign file: rebuild and overwrite.
                table = None
            if table is not None and table.covers(start, num_steps, step_s):
                _TABLE_CACHE[key] = table
                if recorder is not None:
                    recorder.counter("ephemeris_cache/disk_hit")
                return table

    table = EphemerisTable.build(satellites, start, num_steps, step_s,
                                 dtype=dtype)
    _TABLE_CACHE[key] = table
    if recorder is not None:
        recorder.counter("ephemeris_cache/build")
    if disk_path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        _atomic_save(table, disk_path, cache_dir)
    return table


# --------------------------------------------------------------------------
# Shared-memory tables: one propagation for a whole worker pool.
# --------------------------------------------------------------------------


def export_shared_table(
    satellites: Sequence,
    start: datetime,
    num_steps: int,
    step_s: float,
    dtype: str = "float64",
) -> tuple[str, tuple, object]:
    """Build a table and publish it in POSIX shared memory.

    For the parent of a worker pool: returns ``(digest, handle, shm)``
    where ``handle`` is the picklable descriptor workers pass to
    :func:`attach_shared_tables` and ``shm`` is the owning
    ``SharedMemory`` block the parent must ``close()`` + ``unlink()``
    after the pool finishes.  The build deliberately bypasses this
    process's ``_TABLE_CACHE`` so forked workers cannot inherit a private
    copy and silently skip the shared path.
    """
    from multiprocessing import shared_memory

    table = EphemerisTable.build(satellites, start, num_steps, step_s,
                                 dtype=dtype)
    shm = shared_memory.SharedMemory(create=True,
                                     size=table.positions.nbytes)
    view = np.ndarray(table.positions.shape, dtype=table.positions.dtype,
                      buffer=shm.buf)
    view[:] = table.positions
    key = _table_key(satellites, start, step_s, dtype)
    handle = (
        shm.name, table.positions.shape, str(table.positions.dtype),
        start.isoformat(), float(step_s),
    )
    return _key_digest(key), handle, shm


def attach_shared_tables(handles: dict[str, tuple]) -> None:
    """Register parent-published shared-memory table handles.

    Called in worker processes before any simulation runs; subsequent
    :func:`shared_ephemeris_table` misses for a registered key map the
    parent's block instead of rebuilding.
    """
    _SHM_REGISTRY.update(handles)


def _attach_shm_table(handle: tuple) -> EphemerisTable | None:
    """Map a parent-published block as an :class:`EphemerisTable`."""
    from multiprocessing import resource_tracker, shared_memory

    name, shape, dtype_str, start_iso, step_s = handle
    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return None
    # The attach re-registered the block with this process's resource
    # tracker (fixed by track=False only in newer Pythons); unregister so
    # the parent, which owns the block, performs the single unlink.
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    positions = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str),
                           buffer=shm.buf)
    table = EphemerisTable(datetime.fromisoformat(start_iso),
                           float(step_s), positions)
    # Keep the mapping alive for the table's lifetime.
    table._shm = shm
    return table


def _atomic_save(table: EphemerisTable, disk_path: str,
                 cache_dir: str) -> None:
    """Write the table to a temp file and atomically rename into place.

    A process killed mid-write must never leave a truncated ``.npz`` at
    the final path -- readers tolerate corrupt caches by rebuilding, but a
    half-written file would be silently re-read on every run until evicted.
    The temp file lives in ``cache_dir`` so the ``os.replace`` stays on
    one filesystem (rename is only atomic within a filesystem).
    """
    import tempfile

    fd, tmp_path = tempfile.mkstemp(
        dir=cache_dir, prefix=".ephemeris_tmp_", suffix=".npz"
    )
    os.close(fd)
    try:
        table.save(tmp_path)
        os.replace(tmp_path, disk_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def clear_ephemeris_cache() -> None:
    """Drop all in-memory cached tables (tests use this)."""
    _TABLE_CACHE.clear()


def _rotate_teme_to_ecef(teme: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Rotate ``(K, M, 3)`` TEME positions by per-step GMST angles ``(K,)``."""
    cos_t = np.cos(theta)[:, None]
    sin_t = np.sin(theta)[:, None]
    x = teme[..., 0]
    y = teme[..., 1]
    return np.stack(
        [cos_t * x + sin_t * y, -sin_t * x + cos_t * y, teme[..., 2]],
        axis=-1,
    )
