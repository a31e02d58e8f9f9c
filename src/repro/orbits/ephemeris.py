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
    "clear_ephemeris_cache",
    "shared_ephemeris_table",
]

#: Batch-vs-scalar disagreement (km) above which a satellite's column is
#: recomputed with the scalar propagator.  The vectorized math tracks the
#: scalar path to ~1e-9 km, so anything past this is a genuinely exotic
#: element set.
_FALLBACK_TOLERANCE_KM = 1e-3

#: Grid-alignment slack when mapping a datetime onto a table row.
_GRID_TOLERANCE_S = 1e-6

#: Build-chunk bound: grid steps propagated per vectorized pass.  It
#: caps the temporaries the batch propagation allocates; no value
#: changes a stored position.
_BUILD_CHUNK_STEPS = 128


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
    return np.flatnonzero(distance_km > _FALLBACK_TOLERANCE_KM).tolist()


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
              step_s: float) -> "EphemerisTable":
        """Batch-propagate a fleet over the grid and rotate into ECEF.

        ``satellites`` is anything carrying a ``tle`` (a
        :class:`repro.satellites.satellite.Satellite` or a bare propagator
        wrapper).  Steps are propagated :data:`_BUILD_CHUNK_STEPS` at a
        time.
        """
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        propagators = [_propagator_of(sat) for sat in satellites]
        batch = BatchSGP4(propagators)
        m = batch.num_satellites
        positions = np.empty((num_steps, m, 3))
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
        for lo in range(0, num_steps, _BUILD_CHUNK_STEPS):
            hi = min(lo + _BUILD_CHUNK_STEPS, num_steps)
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


# --------------------------------------------------------------------------
# Shared keyed cache: one propagation per (fleet, grid) per process.
# --------------------------------------------------------------------------

_TABLE_CACHE: dict[tuple, EphemerisTable] = {}


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


def shared_ephemeris_table(
    satellites: Sequence,
    start: datetime,
    num_steps: int,
    step_s: float,
    cache_dir: str | None = None,
    recorder=None,
) -> EphemerisTable:
    """Fetch (or build) the fleet's position grid from the shared cache.

    Tables are keyed by (exact TLE elements, start, step); a cached
    table with at least ``num_steps`` rows serves any shorter request,
    so fig3a/3b/3c and every ablation over the same horizon share one
    propagation.  With ``cache_dir`` (or ``$REPRO_EPHEMERIS_CACHE``)
    set, tables also persist to disk and survive across processes.
    ``recorder`` (a :class:`repro.obs.Recorder`) receives hit/miss
    counters (``ephemeris_cache/memory_hit`` / ``disk_hit`` /
    ``build``).
    """
    key = (_fleet_key(satellites), start.isoformat(), round(float(step_s), 9))
    cached = _TABLE_CACHE.get(key)
    if cached is not None and cached.covers(start, num_steps, step_s):
        if recorder is not None:
            recorder.counter("ephemeris_cache/memory_hit")
        return cached

    cache_dir = cache_dir or os.environ.get("REPRO_EPHEMERIS_CACHE")
    disk_path = None
    if cache_dir:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:24]
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

    table = EphemerisTable.build(satellites, start, num_steps, step_s)
    _TABLE_CACHE[key] = table
    if recorder is not None:
        recorder.counter("ephemeris_cache/build")
    if disk_path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        _atomic_save(table, disk_path, cache_dir)
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
