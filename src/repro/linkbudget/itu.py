"""ITU-R atmospheric attenuation models (P.838, P.839, P.840, P.676-lite).

The paper (Sec. 3.2) predicts the weather-dependent loss component with the
ITU recommendations [19-21]:

* **P.838-3** -- rain *specific* attenuation gamma_R = k * R^alpha, with the
  published frequency regressions for the k and alpha coefficients in both
  horizontal and vertical polarization (valid 1-1000 GHz).
* **P.839** -- rain height above mean sea level.  The map-based P.839-4
  needs a digital data file that cannot ship here; we implement the
  latitude-based model of P.839-2, which the map revision superseded but
  which matches it to a few hundred metres at the station latitudes used.
* **P.840** -- cloud/fog attenuation from columnar liquid water via the
  Rayleigh approximation with a double-Debye water permittivity.
* A small table-driven approximation of **P.676** zenith gaseous
  attenuation (the paper does not call P.676 out, but every real X-band
  budget carries the ~0.1 dB term, and it matters at Ka band ablations).

All functions are pure and deterministic so they can be property-tested.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# --------------------------------------------------------------------------
# ITU-R P.838-3: specific attenuation coefficients k and alpha.
#
# log10 k  = sum_j a_j * exp(-((log10 f - b_j)/c_j)^2) + m_k*log10 f + c_k
# alpha    = sum_j a_j * exp(-((log10 f - b_j)/c_j)^2) + m_a*log10 f + c_a
# --------------------------------------------------------------------------

_KH = {
    "a": (-5.33980, -0.35351, -0.23789, -0.94158),
    "b": (-0.10008, 1.26970, 0.86036, 0.64552),
    "c": (1.13098, 0.45400, 0.15354, 0.16817),
    "m": -0.18961,
    "offset": 0.71147,
}
_KV = {
    "a": (-3.80595, -3.44965, -0.39902, 0.50167),
    "b": (0.56934, -0.22911, 0.73042, 1.07319),
    "c": (0.81061, 0.51059, 0.11899, 0.27195),
    "m": -0.16398,
    "offset": 0.63297,
}
_ALPHA_H = {
    "a": (-0.14318, 0.29591, 0.32177, -5.37610, 16.1721),
    "b": (1.82442, 0.77564, 0.63773, -0.96230, -3.29980),
    "c": (-0.55187, 0.19822, 0.13164, 1.47828, 3.43990),
    "m": 0.67849,
    "offset": -1.95537,
}
_ALPHA_V = {
    "a": (-0.07771, 0.56727, -0.20238, -48.2991, 48.5833),
    "b": (2.33840, 0.95545, 1.14520, 0.791669, 0.791459),
    "c": (-0.76284, 0.54039, 0.26809, 0.116226, 0.116479),
    "m": -0.053739,
    "offset": 0.83433,
}


def _regression(coeffs: dict, frequency_ghz: float) -> float:
    log_f = math.log10(frequency_ghz)
    total = coeffs["m"] * log_f + coeffs["offset"]
    for a, b, c in zip(coeffs["a"], coeffs["b"], coeffs["c"]):
        total += a * math.exp(-(((log_f - b) / c) ** 2))
    return total


#: (frequency, polarization) -> (k, alpha) memo: the regression is pure
#: and a simulation uses a handful of carrier frequencies, yet the batch
#: rain kernel asks every step.
_RAIN_COEFF_CACHE: dict[tuple[float, str], tuple[float, float]] = {}


def rain_coefficients(frequency_ghz: float,
                      polarization: str = "circular") -> tuple[float, float]:
    """P.838-3 (k, alpha) for a frequency and polarization.

    ``polarization`` is ``"h"``, ``"v"``, or ``"circular"`` (the equal-power
    combination used when the link tilt is unknown; exact for a 45 deg tilt
    at zero elevation and an excellent approximation for LEO downlinks).
    """
    cache_key = (frequency_ghz, polarization)
    cached = _RAIN_COEFF_CACHE.get(cache_key)
    if cached is not None:
        return cached
    if not 1.0 <= frequency_ghz <= 1000.0:
        raise ValueError(
            f"P.838 is defined for 1-1000 GHz, got {frequency_ghz} GHz"
        )
    k_h = 10.0 ** _regression(_KH, frequency_ghz)
    k_v = 10.0 ** _regression(_KV, frequency_ghz)
    a_h = _regression(_ALPHA_H, frequency_ghz)
    a_v = _regression(_ALPHA_V, frequency_ghz)
    pol = polarization.lower()
    if pol in {"h", "horizontal"}:
        result = (k_h, a_h)
    elif pol in {"v", "vertical"}:
        result = (k_v, a_v)
    elif pol in {"c", "circular"}:
        k = (k_h + k_v) / 2.0
        alpha = (k_h * a_h + k_v * a_v) / (2.0 * k)
        result = (k, alpha)
    else:
        raise ValueError(f"unknown polarization {polarization!r}")
    _RAIN_COEFF_CACHE[cache_key] = result
    return result


def rain_specific_attenuation_db_km(
    rain_rate_mm_h: float,
    frequency_ghz: float,
    polarization: str = "circular",
) -> float:
    """gamma_R = k * R^alpha (dB/km) for an instantaneous rain rate."""
    if rain_rate_mm_h < 0.0:
        raise ValueError(f"rain rate cannot be negative: {rain_rate_mm_h}")
    if rain_rate_mm_h == 0.0:
        return 0.0
    k, alpha = rain_coefficients(frequency_ghz, polarization)
    return k * rain_rate_mm_h**alpha


# --------------------------------------------------------------------------
# ITU-R P.839 (latitude model): rain height.
# --------------------------------------------------------------------------

def rain_height_km(latitude_deg: float) -> float:
    """Mean rain height above sea level (km) from station latitude.

    Latitude-based model (P.839-2); symmetric breakpoints per hemisphere.
    """
    lat = latitude_deg
    if lat >= 0.0:  # northern hemisphere
        if lat <= 23.0:
            return 5.0
        return max(0.0, 5.0 - 0.075 * (lat - 23.0))
    # southern hemisphere
    lat = abs(lat)
    if lat <= 21.0:
        return 5.0
    if lat <= 71.0:
        return max(0.0, 5.0 - 0.1 * (lat - 21.0))
    return 0.0


# --------------------------------------------------------------------------
# Slant-path rain attenuation (instantaneous, P.618-style geometry).
# --------------------------------------------------------------------------

def slant_path_length_km(
    elevation_deg: float,
    rain_height_above_station_km: float,
) -> float:
    """Length of the signal path below the rain height.

    Simple csc(el) geometry with a floor at 5 deg elevation to avoid the
    grazing-path blowup (P.618 switches to a spherical-Earth formula below
    5 deg; the clamp is within its envelope for LEO work where the
    scheduler rarely commits to <5 deg links anyway).
    """
    if rain_height_above_station_km <= 0.0:
        return 0.0
    el = max(elevation_deg, 5.0)
    return rain_height_above_station_km / math.sin(math.radians(el))


def _horizontal_reduction_factor(slant_km: float, elevation_deg: float,
                                 gamma_db_km: float, frequency_ghz: float) -> float:
    """P.618 horizontal reduction factor r_0.01 applied to instantaneous rain.

    Accounts for rain cells not filling the whole slant path; without it,
    long low-elevation paths through heavy rain are absurdly pessimistic.
    """
    lg = slant_km * math.cos(math.radians(max(elevation_deg, 5.0)))
    if lg <= 0.0 or gamma_db_km <= 0.0:
        return 1.0
    r = 1.0 / (
        1.0
        + 0.78 * math.sqrt(lg * gamma_db_km / frequency_ghz)
        - 0.38 * (1.0 - math.exp(-2.0 * lg))
    )
    return min(max(r, 0.05), 2.5)


def rain_attenuation_db(
    rain_rate_mm_h: float,
    frequency_ghz: float,
    elevation_deg: float,
    station_latitude_deg: float,
    station_altitude_km: float = 0.0,
    polarization: str = "circular",
) -> float:
    """Total slant-path rain attenuation (dB) for an instantaneous rain rate.

    gamma_R from P.838 times an effective path length: the below-rain-height
    slant distance (P.839 height) scaled by the P.618 horizontal reduction
    factor.  Zero rain gives exactly zero.
    """
    if rain_rate_mm_h <= 0.0:
        return 0.0
    gamma = rain_specific_attenuation_db_km(
        rain_rate_mm_h, frequency_ghz, polarization
    )
    height = max(0.0, rain_height_km(station_latitude_deg) - station_altitude_km)
    slant = slant_path_length_km(elevation_deg, height)
    reduction = _horizontal_reduction_factor(
        slant, elevation_deg, gamma, frequency_ghz
    )
    return gamma * slant * reduction


def rain_height_km_batch(latitude_deg: np.ndarray) -> np.ndarray:
    """Vectorized :func:`rain_height_km` over an array of latitudes."""
    lat = np.asarray(latitude_deg, dtype=float)
    north = np.where(
        lat <= 23.0, 5.0, np.maximum(0.0, 5.0 - 0.075 * (lat - 23.0))
    )
    alat = np.abs(lat)
    south = np.where(
        alat <= 21.0,
        5.0,
        np.where(
            alat <= 71.0, np.maximum(0.0, 5.0 - 0.1 * (alat - 21.0)), 0.0
        ),
    )
    return np.where(lat >= 0.0, north, south)


def rain_height_above_station_km(
    latitude_deg: np.ndarray,
    altitude_km: np.ndarray | float = 0.0,
) -> np.ndarray:
    """Rain height above each station (km): the slant path's vertical extent.

    ``max(0, P.839 height - station altitude)``, element-wise: 0 poleward
    of 71 deg south and for stations above their rain height.  It depends
    on the station only, so callers pricing a fixed network evaluate it
    once per station.
    """
    return np.maximum(
        0.0,
        rain_height_km_batch(latitude_deg)
        - np.asarray(altitude_km, dtype=float),
    )


def _rain_attenuation_db_wet(
    rain_rate_mm_h: np.ndarray,
    frequency_ghz: float,
    rain_height_km: np.ndarray,
    elevation_rad: np.ndarray,
    sin_elevation: np.ndarray,
    polarization: str = "circular",
) -> np.ndarray:
    """The slant-path rain model on rows that all have rain.

    Every ``rain_rate_mm_h`` must be > 0; ``rain_height_km`` is
    :func:`rain_height_above_station_km` and ``elevation_rad`` /
    ``sin_elevation`` are ``radians(max(el, 5))`` and its sine, the
    clamped elevation the gas and cloud terms share.  Element-wise
    throughout, so a row's result does not depend on which other rows
    are priced with it.
    """
    k, alpha = rain_coefficients(frequency_ghz, polarization)
    gamma = k * rain_rate_mm_h**alpha
    slant = np.where(rain_height_km > 0.0, rain_height_km / sin_elevation, 0.0)
    # P.618 horizontal reduction factor, as in the scalar helper.  Rain
    # > 0 makes gamma > 0 (or an underflowed 0 that zeroes the product
    # anyway) and lg >= 0, so the denominator stays away from zero.
    lg = slant * np.cos(elevation_rad)
    r = 1.0 / (
        1.0
        + 0.78 * np.sqrt(lg * gamma / frequency_ghz)
        - 0.38 * (1.0 - np.exp(-2.0 * lg))
    )
    # np.clip's bounds, as two ufuncs (the same values, less overhead).
    reduction = np.where(
        lg <= 0.0, 1.0, np.minimum(np.maximum(r, 0.05), 2.5)
    )
    return gamma * slant * reduction


def rain_attenuation_exceeded_db(
    rain_rate_001_mm_h: float,
    frequency_ghz: float,
    elevation_deg: float,
    station_latitude_deg: float,
    exceedance_percent: float = 0.01,
    station_altitude_km: float = 0.0,
    polarization: str = "circular",
) -> float:
    """P.618-style rain attenuation exceeded for a % of an average year.

    ``rain_rate_001_mm_h`` is the local rain rate exceeded 0.01% of the
    time (the standard climatic input, ~20-40 mm/h temperate, ~60-120
    tropical).  The 0.01% attenuation comes from the instantaneous model
    at that rate; other exceedance percentages use the P.618-13 scaling
    law.  Used for availability analysis: what fade margin buys 99.9% /
    99.99% link availability in each band.
    """
    if rain_rate_001_mm_h < 0.0:
        raise ValueError("rain rate cannot be negative")
    if not 0.001 <= exceedance_percent <= 5.0:
        raise ValueError("exceedance must be in [0.001, 5] percent")
    a001 = rain_attenuation_db(
        rain_rate_001_mm_h, frequency_ghz, elevation_deg,
        station_latitude_deg, station_altitude_km, polarization,
    )
    if a001 <= 0.0:
        return 0.0
    p = exceedance_percent
    beta = 0.0
    if p < 1.0 and abs(station_latitude_deg) < 36.0:
        beta = -0.005 * (abs(station_latitude_deg) - 36.0)
    exponent = -(
        0.655
        + 0.033 * math.log(p)
        - 0.045 * math.log(a001)
        - beta * (1.0 - p) * math.sin(math.radians(max(elevation_deg, 5.0)))
    )
    return a001 * (p / 0.01) ** exponent


def link_availability_percent(
    fade_margin_db: float,
    rain_rate_001_mm_h: float,
    frequency_ghz: float,
    elevation_deg: float,
    station_latitude_deg: float,
) -> float:
    """Yearly availability (%) a fade margin buys against rain.

    Inverts :func:`rain_attenuation_exceeded_db` by bisection on the
    exceedance percentage: the returned availability is 100 - p where p is
    the fraction of time the rain fade exceeds the margin.
    """
    if fade_margin_db < 0.0:
        raise ValueError("fade margin cannot be negative")
    # If even the 5%-exceeded attenuation beats the margin, availability
    # is below 95%; report the floor.
    def fade(p):
        return rain_attenuation_exceeded_db(
            rain_rate_001_mm_h, frequency_ghz, elevation_deg,
            station_latitude_deg, exceedance_percent=p,
        )

    if fade(5.0) > fade_margin_db:
        return 95.0
    if fade(0.001) <= fade_margin_db:
        return 99.999
    lo, hi = 0.001, 5.0  # fade(lo) > margin >= fade(hi)
    for _ in range(60):
        mid = math.sqrt(lo * hi)  # bisect in log space
        if fade(mid) > fade_margin_db:
            lo = mid
        else:
            hi = mid
    return 100.0 - hi


# --------------------------------------------------------------------------
# ITU-R P.840: cloud attenuation from columnar liquid water.
# --------------------------------------------------------------------------

def _water_permittivity(frequency_ghz: float, temperature_k: float) -> tuple[float, float]:
    """Double-Debye complex permittivity of liquid water: (eps', eps'')."""
    theta = 300.0 / temperature_k
    eps0 = 77.66 + 103.3 * (theta - 1.0)
    eps1 = 0.0671 * eps0
    eps2 = 3.52
    fp = 20.20 - 146.0 * (theta - 1.0) + 316.0 * (theta - 1.0) ** 2
    fs = 39.8 * fp
    f = frequency_ghz
    eps_real = (
        (eps0 - eps1) / (1.0 + (f / fp) ** 2)
        + (eps1 - eps2) / (1.0 + (f / fs) ** 2)
        + eps2
    )
    eps_imag = (
        f * (eps0 - eps1) / (fp * (1.0 + (f / fp) ** 2))
        + f * (eps1 - eps2) / (fs * (1.0 + (f / fs) ** 2))
    )
    return eps_real, eps_imag


@functools.lru_cache(maxsize=64)
def cloud_specific_coefficient(frequency_ghz: float,
                               temperature_k: float = 273.15) -> float:
    """P.840 cloud attenuation coefficient K_l, dB/km per g/m^3."""
    eps_real, eps_imag = _water_permittivity(frequency_ghz, temperature_k)
    eta = (2.0 + eps_real) / eps_imag
    return 0.819 * frequency_ghz / (eps_imag * (1.0 + eta * eta))


def cloud_attenuation_db(
    columnar_liquid_water_kg_m2: float,
    frequency_ghz: float,
    elevation_deg: float,
    temperature_k: float = 273.15,
) -> float:
    """Cloud/fog slant attenuation A = L * K_l / sin(el) (dB).

    ``columnar_liquid_water_kg_m2`` is the total cloud liquid water along a
    zenith column (typical stratus ~0.1-0.5, heavy convective >1).
    """
    if columnar_liquid_water_kg_m2 < 0.0:
        raise ValueError("columnar liquid water cannot be negative")
    if columnar_liquid_water_kg_m2 == 0.0:
        return 0.0
    el = max(elevation_deg, 5.0)
    kl = cloud_specific_coefficient(frequency_ghz, temperature_k)
    return columnar_liquid_water_kg_m2 * kl / math.sin(math.radians(el))


# --------------------------------------------------------------------------
# Gaseous attenuation (coarse P.676 stand-in).
# --------------------------------------------------------------------------

#: (frequency GHz, zenith attenuation dB) knots for a standard atmosphere
#: with 7.5 g/m^3 surface water vapour.  Captures the 22.3 GHz water line
#: and the rise toward the 60 GHz oxygen complex.
_GAS_ZENITH_TABLE = (
    (1.0, 0.035),
    (2.0, 0.038),
    (4.0, 0.042),
    (8.0, 0.050),
    (10.0, 0.055),
    (12.0, 0.065),
    (15.0, 0.095),
    (20.0, 0.30),
    (22.3, 0.44),
    (25.0, 0.30),
    (30.0, 0.24),
    (35.0, 0.28),
    (40.0, 0.37),
    (50.0, 1.20),
)


@functools.lru_cache(maxsize=64)
def _gas_zenith_db(frequency_ghz: float) -> float:
    """Zenith gaseous attenuation at a frequency, log-log interpolated."""
    table = _GAS_ZENITH_TABLE
    f = min(max(frequency_ghz, table[0][0]), table[-1][0])
    zenith = table[-1][1]
    for (f0, a0), (f1, a1) in zip(table, table[1:]):
        if f0 <= f <= f1:
            if f1 == f0:
                zenith = a0
            else:
                frac = (math.log(f) - math.log(f0)) / (math.log(f1) - math.log(f0))
                zenith = math.exp(
                    math.log(a0) + frac * (math.log(a1) - math.log(a0))
                )
            break
    return zenith


def gaseous_attenuation_db(frequency_ghz: float, elevation_deg: float) -> float:
    """Oxygen + water-vapour slant attenuation (dB), log-log interpolated."""
    zenith = _gas_zenith_db(frequency_ghz)
    el = max(elevation_deg, 5.0)
    return zenith / math.sin(math.radians(el))


# --------------------------------------------------------------------------
# The batched slant-path terms, sharing one clamped elevation.
# --------------------------------------------------------------------------

def slant_attenuation_db_batch(
    rain_rate_mm_h: np.ndarray | float,
    cloud_water_kg_m2: np.ndarray | float,
    frequency_ghz: float,
    elevation_deg: np.ndarray,
    rain_height_km: np.ndarray | float,
    polarization: str = "circular",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rain, cloud and gas slant attenuation (dB) over per-pair rows.

    The batched :func:`rain_attenuation_db`, :func:`cloud_attenuation_db`
    and :func:`gaseous_attenuation_db`.  All three clamp elevation at the
    same 5 deg floor, so ``radians(max(el, 5))`` and its sine are
    evaluated once per row and shared.  ``rain_height_km`` is
    :func:`rain_height_above_station_km` of each row's station.  Rain,
    cloud and rain height broadcast against the rows.  Dry rows attenuate
    exactly 0 dB, so the rain model (slant, ``cos``, ``exp``) runs on its
    wet rows only; cloud is one product over every row.  Every term is
    element-wise, so a row's bits do not depend on which rows are priced
    with it.
    """
    elevation = np.asarray(elevation_deg, dtype=float)
    rain = np.asarray(rain_rate_mm_h, dtype=float)
    clw = np.asarray(cloud_water_kg_m2, dtype=float)
    height = np.asarray(rain_height_km, dtype=float)
    if (rain < 0.0).any():
        raise ValueError("rain rate cannot be negative")
    elevation_rad = np.radians(np.maximum(elevation, 5.0))
    sin_el = np.sin(elevation_rad)
    gas = _gas_zenith_db(frequency_ghz) / sin_el

    if clw.min(initial=math.inf) < 0.0:
        raise ValueError("columnar liquid water cannot be negative")
    # kl > 0 and sin_el >= sin 5 deg > 0, so a cloudless row is exactly
    # +0.0 dB here as in the scalar path: no dry-row gather is needed.
    cloud = clw * cloud_specific_coefficient(frequency_ghz) / sin_el

    rain, height, rad_r, sin_r = _rows(rain, height, elevation_rad, sin_el)
    wet = np.flatnonzero(rain > 0.0)
    rain_db = np.zeros(rain.shape)
    if wet.size:
        rain_db.ravel()[wet] = _rain_attenuation_db_wet(
            rain.ravel()[wet], frequency_ghz, height.ravel()[wet],
            rad_r.ravel()[wet], sin_r.ravel()[wet], polarization,
        )
    return rain_db, cloud, gas


def _rows(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays`` broadcast together (as they are when shapes already agree)."""
    shape = arrays[0].shape
    if all(a.shape == shape for a in arrays):
        return arrays
    return tuple(np.broadcast_arrays(*arrays))

