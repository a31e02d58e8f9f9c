"""Free-space path loss -- Equation (1) of the paper.

    L = (4 * pi * d * f / c)^2

Loss grows with distance ``d`` and carrier frequency ``f``; ``c`` is the
speed of light.  Expressed in dB this is the familiar
``92.45 + 20 log10(d_km) + 20 log10(f_GHz)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.orbits.constants import SPEED_OF_LIGHT_M_S


def free_space_loss_linear(distance_m: float, frequency_hz: float) -> float:
    """Path loss as a linear power ratio (>= 1 in the far field)."""
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return (4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT_M_S) ** 2


def free_space_path_loss_db(distance_km: float, frequency_ghz: float) -> float:
    """Path loss in dB for a distance in km and frequency in GHz."""
    return 10.0 * math.log10(
        free_space_loss_linear(distance_km * 1e3, frequency_ghz * 1e9)
    )


def free_space_path_loss_db_batch(distance_km: np.ndarray,
                                  frequency_ghz: float) -> np.ndarray:
    """Vectorized :func:`free_space_path_loss_db` over an array of ranges.

    Any shape is accepted; a scalar range gives a 0-d array.
    """
    ratio = np.array(distance_km, dtype=float)
    ratio *= 1e3
    if (ratio <= 0.0).any():
        raise ValueError("distances must be positive")
    if frequency_ghz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_ghz}")
    # The scalar path's operations in its order, in place on one array:
    # 4*pi*d*f/c, squared, then 10*log10.
    ratio *= 4.0 * math.pi
    ratio *= frequency_ghz * 1e9
    ratio /= SPEED_OF_LIGHT_M_S
    np.multiply(ratio, ratio, out=ratio)
    np.log10(ratio, out=ratio)
    ratio *= 10.0
    return ratio
