"""Stored kernel statics vs the in-step kernel terms, bit for bit.

The two-phase reference in ``tests.oracle`` prices rows from geometry
columns computed ahead of time (free-space loss, gaseous attenuation, the
cloud model's elevation sine, and the rain model's slant-path geometry),
as the contact-window index once stored them.  Each of its terms must
reproduce the exact bits of the in-step production term, and a scalar
rain rate or cloud water must broadcast as it does there.  The
property-based checks of the whole kernel are in
``test_kernel_reference.py``.
"""

import random

import numpy as np

from repro.linkbudget.budget import (
    LinkBudget,
    RadioConfig,
    dgs_node_receiver,
)
from repro.linkbudget.itu import (
    rain_height_above_station_km,
    slant_attenuation_db_batch,
)
from tests.oracle import (
    reference_cloud_db,
    reference_evaluate_batch,
    reference_rain_db,
    reference_statics,
)

BUDGET = LinkBudget(RadioConfig(), dgs_node_receiver())
FREQ_GHZ = BUDGET.radio.frequency_ghz


def _samples(n=400, seed=7):
    rng = random.Random(seed)
    return {
        "range_km": np.array([rng.uniform(300.0, 3000.0) for _ in range(n)]),
        "elevation_deg": np.array(
            [rng.uniform(-10.0, 90.0) for _ in range(n)]
        ),
        "station_latitude_deg": np.array(
            [rng.uniform(-80.0, 80.0) for _ in range(n)]
        ),
        "rain_rate_mm_h": np.array(
            [rng.choice([0.0, rng.uniform(0.0, 60.0)]) for _ in range(n)]
        ),
        "cloud_water_kg_m2": np.array(
            [rng.choice([0.0, rng.uniform(0.0, 2.0)]) for _ in range(n)]
        ),
        "station_altitude_km": np.array(
            [rng.uniform(0.0, 3.0) for _ in range(n)]
        ),
    }


def _statics(s):
    return reference_statics(
        BUDGET, s["range_km"], s["elevation_deg"],
        s["station_latitude_deg"], s["station_altitude_km"],
    )


def _in_step(s, rain, cloud):
    """Production (rain, cloud) dB of the rows of ``s``."""
    height = rain_height_above_station_km(
        s["station_latitude_deg"], s["station_altitude_km"]
    )
    rain_db, cloud_db, _ = slant_attenuation_db_batch(
        rain, cloud, FREQ_GHZ, s["elevation_deg"], height,
        BUDGET.radio.polarization,
    )
    return rain_db, cloud_db


def _assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestPregeomRain:
    def test_scalar_rain_broadcasts(self):
        """A scalar rain rate must broadcast like the in-step kernel."""
        s = _samples(n=30)
        statics = _statics(s)
        full, _ = _in_step(s, 8.0, 0.0)
        pre = reference_rain_db(8.0, FREQ_GHZ, statics,
                                BUDGET.radio.polarization)
        assert full.shape == (30,) and (full > 0.0).any()
        _assert_same_bits(full, pre)
        _assert_same_bits(pre, reference_rain_db(
            np.full(30, 8.0), FREQ_GHZ, statics, BUDGET.radio.polarization,
        ))


class TestPresinCloud:
    def test_bitwise_match(self):
        s = _samples()
        sin_el = np.sin(np.radians(np.maximum(s["elevation_deg"], 5.0)))
        _, full = _in_step(s, 0.0, s["cloud_water_kg_m2"])
        pre = reference_cloud_db(s["cloud_water_kg_m2"], FREQ_GHZ, sin_el)
        cloudy = s["cloud_water_kg_m2"] > 0.0
        assert cloudy.any() and not cloudy.all()
        _assert_same_bits(full, pre)

    def test_scalar_cloud_broadcasts(self):
        s = _samples(n=30)
        sin_el = np.sin(np.radians(np.maximum(s["elevation_deg"], 5.0)))
        _, full = _in_step(s, 0.0, 0.4)
        pre = reference_cloud_db(0.4, FREQ_GHZ, sin_el)
        assert full.shape == (30,)
        _assert_same_bits(full, pre)
        _assert_same_bits(
            pre, reference_cloud_db(np.full(30, 0.4), FREQ_GHZ, sin_el)
        )


class TestEvaluateBatchWithStatics:
    FIELDS = ("esn0_db", "modcod_index", "bitrate_bps", "required_esn0_db",
              "fspl_db", "rain_db", "cloud_db", "gas_db")

    def test_static_path_bit_identical(self):
        s = _samples()
        plain = BUDGET.evaluate_batch(
            range_km=s["range_km"],
            elevation_deg=s["elevation_deg"],
            rain_height_km=rain_height_above_station_km(
                s["station_latitude_deg"], s["station_altitude_km"]
            ),
            rain_rate_mm_h=s["rain_rate_mm_h"],
            cloud_water_kg_m2=s["cloud_water_kg_m2"],
        )
        hoisted = reference_evaluate_batch(BUDGET, **s, statics=_statics(s))
        for name in self.FIELDS:
            _assert_same_bits(getattr(plain, name), getattr(hoisted, name))
