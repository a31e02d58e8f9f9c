"""Batched link-budget kernel vs the scalar reference, element by element."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linkbudget.budget import (
    LinkBudget,
    RadioConfig,
    baseline_receiver,
    dgs_node_receiver,
)
from repro.linkbudget.dvbs2 import (
    DVBS2_MODCODS,
    ESN0_THRESHOLDS_DB,
    best_modcod,
    best_modcod_indices,
)
from repro.linkbudget.itu import (
    rain_attenuation_db,
    rain_height_above_station_km,
    slant_attenuation_db_batch,
)

BUDGETS = {
    "dgs": LinkBudget(RadioConfig(), dgs_node_receiver()),
    "baseline-calibrated": LinkBudget(
        RadioConfig(),
        baseline_receiver(),
        acm_margin_db=2.0,
        hardware_calibration_db=1.5,
    ),
    "pilots": LinkBudget(RadioConfig(), dgs_node_receiver(), pilots=True),
}


def _random_samples(n, seed):
    rng = random.Random(seed)
    return {
        "range_km": np.array([rng.uniform(300.0, 3000.0) for _ in range(n)]),
        "elevation_deg": np.array([rng.uniform(-10.0, 90.0) for _ in range(n)]),
        "station_latitude_deg": np.array(
            [rng.uniform(-80.0, 80.0) for _ in range(n)]
        ),
        "rain_rate_mm_h": np.array(
            [rng.choice([0.0, rng.uniform(0.0, 60.0)]) for _ in range(n)]
        ),
        "cloud_water_kg_m2": np.array(
            [rng.uniform(0.0, 2.0) for _ in range(n)]
        ),
        "station_altitude_km": np.array(
            [rng.uniform(0.0, 3.0) for _ in range(n)]
        ),
    }


def _evaluate_batch(budget, station_latitude_deg, station_altitude_km,
                    **rows):
    """``evaluate_batch`` on the scalar path's station arguments."""
    return budget.evaluate_batch(
        rain_height_km=rain_height_above_station_km(
            station_latitude_deg, station_altitude_km
        ),
        **rows,
    )


class TestRainClampEdges:
    """Scalar-vs-kernel parity at the edges of the rain model's clamps:
    zero rain, zero effective path (station above the rain height), 90 deg
    elevation (cos -> ~0 horizontal projection), and rain heavy enough to
    pin the P.618 reduction factor at its 0.05 lower clamp."""

    FREQ_GHZ = 30.0

    def _batch_rain(self, rain, elevation, latitude, altitude):
        """The batched kernel's rain term (cloud-free rows)."""
        rain_db, _cloud, _gas = slant_attenuation_db_batch(
            rain, 0.0, self.FREQ_GHZ, elevation,
            rain_height_above_station_km(latitude, altitude),
        )
        return rain_db

    def _parity(self, rain, elevation, latitude, altitude=0.0):
        scalar = rain_attenuation_db(
            rain, self.FREQ_GHZ, elevation, latitude, altitude
        )
        batch = self._batch_rain(
            np.array([rain]), np.array([elevation]),
            np.array([latitude]), np.array([altitude]),
        )
        assert batch[0] == pytest.approx(scalar, abs=1e-9)
        return scalar

    def test_zero_rain_is_exactly_zero(self):
        assert self._parity(0.0, 30.0, 45.0) == 0.0

    def test_station_above_rain_height_zero_path(self):
        # 5.5 km station vs a 5.0 km tropical rain height: the effective
        # path is non-positive, so attenuation is exactly zero and the
        # reduction factor's lg <= 0 branch is exercised.
        assert self._parity(25.0, 10.0, 0.0, altitude=5.5) == 0.0

    def test_high_latitude_zero_rain_height(self):
        # P.839 height hits its 0.0 floor poleward of ~71 deg south.
        assert self._parity(10.0, 20.0, -80.0) == 0.0

    def test_vertical_path_at_90_deg_elevation(self):
        # cos(90 deg) collapses the horizontal projection to ~0; the
        # reduction factor is ~1 and attenuation ~= gamma * height.
        value = self._parity(20.0, 90.0, 0.0)
        assert value > 0.0

    def test_extreme_rain_pins_lower_clamp(self):
        from repro.linkbudget.itu import (
            _horizontal_reduction_factor,
            rain_specific_attenuation_db_km,
            slant_path_length_km,
        )

        rain, elevation, latitude = 5000.0, 5.0, 0.0
        gamma = rain_specific_attenuation_db_km(rain, self.FREQ_GHZ)
        slant = slant_path_length_km(elevation, 5.0)
        # The probe really does drive r below the clamp...
        assert _horizontal_reduction_factor(
            slant, elevation, gamma, self.FREQ_GHZ
        ) == 0.05
        # ...and batch still matches scalar exactly on the clamped branch.
        self._parity(rain, elevation, latitude)

    def test_clamp_edge_grid_parity(self):
        """A dense grid straddling every branch in one batched call."""
        rain = np.array([0.0, 0.0, 0.5, 25.0, 5000.0, 120.0, 40.0])
        elevation = np.array([5.0, 90.0, 90.0, 10.0, 5.0, 7.5, 90.0])
        latitude = np.array([0.0, 45.0, 0.0, 0.0, 0.0, -80.0, 23.0])
        altitude = np.array([0.0, 0.0, 0.0, 5.5, 0.0, 0.0, 4.99])
        batch = self._batch_rain(rain, elevation, latitude, altitude)
        for p in range(rain.size):
            scalar = rain_attenuation_db(
                float(rain[p]), self.FREQ_GHZ, float(elevation[p]),
                float(latitude[p]), float(altitude[p]),
            )
            assert batch[p] == pytest.approx(scalar, abs=1e-9)


class TestBestModcodIndices:
    @pytest.mark.parametrize("margin_db", [0.0, 1.0, 2.0])
    def test_matches_scalar_at_every_threshold(self, margin_db):
        """Exact agreement at thresholds, just above, and just below."""
        probes = []
        for thr in ESN0_THRESHOLDS_DB:
            probes.extend(
                [thr + margin_db, thr + margin_db + 1e-9, thr + margin_db - 1e-9]
            )
        probes.extend([-50.0, 0.0, 50.0])
        probes = np.array(probes)
        indices = best_modcod_indices(probes, margin_db)
        for esn0, index in zip(probes, indices):
            expected = best_modcod(float(esn0), margin_db)
            if expected is None:
                assert index == -1
            else:
                assert DVBS2_MODCODS[index] is expected

    def test_prefix_argmax_handles_nonmonotone_efficiency(self):
        """8PSK 3/5 outranks QPSK 8/9 despite a lower threshold: the batch
        path must pick by efficiency over all supported rows, like the
        scalar loop, not just the last supported row."""
        esn0 = np.array([6.5])  # supports up to ~QPSK 8/9 + 8PSK 3/5
        index = best_modcod_indices(esn0, margin_db=0.0)[0]
        assert DVBS2_MODCODS[index] is best_modcod(6.5, 0.0)


class TestEvaluateBatch:
    @pytest.mark.parametrize("name", sorted(BUDGETS))
    def test_matches_scalar_on_random_samples(self, name):
        budget = BUDGETS[name]
        samples = _random_samples(400, seed=sum(map(ord, name)))
        result = _evaluate_batch(budget, **samples)
        for p in range(400):
            scalar = budget.evaluate(
                range_km=float(samples["range_km"][p]),
                elevation_deg=float(samples["elevation_deg"][p]),
                station_latitude_deg=float(
                    samples["station_latitude_deg"][p]
                ),
                rain_rate_mm_h=float(samples["rain_rate_mm_h"][p]),
                cloud_water_kg_m2=float(samples["cloud_water_kg_m2"][p]),
                station_altitude_km=float(
                    samples["station_altitude_km"][p]
                ),
            )
            assert result.esn0_db[p] == pytest.approx(
                scalar.esn0_db, abs=1e-9
            )
            assert bool(result.closes[p]) == scalar.closes
            if scalar.closes:
                assert result.modcod_at(p) is scalar.modcod
                assert result.bitrate_bps[p] == pytest.approx(
                    scalar.bitrate_bps, rel=1e-12
                )
                assert result.required_esn0_db[p] == scalar.modcod.esn0_db
            else:
                assert result.bitrate_bps[p] == 0.0
                assert result.required_esn0_db[p] == -100.0

    @settings(max_examples=150, deadline=None)
    @given(
        range_km=st.floats(min_value=200.0, max_value=4000.0),
        elevation_deg=st.floats(min_value=-20.0, max_value=90.0),
        latitude_deg=st.floats(min_value=-85.0, max_value=85.0),
        rain_mm_h=st.floats(min_value=0.0, max_value=100.0),
        cloud_kg_m2=st.floats(min_value=0.0, max_value=5.0),
        altitude_km=st.floats(min_value=0.0, max_value=4.0),
    )
    def test_property_single_element_matches_scalar(
        self, range_km, elevation_deg, latitude_deg, rain_mm_h,
        cloud_kg_m2, altitude_km,
    ):
        budget = BUDGETS["dgs"]
        result = _evaluate_batch(
            budget,
            range_km=np.array([range_km]),
            elevation_deg=np.array([elevation_deg]),
            station_latitude_deg=np.array([latitude_deg]),
            rain_rate_mm_h=np.array([rain_mm_h]),
            cloud_water_kg_m2=np.array([cloud_kg_m2]),
            station_altitude_km=np.array([altitude_km]),
        )
        scalar = budget.evaluate(
            range_km=range_km,
            elevation_deg=elevation_deg,
            station_latitude_deg=latitude_deg,
            rain_rate_mm_h=rain_mm_h,
            cloud_water_kg_m2=cloud_kg_m2,
            station_altitude_km=altitude_km,
        )
        assert result.esn0_db[0] == pytest.approx(scalar.esn0_db, abs=1e-9)
        assert bool(result.closes[0]) == scalar.closes
        if scalar.closes:
            assert result.modcod_at(0) is scalar.modcod
            assert result.bitrate_bps[0] == pytest.approx(
                scalar.bitrate_bps, rel=1e-12
            )

    def test_below_horizon_never_closes(self):
        budget = BUDGETS["dgs"]
        result = budget.evaluate_batch(
            range_km=np.array([500.0, 500.0]),
            elevation_deg=np.array([-5.0, 0.0]),
            rain_height_km=rain_height_above_station_km(45.0),
        )
        assert not result.closes.any()
        assert (result.bitrate_bps == 0.0).all()

    def test_attenuation_components_match_scalar(self):
        budget = BUDGETS["dgs"]
        samples = _random_samples(50, seed=99)
        result = _evaluate_batch(budget, **samples)
        for p in range(50):
            scalar = budget.evaluate(
                range_km=float(samples["range_km"][p]),
                elevation_deg=float(samples["elevation_deg"][p]),
                station_latitude_deg=float(
                    samples["station_latitude_deg"][p]
                ),
                rain_rate_mm_h=float(samples["rain_rate_mm_h"][p]),
                cloud_water_kg_m2=float(samples["cloud_water_kg_m2"][p]),
                station_altitude_km=float(
                    samples["station_altitude_km"][p]
                ),
            )
            assert result.fspl_db[p] == pytest.approx(scalar.fspl_db, abs=1e-9)
            assert result.rain_db[p] == pytest.approx(scalar.rain_db, abs=1e-9)
            assert result.cloud_db[p] == pytest.approx(
                scalar.cloud_db, abs=1e-9
            )
            assert result.gas_db[p] == pytest.approx(scalar.gas_db, abs=1e-9)
