"""The one link-budget kernel against the two-phase reference, bit for bit.

:meth:`LinkBudget.evaluate_batch` prices every row from its range and
elevation in-step.  ``tests.oracle.reference_evaluate_batch`` prices the
same rows in two phases: geometry-only columns first (path loss, gas, the
clamped elevation sine and the rain slant geometry, which the
contact-window index once stored for every (pair, step) row), then the
weather-dependent terms from them.  Every output field must match bit for
bit, since the report digests rest on it.  So must pricing a gathered
subset of rows: demand-first pricing prices only the rows of loaded
satellites.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.linkbudget.budget import (
    LinkBudget,
    RadioConfig,
    baseline_receiver,
    dgs_node_receiver,
)
from repro.linkbudget.itu import rain_height_above_station_km
from tests.oracle import reference_evaluate_batch, reference_statics

BUDGETS = {
    "dgs": LinkBudget(RadioConfig(), dgs_node_receiver()),
    "pilots": LinkBudget(RadioConfig(), dgs_node_receiver(), pilots=True),
    # A second carrier frequency and polarization, where rain is heavy.
    "ka-baseline": LinkBudget(
        RadioConfig(frequency_ghz=26.5, polarization="h"),
        baseline_receiver(),
        acm_margin_db=2.0,
        hardware_calibration_db=1.5,
    ),
}

FIELDS = ("esn0_db", "modcod_index", "bitrate_bps", "required_esn0_db",
          "fspl_db", "rain_db", "cloud_db", "gas_db")

_ELEVATIONS = st.one_of(
    st.sampled_from([-10.0, 0.0, 4.999999, 5.0, 5.000001, 90.0]),
    st.floats(-20.0, 90.0),
)
#: Poleward of 71 deg south the P.839 rain height is 0; 89.8 deg north
#: sits above the northern slope's zero.
_LATITUDES = st.one_of(
    st.sampled_from([-89.0, -75.0, -71.5, -71.0, -21.0, 0.0, 23.0, 75.0,
                     89.8]),
    st.floats(-89.9, 89.9),
)
#: 5.0 and 5.5 km put a tropical station at or above its rain height.
_ALTITUDES = st.one_of(st.sampled_from([0.0, 4.99, 5.0, 5.5]),
                       st.floats(0.0, 6.0))
_RAIN = st.one_of(st.just(0.0), st.floats(1e-3, 150.0))
_CLOUD = st.one_of(st.just(0.0), st.floats(1e-3, 6.0))
_ROW = st.tuples(st.floats(200.0, 4000.0), _ELEVATIONS, _LATITUDES,
                 _ALTITUDES, _RAIN, _CLOUD)


@st.composite
def kernel_inputs(draw):
    """Reference keyword arguments over 1-D rows.

    Rain is per row (mixed wet and dry), all dry, all wet, or one scalar
    broadcast to the rows; cloud is per row, zero, or a scalar.
    """
    rows = draw(st.lists(_ROW, min_size=1, max_size=40))
    columns = [np.array(column, dtype=float) for column in zip(*rows)]
    range_km, elevation, latitude, altitude, rain, cloud = columns
    rain_mode = draw(st.sampled_from(["rows", "dry", "wet", "scalar"]))
    if rain_mode == "dry":
        rain = np.zeros_like(rain)
    elif rain_mode == "wet":
        rain = np.where(rain > 0.0, rain, 7.5)
    elif rain_mode == "scalar":
        rain = draw(_RAIN)
    cloud_mode = draw(st.sampled_from(["rows", "zero", "scalar"]))
    if cloud_mode == "zero":
        cloud = 0.0
    elif cloud_mode == "scalar":
        cloud = draw(_CLOUD)
    return {
        "range_km": range_km,
        "elevation_deg": elevation,
        "station_latitude_deg": latitude,
        "rain_rate_mm_h": rain,
        "cloud_water_kg_m2": cloud,
        "station_altitude_km": altitude,
    }


def _assert_same_bits(got, want) -> None:
    for name in FIELDS:
        a = getattr(got, name)
        b = getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _kernel(budget: LinkBudget, inputs: dict):
    """The production kernel on the rows of ``inputs``: the station
    enters as its rain height, as the contact graph passes it."""
    height = rain_height_above_station_km(
        inputs["station_latitude_deg"], inputs["station_altitude_km"]
    )
    return budget.evaluate_batch(
        range_km=inputs["range_km"],
        elevation_deg=inputs["elevation_deg"],
        rain_rate_mm_h=inputs["rain_rate_mm_h"],
        cloud_water_kg_m2=inputs["cloud_water_kg_m2"],
        rain_height_km=height,
    )


def _gather(inputs: dict, idx: np.ndarray) -> dict:
    return {key: value[idx] if np.ndim(value) else value
            for key, value in inputs.items()}


def _edge_rows() -> dict:
    """Elevations below, at and above 5 deg against stations at, above
    and below their rain height, wet and dry."""
    elevation = np.array([-3.0, 0.0, 4.5, 5.0, 5.0 + 1e-9, 12.0, 45.0,
                          90.0, 30.0, 30.0, 30.0, 60.0])
    latitude = np.array([10.0, -30.0, 50.0, 0.0, 23.0, -71.5, -80.0,
                         0.0, 0.0, 0.0, 71.0, -21.0])
    altitude = np.array([0.0, 0.2, 0.0, 0.0, 1.0, 0.0, 0.0, 5.5, 5.0,
                         4.99, 0.0, 0.0])
    rain = np.array([12.0, 0.0, 3.0, 40.0, 0.0, 25.0, 8.0, 20.0, 15.0,
                     15.0, 0.5, 5000.0])
    cloud = np.array([0.4, 0.0, 1.1, 0.0, 2.5, 0.3, 0.0, 0.6, 0.2, 0.9,
                      0.0, 3.0])
    return {
        "range_km": np.linspace(450.0, 2900.0, elevation.size),
        "elevation_deg": elevation,
        "station_latitude_deg": latitude,
        "rain_rate_mm_h": rain,
        "cloud_water_kg_m2": cloud,
        "station_altitude_km": altitude,
    }


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(sorted(BUDGETS)), inputs=kernel_inputs())
    def test_random_rows_bit_for_bit(self, name, inputs):
        budget = BUDGETS[name]
        want = reference_evaluate_batch(budget, **inputs)
        _assert_same_bits(_kernel(budget, inputs), want)

    def test_edge_rows_bit_for_bit(self):
        inputs = _edge_rows()
        statics = reference_statics(
            BUDGETS["dgs"], inputs["range_km"], inputs["elevation_deg"],
            inputs["station_latitude_deg"], inputs["station_altitude_km"],
        )
        # The grid reaches the branches it is meant to: wet rows with a
        # zero slant path (poleward of 71 S, above the rain height) and
        # the 5 deg clamp.
        wet = inputs["rain_rate_mm_h"] > 0.0
        assert (wet & (statics.rain_slant == 0.0)).sum() >= 3
        assert (inputs["elevation_deg"] <= 5.0).sum() >= 4
        for name, budget in BUDGETS.items():
            want = reference_evaluate_batch(budget, **inputs)
            assert (want.rain_db > 0.0).any(), name
            _assert_same_bits(_kernel(budget, inputs), want)

    def test_all_dry_and_all_wet_rows(self):
        base = _edge_rows()
        for rain in (np.zeros(12), np.full(12, 12.5)):
            for cloud in (np.zeros(12), np.full(12, 0.7)):
                inputs = dict(base, rain_rate_mm_h=rain,
                              cloud_water_kg_m2=cloud)
                for budget in BUDGETS.values():
                    _assert_same_bits(
                        _kernel(budget, inputs),
                        reference_evaluate_batch(budget, **inputs),
                    )

    def test_scalar_rain_and_cloud(self):
        base = _edge_rows()
        for rain, cloud in ((8.0, 0.4), (0.0, 0.0), (8.0, 0.0),
                            (0.0, 1.2)):
            inputs = dict(base, rain_rate_mm_h=rain,
                          cloud_water_kg_m2=cloud)
            for budget in BUDGETS.values():
                got = _kernel(budget, inputs)
                assert got.rain_db.shape == got.cloud_db.shape == (12,)
                _assert_same_bits(
                    got, reference_evaluate_batch(budget, **inputs)
                )


    def test_weather_wider_than_the_rows_is_refused(self):
        inputs = dict(_edge_rows(), rain_rate_mm_h=np.full((2, 12), 8.0))
        with pytest.raises(ValueError):
            _kernel(BUDGETS["dgs"], inputs)


class TestGatherProperty:
    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(BUDGETS)), data=st.data())
    def test_kernel_of_gathered_rows(self, name, data):
        """``kernel(x)[idx] == kernel(x[idx])``, repeats and any order."""
        budget = BUDGETS[name]
        inputs = data.draw(kernel_inputs())
        n = inputs["range_km"].size
        idx = np.array(
            data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n)),
            dtype=np.intp,
        )
        full = _kernel(budget, inputs)
        gathered = _kernel(budget, _gather(inputs, idx))
        for field in FIELDS:
            want = getattr(full, field)[idx]
            got = getattr(gathered, field)
            assert got.dtype == want.dtype, field
            assert got.tobytes() == want.tobytes(), field
        # The reference agrees: stored columns gathered by the same rows.
        statics = reference_statics(
            budget, inputs["range_km"], inputs["elevation_deg"],
            inputs["station_latitude_deg"], inputs["station_altitude_km"],
        )
        _assert_same_bits(gathered, reference_evaluate_batch(
            budget, **_gather(inputs, idx), statics=statics.take(idx),
        ))
