"""The contact-window index, pinned byte for byte.

Report digests only catch a bit change that happens to move a report.
These sha256 values cover every CSR array and pass record of two small
scenarios, and the elevation and range of every stored row; they were
recorded from the plain row-gather scan (``tests.oracle.pair_visibility``),
so any rework of the scan, the build or the geometry for speed has to
reproduce them.

The index stores pair ids only.  The float columns are what the pricing
tail reads for those rows: :func:`pair_geometry` on each step's ids and
the scenario's ephemeris row for that step, concatenated in CSR order.

The integer arrays are pinned everywhere.  The float columns come out of
numpy's arcsin kernel, which rounds differently on other numpy builds
and SIMD targets, so they are checked only on the build they were
recorded with.
"""

import hashlib

import numpy as np
import pytest

from repro.core.scenarios import ScenarioSpec
from repro.orbits.ephemeris import clear_ephemeris_cache
from repro.scheduling.graph import pair_geometry
from repro.scheduling.windows import clear_window_index_cache

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    __cpu_features__ = {}

#: (numpy version, AVX512_SKX kernels) the float digests were recorded on.
RECORDED_ON = ("2.4.6", True)

SCENARIOS = {
    "walker": dict(constellation="walker", num_satellites=400,
                   num_stations=200, duration_s=1200.0),
    "paper": dict(num_satellites=60, num_stations=40, duration_s=3 * 3600.0),
}

INTEGER_ARRAYS = ("step_ptr", "pair_sat", "pair_gs", "window_sat",
                  "window_gs", "window_rise_step", "window_set_step",
                  "boundary")
FLOAT_ARRAYS = ("pair_elevation", "pair_range")

DIGESTS = {
    "walker": {
        "step_ptr": "22c6d69d4e3702e886b382523d462f8ad273107b55092f8847e3762f4f1d2ce2",
        "pair_sat": "c4b545345329170282a8010cdf2cc6cffde9316babb61e28bfa328b230f9a225",
        "pair_gs": "f2aab870698ba7d124678dfb9c0a2dcb02813ac5fc24c08a7a07eb3e9273b588",
        "pair_elevation": "62f5f4c1745e3c80e4f64a991fa626fc193fedd1384a4b80982faa31d5f26ef4",
        "pair_range": "22c209fd60161dba322c632af08a7f9648ef29ced275ac632a5657a7ad0efd83",
        "window_sat": "ad4ee0168ca6e69076ab09d7ce25284f16cd26827874c9524379c4bb22202460",
        "window_gs": "0605fe3ab5747ed3fdbe22d793a66b0df87b3754ee4ae196450649bd215e8524",
        "window_rise_step": "e23c0e18622a663ecc681f15e6fb51ac903f5a6e91ffd037f68b189355a3b8b7",
        "window_set_step": "affe680528025cb5b4d0f923b1d2946803dabf067fb7cc65c7d07b4e44120f5f",
        "boundary": "a3661b5d0b99b071f003534bf049a0d317277f957267a0b415e2156b193b68dc",
    },
    "paper": {
        "step_ptr": "8faaf8d896832473af611b791b4301fd9381976107c5ed35536661f63d306074",
        "pair_sat": "79a62c209a870ebb5fcb3a3d97fab567c54a0cc94bd3fa6a3968a1c10a4f6adc",
        "pair_gs": "51005b5d590c09c56638bc60a950cc67ee932265a3a5ad5b4b93f31c365a08f1",
        "pair_elevation": "6b6a57bd81ddb78c89ab0d5f7ff0927123ca104a57ebf2182ffe06181c891cd6",
        "pair_range": "a371cc03f69d0c7bd46780ad71f9ada4313cbadaebbbdad752de71f1793193de",
        "window_sat": "3a630dff3159579bdb21caabae3e739744dd8b4c2d82015d2781cd8f50fe3fcf",
        "window_gs": "2a0587f6819d1c4fa5a16f93a805c0c2ceaa0f16067e71bd228d910612a3e209",
        "window_rise_step": "424c4d48a992daf34726078bb58b004f3cc77894f939469a626dd687a7bc76e6",
        "window_set_step": "c9db1894e3306bae38857a563607bcc1588a12ab84dd786c81e0c2f45d223548",
        "boundary": "09bafdc2b9c621dc326ae4dd68b59e27e30e2fd8c3d86b3d84be4fb648783c2f",
    },
}


def _digest(array: np.ndarray) -> str:
    """sha256 of an array's dtype, shape and bytes."""
    h = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def simulations():
    clear_ephemeris_cache()
    clear_window_index_cache()
    built = {
        name: ScenarioSpec.dgs(**kwargs).build().simulation
        for name, kwargs in SCENARIOS.items()
    }
    clear_ephemeris_cache()
    clear_window_index_cache()
    return built


def _row_geometry(simulation) -> dict[str, np.ndarray]:
    """Elevation and range of every stored row, step by step from the
    ephemeris rows the index was scanned from."""
    index = simulation.window_index
    geometry = simulation.scheduler._geometry
    columns = [
        pair_geometry(
            geometry, simulation.ephemeris.positions[k], *index.pairs_at(k)
        )
        for k in range(index.num_steps)
    ]
    elevation, rng = (np.concatenate(parts) for parts in zip(*columns))
    return {"pair_elevation": elevation, "pair_range": rng}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_integer_arrays(simulations, scenario):
    index = simulations[scenario].window_index
    for name in INTEGER_ARRAYS:
        assert _digest(getattr(index, name)) == DIGESTS[scenario][name], name


@pytest.mark.skipif(
    (np.__version__, bool(__cpu_features__.get("AVX512_SKX")))
    != RECORDED_ON,
    reason="float digests were recorded with numpy 2.4.6 AVX512_SKX kernels",
)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_float_columns(simulations, scenario):
    columns = _row_geometry(simulations[scenario])
    got = {name: _digest(columns[name]) for name in FLOAT_ARRAYS}
    want = {name: value for name, value in DIGESTS[scenario].items()
            if name not in INTEGER_ARRAYS}
    assert got == want
