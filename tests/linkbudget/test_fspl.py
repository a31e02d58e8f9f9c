"""Tests for free-space path loss (paper Eq. 1)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.linkbudget.fspl import (
    free_space_loss_linear,
    free_space_path_loss_db,
    free_space_path_loss_db_batch,
)


class TestFSPL:
    def test_textbook_value(self):
        # 1 km at 1 GHz: 92.45 dB.
        assert free_space_path_loss_db(1.0, 1.0) == pytest.approx(92.45, abs=0.01)

    def test_leo_xband(self):
        # 1000 km at 8.2 GHz: 92.45 + 60 + 18.28 = 170.7 dB.
        assert free_space_path_loss_db(1000.0, 8.2) == pytest.approx(170.7, abs=0.1)

    def test_inverse_square_in_db(self):
        # Doubling distance adds exactly 20*log10(2) ~ 6.02 dB.
        near = free_space_path_loss_db(500.0, 8.2)
        far = free_space_path_loss_db(1000.0, 8.2)
        assert far - near == pytest.approx(6.0206, abs=1e-3)

    def test_frequency_square_in_db(self):
        low = free_space_path_loss_db(700.0, 2.0)
        high = free_space_path_loss_db(700.0, 8.0)
        assert high - low == pytest.approx(20.0 * math.log10(4.0), abs=1e-6)

    @given(
        d=st.floats(min_value=1.0, max_value=50000.0),
        f=st.floats(min_value=0.1, max_value=50.0),
    )
    def test_linear_matches_db(self, d, f):
        linear = free_space_loss_linear(d * 1e3, f * 1e9)
        db = free_space_path_loss_db(d, f)
        assert 10.0 * math.log10(linear) == pytest.approx(db, abs=1e-9)

    @given(
        d=st.floats(min_value=100.0, max_value=3000.0),
        f=st.floats(min_value=1.0, max_value=40.0),
    )
    def test_monotonic(self, d, f):
        assert free_space_path_loss_db(d + 10.0, f) > free_space_path_loss_db(d, f)
        assert free_space_path_loss_db(d, f + 1.0) > free_space_path_loss_db(d, f)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(0.0, 8.2)
        with pytest.raises(ValueError):
            free_space_path_loss_db(500.0, -1.0)

    def test_batch_takes_a_scalar_range(self):
        # Any shape: a scalar is priced as a 0-d array, bit for bit.
        one = free_space_path_loss_db_batch(np.array([700.0]), 8.2)
        scalar = free_space_path_loss_db_batch(700.0, 8.2)
        assert scalar.shape == () and scalar.tobytes() == one.tobytes()
