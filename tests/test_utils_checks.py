"""Tests for the argument-validation helpers."""

import numpy as np
import pytest

from repro.utils.checks import check_matrix, check_probability


class TestCheckMatrix:
    def test_accepts_lists(self):
        out = check_matrix([[1, 2], [3, 4]], "m")
        assert out.dtype == float
        assert out.shape == (2, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_matrix([1.0, 2.0], "m")

    def test_custom_ndim(self):
        out = check_matrix([1.0, 2.0], "v", ndim=1)
        assert out.shape == (2,)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            check_matrix(np.empty((0, 3)), "m")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_matrix([[1.0, np.nan]], "m")

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_matrix([[1.0, np.inf]], "m")

    def test_non_negative_flag(self):
        with pytest.raises(ValueError, match="negative"):
            check_matrix([[1.0, -0.1]], "m", non_negative=True)

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="totals"):
            check_matrix([[np.nan]], "totals")


class TestScalarChecks:
    def test_probability_bounds(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(1.0, "p") == 1.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_probability_rejects(self, bad):
        with pytest.raises(ValueError):
            check_probability(bad, "p")
