import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsetls import squared_error, support_errors


class TestSquaredError:
    def test_zero_at_equality(self):
        x = np.array([0.2, -0.3, 0.0])
        assert squared_error(x, x) == 0.0

    def test_unit_truth_against_zero_estimate(self):
        x = np.zeros(4)
        t = np.array([0.5, -0.5, 0.5, 0.5])  # unit l2 norm
        assert squared_error(x, t) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        got = squared_error(np.array([0.9, 0.05, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert got == pytest.approx(0.0125, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            squared_error(np.zeros(3), np.zeros(4))

    @given(arrays(np.float64, 7, elements=st.floats(-50, 50)),
           arrays(np.float64, 7, elements=st.floats(-50, 50)))
    def test_permutation_covariant_and_nonnegative(self, x, t):
        val = squared_error(x, t)
        assert val >= 0.0
        perm = np.arange(7)[::-1]
        # summation order changes, so equality holds to rounding only
        assert squared_error(x[perm], t[perm]) == pytest.approx(val, rel=1e-12, abs=1e-300)


class TestSupportErrors:
    def test_perfect_match(self):
        x = np.array([1.0, 0.0, -2.0])
        se = support_errors(x, x)
        assert (se.false_negatives, se.false_positives) == (0, 0)

    def test_all_missed(self):
        t = np.zeros(10)
        t[[1, 4, 7]] = 1.0
        se = support_errors(np.zeros(10), t)
        assert (se.false_negatives, se.false_positives) == (3, 0)

    def test_one_false_positive(self):
        se = support_errors(np.array([0.9, 0.05, 0.0]), np.array([1.0, 0.0, 0.0]))
        assert (se.false_negatives, se.false_positives) == (0, 1)

    def test_counting_is_exact_zero_not_threshold(self):
        # a 1e-300 entry still counts as detected support
        se = support_errors(np.array([1e-300, 0.0]), np.array([1.0, 0.0]))
        assert (se.false_negatives, se.false_positives) == (0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            support_errors(np.zeros(3), np.zeros(4))

    @given(arrays(np.float64, 12, elements=st.floats(-2, 2)),
           arrays(np.float64, 12, elements=st.floats(-2, 2)))
    def test_bounds(self, x, t):
        k = int(np.count_nonzero(t))
        se = support_errors(x, t)
        assert 0 <= se.false_negatives <= k
        assert 0 <= se.false_positives <= t.size - k
