import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicrypt.analysis import (
    LbeSeries,
    linear_regression,
    lower_bound_error,
    lyapunov_from_lbe,
)
from cubicrypt.maps import EvaluationScheme, MapConfig, iterate_orbit


def orbits(scheme_a, scheme_b, n=100, **kwargs):
    a = iterate_orbit(MapConfig(scheme=scheme_a, **kwargs), n)
    b = iterate_orbit(MapConfig(scheme=scheme_b, **kwargs), n)
    return a, b


# ---------------------------------------------------------------- LBE


def test_lbe_identical_configs_is_zero():
    a, b = orbits(EvaluationScheme.E1, EvaluationScheme.E1)
    series = lower_bound_error(a, b)
    assert np.all(series.delta == 0.0)


def test_lbe_e1_e4_is_zero():
    # same op order, different label: bit-identical orbits
    a, b = orbits(EvaluationScheme.E1, EvaluationScheme.E4)
    assert np.all(lower_bound_error(a, b).delta == 0.0)


def test_lbe_starts_at_zero_and_grows():
    a, b = orbits(EvaluationScheme.E1, EvaluationScheme.E2)
    series = lower_bound_error(a, b)
    assert series.delta[0] == 0.0
    assert series.delta[1] == 0.0  # one application still agrees at x0=0.1
    assert series.first_reaching(1e-3) is not None
    assert series.first_reaching(2.0) is None


def test_lbe_symmetric_and_nonnegative():
    a, b = orbits(EvaluationScheme.E1, EvaluationScheme.E3)
    ab = lower_bound_error(a, b).delta
    ba = lower_bound_error(b, a).delta
    assert np.array_equal(ab, ba)
    assert np.all(ab >= 0.0)


def test_lbe_accepts_plain_arrays():
    series = lower_bound_error(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
    assert series.delta.tolist() == [0.0, 0.5]


def test_lbe_length_mismatch():
    with pytest.raises(ValueError):
        lower_bound_error(np.zeros(3), np.zeros(4))


# ---------------------------------------------------------------- regression


def test_regression_exact_line():
    xs = np.arange(10, dtype=np.float64)
    ys = 2.5 * xs - 1.0
    slope, intercept, r2 = linear_regression(np.column_stack((xs, ys)))
    assert math.isclose(slope, 2.5, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(intercept, -1.0, rel_tol=0, abs_tol=1e-12)
    assert r2 >= 1.0 - 1e-15


def test_regression_constant_series():
    xs = np.arange(5, dtype=np.float64)
    slope, intercept, r2 = linear_regression(np.column_stack((xs, np.full(5, 3.0))))
    assert slope == 0.0
    assert intercept == 3.0
    assert r2 == 1.0  # zero residual on zero variance


def test_regression_accepts_sequence_of_pairs():
    points = [(0, 1.0), (1, 3.0), (2, 5.0)]
    assert linear_regression(points) == linear_regression(np.array(points, dtype=np.float64))
    assert linear_regression(points) == (2.0, 1.0, 1.0)


def test_regression_rejects_degenerate():
    with pytest.raises(ValueError):
        linear_regression(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        linear_regression(np.array([[1.0, 2.0], [1.0, 3.0]]))


@settings(max_examples=60, deadline=None)
@given(
    slope=st.floats(min_value=0.001, max_value=3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    intercept=st.floats(min_value=-10.0, max_value=10.0),
    n=st.integers(min_value=3, max_value=200),
)
def test_regression_recovers_noiseless_lines(slope, sign, intercept, n):
    # slope bounded away from 0: a near-constant series has no
    # meaningful r^2 (ss_tot is pure rounding noise)
    xs = np.arange(n, dtype=np.float64)
    ys = sign * slope * xs + intercept
    got_slope, got_intercept, r2 = linear_regression(np.column_stack((xs, ys)))
    assert math.isclose(got_slope, sign * slope, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(got_intercept, intercept, rel_tol=1e-9, abs_tol=1e-7)
    assert r2 >= 1.0 - 1e-9


# ---------------------------------------------------------------- Lyapunov


def test_lyapunov_on_synthetic_series():
    lam, c = 0.25, math.log(1e-12)
    n = 80
    delta = np.exp(lam * np.arange(n) + c)
    series = LbeSeries(delta=delta)
    est = lyapunov_from_lbe(series)
    assert abs(est.exponent - lam) <= 1e-9
    assert est.r_squared >= 1.0 - 1e-12
    assert est.n_points == n


def test_lyapunov_default_window_skips_leading_zeros_and_saturation():
    lam, c = 0.5, math.log(1e-10)
    tail = np.exp(lam * np.arange(60) + c)
    delta = np.concatenate((np.zeros(5), tail))
    est = lyapunov_from_lbe(LbeSeries(delta=delta))
    # window starts at the first nonzero entry and stops before 0.1
    assert est.fit_range[0] == 5
    assert np.all(delta[est.fit_range[0] : est.fit_range[1] + 1] < 0.1)
    assert abs(est.exponent - lam) <= 1e-6


def test_lyapunov_explicit_window():
    delta = np.exp(0.1 * np.arange(50) - 20.0)
    est = lyapunov_from_lbe(LbeSeries(delta=delta), fit_range=(10, 40))
    assert est.fit_range == (10, 39)
    assert abs(est.exponent - 0.1) <= 1e-9


def test_lyapunov_refuses_all_zero():
    with pytest.raises(ValueError, match="no divergence"):
        lyapunov_from_lbe(LbeSeries(delta=np.zeros(10)))


def test_lyapunov_refuses_mostly_zero_window():
    delta = np.zeros(20)
    delta[0] = 1e-12
    delta[19] = 1e-11
    with pytest.raises(ValueError, match="refusing to fit"):
        lyapunov_from_lbe(LbeSeries(delta=delta), fit_range=(0, 20))


def test_lyapunov_positive_for_chaotic_divergence():
    a, b = orbits(EvaluationScheme.E1, EvaluationScheme.E2, n=100)
    est = lyapunov_from_lbe(lower_bound_error(a, b))
    assert est.exponent > 0.3
    assert est.r_squared > 0.95
