import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from lagns import tridiagonal_solve


def dense_solve(lower, diag, upper, rhs):
    # dense Gaussian-elimination oracle
    n = len(diag)
    full = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    return np.linalg.solve(full, rhs)


def test_identity_matrix_returns_rhs():
    rhs = np.array([3.0, -1.0, 4.5, 0.0])
    out = tridiagonal_solve(np.zeros(3), np.ones(4), np.zeros(3), rhs)
    np.testing.assert_array_equal(out, rhs)


def test_symmetric_two_by_two():
    out = tridiagonal_solve(
        np.array([1.0]), np.array([2.0, 2.0]), np.array([1.0]), np.array([3.0, 3.0])
    )
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)


def test_random_dominant_system_matches_dense_oracle():
    rng = np.random.default_rng(42)
    n = 50
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = 3.0 + rng.uniform(0.0, 1.0, n)  # strictly dominant
    rhs = rng.uniform(-5.0, 5.0, n)
    out = tridiagonal_solve(lower, diag, upper, rhs)
    np.testing.assert_allclose(out, dense_solve(lower, diag, upper, rhs), atol=1e-12)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(3, 80))
def test_dominant_systems_match_dense_oracle(seed, n):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    rhs = rng.uniform(-5.0, 5.0, n)
    out = tridiagonal_solve(lower, diag, upper, rhs)
    residual = diag * out
    residual[1:] += lower * out[:-1]
    residual[:-1] += upper * out[1:]
    np.testing.assert_allclose(residual, rhs, atol=1e-10)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(2, 600))
def test_bit_identical_to_solve_banded(seed, n):
    # same LAPACK gtsv as solve_banded's (1, 1) path, so the same bits
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    rhs = rng.uniform(-5.0, 5.0, n)
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    inputs = [a.copy() for a in (lower, diag, upper, rhs)]
    out = tridiagonal_solve(lower, diag, upper, rhs)
    assert np.array_equal(out, solve_banded((1, 1), ab, rhs))
    for before, after in zip(inputs, (lower, diag, upper, rhs)):
        assert np.array_equal(before, after)

    # temperature_step passes one band array as both off-diagonals; the
    # solve must not overwrite it in place
    band = lower.copy()
    ab[0, 1:] = band
    ab[2, :-1] = band
    out = tridiagonal_solve(band, diag, band, rhs)
    assert np.array_equal(out, solve_banded((1, 1), ab, rhs))
    assert np.array_equal(band, lower)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        tridiagonal_solve(np.zeros(3), np.ones(4), np.zeros(2), np.ones(4))
    with pytest.raises(ValueError):
        tridiagonal_solve(np.zeros(3), np.ones(4), np.zeros(3), np.ones(5))


def test_one_by_one_system_divides():
    out = tridiagonal_solve(np.empty(0), np.array([4.0]), np.empty(0), np.array([2.0]))
    np.testing.assert_array_equal(out, [0.5])


def test_singular_system_is_an_error():
    with pytest.raises(RuntimeError, match="singular"):
        tridiagonal_solve(np.zeros(1), np.zeros(2), np.zeros(1), np.ones(2))
