import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded
from scipy.linalg.lapack import dptsv

import lagns
from lagns import StepRejected, tridiagonal_solve


def dense_solve(off, diag, rhs):
    # dense Gaussian-elimination oracle
    full = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
    return np.linalg.solve(full, rhs)


def test_identity_matrix_returns_rhs():
    rhs = np.array([3.0, -1.0, 4.5, 0.0])
    out = tridiagonal_solve(np.zeros(3), np.ones(4), rhs)
    np.testing.assert_array_equal(out, rhs)


def test_symmetric_two_by_two():
    out = tridiagonal_solve(
        np.array([1.0]), np.array([2.0, 2.0]), np.array([3.0, 3.0])
    )
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-15)


def test_random_dominant_system_matches_dense_oracle():
    rng = np.random.default_rng(42)
    n = 50
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 3.0 + rng.uniform(0.0, 1.0, n)  # strictly dominant
    rhs = rng.uniform(-5.0, 5.0, n)
    out = tridiagonal_solve(off, diag, rhs)
    np.testing.assert_allclose(out, dense_solve(off, diag, rhs), atol=1e-12)


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), n=st.integers(3, 80))
def test_dominant_systems_match_dense_oracle(seed, n):
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    rhs = rng.uniform(-5.0, 5.0, n)
    out = tridiagonal_solve(off, diag, rhs)
    residual = diag * out
    residual[1:] += off * out[:-1]
    residual[:-1] += off * out[1:]
    np.testing.assert_allclose(residual, rhs, atol=1e-10)


def banded_oracle(off, diag, rhs):
    # scipy's ptsv, through solveh_banded's (2, n) path; that path rejects
    # n = 1, where scipy's wrapper is called with one padding off-diagonal
    diag = np.asarray(diag, dtype=float)
    if diag.shape[0] == 1:
        return dptsv(diag, np.zeros(1), np.asarray(rhs, dtype=float))[2]
    ab = np.zeros((2, diag.shape[0]))
    ab[0, 1:] = off
    ab[1, :] = diag
    return solveh_banded(ab, np.asarray(rhs, dtype=float))


@settings(deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(1, 8193))
def test_bit_identical_to_solve_banded(seed, n):
    # numpy's OpenBLAS ptsv against scipy's: both compile the reference
    # LAPACK routine, so the same bits, up to n = 8193 (N = 8192's momentum)
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    rhs = rng.uniform(-5.0, 5.0, n)
    inputs = [a.copy() for a in (off, diag, rhs)]
    out = tridiagonal_solve(off, diag, rhs)
    assert np.array_equal(out, banded_oracle(off, diag, rhs))
    # the solve must not overwrite its inputs in place
    for before, after in zip(inputs, (off, diag, rhs)):
        assert np.array_equal(before, after)
    # strided views, lists and integers are copied into contiguous floats
    strided = [np.repeat(a, 2)[::2] for a in (off, diag, rhs)]
    assert np.array_equal(tridiagonal_solve(*strided), out)
    assert np.array_equal(tridiagonal_solve(*(a.tolist() for a in inputs)), out)
    # |off| <= 4 and diag >= 10 keep the integer system dominant
    integers = [np.rint(4.0 * a).astype(int) for a in (off, diag, rhs)]
    assert np.array_equal(tridiagonal_solve(*integers), banded_oracle(*integers))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        tridiagonal_solve(np.zeros(2), np.ones(4), np.ones(4))
    with pytest.raises(ValueError):
        tridiagonal_solve(np.zeros(3), np.ones(4), np.ones(5))
    # a (2, 2) diagonal has the row count of its (1,) band and rhs (2,)
    with pytest.raises(ValueError):
        tridiagonal_solve(np.zeros(1), np.ones((2, 2)), np.ones(2))


def test_one_by_one_system_divides():
    out = tridiagonal_solve(np.empty(0), np.array([4.0]), np.array([2.0]))
    np.testing.assert_array_equal(out, [0.5])


def test_singular_system_is_an_error():
    with pytest.raises(StepRejected, match="not positive definite"):
        tridiagonal_solve(np.zeros(1), np.zeros(2), np.ones(2))


@pytest.mark.parametrize("off, diag, minor", [
    ([0.0, 0.0], [1.0, -1.0, 2.0], 2),
    # a positive diagonal, made indefinite by its off-diagonal
    ([0.0, 1.0], [1.0, 1.0, 0.5], 3),
])
def test_indefinite_system_is_rejected_with_its_reason(off, diag, minor):
    reason = rf"not positive definite \(leading minor {minor}\)"
    with pytest.raises(StepRejected, match=reason):
        tridiagonal_solve(np.array(off), np.array(diag), np.ones(3))


def test_missing_lapack_symbol_fails_the_import_by_name():
    # a numpy whose LAPACK lacks dptsv, mimicked by a library with no symbols
    script = (
        "import ctypes\n"
        "ctypes.PyDLL = lambda path: object()\n"
        "import lagns\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(lagns.__file__).parents[1])),
        timeout=120,
    )
    assert proc.returncode != 0
    assert "ImportError: lagns needs a numpy whose LAPACK exports scipy_dptsv_64_" in proc.stderr
