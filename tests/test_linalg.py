import glob
import re

import numpy as np
import pytest

from _oracles import reference_pinv_solve
from unlabeled_sensing import linalg
from unlabeled_sensing.errors import NonFinite, ShapeMismatch
from unlabeled_sensing.linalg import (as_matrix, blas_for, blas_threads, pinv_solve,
                                      row_space_projector, svd)

# The thread-count functions of the OpenBLAS numpy loaded, when it can be reached.
OPENBLAS = linalg._openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None, reason="numpy's OpenBLAS not found")


def test_svd_identity():
    f = svd(np.eye(3))
    np.testing.assert_allclose(f.S, [1.0, 1.0, 1.0])
    assert f.rank == 3


def test_svd_diagonal_case():
    f = svd(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(f.S, [3.0, 2.0, 1.0])
    # singular vectors are axis permutations of the identity
    for M in (f.U, f.V):
        np.testing.assert_allclose(np.abs(M), np.eye(3), atol=1e-12)


def test_svd_singular_values_sorted_nonnegative():
    rng = np.random.default_rng(0)
    f = svd(rng.standard_normal((7, 4)))
    assert np.all(f.S >= 0)
    assert np.all(np.diff(f.S) <= 0)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 3))
    f = svd(A)
    rel = np.linalg.norm((f.U * f.S) @ f.V.T - A) / np.linalg.norm(A)
    assert rel <= 1e-10


def test_svd_reconstruction_and_orthonormality_100_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        A = rng.standard_normal((rows, cols))
        f = svd(A)
        rel = np.linalg.norm((f.U * f.S) @ f.V.T - A) / max(np.linalg.norm(A), 1e-300)
        assert rel <= 1e-10
        k = f.S.size
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(k), atol=1e-10)
        np.testing.assert_allclose(f.V.T @ f.V, np.eye(k), atol=1e-10)


def test_svd_rejects_nonfinite():
    with pytest.raises(NonFinite):
        svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(NonFinite):
        svd(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("a,shape", [
    (np.empty((0, 3)), (0, 3)),
    (np.empty((3, 0)), (3, 0)),
    ([], (0, 1)),
    (np.ones((2, 2, 2)), (2, 2, 2)),
], ids=["no-rows", "no-columns", "empty-list", "3-D"])
def test_as_matrix_refuses_an_empty_or_3d_array(a, shape):
    with pytest.raises(ShapeMismatch, match=re.escape(
            f"B must be a non-empty 2-D matrix, got shape {shape}")):
        as_matrix(a, "B")


def test_pinv_solve_identity():
    rng = np.random.default_rng(3)
    Y = rng.standard_normal((4, 2))
    np.testing.assert_allclose(pinv_solve(np.eye(4), Y), Y, atol=1e-12)


def test_pinv_solve_row_vector_closed_form():
    # pinv of a row vector is a^T / ||a||^2, so [1 1] with y = 2 gives (1, 1)
    x = pinv_solve(np.array([[1.0, 1.0]]), np.array([2.0]))
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_pinv_solve_min_norm_picks_zero_on_null_coordinate():
    x = pinv_solve(np.array([[1.0, 0.0]]), np.array([1.0]))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)


def test_pinv_solve_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        pinv_solve(np.eye(3), np.ones((4, 1)))


def test_pinv_solve_zero_matrix():
    x = pinv_solve(np.zeros((3, 2)), np.ones((3, 1)))
    np.testing.assert_allclose(x, np.zeros((2, 1)))


def test_min_norm_solution_property():
    # consistent underdetermined systems: residual vanishes and no shorter
    # solution exists among random null-space perturbations
    rng = np.random.default_rng(4)
    for _ in range(100):
        s, d = 3, 7
        A = rng.standard_normal((s, d))
        x_true = rng.standard_normal(d)
        y = A @ x_true
        x = pinv_solve(A, y)
        assert np.linalg.norm(A @ x - y) <= 1e-8 * np.linalg.norm(y)
        null = np.eye(d) - row_space_projector(A)
        for _ in range(10):
            z = x + null @ rng.standard_normal(d)
            assert np.linalg.norm(x) <= np.linalg.norm(z) + 1e-8


def test_pinv_equals_row_space_projection():
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.standard_normal((3, 8))
        x_star = rng.standard_normal((8, 2))
        x_hat = pinv_solve(A, A @ x_star)
        np.testing.assert_allclose(x_hat, row_space_projector(A) @ x_star, atol=1e-10)


def test_projector_identity_and_axis_cases():
    np.testing.assert_allclose(row_space_projector(np.eye(4)), np.eye(4), atol=1e-12)
    np.testing.assert_allclose(row_space_projector(np.array([[1.0, 0.0]])),
                               np.diag([1.0, 0.0]), atol=1e-12)


def test_projector_idempotent_symmetric_trace():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 5))
    P = row_space_projector(A)
    np.testing.assert_allclose(P @ P, P, atol=1e-10)
    np.testing.assert_allclose(P.T, P, atol=1e-10)
    assert abs(np.trace(P) - 3.0) <= 1e-10


def _factor_cases():
    rng = np.random.default_rng(8)
    tall = rng.standard_normal((40, 6))
    deficient = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 6))  # rank 3
    wide = rng.standard_normal((4, 9))
    # Under the CholeskyQR2 floor: the theory suite's tall shapes, and a large
    # matrix that is not tall enough.
    return {"tall": tall, "rank_deficient": deficient, "wide": wide,
            "zero": np.zeros((5, 3)), "200x10": rng.standard_normal((200, 10)),
            "150x8": rng.standard_normal((150, 8)), "40x10": rng.standard_normal((40, 10)),
            "not_tall_enough": rng.standard_normal((400, 101))}


@pytest.mark.parametrize("name", ["tall", "rank_deficient", "wide", "zero", "200x10", "150x8",
                                  "40x10", "not_tall_enough"])
def test_svd_factors_solve_equals_pinv_solve_bitwise(name):
    # One factor reused across right-hand sides gives exactly the bits of a
    # fresh factorization per solve, and of the plain formula on numpy's SVD.
    A = _factor_cases()[name]
    f = svd(A)
    if name == "rank_deficient":
        assert f.rank == 3
    if name == "zero":
        assert f.rank == 0
    rng = np.random.default_rng(9)
    for cols in (1, 4):
        Y = rng.standard_normal((A.shape[0], cols))
        got = f.solve(Y)
        assert got.tobytes() == pinv_solve(A, Y).tobytes()
        assert got.tobytes() == reference_pinv_solve(A, Y).tobytes()
    y = rng.standard_normal(A.shape[0])
    assert f.solve(y).shape == (A.shape[1],)
    assert f.solve(y).tobytes() == pinv_solve(A, y).tobytes()


def _tall(rows=4096, cols=64, seed=10):
    return np.random.default_rng(seed).standard_normal((rows, cols))


def _with_singular_values(S, rows, seed=11):
    """A rows x len(S) matrix with singular values S and random singular vectors."""
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((rows, S.size)))[0]
    V = np.linalg.qr(rng.standard_normal((S.size, S.size)))[0]
    return (U * S) @ V.T


def test_svd_of_a_tall_matrix_takes_cholqr2_and_matches_gesdd():
    A = _tall()
    assert A.shape[0] >= linalg.CHOLQR_MIN_ASPECT * A.shape[1]
    assert A.size >= linalg.CHOLQR_MIN_ENTRIES
    routed = linalg._cholqr2(A)
    assert routed is not None
    f = svd(A)
    assert f.S.tobytes() == routed[1].tobytes()
    _, S, _ = np.linalg.svd(A, full_matrices=False)
    np.testing.assert_allclose(f.S, S, rtol=1e-12)
    assert f.rank == 64
    assert np.linalg.norm(f.U.T @ f.U - np.eye(64)) <= 1e-13
    np.testing.assert_allclose((f.U * f.S) @ f.V.T, A, rtol=0, atol=1e-12 * np.abs(A).max())
    Y = np.random.default_rng(12).standard_normal((A.shape[0], 3))
    want = reference_pinv_solve(A, Y)
    assert np.linalg.norm(f.solve(Y) - want) <= 1e-12 * np.linalg.norm(want)


def _fallback_cases():
    A = _tall()
    duplicated = A.copy()
    duplicated[:, -1] = duplicated[:, 0]  # rank 63: the first Cholesky fails or cond is huge
    return {"duplicated_column": (duplicated, 63),
            "cond_1e9": (_with_singular_values(np.logspace(0, -9, 64), 4096), 64),
            "cond_twice_the_limit": (_with_singular_values(
                np.linspace(1.0, 0.5 / linalg.CHOLQR_MAX_COND, 64), 4096), 64),
            "overflowing_gram": (A * 1e160, 64),  # A^T A is inf
            "underflowing_gram": (A * 1e-160, 64)}  # A^T A is subnormal


@pytest.mark.parametrize("name", sorted(_fallback_cases()))
def test_svd_falls_back_to_gesdd_when_cholqr2_cannot_be_trusted(name):
    A, rank = _fallback_cases()[name]
    assert linalg._cholqr2(A) is None
    f = svd(A)
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    assert f.rank == rank == int(np.count_nonzero(S > 4096 * linalg.EPS * S[0]))
    for got, want in ((f.U, U), (f.S, S), (f.V, Vt.T)):
        assert got.tobytes() == want.tobytes()


def test_svd_takes_cholqr2_below_the_condition_limit():
    A = _with_singular_values(np.logspace(0, -5, 64), 4096)
    assert linalg._cholqr2(A) is not None
    f = svd(A)
    np.testing.assert_allclose(f.S, np.linalg.svd(A, compute_uv=False), rtol=1e-9)
    assert np.linalg.norm(f.U.T @ f.U - np.eye(64)) <= 1e-13


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svd_of_a_tall_matrix_rejects_nonfinite(bad):
    A = _tall()
    A[100, 3] = bad
    with pytest.raises(NonFinite):
        svd(A)


@needs_openblas
def test_cholqr2_factors_are_the_same_bytes_at_one_and_two_blas_threads():
    # gesdd's factors of this shape differ in their last bits between the two
    # counts with OpenBLAS 0.3.31; CholeskyQR2's GEMMs do not.
    A = _tall(11000, 48)
    factors = []
    for count in (1, 2):
        with blas_threads(count) as pinned:
            assert pinned
            f = svd(A)
            factors.append(b"".join(M.tobytes() for M in (f.U, f.S, f.V)))
    assert linalg._cholqr2(A) is not None
    assert factors[0] == factors[1]


def test_svd_factors_solve_checks_right_hand_side():
    f = svd(np.eye(3))
    with pytest.raises(ShapeMismatch):
        f.solve(np.ones((4, 1)))
    with pytest.raises(NonFinite):
        f.solve(np.array([1.0, np.nan, 0.0]))


@pytest.fixture
def blas_at_two():
    """The OpenBLAS thread count set to 2 for the test, and the test's own count restored."""
    get, put = OPENBLAS
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


@needs_openblas
def test_blas_threads_restores_the_previous_count_on_exit_and_on_raise(blas_at_two):
    get = blas_at_two
    with blas_threads(1) as pinned:
        assert pinned and get() == 1
    assert get() == 2
    with pytest.raises(ZeroDivisionError), blas_threads(1):
        assert get() == 1
        1 / 0
    assert get() == 2


@needs_openblas
@pytest.mark.parametrize("found", ["nothing", "not a library"])
def test_blas_threads_yields_false_and_changes_nothing_without_the_library(
        blas_at_two, monkeypatch, tmp_path, found):
    get = blas_at_two
    junk = tmp_path / "libopenblas.so"
    junk.write_bytes(b"not an ELF file")  # ctypes raises OSError loading it
    monkeypatch.setattr(glob, "glob", lambda pattern: [] if found == "nothing" else [str(junk)])
    assert linalg._openblas() is None
    with blas_threads(1) as pinned:
        assert pinned is False and get() == 2
    assert get() == 2


@needs_openblas
def test_blas_for_pins_one_thread_up_to_the_limit_and_leaves_blas_alone_above_it(
        blas_at_two, monkeypatch):
    get = blas_at_two
    with blas_for(linalg.BLAS_SERIAL_MAX) as pinned:
        assert pinned and get() == 1
    assert get() == 2
    monkeypatch.setattr(linalg, "_openblas", lambda: pytest.fail("BLAS looked up above the limit"))
    with blas_for(linalg.BLAS_SERIAL_MAX + 1) as pinned:
        assert pinned is False and get() == 2
    assert get() == 2
