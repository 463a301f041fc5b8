import numpy as np
import pytest

from _oracles import reference_pinv_solve
from unlabeled_sensing.errors import NonFinite, ShapeMismatch
from unlabeled_sensing.linalg import pinv_solve, row_space_projector, svd


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
    return {"tall": tall, "rank_deficient": deficient, "wide": wide,
            "zero": np.zeros((5, 3))}


@pytest.mark.parametrize("name", ["tall", "rank_deficient", "wide", "zero"])
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


def test_svd_factors_solve_checks_right_hand_side():
    f = svd(np.eye(3))
    with pytest.raises(ShapeMismatch):
        f.solve(np.ones((4, 1)))
    with pytest.raises(NonFinite):
        f.solve(np.array([1.0, np.nan, 0.0]))
