import numpy as np
import pytest

from unlabeled_sensing.collapse import build_collapsed, init_rlocal
from unlabeled_sensing.errors import ShapeMismatch
from unlabeled_sensing.linalg import row_space_projector
from unlabeled_sensing.permutation import BlockPartition, apply, sample_rlocal


def test_size_one_blocks_are_a_no_op():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((5, 3))
    Y = rng.standard_normal((5, 2))
    cs = build_collapsed(B, Y, BlockPartition((1,) * 5))
    np.testing.assert_array_equal(cs.B_tilde, B)
    np.testing.assert_array_equal(cs.Y_tilde, Y)


def test_direct_summation_example():
    B = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    Y = np.array([[1.0], [2.0], [3.0], [4.0]])
    cs = build_collapsed(B, Y, BlockPartition((2, 2)))
    np.testing.assert_array_equal(cs.B_tilde, [[1.0, 1.0], [5.0, 5.0]])
    np.testing.assert_array_equal(cs.Y_tilde, [[3.0], [7.0]])
    assert cs.s == 2


def test_shape_mismatch_errors():
    with pytest.raises(ShapeMismatch):
        build_collapsed(np.ones((4, 2)), np.ones((3, 1)), BlockPartition((2, 2)))
    with pytest.raises(ShapeMismatch):
        build_collapsed(np.ones((4, 2)), np.ones((4, 1)), BlockPartition((2, 3)))


def test_invariance_under_rlocal_permutations():
    rng = np.random.default_rng(1)
    part = BlockPartition((4, 3, 5, 4))
    B = rng.standard_normal((16, 6))
    Y = rng.standard_normal((16, 2))
    base = build_collapsed(B, Y, part)
    scale = np.linalg.norm(base.B_tilde)
    for _ in range(100):
        p = sample_rlocal(part, rng)
        permuted = build_collapsed(apply(p, B), apply(p, Y), part)
        assert np.linalg.norm(permuted.B_tilde - base.B_tilde) <= 1e-12 * scale
        assert np.linalg.norm(permuted.Y_tilde - base.Y_tilde) <= 1e-12 * np.linalg.norm(base.Y_tilde)


def test_init_rlocal_exact_when_enough_blocks():
    # s >= d with a generic collapsed matrix recovers the signal exactly
    rng = np.random.default_rng(2)
    part = BlockPartition.equal_blocks(40, 2)  # s = 20 >= d = 8
    B = rng.standard_normal((40, 8))
    x_star = rng.standard_normal((8, 3))
    p = sample_rlocal(part, rng)
    Y = apply(p, B @ x_star)
    x_hat = init_rlocal(build_collapsed(B, Y, part))
    assert np.linalg.norm(x_hat - x_star) <= 1e-8 * np.linalg.norm(x_star)


def test_init_rlocal_projects_when_underdetermined():
    rng = np.random.default_rng(3)
    part = BlockPartition.equal_blocks(12, 4)  # s = 3 < d = 7
    B = rng.standard_normal((12, 7))
    x_star = rng.standard_normal((7, 2))
    cs = build_collapsed(B, B @ x_star, part)
    x_hat = init_rlocal(cs)
    proj = row_space_projector(cs.B_tilde)
    np.testing.assert_allclose(x_hat, proj @ x_star, atol=1e-10)
    # projection error identity on norms
    err = np.linalg.norm(x_star - x_hat)
    expected = np.linalg.norm((np.eye(7) - proj) @ x_star)
    assert abs(err - expected) <= 1e-10


def test_init_rlocal_row_vector_closed_form():
    cs = build_collapsed(np.array([[1.0, 1.0]]), np.array([[2.0]]), BlockPartition((1,)))
    np.testing.assert_allclose(init_rlocal(cs), [[1.0], [1.0]], atol=1e-12)


def test_init_improves_with_more_blocks():
    # mean relative init error at s = 45 strictly below the mean at s = 15
    rng = np.random.default_rng(4)
    d = 60
    means = {}
    for s in (15, 45):
        part = BlockPartition.equal_blocks(2 * s, 2)
        errs = []
        for _ in range(50):
            B = rng.standard_normal((2 * s, d))
            x_star = rng.standard_normal((d, 1))
            x_hat = init_rlocal(build_collapsed(B, B @ x_star, part))
            errs.append(np.linalg.norm(x_star - x_hat) / np.linalg.norm(x_star))
        means[s] = np.mean(errs)
    assert means[45] < means[15]
