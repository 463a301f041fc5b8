from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import reference_sample_rlocal
from unlabeled_sensing.errors import InvalidConfig, InvalidK, ShapeMismatch
from unlabeled_sensing.permutation import (BlockPartition, KSparse, Permutation,
                                           apply, hamming_distortion,
                                           sample_ksparse, sample_rlocal)


def test_permutation_validates_bijection():
    with pytest.raises(InvalidConfig):
        Permutation(np.array([0, 0, 1]))
    with pytest.raises(InvalidConfig):
        Permutation(np.array([0, 2]))


def test_apply_identity_and_swap():
    A = np.array([[1.0], [2.0]])
    np.testing.assert_array_equal(apply(Permutation.identity(2), A), A)
    np.testing.assert_array_equal(apply(Permutation(np.array([1, 0])), A),
                                  np.array([[2.0], [1.0]]))


def test_apply_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        apply(Permutation.identity(3), np.ones((4, 2)))


def test_apply_matches_matrix_form():
    rng = np.random.default_rng(0)
    p = Permutation(rng.permutation(6))
    A = rng.standard_normal((6, 3))
    np.testing.assert_allclose(apply(p, A), np.eye(6)[p.map] @ A)


def test_inverse_composition_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        p = Permutation(rng.permutation(n))
        A = rng.standard_normal((n, 2))
        np.testing.assert_array_equal(apply(p, apply(p.inverse(), A)), A)
        np.testing.assert_array_equal(apply(p.inverse(), apply(p, A)), A)


def test_partition_validation_and_offsets():
    part = BlockPartition((2, 3, 1))
    assert part.n == 6
    assert part.offsets == (0, 2, 5, 6)
    assert [(s.start, s.stop) for s in part.slices()] == [(0, 2), (2, 5), (5, 6)]
    with pytest.raises(InvalidConfig):
        BlockPartition((2, 0))
    with pytest.raises(InvalidConfig):
        BlockPartition(())


def test_equal_blocks_with_remainder():
    assert BlockPartition.equal_blocks(10, 4).sizes == (4, 4, 2)
    assert BlockPartition.equal_blocks(10, 5).sizes == (5, 5)


def test_sample_rlocal_size_one_blocks_is_identity():
    rng = np.random.default_rng(3)
    part = BlockPartition((1,) * 8)
    for _ in range(20):
        assert hamming_distortion(Permutation.identity(8), sample_rlocal(part, rng)) == 0


def test_sample_rlocal_never_crosses_blocks():
    rng = np.random.default_rng(4)
    part = BlockPartition((3, 5, 2, 4))
    for _ in range(50):
        p = sample_rlocal(part, rng)
        for sl in part.slices():
            block = p.map[sl]
            assert block.min() >= sl.start and block.max() < sl.stop


def test_sample_rlocal_two_by_two_uniform():
    # the 4 admissible permutations of a (2, 2) partition each appear
    # with frequency 0.25 +- 0.03 over 4000 draws
    rng = np.random.default_rng(5)
    part = BlockPartition((2, 2))
    counts = Counter(tuple(sample_rlocal(part, rng).to_list()) for _ in range(4000))
    assert len(counts) == 4
    for freq in counts.values():
        assert abs(freq / 4000 - 0.25) <= 0.03


@settings(max_examples=300, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 6)), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_sample_rlocal_draws_what_one_permutation_per_block_draws(runs, seed):
    # Runs of equal-size blocks, neighbouring runs possibly of the same size:
    # the same map as the per-block loop, and the generator left in the same
    # state, so every later draw of a synthetic instance is unchanged too.
    part = BlockPartition(tuple(size for size, count in runs for _ in range(count)))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(sample_rlocal(part, rng).map, reference_sample_rlocal(part, ref))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_ksparse_trivial_cases():
    rng = np.random.default_rng(6)
    assert hamming_distortion(Permutation.identity(5), sample_ksparse(5, 0, rng)) == 0
    assert sample_ksparse(2, 2, rng).to_list() == [1, 0]


def test_sample_ksparse_invalid_k():
    rng = np.random.default_rng(7)
    with pytest.raises(InvalidK):
        sample_ksparse(5, 1, rng)
    with pytest.raises(InvalidK):
        sample_ksparse(5, 6, rng)
    with pytest.raises(InvalidK):
        KSparse(1)


def test_sample_ksparse_three_of_four_uniform():
    # C(4,3) * 2 = 8 admissible permutations, each ~1/8 over 9000 draws
    rng = np.random.default_rng(8)
    counts = Counter(tuple(sample_ksparse(4, 3, rng).to_list()) for _ in range(9000))
    assert len(counts) == 8
    for freq in counts.values():
        assert abs(freq / 9000 - 0.125) <= 0.02


def test_sample_ksparse_exact_displacement_spot_checks():
    rng = np.random.default_rng(9)
    for n in range(2, 13):
        for k in {0, 2, 3, n}:
            if k > n or k == 1:
                continue
            for _ in range(25):
                p = sample_ksparse(n, k, rng)
                assert hamming_distortion(Permutation.identity(n), p) == k


def test_hamming_distortion_basics():
    rng = np.random.default_rng(10)
    p = Permutation(rng.permutation(9))
    assert hamming_distortion(p, p) == 0
    q = Permutation(np.array([0, 2, 1, 4, 3]))
    assert hamming_distortion(Permutation.identity(5), q) == 4
    with pytest.raises(ShapeMismatch):
        hamming_distortion(Permutation.identity(3), Permutation.identity(4))


def test_hamming_distortion_is_a_metric_never_one():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 10))
        p = Permutation(rng.permutation(n))
        q = Permutation(rng.permutation(n))
        r = Permutation(rng.permutation(n))
        d_pq = hamming_distortion(p, q)
        assert d_pq != 1
        assert d_pq == hamming_distortion(q, p)
        assert (d_pq == 0) == np.array_equal(p.map, q.map)
        assert d_pq <= hamming_distortion(p, r) + hamming_distortion(r, q)


def test_json_serialization_roundtrip():
    import json

    rng = np.random.default_rng(13)
    p = Permutation(rng.permutation(7))
    assert Permutation.from_list(json.loads(p.to_json())).to_list() == p.to_list()
    assert json.loads(p.to_json()) == p.to_list()
