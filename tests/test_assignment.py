import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_force_lap
from unlabeled_sensing import assignment
from unlabeled_sensing.assignment import solve_blockwise, solve_lap
from unlabeled_sensing.errors import NonFinite, ShapeMismatch
from unlabeled_sensing.permutation import BlockPartition, Permutation


def lap_value(C, p: Permutation) -> float:
    return float(C[np.arange(C.shape[0]), p.map].sum())


def test_identity_reward():
    p, value = solve_lap(np.eye(5))
    assert p.to_list() == [0, 1, 2, 3, 4]
    assert value == 5.0


def test_antidiagonal_reward_two_by_two():
    p, value = solve_lap(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert p.to_list() == [1, 0]
    assert value == 2.0


def test_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ShapeMismatch):
        solve_lap(np.ones((2, 3)))
    with pytest.raises(NonFinite):
        solve_lap(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_matches_brute_force_100_random_6x6():
    rng = np.random.default_rng(0)
    for _ in range(100):
        C = rng.standard_normal((6, 6))
        p, value = solve_lap(C)
        best, _ = brute_force_lap(C)
        assert abs(value - best) <= 1e-12 * max(1.0, abs(best))
        assert abs(lap_value(C, p) - value) <= 1e-12


def test_optimality_against_random_permutations():
    rng = np.random.default_rng(1)
    C = rng.standard_normal((30, 30))
    _, value = solve_lap(C)
    for _ in range(1000):
        q = Permutation(rng.permutation(30))
        assert value >= lap_value(C, q) - 1e-9


def test_row_and_column_shift_invariance():
    # shifting a whole row or column moves the value predictably and the
    # returned permutation still attains the brute-force optimum
    rng = np.random.default_rng(2)
    for _ in range(20):
        C = rng.standard_normal((5, 5))
        shifted = C.copy()
        shifted[2, :] += 3.7
        shifted[:, 4] -= 1.9
        p, value = solve_lap(shifted)
        best, _ = brute_force_lap(shifted)
        assert abs(value - best) <= 1e-12 * max(1.0, abs(best))
        assert abs(lap_value(shifted, p) - value) <= 1e-12


def test_blockwise_identity_and_double_swap():
    part = BlockPartition((2, 2))
    assert solve_blockwise([np.eye(2), np.eye(2)], part).to_list() == [0, 1, 2, 3]
    anti = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert solve_blockwise([anti, anti], part).to_list() == [1, 0, 3, 2]


def test_blockwise_matches_per_block_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sizes = tuple(int(s) for s in rng.integers(1, 7, size=3))
        part = BlockPartition(sizes)
        blocks = [rng.standard_normal((s, s)) for s in sizes]
        p = solve_blockwise(blocks, part)
        for block, sl in zip(blocks, part.slices()):
            sub = p.map[sl] - sl.start
            best, _ = brute_force_lap(block)
            got = float(block[np.arange(block.shape[0]), sub].sum())
            assert abs(got - best) <= 1e-12 * max(1.0, abs(best))


def test_blockwise_equals_full_lap_with_sentinel():
    rng = np.random.default_rng(4)
    for _ in range(10):
        sizes = (3, 2, 3)
        part = BlockPartition(sizes)
        blocks = [rng.standard_normal((s, s)) for s in sizes]
        p_block = solve_blockwise(blocks, part)
        full = np.full((8, 8), -1e18 * max(1.0, max(np.abs(b).max() for b in blocks)))
        for block, sl in zip(blocks, part.slices()):
            full[sl, sl] = block
        p_full, _ = solve_lap(full)
        assert p_block.to_list() == p_full.to_list()


def test_blockwise_shape_errors():
    part = BlockPartition((2, 2))
    with pytest.raises(ShapeMismatch):
        solve_blockwise([np.eye(2)], part)
    with pytest.raises(ShapeMismatch):
        solve_blockwise([np.eye(2), np.eye(3)], part)


# ---------------------------------------------------- distinct row argmax shortcut

def _reward(rng, size, certified):
    """Small-integer reward, ties included; a certified one has a planted
    permutation that is every row's unique best column."""
    C = rng.integers(-2, 3, (size, size)).astype(np.float64)
    if certified:
        C[np.arange(size), rng.permutation(size)] += 10.0
    return C


def _no_scipy(*args, **kwargs):
    raise AssertionError("linear_sum_assignment called on a certified reward")


@st.composite
def _ragged_blocks(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    return sizes, [_reward(rng, s, f) for s, f in zip(sizes, flags)]


@settings(max_examples=300, deadline=None)
@given(size=st.integers(1, 6), certified=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_solve_lap_attains_brute_force_value_with_ties(size, certified, seed):
    C = _reward(np.random.default_rng(seed), size, certified)
    p, value = solve_lap(C)
    best, _ = brute_force_lap(C)
    assert value == best == lap_value(C, p)
    # argmin of -C is argmax of C, and scipy negates a maximized matrix
    # itself, so minimizing the negated matrix reaches the same map
    q, cost = solve_lap(-C, maximize=False)
    assert np.array_equal(p.map, q.map) and cost == -value


@settings(max_examples=200, deadline=None)
@given(case=_ragged_blocks())
def test_blockwise_ragged_mixed_blocks_match_per_block_brute_force(case):
    sizes, blocks = case
    part = BlockPartition(sizes)
    p = solve_blockwise(blocks, part)
    for block, sl in zip(blocks, part.slices()):
        best, _ = brute_force_lap(block)
        assert lap_value(block, Permutation(p.map[sl] - sl.start)) == best


def test_distinct_row_argmax_is_returned_without_scipy(monkeypatch):
    monkeypatch.setattr(assignment, "linear_sum_assignment", _no_scipy)
    rng = np.random.default_rng(5)
    C = rng.standard_normal((40, 40))
    C[np.arange(40), rng.permutation(40)] += 10.0
    p, value = solve_lap(C)
    assert np.array_equal(p.map, C.argmax(axis=1))
    assert value == lap_value(C, p)
    part = BlockPartition((3, 3, 1, 4, 4))
    blocks = [_reward(rng, s, True) for s in part.sizes]
    expected = np.concatenate([b.argmax(axis=1) + sl.start
                               for b, sl in zip(blocks, part.slices())])
    assert np.array_equal(solve_blockwise(blocks, part).map, expected)
    # a (b, s, s) array is a sequence of blocks too
    stacked = np.stack(blocks[:2])
    assert np.array_equal(solve_blockwise(stacked, BlockPartition((3, 3))).map, expected[:6])


def test_shared_best_column_goes_to_scipy(monkeypatch):
    calls = []
    real = assignment.linear_sum_assignment
    monkeypatch.setattr(assignment, "linear_sum_assignment",
                        lambda C, maximize: calls.append(C.shape) or real(C, maximize=maximize))
    # both rows prefer column 0; the argmax map [0, 0] is no permutation
    p, value = solve_lap(np.array([[3.0, 0.0], [2.0, 0.0]]))
    assert p.to_list() == [0, 1] and value == 3.0 and calls == [(2, 2)]
    part = BlockPartition((2, 2))
    p = solve_blockwise([np.eye(2), np.array([[1.0, 0.0], [5.0, 0.0]])], part)
    assert p.to_list() == [0, 1, 3, 2] and calls == [(2, 2), (2, 2)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("block_index", range(5))
def test_blockwise_non_finite_block_names_its_offset(bad, block_index):
    rng = np.random.default_rng(6)
    part = BlockPartition((2, 3, 3, 1, 2))
    blocks = [_reward(rng, s, True) for s in part.sizes]
    blocks[block_index][-1, 0] = bad
    offset = part.offsets[block_index]
    with pytest.raises(NonFinite, match=f"reward block at offset {offset} "):
        solve_blockwise(blocks, part)


def test_non_finite_entry_is_refused_even_where_argmax_would_pick_it(monkeypatch):
    # argmax takes a NaN as a row maximum; the finiteness check comes first
    monkeypatch.setattr(assignment, "linear_sum_assignment", _no_scipy)
    C = np.eye(3)
    C[1, 2] = np.nan
    with pytest.raises(NonFinite, match="reward matrix contains NaN"):
        solve_lap(C)


def test_minimizing_hands_scipy_the_matrix_itself(monkeypatch):
    seen = []
    real = assignment.linear_sum_assignment

    def spy(C, maximize):
        seen.append((C, maximize))
        return real(C, maximize=maximize)

    monkeypatch.setattr(assignment, "linear_sum_assignment", spy)
    # both rows prefer column 1 (the lower cost); the argmin map is no permutation
    C = np.array([[3.0, 0.0], [2.0, 0.0]])
    p, cost = solve_lap(C, maximize=False)
    assert p.to_list() == [1, 0] and cost == 2.0
    assert len(seen) == 1 and np.shares_memory(seen[0][0], C) and seen[0][1] is False
