import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from _oracles import (all_permutations, brute_force_lap, brute_force_min_objective,
                      reference_nearest_blocked, reference_solve)
from unlabeled_sensing import assignment, data, linalg, solver
from unlabeled_sensing.assignment import solve_blockwise, solve_lap
from unlabeled_sensing.cli import _result_metrics
from unlabeled_sensing.collapse import build_collapsed, init_rlocal
from unlabeled_sensing.data import SynthConfig, generate
from unlabeled_sensing.errors import (InvalidConfig, NonFinite, ShapeMismatch,
                                     TooFewIterations)
from unlabeled_sensing.linalg import pinv_solve
from unlabeled_sensing.permutation import (BlockPartition, KSparse, Permutation,
                                           RLocal, apply)
from unlabeled_sensing.solver import (SolverConfig, objective,
                                      permutation_update, relative_change,
                                      signal_update, solve)


def _random_instance(rng, n=12, d=3, m=2, sigma=0.0):
    part = BlockPartition.equal_blocks(n, 4)
    return generate(SynthConfig(n=n, d=d, m=m, model=RLocal(part), sigma=sigma,
                                seed=int(rng.integers(0, 2**31))))


def test_objective_trivial_cases():
    rng = np.random.default_rng(0)
    inst = _random_instance(rng)
    f_truth = objective(inst.B, inst.Y, inst.p_star, inst.x_star)
    assert f_truth <= 1e-16 * np.sum(inst.Y ** 2)
    f_zero = objective(inst.B, inst.Y, Permutation.identity(inst.n),
                       np.zeros_like(inst.x_star))
    assert abs(f_zero - np.sum(inst.Y ** 2)) <= 1e-9 * np.sum(inst.Y ** 2)


def test_objective_matches_naive_double_loop():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((7, 3))
    X = rng.standard_normal((3, 2))
    Y = rng.standard_normal((7, 2))
    p = Permutation(rng.permutation(7))
    fitted = B @ X
    total = 0.0
    for i in range(7):
        for j in range(2):
            total += (Y[i, j] - fitted[p.map[i], j]) ** 2
    assert abs(objective(B, Y, p, X) - total) <= 1e-12 * max(1.0, total)


def test_objective_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        objective(np.ones((4, 2)), np.ones((4, 1)), Permutation.identity(4),
                  np.ones((3, 1)))


def test_permutation_update_is_exact_minimizer():
    # enumeration oracle: the updated permutation minimizes F(X, .) globally
    rng = np.random.default_rng(2)
    for _ in range(20):
        B = rng.standard_normal((6, 2))
        X = rng.standard_normal((2, 2))
        Y = rng.standard_normal((6, 2))
        p_new = permutation_update(B, Y, X)
        best_value, _ = brute_force_lap(Y @ (B @ X).T)
        got = float((Y @ (B @ X).T)[np.arange(6), p_new.map].sum())
        assert abs(got - best_value) <= 1e-10 * max(1.0, abs(best_value))


def test_permutation_update_identity_optimal_for_perfect_fit():
    rng = np.random.default_rng(3)
    for _ in range(20):
        B = rng.standard_normal((6, 3))
        X = rng.standard_normal((3, 2))
        Y = B @ X
        p = permutation_update(B, Y, X)
        # identity attains the optimum; ties are possible but F must match
        assert objective(B, Y, p, X) <= objective(B, Y, Permutation.identity(6), X) + 1e-10


@st.composite
def _dense_steps(draw):
    """B, Y, X for one dense step, built to provoke ties: small-integer
    entries, duplicate rows of Y, and rows of B X whose norms span 1e-3 to 1e3."""
    n, d, m = draw(st.integers(1, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.integers(-2, 3, (n, d)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    X = rng.integers(-2, 3, (d, m)).astype(np.float64)
    if draw(st.booleans()):
        Y = (B @ X)[rng.permutation(n)]
    else:
        Y = rng.integers(-3, 4, (n, m)) * 10.0 ** rng.integers(-3, 4, (n, 1))
    if draw(st.booleans()):
        Y = Y[rng.integers(0, max(1, n // 2), n)]
    return B, Y, X


@settings(max_examples=300, deadline=None)
@given(case=_dense_steps())
def test_dense_permutation_update_attains_the_enumerated_minimum(case):
    # The dense step minimizes sum_i ||y_i - z_p(i)||^2 (z = B X); over all n!
    # permutations it must attain min_P ||Y - P B X||_F^2, and so must each of
    # its routes on its own: the KD-tree certificate when the nearest rows are
    # distinct, the dense router past the memory budget (the certificate, or
    # row reduction from the nearest rows, then augmenting paths), and the
    # cost-form LAP.
    B, Y, X = case
    z = B @ X
    perms = all_permutations(Y.shape[0])
    best = np.sum((Y[None] - z[perms]) ** 2, axis=(1, 2)).min()
    slack = 1e-12 * (np.sum(Y * Y) + np.sum(z * z))
    got = objective(B, Y, permutation_update(B, Y, X), X)
    assert got <= best + slack

    def value(cols):
        assert sorted(cols) == list(range(Y.shape[0]))
        return float(np.sum((Y - z[cols]) ** 2))

    half_norms = 0.5 * np.einsum("ij,ij->i", z, z)
    cost = Y @ z.T
    np.subtract(half_norms, cost, out=cost)
    rows = np.arange(Y.shape[0])
    _, nearest = cKDTree(z).query(Y)
    if np.unique(nearest).size == nearest.size:
        assert value(nearest) <= best + slack
    blocked = assignment._nearest_blocked(Y, z, half_norms)
    assert np.array_equal(cost[rows, blocked], cost.min(axis=1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment, "DENSE_BYTES_MAX", 0)
        mp.setattr(assignment, "solve_lap", _no_call)
        assert value(assignment._solve_dense(Y, z, half_norms).map) <= best + slack
    assert value(solve_lap(cost, maximize=False)[0].map) <= best + slack


def test_dense_permutation_update_equals_the_plain_reward_lap():
    # The second k-sparse step of a Gaussian instance (no ties): the shifted
    # reward and Y (B X)^T have the same maximizer.
    inst = generate(SynthConfig(n=300, d=5, m=3, model=KSparse(150), sigma=0.1, seed=12))
    x = signal_update(inst.B, inst.Y, Permutation.identity(300))
    p = permutation_update(inst.B, inst.Y, x)
    assert not np.array_equal(p.map, np.arange(300))
    assert np.array_equal(p.map, solve_lap(inst.Y @ (inst.B @ x).T)[0].map)


@settings(max_examples=300, deadline=None)
@given(case=_dense_steps(), cuts=st.lists(st.integers(1, 6), max_size=6))
def test_blockwise_permutation_update_attains_the_enumerated_minimum(case, cuts):
    # The r-local step maximizes the same shifted reward within each block,
    # built in batches of equal-size blocks; each block must still attain its
    # own enumerated minimum of ||Y_b - P_b (B X)_b||_F^2.
    B, Y, X = case
    n = Y.shape[0]
    bounds = sorted({0, n, *(c for c in cuts if c < n)})
    part = BlockPartition(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    p = permutation_update(B, Y, X, part)
    z = B @ X
    for sl in part.slices():
        assert sorted(p.map[sl]) == list(range(sl.start, sl.stop))
        yb, zb = Y[sl], z[sl]
        values = np.sum((yb[None] - zb[all_permutations(yb.shape[0])]) ** 2, axis=(1, 2))
        got = float(np.sum((yb - z[p.map[sl]]) ** 2))
        assert got <= values.min() + 1e-12 * (np.sum(yb * yb) + np.sum(zb * zb))


def test_blockwise_step_in_chunks_equals_solve_blockwise_on_the_block_rewards(monkeypatch):
    # At m = 1 a chunk holds at most n = 29 cost entries: the run of five
    # 3-blocks is settled as stacks of 3 and 2 and each 4-block alone. Small
    # integers make every product exact and tie often, so the block rewards
    # built one by one are the chunked costs negated bit for bit, and the
    # blocks that tie go to scipy on both sides with the same map.
    # solve_blockwise settles each block alone, so it shares no stacking with
    # the route under test.
    part = BlockPartition((3, 3, 3, 3, 3, 2, 4, 4, 4))
    rng = np.random.default_rng(13)
    Y = rng.integers(-2, 3, (part.n, 1)).astype(np.float64)
    Z = rng.integers(-2, 3, (part.n, 1)).astype(np.float64)
    half_norms = 0.5 * Z[:, 0] ** 2
    rewards = [Y[sl] @ Z[sl].T - half_norms[sl] for sl in part.slices()]
    calls = _count_scipy_calls(monkeypatch)
    expected = solve_blockwise(rewards, part).map
    assert calls
    stacks, real = [], assignment._solve_stack
    monkeypatch.setattr(assignment, "_solve_stack",
                        lambda R, *a, **kw: stacks.append(R.shape) or real(R, *a, **kw))
    assert np.array_equal(assignment.solve_nearest(Y, Z, part).map, expected)
    assert stacks == [(3, 3, 3), (2, 3, 3), (1, 2, 2), (1, 4, 4), (1, 4, 4), (1, 4, 4)]


@pytest.mark.parametrize("Y,Z", [
    (np.ones((0, 2)), np.ones((0, 2))),
    (np.ones((3, 2)), np.ones((4, 2))),
    (np.ones((3, 2)), np.ones((3, 3))),
    (np.ones(3), np.ones(3)),
], ids=["no rows", "more fitted rows", "column mismatch", "one-dimensional"])
def test_solve_nearest_needs_y_and_z_of_one_2d_shape_with_rows(Y, Z):
    with pytest.raises(ShapeMismatch, match="Y and Z must be"):
        assignment.solve_nearest(Y, Z)


def test_solve_nearest_partition_not_covering_the_rows_is_shape_mismatch():
    Y = np.ones((12, 2))
    with pytest.raises(ShapeMismatch, match="partition covers 8 rows but Y has 12"):
        assignment.solve_nearest(Y, Y, BlockPartition((4, 4)))
    with pytest.raises(ShapeMismatch, match="partition covers 8 rows but Y has 12"):
        permutation_update(np.ones((12, 1)), Y, np.ones((1, 2)), BlockPartition((4, 4)))


@pytest.mark.parametrize("tree", [True, False])
def test_block_past_the_memory_budget_takes_the_dense_step(monkeypatch, tree):
    # With a budget below 100 x 100 cost entries, the two 100-row blocks take
    # the dense router on their own rows: the tree or, when it is declined, the
    # blocked scan, then row reduction for the rows that share a nearest row;
    # no cost matrix goes to solve_lap. The small blocks are stacked within
    # the budget and never reach the router. Random fits have one optimum per
    # block, which scipy finds on each block's cost.
    part = BlockPartition((3, 3, 100, 4, 100))
    rng = np.random.default_rng(11)
    Y, Z = rng.standard_normal((part.n, 3)), rng.standard_normal((part.n, 3))
    expected = np.concatenate([
        linear_sum_assignment(0.5 * np.einsum("ij,ij->i", Z[sl], Z[sl]) - Y[sl] @ Z[sl].T)[1]
        + sl.start for sl in part.slices()])
    asked, routed, reduced = [], [], []
    real_dense, real_reduce = assignment._solve_dense, assignment._reduce_rows
    monkeypatch.setattr(assignment, "DENSE_BYTES_MAX", 8 * 99 * 99)
    monkeypatch.setattr(assignment, "solve_lap", _no_call)
    monkeypatch.setattr(assignment, "_tree_pays", lambda Y, *a: asked.append(len(Y)) or tree)
    monkeypatch.setattr(assignment, "_solve_dense",
                        lambda Y, *a: routed.append(len(Y)) or real_dense(Y, *a))
    monkeypatch.setattr(assignment, "_reduce_rows",
                        lambda Y, *a: reduced.append(len(Y)) or real_reduce(Y, *a))
    assert np.array_equal(assignment.solve_nearest(Y, Z, part).map, expected)
    assert asked == routed == reduced == [100, 100]


def _count_scipy_calls(monkeypatch) -> list:
    calls = []
    real = assignment.linear_sum_assignment

    def counting(C, maximize):
        calls.append(C.shape)
        return real(C, maximize=maximize)

    monkeypatch.setattr(assignment, "linear_sum_assignment", counting)
    return calls


def test_gaussian_rlocal_solve_runs_no_scipy_lap(monkeypatch):
    # Every block's rows have distinct nearest fitted rows, so each block's
    # row argmax is its optimum: a change that disables the shortcut fails here.
    calls = _count_scipy_calls(monkeypatch)
    part = BlockPartition.equal_blocks(2000, 10)
    inst = generate(SynthConfig(n=2000, d=10, m=5, model=RLocal(part), sigma=0.01, seed=0))
    result = solve(inst, SolverConfig(mode="rlocal"))
    assert result.iters >= 2 and calls == []
    assert np.array_equal(result.p_hat.map, inst.p_star.map)


def test_ksparse_solve_skips_scipy_on_some_assignment_steps(monkeypatch):
    calls = _count_scipy_calls(monkeypatch)
    steps = []
    real = solver.solve_nearest
    monkeypatch.setattr(solver, "solve_nearest", lambda *a: steps.append(1) or real(*a))
    inst = generate(SynthConfig(n=300, d=10, m=5, model=KSparse(30), sigma=0.01, seed=0))
    result = solve(inst, SolverConfig(mode="ksparse"))
    assert len(steps) == result.iters - 1 >= 2
    assert len(calls) < len(steps)
    assert np.array_equal(result.p_hat.map, inst.p_star.map)


def _no_call(*args, **kwargs):
    raise AssertionError("this route of the dense step must not run here")


def _first_dense_step(n, k, seed, m=10):
    """Y and the fitted rows B X of the first dense step of a k-sparse solve."""
    inst = generate(SynthConfig(n=n, d=50, m=m, model=KSparse(k), sigma=0.01, seed=seed))
    return inst.Y, inst.B @ signal_update(inst.B, inst.Y, Permutation.identity(n))


def test_tree_certifies_a_close_step_within_the_budget(monkeypatch):
    # n = 2000 fits the budget, but at k = 200 the first step's nearest fitted
    # rows are distinct: the KD-tree certifies it, with no LAP. The only cost
    # block built is the tree's sample of TREE_SAMPLE cost rows.
    Y, z = _first_dense_step(2000, 200, 1)
    reward = Y @ z.T - 0.5 * np.einsum("ij,ij->i", z, z)
    for name in ("solve_lap", "_nearest_blocked", "_reduce_rows"):
        monkeypatch.setattr(assignment, name, _no_call)
    built = _spy_cost(monkeypatch)
    assert np.array_equal(assignment.solve_nearest(Y, z).map, reward.argmax(axis=1))
    assert built == [(assignment.TREE_SAMPLE, 2000)]


def _spy_cost(monkeypatch) -> list:
    """The shape of every cost block that ``assignment._cost`` builds from now on."""
    shapes, real = [], assignment._cost

    def spy(*args):
        cost = real(*args)
        shapes.append(cost.shape)
        return cost

    monkeypatch.setattr(assignment, "_cost", spy)
    return shapes


def test_colliding_step_within_the_budget_runs_no_lap_and_no_cost_matrix(monkeypatch):
    # At k = 1000 about 450 rows share a nearest fitted row. The tree is
    # declined on its sample of cost rows, so a scan of a few hundred cost
    # rows at a time finds the nearest rows, and row reduction settles the
    # step with no n-row cost matrix and no scipy LAP. The map is the one
    # scipy gives on the cost.
    Y, z = _first_dense_step(2000, 1000, 1)
    cost = 0.5 * np.einsum("ij,ij->i", z, z) - Y @ z.T
    expected = linear_sum_assignment(cost)[1]
    built = _spy_cost(monkeypatch)
    monkeypatch.setattr(assignment, "linear_sum_assignment", _no_call)
    assert np.array_equal(assignment.solve_nearest(Y, z).map, expected)
    assert built[0] == (assignment.TREE_SAMPLE, 2000)
    assert all(rows < 2000 and cols == 2000 for rows, cols in built)
    assert sum(rows for rows, _ in built[1:]) == 2000


def test_step_left_far_from_done_hands_scipy_the_cost_once_in_place(monkeypatch):
    # At k = n - 1 row reduction leaves most of the first step's free rows
    # free at its cap, so within the budget the n x n cost matrix is built
    # and scipy gets that matrix itself (minimize, C-contiguous, the reward
    # negated, no copy); the augmenting paths never run.
    built, seen = [], []
    real_cost, real_lap = assignment._cost, assignment.linear_sum_assignment

    def cost_spy(*args):
        built.append(real_cost(*args))
        return built[-1]

    def lap_spy(C, maximize):
        seen.append((maximize, C.flags.c_contiguous, np.shares_memory(C, built[-1])))
        return real_lap(C, maximize=maximize)

    Y, z = _first_dense_step(300, 299, 1)
    reward = Y @ z.T
    reward -= 0.5 * np.einsum("ij,ij->i", z, z)
    expected = real_lap(reward, maximize=True)[1]
    monkeypatch.setattr(assignment, "_cost", cost_spy)
    monkeypatch.setattr(assignment, "linear_sum_assignment", lap_spy)
    monkeypatch.setattr(assignment, "_augment", _no_call)
    assert np.array_equal(assignment.solve_nearest(Y, z).map, expected)
    assert np.array_equal(built[-1], -reward)
    assert seen == [(False, True, True)]


def test_certified_step_past_the_memory_budget_builds_no_cost_matrix(monkeypatch):
    # Distinct nearest fitted rows: the tree's map is the reward's row argmax
    # and the optimum, with no n x n array and no LAP.
    Y, z = _first_dense_step(2000, 200, 1)
    reward = Y @ z.T - 0.5 * np.einsum("ij,ij->i", z, z)
    monkeypatch.setattr(assignment, "DENSE_BYTES_MAX", 0)
    for name in ("solve_lap", "_nearest_blocked", "_reduce_rows"):
        monkeypatch.setattr(assignment, name, _no_call)
    p = assignment.solve_nearest(Y, z)
    assert np.array_equal(p.map, reward.argmax(axis=1))
    assert np.unique(reward.argmax(axis=1)).size == 2000


def test_dense_step_past_the_memory_budget_runs_the_warm_start(monkeypatch):
    # With a budget too small for the cost matrix, a step whose nearest rows
    # collide is settled by row reduction and augmenting paths and still
    # returns scipy's optimum.
    Y, z = _first_dense_step(300, 150, 12, m=3)
    cost = 0.5 * np.einsum("ij,ij->i", z, z) - Y @ z.T
    assert np.unique(cost.argmin(axis=1)).size < 300
    expected = linear_sum_assignment(cost)[1]
    monkeypatch.setattr(assignment, "DENSE_BYTES_MAX", 8 * 300 * 300 - 1)
    monkeypatch.setattr(assignment, "solve_lap", _no_call)
    assert np.array_equal(assignment.solve_nearest(Y, z).map, expected)


# The nearest rows come from the tree or the blocked scan; colliding ones go to
# row reduction, within the budget or past it. Within it, row reduction that
# ends with more than ARR_LEFT_MAX * n rows free hands the cost matrix to scipy;
# otherwise the augmenting paths settle the rows it leaves.
_PAST = {"DENSE_BYTES_MAX": 0, "solve_lap": _no_call}
_ROUTES = {
    "tree": {"_tree_pays": lambda *a: True, "_nearest_blocked": _no_call},
    "blocked scan": {"cKDTree": _no_call},
    "row reduction": {"ARR_STEPS": 64, **_PAST},
    "paths after no row reduction": {"ARR_STEPS": 0, "ARR_LEFT_MAX": 1, "solve_lap": _no_call},
    "scipy after no row reduction": {"ARR_STEPS": 0, "ARR_LEFT_MAX": 0, "_augment": _no_call},
    "past the budget": _PAST,
    "tree past the budget": {"_tree_pays": lambda *a: True, **_PAST},
}


def _route_fits(n):
    """Y and three fits for n rows: random, duplicated (ties), and all zero
    (X_hat = 0, every permutation ties)."""
    rng = np.random.default_rng(n)
    Y, z = rng.standard_normal((n, 3)), rng.standard_normal((n, 3))
    return Y, (z, z[rng.integers(0, max(1, n // 2), n)], np.zeros((n, 3)))


@pytest.mark.parametrize("route", sorted(_ROUTES))
@pytest.mark.parametrize("n", range(1, 9))
def test_every_route_of_the_dense_step_attains_the_enumerated_optimum(monkeypatch, n, route):
    # Each route on its own: the KD-tree (forced; up to TREE_SAMPLE rows it is
    # never taken) or the blocked scan, then the default settling; row
    # reduction with a cap it rarely reaches; augmenting paths or scipy with
    # no row reduction; and past the budget the blocked scan or the tree, then
    # row reduction. The all-zero fit must terminate. The tree may break a
    # tie differently from an argmin, so values are compared, not maps.
    for name, value in _ROUTES[route].items():
        monkeypatch.setattr(assignment, name, value)
    perms = all_permutations(n)
    Y, fits = _route_fits(n)
    for fit in fits:
        values = np.sum((Y[None] - fit[perms]) ** 2, axis=(1, 2))
        cols = assignment.solve_nearest(Y, fit).map
        got = np.sum((Y[None] - fit[cols[None]]) ** 2, axis=(1, 2))[0]
        assert got == values.min()


@pytest.mark.parametrize("n", range(2, 9))
def test_row_reduction_alone_settles_distinct_and_all_tied_fits(monkeypatch, n):
    # With distinct fitted rows each raise leaves a gap, and on the all-zero
    # fit each row takes a free tied column, so row reduction ends with no row
    # left for the paths. Duplicated fitted rows tie forever between their
    # copies, and only the cap ends those steps (see the routes above).
    left, real = [], assignment._augment
    monkeypatch.setattr(assignment, "ARR_STEPS", 64)
    monkeypatch.setattr(assignment, "DENSE_BYTES_MAX", 0)
    monkeypatch.setattr(assignment, "_augment", lambda *a: left.extend(a[-1]) or real(*a))
    Y, (z, _, zero) = _route_fits(n)
    for fit in (z, zero):
        cost = 0.5 * np.einsum("ij,ij->i", fit, fit) - Y @ fit.T
        cols = assignment.solve_nearest(Y, fit).map
        assert cost[np.arange(n), cols].sum() == cost[linear_sum_assignment(cost)].sum()
    assert left == []


def _scaled_nearest_starts():
    """300 random fits with row norms spanning 1e-3 to 1e3, each in the state
    the dense step starts from: the nearest-row matching, where the first row
    to claim a column keeps it, prices at the half norms, and u_i the cost of
    each assigned row. Yields Y, Z, the duals, the matching and the assigned
    rows."""
    rng = np.random.default_rng(14)
    for _ in range(300):
        n, m = rng.integers(2, 30), rng.integers(1, 4)
        Y, Z = (rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4, (n, 1))
                for _ in range(2))
        prices, u = 0.5 * np.einsum("ij,ij->i", Z, Z), np.zeros(n)
        taken, first = np.unique([np.argmin(prices - Z @ y) for y in Y], return_index=True)
        row4col, col4row = np.full(n, -1), np.full(n, -1)
        row4col[taken], col4row[first] = first, taken
        u[first] = prices[taken] - np.einsum("ij,ij->i", Y[first], Z[taken])
        yield Y, Z, prices, u, row4col, col4row, first


def test_row_reduction_leaves_every_assigned_row_on_a_least_reduced_cost(monkeypatch):
    # Complementary slackness in float arithmetic: after row reduction every
    # assigned row holds a minimizer of p[j] - <y_i, z_j>, computed as the
    # reduction computes it, and u_i is that minimum. Row norms spanning 1e-3
    # to 1e3 make a raised price round past the second-best column, which the
    # reduction must lower again.
    monkeypatch.setattr(assignment, "ARR_STEPS", 64)
    for Y, Z, prices, u, row4col, col4row, first in _scaled_nearest_starts():
        assignment._reduce_rows(Y, Z, prices, u, row4col, col4row)
        for i in np.flatnonzero(col4row >= 0):
            reduced = prices - Y[i] @ np.ascontiguousarray(Z.T)
            assert reduced[col4row[i]] == reduced.min()
            if i not in first:
                assert u[i] == reduced.min()


@pytest.mark.parametrize("reduce_first", [True, False], ids=["after_row_reduction", "alone"])
def test_augmenting_paths_keep_every_row_within_rounding_of_its_least_reduced_cost(
        reduce_first):
    # The paths end with every row assigned and each on a least reduced cost
    # p[j] - <y_i, z_j>, computed as the paths compute it, up to rounding:
    # their dual updates add and subtract path lengths, so a row may end a few
    # ulps of its row's scale above its minimum (exact equality holds for row
    # reduction, above, but not here).
    for Y, Z, prices, u, row4col, col4row, _ in _scaled_nearest_starts():
        n = len(Y)
        free = (assignment._reduce_rows(Y, Z, prices, u, row4col, col4row) if reduce_first
                else np.flatnonzero(col4row < 0).tolist())
        assignment._augment(Y, Z, prices, u, row4col, col4row, free)
        assert (col4row >= 0).all() and np.array_equal(row4col[col4row], np.arange(n))
        ZT = np.ascontiguousarray(Z.T)
        for i in range(n):
            reduced = prices - Y[i] @ ZT
            assert reduced[col4row[i]] - reduced.min() <= 1e-12 * np.abs(reduced).max()


@st.composite
def _warm_steps(draw):
    """Y, fitted rows and a row-reduction cap for one warm start: Gaussian fits
    (one optimum), fits with duplicated rows, or small-integer fits (exact
    arithmetic, many ties)."""
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "duplicated", "integer"]))
    if kind == "integer":
        Y, Z = (rng.integers(-3, 4, (n, m)).astype(np.float64) for _ in range(2))
    else:
        Y, Z = rng.standard_normal((n, m)), rng.standard_normal((n, m))
        if kind == "duplicated":
            Z = Z[rng.integers(0, max(1, n // 2), n)]
    return kind, Y, Z, draw(st.sampled_from([0, assignment.ARR_STEPS, 64]))


@settings(max_examples=300, deadline=None)
@given(case=_warm_steps())
def test_warm_start_equals_scipy_on_random_fits(case):
    # Row reduction from the nearest rows, past the budget so that augmenting
    # paths settle what it leaves, against scipy on the cost matrix: equal
    # values (fsum, so that tied optima sum alike), and the same map where the
    # optimum is unique (Gaussian fits). Up to TREE_SAMPLE rows the nearest
    # rows come from the blocked scan, the cost matrix's row argmins.
    kind, Y, Z, steps = case
    half_norms = 0.5 * np.einsum("ij,ij->i", Z, Z)
    cost = Y @ Z.T
    np.subtract(half_norms, cost, out=cost)
    expected = linear_sum_assignment(cost)[1]
    rows = np.arange(len(Y))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assignment, "DENSE_BYTES_MAX", 0)
        mp.setattr(assignment, "ARR_STEPS", steps)
        mp.setattr(assignment, "solve_lap", _no_call)
        got = assignment.solve_nearest(Y, Z).map
    assert sorted(got) == list(rows)
    assert math.fsum(cost[rows, got]) == math.fsum(cost[rows, expected])
    if kind == "gaussian":
        assert np.array_equal(got, expected)


def test_tree_pays_only_for_a_close_fit():
    # The first step at k = n/2 and m = 50: a tree query would search most of
    # its cells, so a blocked scan is taken; a fit 1e-3 away takes the tree.
    Y, z = _first_dense_step(2000, 1000, 1, m=50)
    assert not assignment._tree_pays(Y, z, 0.5 * np.einsum("ij,ij->i", z, z))
    close = Y + 1e-3
    assert assignment._tree_pays(Y, close, 0.5 * np.einsum("ij,ij->i", close, close))


def test_tree_is_never_taken_at_or_below_the_sample_size():
    # A sample of TREE_SAMPLE rows would be the whole matrix (and n = 1 has no
    # second-nearest row), so up to TREE_SAMPLE rows the cost matrix is built.
    rng = np.random.default_rng(3)
    for n in (1, 2, assignment.TREE_SAMPLE, assignment.TREE_SAMPLE + 1):
        z = rng.standard_normal((n, 2))
        close = z + 1e-3
        pays = assignment._tree_pays(close, z, 0.5 * np.einsum("ij,ij->i", z, z))
        assert pays == (n > assignment.TREE_SAMPLE)


def test_overflowing_tree_sample_declines_the_tree_without_a_warning():
    # Rows of Y near 1e160 overflow the sample's squared distances but not the
    # cost ||z_j||^2 / 2 - <y_i, z_j>: the tree is declined with no numpy
    # warning (errors under this suite's filter) and the cost matrix decides.
    rng = np.random.default_rng(7)
    Y, z = 1e160 * rng.standard_normal((100, 3)), rng.standard_normal((100, 3))
    cost = 0.5 * np.einsum("ij,ij->i", z, z) - Y @ z.T
    assert not assignment._tree_pays(Y, z, 0.5 * np.einsum("ij,ij->i", z, z))
    assert np.array_equal(assignment.solve_nearest(Y, z).map,
                          solve_lap(cost, maximize=False)[0].map)


@settings(max_examples=300, deadline=None)
@given(e=st.integers(0, 160), n=st.integers(1, 40), m=st.integers(1, 4),
       rows=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_bounded_scan_returns_the_checked_scans_columns_or_both_raise(e, n, m, rows, seed):
    # Y and Z scaled by 10^e: up to about e = 150 the step's norm bound proves
    # every cost entry finite and the blocks go unchecked; past it the blocks
    # are checked one by one, and from about e = 154 the cost overflows. Either
    # way the scan agrees with one that checks every block, without a numpy
    # warning, over blocks of a few rows.
    rng = np.random.default_rng(seed)
    Y, Z = 10.0**e * rng.standard_normal((2, n, m))
    with np.errstate(over="ignore"):
        half_norms = 0.5 * np.einsum("ij,ij->i", Z, Z)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(assignment, "BLOCK_ROWS_MIN", 1)
        mp.setattr(assignment, "BLOCK_BYTES", 8 * n * rows)
        try:
            expected = reference_nearest_blocked(Y, Z, half_norms)
        except NonFinite:
            with pytest.raises(NonFinite, match="cost matrix contains NaN or Inf"):
                assignment._nearest_blocked(Y, Z, half_norms)
        else:
            assert np.array_equal(assignment._nearest_blocked(Y, Z, half_norms), expected)


@pytest.mark.parametrize("n", [2000, 20000])
def test_scan_and_tree_sample_blocks_fit_block_bytes(monkeypatch, n):
    # Every block of cost rows the scan or the tree's sample builds holds at
    # most BLOCK_BYTES, unless it is BLOCK_ROWS_MIN rows long (n = 20000, past
    # the memory budget), and together the blocks cover every row once.
    rng = np.random.default_rng(11)
    Y, z = rng.standard_normal((2, n, 2))
    half_norms = 0.5 * np.einsum("ij,ij->i", z, z)
    built = _spy_cost(monkeypatch)
    assignment._tree_pays(Y, z, half_norms)
    sample = list(built)
    cols = assignment._nearest_blocked(Y, z, half_norms)
    scan = built[len(sample):]
    assert sum(rows for rows, _ in sample) == assignment.TREE_SAMPLE
    assert sum(rows for rows, _ in scan) == n
    for rows, width in sample + scan:
        assert width == n
        assert 8 * rows * width <= assignment.BLOCK_BYTES or rows == assignment.BLOCK_ROWS_MIN
    assert (len(sample), len(scan)) == ((1, 31) if n == 2000 else (4, 1250))
    _, nearest = cKDTree(z).query(Y[:500])
    assert np.array_equal(cols[:500], nearest)


def test_far_fit_past_the_memory_budget_scans_blocks_then_warm_starts(monkeypatch):
    # Past the budget the far first step at k = 1000 scans cost rows a few
    # hundred KB at a time, then row reduction settles its ~450 free rows.
    Y, z = _first_dense_step(2000, 1000, 1)
    cost = 0.5 * np.einsum("ij,ij->i", z, z) - Y @ z.T
    expected = linear_sum_assignment(cost)[1]
    monkeypatch.setattr(assignment, "DENSE_BYTES_MAX", 0)
    monkeypatch.setattr(assignment, "BLOCK_BYTES", 8 * 2000 * 300)
    for name in ("cKDTree", "solve_lap"):
        monkeypatch.setattr(assignment, name, _no_call)
    assert np.array_equal(assignment.solve_nearest(Y, z).map, expected)


@pytest.mark.parametrize("n,k", [(2000, 1000), (4000, 2000), (300, 299)])
def test_warm_start_equals_scipy_on_every_uncertified_step(monkeypatch, n, k):
    # Every dense step of a solve whose nearest rows collide: the dense router
    # (past the budget, so it never hands a step to scipy) and
    # linear_sum_assignment on the cost give one map and value. At n = 2000,
    # k = 1000 the first step has about 450 rows without a column, which row
    # reduction settles; at n = 300, k = 299 every step has 67-155 of 300,
    # and the augmenting paths settle what is left at the cap.
    steps = []
    real = solver.solve_nearest
    monkeypatch.setattr(solver, "solve_nearest",
                        lambda Y, Z, partition: steps.append(Z) or real(Y, Z, partition))
    inst = generate(SynthConfig(n=n, d=50, m=10, model=KSparse(k), sigma=0.01, seed=1))
    solve(inst, SolverConfig(mode="ksparse"))
    monkeypatch.setattr(assignment, "DENSE_BYTES_MAX", 0)
    monkeypatch.setattr(assignment, "solve_lap", _no_call)
    uncertified = 0
    rows = np.arange(n)
    for z in steps:
        half_norms = 0.5 * np.einsum("ij,ij->i", z, z)
        _, nearest = cKDTree(z).query(inst.Y)
        if np.unique(nearest).size == n:
            continue
        uncertified += 1
        cost = inst.Y @ z.T
        np.subtract(half_norms, cost, out=cost)
        expected = linear_sum_assignment(cost)[1]
        got = assignment.solve_nearest(inst.Y, z).map
        assert np.array_equal(got, expected)
        assert cost[rows, got].sum() == cost[rows, expected].sum()
    assert uncertified >= 1


def _relabelling(n, block, rng):
    """A row relabelling that moves whole blocks of ``block`` rows and the rows
    within each block, so an equal-size partition maps onto itself."""
    order = rng.permutation(n // block)[:, None] * block
    return Permutation((order + rng.permuted(np.tile(np.arange(block), (n // block, 1)),
                                             axis=1)).ravel())


@pytest.mark.parametrize("mode,size", [("ksparse", 200), ("ksparse", 1000), ("rlocal", 10),
                                       ("rlocal", 100)])
def test_relabelling_the_rows_relabels_the_solution(mode, size):
    # Relabel the rows of (B, Y) by s: row i of the new pair is row s(i) of
    # the old one. The problem is the same, so P_hat must relabel the same way,
    # p'(i) = s^-1(p(s(i))), in as many iterations, with X_hat equal up to
    # rounding. The k-sparse relabelling is any permutation of the rows; the
    # r-local one moves whole equal-size blocks and the rows within them.
    n = 2000
    model = KSparse(size) if mode == "ksparse" else RLocal(BlockPartition.equal_blocks(n, size))
    inst = generate(SynthConfig(n=n, d=50, m=10, model=model, sigma=0.01, seed=1))
    s = _relabelling(n, 1 if mode == "ksparse" else size, np.random.default_rng(2))
    moved = data.ProblemInstance(B=apply(s, inst.B), Y=apply(s, inst.Y), partition=inst.partition)
    config = SolverConfig(mode=mode)
    base, relabelled = solve(inst, config), solve(moved, config)
    assert base.iters == relabelled.iters >= 2
    assert np.array_equal(relabelled.p_hat.map, s.inverse().map[base.p_hat.map[s.map]])
    np.testing.assert_allclose(relabelled.x_hat, base.x_hat, rtol=0, atol=1e-12)


def test_objective_overflow_is_non_finite_error():
    # Under the suite's warnings-as-errors filter: no overflow warning escapes.
    rng = np.random.default_rng(8)
    B, X, Y = rng.standard_normal((6, 2)), rng.standard_normal((2, 2)), rng.standard_normal((6, 2))
    with pytest.raises(NonFinite, match="objective"):
        objective(B, 1e154 * Y, Permutation.identity(6), X)


@pytest.mark.parametrize("partition", [None, BlockPartition((2, 4))])
def test_permutation_update_overflow_is_non_finite_error(partition):
    rng = np.random.default_rng(9)
    B, X, Y = rng.standard_normal((6, 2)), rng.standard_normal((2, 2)), rng.standard_normal((6, 2))
    with pytest.raises(NonFinite, match="NaN or Inf"):
        permutation_update(1e154 * B, 1e154 * Y, X, partition)


def test_rlocal_non_finite_cost_names_the_block_offset_in_y():
    # Row 5 overflows its cost row; it lies in the block of rows 4-6, the
    # first block of the chunk of 3-blocks, and the error names row 4.
    rng = np.random.default_rng(10)
    B, X, Y = rng.uniform(1, 2, (10, 2)), np.ones((2, 2)), rng.standard_normal((10, 2))
    Y[5] = 1e308
    with pytest.raises(NonFinite, match="cost block at offset 4 contains NaN or Inf"):
        permutation_update(B, Y, X, BlockPartition((2, 2, 3, 3)))


def test_non_finite_block_past_the_budget_names_its_offset_in_y(monkeypatch):
    # Under this budget the 100-row block takes the dense step, like the
    # stacked blocks the error names the block's first row in Y: row 50
    # overflows its cost row, and the block starts at row 10.
    rng = np.random.default_rng(10)
    B, X, Y = rng.uniform(1, 2, (110, 2)), np.ones((2, 2)), rng.standard_normal((110, 2))
    Y[50] = 1e308
    monkeypatch.setattr(assignment, "DENSE_BYTES_MAX", 8 * 99 * 99)
    with pytest.raises(NonFinite, match="cost block at offset 10 contains NaN or Inf"):
        permutation_update(B, Y, X, BlockPartition((10, 100)))


def test_permutation_update_single_block_equals_dense():
    rng = np.random.default_rng(4)
    B = rng.standard_normal((8, 3))
    X = rng.standard_normal((3, 2))
    Y = rng.standard_normal((8, 2))
    dense = permutation_update(B, Y, X)
    blocked = permutation_update(B, Y, X, partition=BlockPartition((8,)))
    assert dense.to_list() == blocked.to_list()


def test_permutation_update_never_worse_than_prior():
    rng = np.random.default_rng(5)
    for _ in range(100):
        B = rng.standard_normal((6, 3))
        X = rng.standard_normal((3, 2))
        Y = rng.standard_normal((6, 2))
        p_old = Permutation(rng.permutation(6))
        p_new = permutation_update(B, Y, X)
        assert objective(B, Y, p_new, X) <= objective(B, Y, p_old, X) + 1e-9


def test_signal_update_recovers_truth_and_identity_case():
    rng = np.random.default_rng(6)
    inst = _random_instance(rng, n=20, d=4)
    x_hat = signal_update(inst.B, inst.Y, inst.p_star)
    assert np.linalg.norm(x_hat - inst.x_star) <= 1e-8 * np.linalg.norm(inst.x_star)

    Y = rng.standard_normal((5, 2))
    p = Permutation(rng.permutation(5))
    np.testing.assert_allclose(signal_update(np.eye(5), Y, p),
                               apply(p.inverse(), Y), atol=1e-12)


def test_signal_update_least_squares_optimality():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((10, 3))
    Y = rng.standard_normal((10, 2))
    p = Permutation(rng.permutation(10))
    x_hat = signal_update(B, Y, p)
    f_star = objective(B, Y, p, x_hat)
    for _ in range(100):
        Z = x_hat + rng.standard_normal((3, 2))
        assert f_star <= objective(B, Y, p, Z) + 1e-9


def test_signal_update_orthogonal_equivalence():
    # pinv(P B) @ Y equals pinv(B) @ P^T Y
    rng = np.random.default_rng(8)
    for _ in range(20):
        B = rng.standard_normal((9, 4))
        Y = rng.standard_normal((9, 3))
        p = Permutation(rng.permutation(9))
        direct = pinv_solve(apply(p, B), Y)
        np.testing.assert_allclose(signal_update(B, Y, p), direct, atol=1e-10)


def test_relative_change_arithmetic():
    assert relative_change([10.0, 5.0]) == 0.5
    assert relative_change([3.0, 3.0]) == 0.0
    assert relative_change([4.0, 1.0]) == 0.75
    with pytest.raises(TooFewIterations):
        relative_change([1.0])


def test_solver_config_validation():
    with pytest.raises(InvalidConfig):
        SolverConfig(mode="nope")
    with pytest.raises(InvalidConfig):
        SolverConfig(mode="rlocal", epsilon=0.0)
    with pytest.raises(InvalidConfig):
        SolverConfig(mode="ksparse", max_iters=0)


def test_solve_requires_partition_for_rlocal():
    inst = generate(SynthConfig(n=8, d=2, m=1, model=KSparse(2), seed=1))
    with pytest.raises(InvalidConfig):
        solve(inst, SolverConfig(mode="rlocal"))


def test_solve_rlocal_partition_not_covering_the_rows_is_shape_mismatch():
    rng = np.random.default_rng(4)
    inst = data.ProblemInstance(B=rng.standard_normal((12, 3)), Y=rng.standard_normal((12, 2)),
                                partition=BlockPartition((4, 4)))
    with pytest.raises(ShapeMismatch, match="partition covers 8 rows"):
        solve(inst, SolverConfig(mode="rlocal"))


def test_solve_identity_truth_converges_in_one_iteration():
    for mode, model in (("rlocal", RLocal(BlockPartition((1,) * 20))),
                        ("ksparse", KSparse(0))):
        inst = generate(SynthConfig(n=20, d=4, m=2, model=model, seed=3))
        config = SolverConfig(mode=mode)
        result = solve(inst, config)
        assert result.converged
        assert result.iters == 1
        assert result.final_objective <= 1e-10 * np.sum(inst.Y ** 2)


def test_solve_reaches_brute_force_optimum_often_and_never_below():
    hits = 0
    for seed in range(10):
        part = BlockPartition((3, 3))
        inst = generate(SynthConfig(n=6, d=2, m=2, model=RLocal(part), seed=seed))
        result = solve(inst, SolverConfig(mode="rlocal"))
        floor = brute_force_min_objective(inst.B, inst.Y)
        assert result.final_objective >= floor - 1e-9
        if result.final_objective <= floor + 1e-9 * max(1.0, floor):
            hits += 1
    assert hits >= 7


def test_solve_trace_monotone_and_block_diagonal():
    rng = np.random.default_rng(10)
    for sigma in (0.0, 0.1):
        for _ in range(10):
            n = 15
            part = BlockPartition.equal_blocks(n, 5)
            inst = generate(SynthConfig(n=n, d=3, m=2, model=RLocal(part),
                                        sigma=sigma, seed=int(rng.integers(0, 2**31))))
            result = solve(inst, SolverConfig(mode="rlocal"))
            trace = result.objective_trace
            slack = 1e-9 * trace[0]
            assert all(b <= a + slack for a, b in zip(trace, trace[1:]))
            for sl in part.slices():
                block = result.p_hat.map[sl]
                assert block.min() >= sl.start and block.max() < sl.stop


def test_solve_reports_cap_via_converged_flag():
    # one iteration cap on a noisy instance cannot satisfy the epsilon rule
    part = BlockPartition.equal_blocks(30, 10)
    inst = generate(SynthConfig(n=30, d=3, m=2, model=RLocal(part), sigma=0.5, seed=7))
    result = solve(inst, SolverConfig(mode="rlocal", max_iters=1))
    assert result.iters == 1
    assert not result.converged


def test_solve_rlocal_uses_instance_partition_by_default():
    part = BlockPartition.equal_blocks(12, 3)
    inst = generate(SynthConfig(n=12, d=3, m=1, model=RLocal(part), seed=8))
    result = solve(inst, SolverConfig(mode="rlocal"))
    assert result.converged


def test_solve_ksparse_first_step_is_identity_without_assignment():
    # Every row of Y has an exact twin, so Y Y^T has tied maximizers and the
    # LAP picks a non-identity one; each of them has P^T Y = Y, so the first
    # signal estimate is the same and solve takes the identity without a LAP.
    rng = np.random.default_rng(3)
    B = rng.standard_normal((12, 3))
    Y = rng.standard_normal((12, 2))
    Y[6:] = Y[:6]
    assert not np.array_equal(solve_lap(Y @ Y.T)[0].map, np.arange(12))
    inst = data.ProblemInstance(B=B, Y=Y)
    result = solve(inst, SolverConfig(mode="ksparse", max_iters=1))
    assert np.array_equal(result.p_hat.map, np.arange(12))
    _, x_ref, _ = reference_solve(B, Y, None, max_iters=1)
    assert result.x_hat.tobytes() == x_ref.tobytes()


def test_solve_non_finite_objective_is_non_finite_error():
    # ||Y||_F^2 is finite, but pinv(B) Y overflows for B near 1e-300.
    rng = np.random.default_rng(5)
    inst = data.ProblemInstance(B=1e-300 * rng.standard_normal((8, 2)),
                                Y=1e10 * rng.standard_normal((8, 2)))
    with pytest.raises(NonFinite, match="objective of iteration 1"):
        solve(inst, SolverConfig(mode="ksparse"))


# ------------------------------------------------------------- reference loop

EQUIVALENCE_CASES = {
    "rlocal_equal": dict(n=60, d=4, m=3, model=RLocal(BlockPartition.equal_blocks(60, 6)),
                         sigma=0.3, seed=21),
    "rlocal_ragged": dict(n=48, d=4, m=2,
                          model=RLocal(BlockPartition((1, 2, 7, 3, 12, 1, 5, 2, 9, 6))),
                          sigma=0.3, seed=22),
    "ksparse": dict(n=40, d=4, m=2, model=KSparse(24), sigma=0.3, seed=23),
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
def test_solve_matches_reference_loop_bitwise(name):
    # The factor-once loop with the blockwise kernel must reproduce, bit for
    # bit, the loop that refactors B and calls solve_lap per block each time.
    inst = generate(SynthConfig(**EQUIVALENCE_CASES[name]))
    mode = "rlocal" if inst.partition is not None else "ksparse"
    for epsilon in (1e-2, 1e-9):
        config = SolverConfig(mode=mode, epsilon=epsilon, max_iters=30)
        result = solve(inst, config)
        p_map, x_ref, trace_ref = reference_solve(inst.B, inst.Y, inst.partition,
                                                  epsilon=epsilon, max_iters=30)
        assert np.array_equal(result.p_hat.map, p_map)
        assert result.x_hat.tobytes() == x_ref.tobytes()
        assert result.objective_trace.tobytes() == trace_ref.tobytes()
        # The public half-steps, from the same first permutation, replay the loop.
        if inst.partition is not None:
            x = init_rlocal(build_collapsed(inst.B, inst.Y, inst.partition))
            p = permutation_update(inst.B, inst.Y, x, inst.partition)
        else:
            p = Permutation.identity(inst.n)
        trace = []
        for it in range(result.iters):
            if it:
                p = permutation_update(inst.B, inst.Y, x, inst.partition)
            x = signal_update(inst.B, inst.Y, p)
            trace.append(objective(inst.B, inst.Y, p, x))
        assert np.array_equal(result.p_hat.map, p.map)
        assert result.x_hat.tobytes() == x.tobytes()
        assert result.objective_trace.tobytes() == np.asarray(trace).tobytes()
    assert result.iters >= 2


def test_solve_and_scoring_share_one_factor_of_b(monkeypatch):
    part = BlockPartition.equal_blocks(30, 5)
    inst = generate(SynthConfig(n=30, d=4, m=2, model=RLocal(part), sigma=0.2, seed=6))
    expected = data.oracle_and_naive(inst.B, inst.y_star, inst.Y)
    factored = []
    real_svd = linalg.svd

    def counting_svd(A):
        factored.append(np.shape(A))
        return real_svd(A)

    monkeypatch.setattr(linalg, "svd", counting_svd)
    monkeypatch.setattr(data, "svd", counting_svd)
    result = solve(inst, SolverConfig(mode="rlocal", epsilon=1e-9))
    assert result.iters >= 2
    metrics = _result_metrics(inst, result)
    assert factored.count(inst.B.shape) == 1
    assert inst.b_svd is inst.b_svd
    got = data.oracle_and_naive(inst.b_svd, inst.y_star, inst.Y)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
    assert metrics["relative_error"] >= 0


@st.composite
def _hard_instances(draw):
    """Small instances built to provoke ties: small-integer entries, B of any
    rank down to 0, duplicate rows of Y, and blocks of size 1 or ragged sizes."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    n, d, m = sum(sizes), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rank = draw(st.integers(0, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.integers(-2, 3, (n, rank)) @ rng.integers(-2, 3, (rank, d))
    Y = rng.integers(-3, 4, (n, m)).astype(np.float64)
    if draw(st.booleans()):
        Y = Y[rng.integers(0, max(1, n // 2), n)]
    mode = draw(st.sampled_from(["rlocal", "ksparse"]))
    partition = BlockPartition(tuple(sizes)) if mode == "rlocal" else None
    return data.ProblemInstance(B=B.astype(np.float64), Y=Y, partition=partition), mode


@settings(max_examples=300, deadline=None)
@given(case=_hard_instances())
def test_solve_properties_on_tied_and_degenerate_instances(case):
    inst, mode = case
    config = SolverConfig(mode=mode, epsilon=1e-9, max_iters=20)
    result = solve(inst, config)
    trace = result.objective_trace
    slack = 1e-9 * trace[0]
    assert all(b <= a + slack for a, b in zip(trace, trace[1:]))
    if inst.partition is not None:
        for sl in inst.partition.slices():
            assert sorted(result.p_hat.map[sl]) == list(range(sl.start, sl.stop))
    assert np.array_equal(solve(inst, config).p_hat.map, result.p_hat.map)
    if mode == "ksparse":
        # the first estimate from the identity is the one any LAP maximizer of
        # the first reward Y Y^T would give
        first = solve(inst, SolverConfig(mode="ksparse", max_iters=1))
        p_lap, _ = solve_lap(inst.Y @ inst.Y.T)
        assert first.x_hat.tobytes() == signal_update(inst.B, inst.Y, p_lap).tobytes()
