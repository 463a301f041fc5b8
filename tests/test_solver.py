import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (all_permutations, brute_force_lap, brute_force_min_objective,
                      reference_solve)
from unlabeled_sensing import assignment, data, linalg, solver
from unlabeled_sensing.assignment import solve_lap
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
    # The dense step maximizes <y_i, z_j> - ||z_j||^2 / 2; over all n!
    # permutations it must still attain min_P ||Y - P B X||_F^2.
    B, Y, X = case
    z = B @ X
    perms = all_permutations(Y.shape[0])
    values = np.sum((Y[None] - z[perms]) ** 2, axis=(1, 2))
    got = objective(B, Y, permutation_update(B, Y, X), X)
    assert got <= values.min() + 1e-12 * (np.sum(Y * Y) + np.sum(z * z))


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
    real_assign = solver._assign
    monkeypatch.setattr(solver, "_assign", lambda *a: steps.append(1) or real_assign(*a))
    inst = generate(SynthConfig(n=300, d=10, m=5, model=KSparse(30), sigma=0.01, seed=0))
    result = solve(inst, SolverConfig(mode="ksparse"))
    assert len(steps) == result.iters - 1 >= 2
    assert len(calls) < len(steps)
    assert np.array_equal(result.p_hat.map, inst.p_star.map)


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
