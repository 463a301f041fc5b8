import numpy as np
import pytest

from _oracles import brute_force_lap, brute_force_min_objective, reference_solve
from unlabeled_sensing import data, linalg
from unlabeled_sensing.assignment import solve_lap
from unlabeled_sensing.cli import _result_metrics
from unlabeled_sensing.collapse import build_collapsed, init_rlocal
from unlabeled_sensing.data import SynthConfig, generate
from unlabeled_sensing.errors import InvalidConfig, ShapeMismatch, TooFewIterations
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


def test_solve_identity_truth_converges_in_one_iteration():
    for mode, model in (("rlocal", RLocal(BlockPartition((1,) * 20))),
                        ("ksparse", KSparse(0))):
        inst = generate(SynthConfig(n=20, d=4, m=2, model=model, seed=3))
        config = SolverConfig(mode=mode, partition=inst.partition)
        result = solve(inst, config)
        assert result.converged
        assert result.iters == 1
        assert result.final_objective <= 1e-10 * np.sum(inst.Y ** 2)


def test_solve_reaches_brute_force_optimum_often_and_never_below():
    hits = 0
    for seed in range(10):
        part = BlockPartition((3, 3))
        inst = generate(SynthConfig(n=6, d=2, m=2, model=RLocal(part), seed=seed))
        result = solve(inst, SolverConfig(mode="rlocal", partition=part))
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
            result = solve(inst, SolverConfig(mode="rlocal", partition=part))
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
    result = solve(inst, SolverConfig(mode="rlocal", partition=part, max_iters=1))
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
        config = SolverConfig(mode=mode, epsilon=epsilon, max_iters=30,
                              partition=inst.partition)
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
    result = solve(inst, SolverConfig(mode="rlocal", partition=part, epsilon=1e-9))
    assert result.iters >= 2
    metrics = _result_metrics(inst, result)
    assert factored.count(inst.B.shape) == 1
    assert inst.b_svd is inst.b_svd
    got = data.oracle_and_naive(inst.b_svd, inst.y_star, inst.Y)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))
    assert metrics["relative_error"] >= 0
