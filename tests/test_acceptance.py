"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to runtime calibration.
"""

import math
import time

import numpy as np

from _oracles import brute_force_lap, brute_force_min_objective
from unlabeled_sensing.assignment import solve_blockwise, solve_lap
from unlabeled_sensing.collapse import build_collapsed, init_rlocal
from unlabeled_sensing.data import (BlockRule, SynthConfig, evaluate, generate,
                                    ingest_csv, oracle_and_naive)
from unlabeled_sensing.linalg import row_space_projector
from unlabeled_sensing.permutation import (BlockPartition, KSparse, Permutation,
                                           RLocal, apply, hamming_distortion,
                                           sample_ksparse, sample_rlocal)
from unlabeled_sensing.solver import SolverConfig, solve
from unlabeled_sensing.theory import (binomial_margin, check_lemma1,
                                      check_lemma2, check_lemma4,
                                      check_theorem3, chi2_tail_check)


def _criterion(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _solve_synthetic(n, d, m, model, sigma, seed, mode, epsilon=0.01, max_iters=100):
    inst = generate(SynthConfig(n=n, d=d, m=m, model=model, sigma=sigma, seed=seed))
    config = SolverConfig(mode=mode, epsilon=epsilon, max_iters=max_iters)
    return inst, solve(inst, config)


def test_criterion_01_exact_recovery_rlocal_small_r():
    start = time.perf_counter()
    zero_runs, values = 0, []
    for r in (2, 5):
        for seed in range(15):
            model = RLocal(BlockPartition.equal_blocks(100, r))
            inst, result = _solve_synthetic(100, 10, 10, model, 0.0, seed, "rlocal")
            frac = hamming_distortion(result.p_hat, inst.p_star) / 100
            values.append(frac)
            zero_runs += frac == 0.0
    wall = time.perf_counter() - start
    ok = (zero_runs >= 0.8 * len(values)) and (np.mean(values) <= 0.02) and (wall <= 2.0)
    _criterion(1, ok, f"zero-distortion in {zero_runs}/{len(values)} runs, "
                      f"mean d_H/n {np.mean(values):.4f} <= 0.02, wall {wall:.2f}s <= 2s")


def test_criterion_02_monotone_degradation():
    r_means = []
    for r in (2, 5, 10, 25, 50):
        vals = []
        for seed in range(15):
            model = RLocal(BlockPartition.equal_blocks(100, r))
            inst, result = _solve_synthetic(100, 10, 10, model, 0.0, seed, "rlocal")
            vals.append(hamming_distortion(result.p_hat, inst.p_star) / 100)
        r_means.append(float(np.mean(vals)))
    k_means = []
    for k in (0, 10, 40, 80):
        vals = []
        for seed in range(15):
            inst, result = _solve_synthetic(100, 10, 10, KSparse(k), 0.0, seed, "ksparse")
            vals.append(hamming_distortion(result.p_hat, inst.p_star) / 100)
        k_means.append(float(np.mean(vals)))
    r_ok = all(b >= a - 1e-12 for a, b in zip(r_means, r_means[1:]))
    k_ok = all(b >= a - 1e-12 for a, b in zip(k_means, k_means[1:]))
    _criterion(2, r_ok and k_ok,
               f"mean d_H/n nondecreasing over r-grid {[round(v, 4) for v in r_means]} "
               f"and k-grid {[round(v, 4) for v in k_means]}")


def test_criterion_03_objective_monotonicity():
    rng = np.random.default_rng(123)
    violations = 0
    for i in range(200):
        n = int(rng.integers(12, 40))
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        sigma = 0.0 if i % 2 == 0 else 0.1
        if i % 2 == 0:
            r = int(rng.integers(2, 7))
            model, mode = RLocal(BlockPartition.equal_blocks(n, r)), "rlocal"
        else:
            k = int(rng.choice([0] + [kk for kk in range(2, n + 1)]))
            model, mode = KSparse(k), "ksparse"
        _, result = _solve_synthetic(n, d, m, model, sigma,
                                     int(rng.integers(0, 2**31)), mode)
        trace = result.objective_trace
        slack = 1e-9 * trace[0]
        if not all(b <= a + slack for a, b in zip(trace, trace[1:])):
            violations += 1
    _criterion(3, violations == 0,
               f"{violations}/200 mixed-mode traces violate nonincrease at 1e-9*F0 slack")


def test_criterion_04_global_optimum_oracle_tiny_scale():
    # P_star spans both structured models at tiny scale; the solver must reach
    # the brute-force optimum in >= 70% of seeds and never beat its floor
    hits, below_floor, total = 0, 0, 0
    cases = ([(RLocal(BlockPartition((3, 3))), "rlocal", seed) for seed in range(25)]
             + [(KSparse(2), "ksparse", seed) for seed in range(25)])
    for model, mode, seed in cases:
        inst, result = _solve_synthetic(6, 2, 2, model, 0.0, seed, mode)
        floor = brute_force_min_objective(inst.B, inst.Y)
        total += 1
        if result.final_objective <= floor + 1e-9 * max(1.0, floor):
            hits += 1
        if result.final_objective < floor - 1e-9:
            below_floor += 1
    ok = hits >= 0.7 * total and below_floor == 0
    _criterion(4, ok, f"brute-force optimum reached in {hits}/{total} seeds "
                      f"(need >= {int(0.7 * total)}), below-floor {below_floor}")


def test_criterion_05_collapsed_init_identity_and_exactness():
    rng = np.random.default_rng(5)
    identity_bad, exact_bad, exact_total = 0, 0, 0
    for _ in range(100):
        d = int(rng.integers(4, 16))
        s = int(rng.integers(2, 2 * d))
        r = int(rng.integers(1, 4))
        part = BlockPartition.equal_blocks(s * r, r)
        B = rng.standard_normal((s * r, d))
        x_star = rng.standard_normal((d, 2))
        p = sample_rlocal(part, rng)
        Y = apply(p, B @ x_star)
        cs = build_collapsed(B, Y, part)
        x_hat = init_rlocal(cs)
        projected = row_space_projector(cs.B_tilde) @ x_star
        scale = np.linalg.norm(x_star)
        if np.linalg.norm(x_hat - projected) > 1e-10 * scale:
            identity_bad += 1
        if s >= d:
            exact_total += 1
            if np.linalg.norm(x_hat - x_star) > 1e-8 * scale:
                exact_bad += 1
    ok = identity_bad == 0 and exact_bad == 0 and exact_total >= 20
    _criterion(5, ok, f"projection identity violated {identity_bad}/100 times at 1e-10; "
                      f"s>=d recovery violated {exact_bad}/{exact_total} times at 1e-8")


def test_criterion_06_collapsed_invariance():
    rng = np.random.default_rng(6)
    bad = 0
    for _ in range(3):
        part = BlockPartition((4, 6, 3, 7))
        B = rng.standard_normal((20, 5))
        Y = rng.standard_normal((20, 3))
        base = build_collapsed(B, Y, part)
        b_scale = np.linalg.norm(base.B_tilde)
        y_scale = np.linalg.norm(base.Y_tilde)
        for _ in range(100):
            p = sample_rlocal(part, rng)
            cs = build_collapsed(apply(p, B), apply(p, Y), part)
            if (np.linalg.norm(cs.B_tilde - base.B_tilde) > 1e-12 * b_scale
                    or np.linalg.norm(cs.Y_tilde - base.Y_tilde) > 1e-12 * y_scale):
                bad += 1
    _criterion(6, bad == 0, f"{bad}/300 r-local permutations broke collapse "
                            f"invariance at 1e-12 relative")


def test_criterion_07_lap_exactness_and_scale():
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(100):
        C = rng.standard_normal((6, 6))
        _, value = solve_lap(C)
        best, _ = brute_force_lap(C)
        if abs(value - best) > 1e-12 * max(1.0, abs(best)):
            mismatches += 1
    for _ in range(20):
        sizes = tuple(int(s) for s in rng.integers(1, 7, size=3))
        part = BlockPartition(sizes)
        blocks = [rng.standard_normal((s, s)) for s in sizes]
        p = solve_blockwise(blocks, part)
        for block, sl in zip(blocks, part.slices()):
            got = float(block[np.arange(block.shape[0]), p.map[sl] - sl.start].sum())
            best, _ = brute_force_lap(block)
            if abs(got - best) > 1e-12 * max(1.0, abs(best)):
                mismatches += 1
    C_big = rng.standard_normal((2000, 2000))
    start = time.perf_counter()
    solve_lap(C_big)
    wall = time.perf_counter() - start
    ok = mismatches == 0 and wall <= 5.0
    _criterion(7, ok, f"{mismatches} enumeration mismatches; "
                      f"n=2000 dense solve {wall:.2f}s <= 5s")


def test_criterion_08_jl_pivot_at_three_quarters():
    report = check_lemma1(d=100, s=75, t=0.5, trials=500,
                          rng=np.random.default_rng(8),
                          t_grid=(0.1, 0.25, 0.5, 1.0))
    median = report.details["median_ratio"]
    exceed = report.details["exceedance"]
    monotone = all(b <= a + 1e-12 for a, b in zip(exceed, exceed[1:]))
    ok = 0.4 <= median <= 0.6 and monotone
    _criterion(8, ok, f"median relative init error {median:.3f} in [0.4, 0.6]; "
                      f"exceedance {[round(e, 4) for e in exceed]} nonincreasing "
                      f"over t in (0.1, 0.25, 0.5, 1.0)")


def test_criterion_09_explicit_constant_bounds():
    rep2 = check_lemma2(d=80, s=40, t=2.0, trials=2000, rng=np.random.default_rng(9))
    bound2 = math.exp(-2.0)
    ok2 = rep2.empirical <= bound2 + binomial_margin(bound2, 2000)
    rep4 = check_lemma4(n=200, d=10, k=20, t=3.0, trials=1000,
                        rng=np.random.default_rng(10))
    bound4 = min(1.0, 7.0 * math.exp(-3.0))
    ok4 = rep4.empirical <= bound4 + binomial_margin(bound4, 1000)
    repc = chi2_tail_check(D=50, t=1.0, trials=10000, rng=np.random.default_rng(11))
    boundc = math.exp(-1.0)
    okc = (repc.empirical <= boundc + binomial_margin(boundc, 10000)
           and repc.details["lower_frequency"] <= boundc + binomial_margin(boundc, 10000))
    ok = ok2 and ok4 and okc
    _criterion(9, ok, f"squared-error tail {rep2.empirical:.4f} <= {bound2:.4f}+3sig; "
                      f"forward-error tail {rep4.empirical:.4f} <= {bound4:.4f}+3sig; "
                      f"chi2 tails ({repc.empirical:.4f}, "
                      f"{repc.details['lower_frequency']:.4f}) <= {boundc:.4f}+3sig")


def test_criterion_10_deterministic_one_step_cap():
    report = check_theorem3(n=150, d=8, k=15, m=3, t=math.log(9.0) + 2.0,
                            trials=500, rng=np.random.default_rng(12))
    violations = report.details["unconditional_violations"]
    _criterion(10, violations == 0,
               f"sigma_min^2 ||X*-Xhat1||_F^2 <= 4||Y*||_F^2 - F1 held on "
               f"{500 - violations}/500 draws at 1e-8 relative slack")


def test_criterion_11_ksparse_displacement_exact():
    rng = np.random.default_rng(13)
    bad = 0
    checked = 0
    for n in range(2, 13):
        for k in [0] + list(range(2, n + 1)):
            identity = Permutation.identity(n)
            for _ in range(100):
                p = sample_ksparse(n, k, rng)
                checked += 1
                if hamming_distortion(identity, p) != k:
                    bad += 1
    _criterion(11, bad == 0, f"d_H(I, P_k) == k exact on {checked - bad}/{checked} "
                             f"samples across n <= 12")


def test_criterion_12_csv_protocol_beats_naive(tmp_path):
    rng = np.random.default_rng(14)
    n, d, m = 60, 3, 2
    feats = rng.standard_normal((n, d))
    coef = rng.standard_normal((d, m))
    targets = feats @ coef + 0.02 * rng.standard_normal((n, m))
    key = np.repeat([1.0, 2.0, 3.0], 20)
    order = rng.permutation(n)
    lines = ["key,f1,f2,f3,t1,t2"]
    for i in order:
        cells = [key[i], *feats[i], *targets[i]]
        lines.append(",".join(f"{float(v):.17g}" for v in cells))
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")

    wins = 0
    for seed in range(15):
        inst = ingest_csv(path, target_cols=("t1", "t2"),
                          feature_cols=("f1", "f2", "f3"),
                          block_rule=BlockRule(("key",)), seed=seed)
        result = solve(inst, SolverConfig(mode="rlocal"))
        x_oracle, x_naive = oracle_and_naive(inst.B, inst.y_star, inst.Y)
        got = evaluate(result.x_hat, x_oracle, inst.B, inst.y_star)
        naive = evaluate(x_naive, x_oracle, inst.B, inst.y_star)
        if got.relative_error < naive.relative_error:
            wins += 1
    _criterion(12, wins >= 12, f"solver beat the naive estimate's relative error "
                               f"on {wins}/15 seeds (need >= 12)")
