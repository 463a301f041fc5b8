"""Independent brute-force oracles the tests check the fast paths against.

The brute-force oracles deliberately avoid the library's assignment and
solver code: assignment values come from exhaustive enumeration of all
permutations, and global solver optima from enumerating every permutation with
an exact least-squares fit.

``reference_pinv_solve`` and ``reference_solve`` are the straightforward
forms of the fast paths: the pseudoinverse formula applied to a fresh
``numpy.linalg.svd``, and the alternating loop that refactors ``B`` with
``pinv_solve`` and calls ``solve_lap`` once per block on every iteration. The
fast paths perform the same floating-point operations, so tests compare them
bit for bit.

``reference_read_matrix_csv`` is the matrix CSV reader as it was before
numpy's C reader took over the common case: every cell through ``csv.reader``
and ``float()``. The fast reader must return the same array bytes or raise
the same error.

``reference_check_*`` are the seven tail-reporting bound checks of
``theory`` as they were before they shared one tail-report helper, each with
its own Monte-Carlo loop, t-grid and pass rule. ``reference_report_dict`` is
the report serialisation of that version. The checks must return the same
reports, float for float, or raise the same error.
"""

import csv
import itertools
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from unlabeled_sensing.assignment import solve_lap
from unlabeled_sensing.collapse import build_collapsed, init_rlocal
from unlabeled_sensing.errors import InvalidRange, InvalidSpec, ParseError, ShapeMismatch
from unlabeled_sensing.linalg import as_matrix, pinv_solve, row_space_projector
from unlabeled_sensing.permutation import BlockPartition, apply, sample_ksparse
from unlabeled_sensing.theory import (BoundReport, binomial_margin, const_c1, const_c2,
                                      const_c3, const_k1, jl_threshold)


@lru_cache(maxsize=None)
def all_permutations(n: int) -> np.ndarray:
    """All n! permutation maps as an (n!, n) integer array."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp)


def brute_force_lap(C: np.ndarray) -> tuple[float, np.ndarray]:
    """Exhaustive maximizer of sum_i C[i, p[i]] over all permutations."""
    n = C.shape[0]
    perms = all_permutations(n)
    values = C[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmax(values))
    return float(values[best]), perms[best]


def brute_force_min_objective(B: np.ndarray, Y: np.ndarray) -> float:
    """min over every permutation P of min_X ||Y - P B X||_F^2.

    Uses ||(I - B pinv(B)) P^T Y||_F^2, the exact least-squares residual for a
    fixed permutation.
    """
    n = B.shape[0]
    M = np.eye(n) - B @ np.linalg.pinv(B)
    best = np.inf
    for perm in all_permutations(n):
        inv = np.empty(n, dtype=np.intp)
        inv[perm] = np.arange(n)
        R = M @ Y[inv]
        best = min(best, float(np.sum(R * R)))
    return best


def reference_pinv_solve(A: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """V_r @ ((U_r.T @ Y) / S_r) from a fresh SVD, default rank cutoff, 2-D Y."""
    U, S, Vt = np.linalg.svd(A, full_matrices=False)
    r = int(np.count_nonzero(S > max(A.shape) * np.finfo(np.float64).eps * S[0]))
    if r == 0:
        return np.zeros((A.shape[1], Y.shape[1]))
    return Vt.T[:, :r] @ ((U[:, :r].T @ Y) / S[:r, None])


def reference_solve(B, Y, partition=None, epsilon=0.01, max_iters=100):
    """The alternating loop without a shared factor of B or a blockwise kernel.

    Mirrors ``solver.solve`` from the model initialization (collapsed
    minimum-norm solution with a partition, identity start without), its
    stopping rules included. Returns (P_hat map, X_hat, objective trace).
    """
    n = B.shape[0]
    if partition is not None:
        starts = np.asarray(partition.offsets[:-1], dtype=np.intp)
        x = pinv_solve(np.add.reduceat(B, starts, axis=0), np.add.reduceat(Y, starts, axis=0))
        y_fit = B @ x
    else:
        y_fit = Y
    zero_floor = 1e-12 * float(np.sum(Y * Y))
    trace = []
    for _ in range(max_iters):
        if partition is None:
            p_map = solve_lap(Y @ y_fit.T)[0].map
        else:
            p_map = np.concatenate([solve_lap(Y[sl] @ y_fit[sl].T)[0].map + sl.start
                                    for sl in partition.slices()])
        inv = np.empty(n, dtype=np.intp)
        inv[p_map] = np.arange(n)
        x = pinv_solve(B, Y[inv])
        y_fit = B @ x
        diff = Y - y_fit[p_map]
        trace.append(float(np.sum(diff * diff)))
        if trace[-1] <= zero_floor:
            break
        if len(trace) >= 2:
            change = abs(trace[-1] - trace[-2])
            denom = max(trace[-2], 1e-12 * trace[0])
            if change == 0.0 or (denom > 0 and change / denom <= epsilon):
                break
    return p_map, x, np.asarray(trace)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def reference_read_matrix_csv(path) -> np.ndarray:
    """Matrix CSV reader; tolerates one optional header line.

    Line 1 is a header only when none of its cells is a number. A line 1 that
    mixes numbers and text is a corrupt data row and raises ``ParseError``, so
    a damaged first row never silently drops out of the matrix.
    """
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            parsed = []
            for col, cell in enumerate(raw):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    if lineno == 1 and not any(_is_number(c) for c in raw):
                        parsed = None  # header line, skip
                        break
                    raise ParseError(
                        f"cannot parse {cell!r} as a number",
                        path=str(path), line=lineno, column=col + 1) from None
            if parsed is None:
                continue
            if rows and len(parsed) != len(rows[0]):
                raise ParseError(
                    f"expected {len(rows[0])} fields, got {len(parsed)}",
                    path=str(path), line=lineno)
            rows.append(parsed)
    if not rows:
        raise ParseError("no numeric rows", path=str(path))
    return np.asarray(rows, dtype=np.float64)


# ------------------------------------------------------------- theory checks
# The seven tail-reporting bound checks and the private helpers they call, as
# they were before the checks shared one tail-report helper.


def reference_report_dict(report) -> dict:
    return {
        "check": report.check,
        "params": report.params,
        "threshold": report.threshold,
        "bound": report.bound,
        "empirical": report.empirical,
        "trials": report.trials,
        "passed": report.passed,
        "details": report.details,
    }


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise InvalidSpec(f"trials must be >= 1, got {trials}")


def _nonincreasing(values, tol: float = 1e-12) -> bool:
    return all(b <= a + tol for a, b in zip(values, values[1:]))


def _grid_around(t: float, factors=(0.0, 0.5, 1.0, 2.0, 4.0)) -> list[float]:
    grid = sorted({round(f * t, 12) for f in factors} | {round(t, 12)})
    return [float(g) for g in grid]


def _fixed_collapsed_matrix(d: int, s: int, rng: np.random.Generator,
                            B=None, partition: BlockPartition | None = None,
                            rows_per_block: int = 2) -> np.ndarray:
    """Resolve a fixed collapsed matrix with s rows from B (drawn if absent)."""
    if B is None:
        B = rng.standard_normal((s * rows_per_block, d))
        partition = BlockPartition.equal_blocks(s * rows_per_block, rows_per_block)
    else:
        B = as_matrix(B, "B")
        if B.shape[1] != d:
            raise ShapeMismatch(f"B has {B.shape[1]} columns, expected d={d}")
        if partition is None:
            rows = B.shape[0]
            if rows == s:
                partition = BlockPartition((1,) * s)
            elif rows % s == 0:
                partition = BlockPartition.equal_blocks(rows, rows // s)
            else:
                raise InvalidRange(f"cannot infer an s={s}-block partition for {rows} rows")
        if partition.block_count != s:
            raise InvalidRange(f"partition has {partition.block_count} blocks, expected s={s}")
    return build_collapsed(B, np.zeros((B.shape[0], 1)), partition).B_tilde


def _validate_k(n: int, k: int) -> None:
    if k == 1 or not 0 <= k <= n - 1:
        raise InvalidRange(f"need 0 <= k <= n-1 and k != 1, got k={k}, n={n}")


def reference_check_lemma1(d: int, s: int, t: float, trials: int, rng: np.random.Generator,
                 rows_per_block: int = 2, t_grid=None,
                 band_margin: float = 0.1) -> BoundReport:
    """Relative error of the collapsed initialization under Gaussian measurements.

    For a fixed unit signal and a fresh Gaussian measurement matrix per trial,
    the relative error concentrates at sqrt((d - s)/d): the frequency of
    exceeding (1 + t) sqrt((d - s)/d) must decay along the t-grid, and the
    two-sided band (1 +- t) sqrt((d - s)/d) must capture at least
    1 - band_margin of the trials at the headline t.
    """
    _require_trials(trials)
    base = jl_threshold(d, s, 0.0)
    n = s * rows_per_block
    partition = BlockPartition.equal_blocks(n, rows_per_block)
    x_star = rng.standard_normal(d)
    x_star /= np.linalg.norm(x_star)

    ratios = np.empty(trials)
    for i in range(trials):
        B = rng.standard_normal((n, d))
        cs = build_collapsed(B, (B @ x_star)[:, None], partition)
        x_hat = init_rlocal(cs).ravel()
        ratios[i] = np.linalg.norm(x_star - x_hat)

    grid = sorted(set(t_grid) | {t}) if t_grid is not None else sorted({0.1, 0.25, 0.5, 1.0, 2.0} | {t})
    exceed = [float(np.mean(ratios >= (1.0 + g) * base)) for g in grid]
    band = float(np.mean(((1.0 - t) * base <= ratios) & (ratios <= (1.0 + t) * base)))
    passed = _nonincreasing(exceed) and band >= 1.0 - band_margin
    return BoundReport(
        check="lemma1",
        params={"d": d, "s": s, "t": t, "rows_per_block": rows_per_block},
        threshold=jl_threshold(d, s, t),
        bound=None,
        empirical=exceed[grid.index(t)],
        trials=trials,
        passed=passed,
        details={"t_grid": list(grid), "exceedance": exceed,
                 "band_frequency": band, "median_ratio": float(np.median(ratios))},
    )


def reference_check_theorem1(d: int, s: int, m: int, t: float, trials: int,
                   rng: np.random.Generator, rows_per_block: int = 2,
                   t_grid=None, band_margin: float = 0.1) -> BoundReport:
    """Multi-column version of check_lemma1 on Frobenius-norm ratios.

    The threshold (1 + t) sqrt((d - s)/d) does not depend on the number of
    columns m; with m = 1 this reduces to the single-vector check.
    """
    _require_trials(trials)
    if m < 1:
        raise InvalidRange(f"m must be >= 1, got {m}")
    base = jl_threshold(d, s, 0.0)
    n = s * rows_per_block
    partition = BlockPartition.equal_blocks(n, rows_per_block)
    x_star = rng.standard_normal((d, m))
    x_norm = np.linalg.norm(x_star)

    ratios = np.empty(trials)
    for i in range(trials):
        B = rng.standard_normal((n, d))
        cs = build_collapsed(B, B @ x_star, partition)
        ratios[i] = np.linalg.norm(x_star - init_rlocal(cs)) / x_norm

    grid = sorted(set(t_grid) | {t}) if t_grid is not None else sorted({0.1, 0.25, 0.5, 1.0, 2.0} | {t})
    exceed = [float(np.mean(ratios >= (1.0 + g) * base)) for g in grid]
    band = float(np.mean(((1.0 - t) * base <= ratios) & (ratios <= (1.0 + t) * base)))
    passed = _nonincreasing(exceed) and band >= 1.0 - band_margin
    return BoundReport(
        check="theorem1",
        params={"d": d, "s": s, "m": m, "t": t, "rows_per_block": rows_per_block},
        threshold=jl_threshold(d, s, t),
        bound=None,
        empirical=exceed[grid.index(t)],
        trials=trials,
        passed=passed,
        details={"t_grid": list(grid), "exceedance": exceed,
                 "band_frequency": band, "median_ratio": float(np.median(ratios))},
    )


def reference_check_lemma2(d: int, s: int, t: float, trials: int, rng: np.random.Generator,
                 B=None, partition: BlockPartition | None = None,
                 K: float = 1.0) -> BoundReport:
    """Squared initialization error for a fixed matrix and sub-Gaussian signal.

    Draws x ~ K * N(0, I) against one fixed collapsed system and checks
    Pr[error^2 >= c1 + K1 t] <= exp(-t), whose constants are fully explicit, at
    a 3-sigma binomial margin.
    """
    _require_trials(trials)
    if t < 0:
        raise InvalidRange(f"t must be >= 0, got {t}")
    b_tilde = _fixed_collapsed_matrix(d, s, rng, B, partition)
    complement = np.eye(d) - row_space_projector(b_tilde)
    X = K * rng.standard_normal((d, trials))
    E = complement @ X
    err_sq = np.sum(E * E, axis=0)

    c1 = const_c1(d, s, K)
    k1 = const_k1(d, s, K)
    grid = _grid_around(t) if t > 0 else [0.0, 0.5, 1.0, 2.0, 4.0]
    exceed = [float(np.mean(err_sq >= c1 + k1 * g)) for g in grid]
    bound = math.exp(-t)
    empirical = float(np.mean(err_sq >= c1 + k1 * t))
    passed = _nonincreasing(exceed) and empirical <= bound + binomial_margin(bound, trials)
    return BoundReport(
        check="lemma2",
        params={"d": d, "s": s, "t": t, "K": K},
        threshold=c1 + k1 * t,
        bound=bound,
        empirical=empirical,
        trials=trials,
        passed=passed,
        details={"c1": c1, "K1": k1, "t_grid": grid, "exceedance": exceed},
    )


def reference_check_theorem2(d: int, s: int, m: int, trials: int, rng: np.random.Generator,
                   t: float | None = None, B=None,
                   partition: BlockPartition | None = None,
                   K: float = 1.0, smallness: float = 0.1) -> BoundReport:
    """Summed error norms for a fixed matrix and i.i.d. sub-Gaussian columns.

    The statistic sum_i ||x_i - xhat_i|| - m c2 has a sub-Gaussian upper tail
    with an unknown absolute constant, so the check asserts decay along the
    t-grid plus smallness at t* = sqrt(m K1 ln 20), the point where the stated
    tail with unit constant equals 0.1.
    """
    _require_trials(trials)
    if m < 1:
        raise InvalidRange(f"m must be >= 1, got {m}")
    k1 = const_k1(d, s, K)
    c2 = const_c2(d, s, K)
    t_star = math.sqrt(m * k1 * math.log(20.0))
    if t is None:
        t = t_star
    if t < 0:
        raise InvalidRange(f"t must be >= 0, got {t}")

    b_tilde = _fixed_collapsed_matrix(d, s, rng, B, partition)
    complement = np.eye(d) - row_space_projector(b_tilde)
    X = K * rng.standard_normal((d, trials * m))
    E = complement @ X
    norms = np.sqrt(np.sum(E * E, axis=0)).reshape(trials, m)
    stat = norms.sum(axis=1) - m * c2

    grid = sorted({0.0, t / 4.0, t / 2.0, t, t_star, 2.0 * max(t, t_star)})
    exceed = [float(np.mean(stat >= g)) for g in grid]
    empirical = float(np.mean(stat >= t))
    at_star = float(np.mean(stat >= t_star))
    passed = _nonincreasing(exceed) and at_star <= smallness
    return BoundReport(
        check="theorem2",
        params={"d": d, "s": s, "m": m, "t": t, "K": K},
        threshold=t,
        bound=None,
        empirical=empirical,
        trials=trials,
        passed=passed,
        details={"c2": c2, "K1": k1, "t_star": t_star, "exceedance_at_t_star": at_star,
                 "t_grid": list(grid), "exceedance": exceed},
    )


def reference_check_lemma4(n: int, d: int, k: int, t: float, trials: int,
                 rng: np.random.Generator) -> BoundReport:
    """Forward error of the identity initialization under a k-row shuffle.

    For fixed x, Gaussian B per trial, and a uniform exactly-k shuffle, checks
    Pr[||y - yhat0||^2 >= 2||y||^2 - 2||x||^2 (n - k - c3 sqrt(t) - 3t)]
    <= 7 exp(-t) with fully explicit constants at a 3-sigma margin.
    """
    _require_trials(trials)
    _validate_k(n, k)
    if t < 0:
        raise InvalidRange(f"t must be >= 0, got {t}")
    x_star = rng.standard_normal(d)
    xsq = float(x_star @ x_star)
    c3 = const_c3(n, k)

    err_sq = np.empty(trials)
    ystar_sq = np.empty(trials)
    for i in range(trials):
        B = rng.standard_normal((n, d))
        y_star = B @ x_star
        y0 = apply(sample_ksparse(n, k, rng), y_star)
        err_sq[i] = float(np.sum((y_star - y0) ** 2))
        ystar_sq[i] = float(y_star @ y_star)

    def exceed_at(tt: float) -> float:
        thr = 2.0 * ystar_sq - 2.0 * xsq * (n - k - c3 * math.sqrt(tt) - 3.0 * tt)
        return float(np.mean(err_sq >= thr))

    grid = _grid_around(t) if t > 0 else [0.0, 0.5, 1.0, 2.0, 4.0]
    exceed = [exceed_at(g) for g in grid]
    bound = min(1.0, 7.0 * math.exp(-t))
    empirical = exceed_at(t)
    passed = _nonincreasing(exceed) and empirical <= bound + binomial_margin(bound, trials)
    return BoundReport(
        check="lemma4",
        params={"n": n, "d": d, "k": k, "t": t},
        threshold=n - k - c3 * math.sqrt(t) - 3.0 * t,
        bound=bound,
        empirical=empirical,
        trials=trials,
        passed=passed,
        details={"c3": c3, "t_grid": grid, "exceedance": exceed,
                 "threshold_form": "inner-product pivot n - k - c3 sqrt(t) - 3 t"},
    )


def reference_check_theorem3(n: int, d: int, k: int, m: int, t: float, trials: int,
                   rng: np.random.Generator, slack: float = 1e-8) -> BoundReport:
    """One-step signal error of the identity initialization, multi-column.

    Per trial computes Xhat1 = pinv(B) @ Yhat0 and F1 = ||Y - B Xhat1||_F^2 and
    checks the probabilistic threshold
    2||Ystar||_F^2 - 2||Xstar||_F^2 (n - k - c3 sqrt(t) - 3t) - F1 against
    7 exp(-t) for t >= log(m^2), and additionally asserts the unconditional
    bound sigma_min^2 ||Xstar - Xhat1||_F^2 <= 4||Ystar||_F^2 - F1 on every
    single draw (up to relative slack).
    """
    _require_trials(trials)
    _validate_k(n, k)
    if m < 1:
        raise InvalidRange(f"m must be >= 1, got {m}")
    if t < math.log(m * m):
        raise InvalidRange(f"need t >= log(m^2) = {math.log(m * m):.4f}, got {t}")
    x_star = rng.standard_normal((d, m))
    xsq = float(np.sum(x_star * x_star))
    c3 = const_c3(n, k)

    lhs = np.empty(trials)
    f1 = np.empty(trials)
    ysq = np.empty(trials)
    uncond_violations = 0
    for i in range(trials):
        B = rng.standard_normal((n, d))
        y_star = B @ x_star
        y0 = apply(sample_ksparse(n, k, rng), y_star)
        x_hat1 = pinv_solve(B, y0)
        resid = y0 - B @ x_hat1
        f1[i] = float(np.sum(resid * resid))
        ysq[i] = float(np.sum(y_star * y_star))
        # sigma_min over the signal domain: zero when B is wide (rank < d)
        smin = float(np.linalg.svd(B, full_matrices=False)[1][-1]) if n >= d else 0.0
        lhs[i] = smin * smin * float(np.sum((x_star - x_hat1) ** 2))
        if lhs[i] > 4.0 * ysq[i] - f1[i] + slack * 4.0 * ysq[i]:
            uncond_violations += 1

    def exceed_at(tt: float) -> float:
        thr = 2.0 * ysq - 2.0 * xsq * (n - k - c3 * math.sqrt(tt) - 3.0 * tt) - f1
        return float(np.mean(lhs >= thr))

    t_lo = math.log(m * m)
    grid = sorted({max(t_lo, f * t) for f in (1.0, 1.5, 2.0, 3.0, 4.0)} | {t})
    exceed = [exceed_at(g) for g in grid]
    bound = min(1.0, 7.0 * math.exp(-t))
    empirical = exceed_at(t)
    passed = (_nonincreasing(exceed) and uncond_violations == 0
              and empirical <= bound + binomial_margin(bound, trials))
    return BoundReport(
        check="theorem3",
        params={"n": n, "d": d, "k": k, "m": m, "t": t},
        threshold=n - k - c3 * math.sqrt(t) - 3.0 * t,
        bound=bound,
        empirical=empirical,
        trials=trials,
        passed=passed,
        details={"c3": c3, "t_grid": grid, "exceedance": exceed,
                 "unconditional_violations": uncond_violations},
    )


def reference_chi2_tail_check(D: int, t: float, trials: int, rng: np.random.Generator) -> BoundReport:
    """Two-sided chi-square tail frequencies against exp(-t).

    Upper tail Pr[Z >= D + 2 sqrt(D t) + 2 t] and lower tail
    Pr[Z <= D - 2 sqrt(D t)] for Z chi-square with D degrees of freedom.
    """
    _require_trials(trials)
    if D < 1 or t < 0:
        raise InvalidRange(f"need D >= 1 and t >= 0, got D={D}, t={t}")
    Z = rng.chisquare(D, size=trials)
    upper_thr = D + 2.0 * math.sqrt(D * t) + 2.0 * t
    lower_thr = D - 2.0 * math.sqrt(D * t)
    upper = float(np.mean(Z >= upper_thr))
    lower = float(np.mean(Z <= lower_thr))
    bound = math.exp(-t)
    margin = binomial_margin(bound, trials)
    grid = _grid_around(t) if t > 0 else [0.0, 0.5, 1.0, 2.0, 4.0]
    exceed = [float(np.mean(Z >= D + 2.0 * math.sqrt(D * g) + 2.0 * g)) for g in grid]
    passed = _nonincreasing(exceed) and upper <= bound + margin and lower <= bound + margin
    return BoundReport(
        check="chi2",
        params={"D": D, "t": t},
        threshold=upper_thr,
        bound=bound,
        empirical=upper,
        trials=trials,
        passed=passed,
        details={"lower_threshold": lower_thr, "lower_frequency": lower,
                 "t_grid": grid, "exceedance": exceed},
    )
