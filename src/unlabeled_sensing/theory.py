"""Empirical validators for the initialization error bounds.

Each ``check_*`` routine draws Monte-Carlo trials from the stated random
model, evaluates the bound threshold, and reports how often the statistic
exceeds it. Bounds with fully explicit constants (check_lemma2, check_lemma4,
check_theorem3, chi2_tail_check) are compared against their stated tail
probabilities plus a 3-sigma binomial margin. Bounds involving an unknown
absolute constant (check_lemma1, check_theorem1, check_theorem2) are validated
qualitatively: the exceedance frequency must decay along an increasing t-grid
and satisfy a smallness or band criterion that does not depend on the unknown
constant. All checks are noiseless and trials share one sample per check, so
reported frequencies are deterministic in the generator state. The pass
criteria are fixed: BAND_MARGIN, SMALLNESS and SLACK below.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .collapse import build_collapsed, init_rlocal
from .errors import InvalidRange, InvalidSpec, ShapeMismatch, SingularMatrix
from .linalg import SvdFactors, as_matrix, row_space_projector, svd
from .permutation import BlockPartition, apply, sample_ksparse

# The band (1 +- t) sqrt((d - s)/d) must hold at least 1 - BAND_MARGIN of the
# trials (lemma1, theorem1).
BAND_MARGIN = 0.1
# The exceedance at theorem2's reference point t* may be at most SMALLNESS.
SMALLNESS = 0.1
# Relative round-off slack of the bounds asserted on every draw (theorem3,
# worst_case).
SLACK = 1e-8


# ------------------------------------------------------------- derived constants

def const_c1(d: int, s: int, K: float = 1.0) -> float:
    """K^2 (d - s + sqrt(d - s)/2), the centering of the squared projection error."""
    _require_underdetermined(d, s)
    gap = d - s
    return K * K * (gap + 0.5 * math.sqrt(gap))

def const_k1(d: int, s: int, K: float = 1.0) -> float:
    """2 K^2 (sqrt(d - s) + 1), the sub-exponential scale of the error tail."""
    _require_underdetermined(d, s)
    return 2.0 * K * K * (math.sqrt(d - s) + 1.0)

def const_c2(d: int, s: int, K: float = 1.0) -> float:
    """K (d - s + (5/2) sqrt(d - s) + 2)^(1/2), bounding the expected error norm."""
    _require_underdetermined(d, s)
    gap = d - s
    return K * math.sqrt(gap + 2.5 * math.sqrt(gap) + 2.0)

def const_c3(n: int, k: int) -> float:
    """2 sqrt(n - k) + 2 sqrt(3 k), the sqrt(t) coefficient of the forward-error tail."""
    if not 0 <= k <= n:
        raise InvalidRange(f"need 0 <= k <= n, got k={k}, n={n}")
    return 2.0 * math.sqrt(n - k) + 2.0 * math.sqrt(3.0 * k)

def _require_underdetermined(d: int, s: int) -> None:
    if not 0 <= s < d:
        raise InvalidRange(f"need 0 <= s < d, got s={s}, d={d}")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one Monte-Carlo bound check.

    ``bound`` is the stated tail probability, or None when the bound involves
    an unknown absolute constant and only qualitative criteria apply.
    """

    check: str
    params: dict
    threshold: float
    bound: float | None
    empirical: float
    trials: int
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def binomial_margin(p: float, trials: int) -> float:
    """Three-sigma binomial margin at success rate p over the given trial count."""
    p = min(max(p, 0.0), 1.0)
    return 3.0 * math.sqrt(p * (1.0 - p) / trials)


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise InvalidSpec(f"trials must be >= 1, got {trials}")


def _nonincreasing(values, tol: float = 1e-12) -> bool:
    return all(b <= a + tol for a, b in zip(values, values[1:]))


def _grid_around(t: float, factors=(0.0, 0.5, 1.0, 2.0, 4.0)) -> list[float]:
    """The multiples ``factors * t`` plus t, or the factors themselves unless t > 0."""
    if not t > 0:
        return [float(f) for f in factors]
    grid = sorted({round(f * t, 12) for f in factors} | {round(t, 12)})
    return [float(g) for g in grid]


def _tail_report(check: str, params: dict, t: float, trials: int, exceed_at, grid,
                 threshold: float, bound: float | None = None, holds: bool = True,
                 **details) -> BoundReport:
    """Evaluate the exceedance frequency ``exceed_at`` along ``grid`` and at ``t``.

    The check passes when the exceedance is nonincreasing along the grid,
    ``holds`` is true and, for a stated tail ``bound``, the frequency at t stays
    within the bound plus its 3-sigma binomial margin.
    """
    exceed = [exceed_at(g) for g in grid]
    empirical = exceed_at(t)
    passed = _nonincreasing(exceed) and holds and (
        bound is None or empirical <= bound + binomial_margin(bound, trials))
    return BoundReport(check=check, params=params, threshold=threshold, bound=bound,
                       empirical=empirical, trials=trials, passed=passed,
                       details={**details, "t_grid": list(grid), "exceedance": exceed})


# ------------------------------------------------------------- r-local checks

def jl_threshold(d: int, s: int, t: float) -> float:
    """Relative-error pivot (1 + t) sqrt((d - s) / d) of the random-projection bound."""
    _require_underdetermined(d, s)
    if s == 0 or t < 0:
        raise InvalidRange(f"need 0 < s < d and t >= 0, got s={s}, d={d}, t={t}")
    return (1.0 + t) * math.sqrt((d - s) / d)


def _rlocal_partition(d: int, s: int, rows_per_block: int) -> BlockPartition:
    """s equal blocks of rows_per_block rows, once 0 < s < d is checked."""
    jl_threshold(d, s, 0.0)
    return BlockPartition.equal_blocks(s * rows_per_block, rows_per_block)


def _rlocal_init_errors(x_star: np.ndarray, partition: BlockPartition, trials: int,
                        rng: np.random.Generator) -> np.ndarray:
    """||X* - init_rlocal||_F with a fresh Gaussian B and noiseless Y = B X* per trial."""
    errors = np.empty(trials)
    for i in range(trials):
        B = rng.standard_normal((partition.n, x_star.shape[0]))
        errors[i] = np.linalg.norm(x_star - init_rlocal(build_collapsed(B, B @ x_star, partition)))
    return errors


def _ratio_report(check: str, params: dict, d: int, s: int, t: float, trials: int,
                  ratios: np.ndarray, t_grid) -> BoundReport:
    """Error ratios against (1 + t) sqrt((d - s)/d), plus the band (1 +- t) at t."""
    base = jl_threshold(d, s, 0.0)
    grid = sorted(set(t_grid if t_grid is not None else (0.1, 0.25, 0.5, 1.0, 2.0)) | {t})
    band = float(np.mean(((1.0 - t) * base <= ratios) & (ratios <= (1.0 + t) * base)))
    return _tail_report(check, params, t, trials,
                        lambda g: float(np.mean(ratios >= (1.0 + g) * base)), grid,
                        jl_threshold(d, s, t), holds=band >= 1.0 - BAND_MARGIN,
                        band_frequency=band, median_ratio=float(np.median(ratios)))


def check_lemma1(d: int, s: int, t: float, trials: int, rng: np.random.Generator,
                 rows_per_block: int = 2, t_grid: list[float] | None = None) -> BoundReport:
    """Relative error of the collapsed initialization under Gaussian measurements.

    For a fixed unit signal and a fresh Gaussian measurement matrix per trial,
    the relative error concentrates at sqrt((d - s)/d): the frequency of
    exceeding (1 + t) sqrt((d - s)/d) must decay along the t-grid, and the
    two-sided band (1 +- t) sqrt((d - s)/d) must capture at least
    1 - BAND_MARGIN of the trials at the headline t. This is check_theorem1
    at m = 1 with a unit-norm signal, so the errors need no division.
    """
    _require_trials(trials)
    partition = _rlocal_partition(d, s, rows_per_block)
    x_star = rng.standard_normal((d, 1))
    x_star /= np.linalg.norm(x_star)
    errors = _rlocal_init_errors(x_star, partition, trials, rng)
    return _ratio_report("lemma1", {"d": d, "s": s, "t": t, "rows_per_block": rows_per_block},
                         d, s, t, trials, errors, t_grid)


def check_theorem1(d: int, s: int, m: int, t: float, trials: int,
                   rng: np.random.Generator, rows_per_block: int = 2,
                   t_grid: list[float] | None = None) -> BoundReport:
    """Multi-column version of check_lemma1 on Frobenius-norm ratios.

    The threshold (1 + t) sqrt((d - s)/d) does not depend on the number of
    columns m; with m = 1 this reduces to the single-vector check.
    """
    _require_trials(trials)
    if m < 1:
        raise InvalidRange(f"m must be >= 1, got {m}")
    partition = _rlocal_partition(d, s, rows_per_block)
    x_star = rng.standard_normal((d, m))
    errors = _rlocal_init_errors(x_star, partition, trials, rng)
    return _ratio_report("theorem1",
                         {"d": d, "s": s, "m": m, "t": t, "rows_per_block": rows_per_block},
                         d, s, t, trials, errors / np.linalg.norm(x_star), t_grid)


def _projection_sq_errors(d: int, s: int, columns: int, rng: np.random.Generator, B,
                          partition: BlockPartition | None, K: float) -> np.ndarray:
    """Squared norms of (I - P) K Z for Z ~ N(0, I_d) with the given column count.

    P projects onto the row space of one fixed collapsed matrix with s rows,
    collapsed from B (two rows per block of a Gaussian B when B is absent).
    """
    if B is None:
        B = rng.standard_normal((s * 2, d))
        partition = BlockPartition.equal_blocks(s * 2, 2)
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
    b_tilde = build_collapsed(B, np.zeros((B.shape[0], 1)), partition).B_tilde
    E = (np.eye(d) - row_space_projector(b_tilde)) @ (K * rng.standard_normal((d, columns)))
    return np.sum(E * E, axis=0)


def check_lemma2(d: int, s: int, t: float, trials: int, rng: np.random.Generator,
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
    err_sq = _projection_sq_errors(d, s, trials, rng, B, partition, K)
    c1 = const_c1(d, s, K)
    k1 = const_k1(d, s, K)
    return _tail_report("lemma2", {"d": d, "s": s, "t": t, "K": K}, t, trials,
                        lambda g: float(np.mean(err_sq >= c1 + k1 * g)), _grid_around(t),
                        c1 + k1 * t, bound=math.exp(-t), c1=c1, K1=k1)


def check_theorem2(d: int, s: int, m: int, trials: int, rng: np.random.Generator,
                   t: float | None = None, B=None,
                   partition: BlockPartition | None = None,
                   K: float = 1.0) -> BoundReport:
    """Summed error norms for a fixed matrix and i.i.d. sub-Gaussian columns.

    The statistic sum_i ||x_i - xhat_i|| - m c2 has a sub-Gaussian upper tail
    with an unknown absolute constant, so the check asserts decay along the
    t-grid plus an exceedance of at most SMALLNESS at t* = sqrt(m K1 ln 20),
    the point where the stated tail with unit constant equals 0.1.
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
    err_sq = _projection_sq_errors(d, s, trials * m, rng, B, partition, K)
    stat = np.sqrt(err_sq).reshape(trials, m).sum(axis=1) - m * c2

    def exceed_at(g: float) -> float:
        return float(np.mean(stat >= g))

    at_star = exceed_at(t_star)
    return _tail_report("theorem2", {"d": d, "s": s, "m": m, "t": t, "K": K}, t, trials,
                        exceed_at, sorted({0.0, t / 4.0, t / 2.0, t, t_star, 2.0 * max(t, t_star)}),
                        t, holds=at_star <= SMALLNESS, c2=c2, K1=k1, t_star=t_star,
                        exceedance_at_t_star=at_star)


# ------------------------------------------------------------- k-sparse checks

def _validate_k(n: int, k: int) -> None:
    if k == 1 or not 0 <= k <= n - 1:
        raise InvalidRange(f"need 0 <= k <= n-1 and k != 1, got k={k}, n={n}")


def _kshuffle_draws(x_star: np.ndarray, n: int, k: int, trials: int,
                    rng: np.random.Generator):
    """Per trial: a Gaussian B, Y* = B X* and Y* with exactly k rows shuffled."""
    for _ in range(trials):
        B = rng.standard_normal((n, x_star.shape[0]))
        y_star = B @ x_star
        yield B, y_star, apply(sample_ksparse(n, k, rng), y_star)


def _kshuffle_report(check: str, params: dict, n: int, k: int, t: float, trials: int,
                     grid, stat: np.ndarray, ysq: np.ndarray, xsq: float,
                     f1=0.0, **extra) -> BoundReport:
    """Frequency of stat >= 2||Y*||^2 - 2||X*||^2 (n - k - c3 sqrt(t) - 3t) - F1.

    The tail bound is min(1, 7 exp(-t)); the report's threshold is the
    inner-product pivot n - k - c3 sqrt(t) - 3t.
    """
    c3 = const_c3(n, k)

    def pivot(tt: float) -> float:
        return n - k - c3 * math.sqrt(tt) - 3.0 * tt

    return _tail_report(check, params, t, trials,
                        lambda g: float(np.mean(stat >= 2.0 * ysq - 2.0 * xsq * pivot(g) - f1)),
                        grid, pivot(t), bound=min(1.0, 7.0 * math.exp(-t)), c3=c3, **extra)


def check_lemma4(n: int, d: int, k: int, t: float, trials: int,
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
    err_sq = np.empty(trials)
    ystar_sq = np.empty(trials)
    for i, (_, y_star, y0) in enumerate(_kshuffle_draws(x_star, n, k, trials, rng)):
        err_sq[i] = float(np.sum((y_star - y0) ** 2))
        ystar_sq[i] = float(y_star @ y_star)
    return _kshuffle_report("lemma4", {"n": n, "d": d, "k": k, "t": t}, n, k, t, trials,
                            _grid_around(t), err_sq, ystar_sq, float(x_star @ x_star),
                            threshold_form="inner-product pivot n - k - c3 sqrt(t) - 3 t")


def check_theorem3(n: int, d: int, k: int, m: int, t: float, trials: int,
                   rng: np.random.Generator) -> BoundReport:
    """One-step signal error of the identity initialization, multi-column.

    Per trial computes Xhat1 = pinv(B) @ Yhat0 and F1 = ||Y - B Xhat1||_F^2 and
    checks the probabilistic threshold
    2||Ystar||_F^2 - 2||Xstar||_F^2 (n - k - c3 sqrt(t) - 3t) - F1 against
    7 exp(-t) for t >= log(m^2), and additionally asserts the unconditional
    bound sigma_min^2 ||Xstar - Xhat1||_F^2 <= 4||Ystar||_F^2 - F1 on every
    single draw (up to relative SLACK). One SVD of B per draw gives both Xhat1
    and sigma_min.
    """
    _require_trials(trials)
    _validate_k(n, k)
    if m < 1:
        raise InvalidRange(f"m must be >= 1, got {m}")
    if t < math.log(m * m):
        raise InvalidRange(f"need t >= log(m^2) = {math.log(m * m):.4f}, got {t}")
    x_star = rng.standard_normal((d, m))
    lhs = np.empty(trials)
    f1 = np.empty(trials)
    ysq = np.empty(trials)
    for i, (B, y_star, y0) in enumerate(_kshuffle_draws(x_star, n, k, trials, rng)):
        f = svd(B)
        x_hat1 = f.solve(y0)
        resid = y0 - B @ x_hat1
        f1[i] = float(np.sum(resid * resid))
        ysq[i] = float(np.sum(y_star * y_star))
        # sigma_min over the signal domain: zero when B is wide (rank < d)
        smin = float(f.S[-1]) if n >= d else 0.0
        lhs[i] = smin * smin * float(np.sum((x_star - x_hat1) ** 2))
    violations = int(np.count_nonzero(lhs > 4.0 * ysq - f1 + SLACK * 4.0 * ysq))
    t_lo = math.log(m * m)
    grid = sorted({max(t_lo, f * t) for f in (1.0, 1.5, 2.0, 3.0, 4.0)} | {t})
    return _kshuffle_report("theorem3", {"n": n, "d": d, "k": k, "m": m, "t": t}, n, k, t,
                            trials, grid, lhs, ysq, float(np.sum(x_star * x_star)), f1,
                            holds=violations == 0, unconditional_violations=violations)


# ------------------------------------------------------------- generic tails

def chi2_tail_check(D: int, t: float, trials: int, rng: np.random.Generator) -> BoundReport:
    """Two-sided chi-square tail frequencies against exp(-t).

    Upper tail Pr[Z >= D + 2 sqrt(D t) + 2 t] and lower tail
    Pr[Z <= D - 2 sqrt(D t)] for Z chi-square with D degrees of freedom.
    """
    _require_trials(trials)
    if D < 1 or t < 0:
        raise InvalidRange(f"need D >= 1 and t >= 0, got D={D}, t={t}")
    Z = rng.chisquare(D, size=trials)
    bound = math.exp(-t)
    lower_thr = D - 2.0 * math.sqrt(D * t)
    lower = float(np.mean(Z <= lower_thr))
    return _tail_report("chi2", {"D": D, "t": t}, t, trials,
                        lambda g: float(np.mean(Z >= D + 2.0 * math.sqrt(D * g) + 2.0 * g)),
                        _grid_around(t), D + 2.0 * math.sqrt(D * t) + 2.0 * t, bound=bound,
                        holds=lower <= bound + binomial_margin(bound, trials),
                        lower_threshold=lower_thr, lower_frequency=lower)


def worst_case_init_bound(B, x_hat, y) -> float:
    """Assumption-free error cap (||y||^2 - sigma_min^2 ||x_hat||^2) / sigma_min^2.

    The cap is attained when the signal aligns with the singular direction of
    the smallest singular value. ``B`` is the matrix or its ``SvdFactors``.
    Raises SingularMatrix when sigma_min is numerically zero.
    """
    f = B if isinstance(B, SvdFactors) else svd(B)
    # the cap needs ||B v|| >= sigma_min ||v|| on the whole signal domain,
    # which fails for wide or rank-deficient matrices
    if f.rank < f.V.shape[0]:
        raise SingularMatrix(
            f"sigma_min of {f.U.shape[0]}x{f.V.shape[0]} matrix is numerically zero")
    smin = float(f.S[-1])
    y = np.asarray(y, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    ysq = float(np.sum(y * y))
    xsq = float(np.sum(x_hat * x_hat))
    return (ysq - smin * smin * xsq) / (smin * smin)


def check_worst_case(n: int, d: int, trials: int, rng: np.random.Generator) -> BoundReport:
    """Companion sampler for worst_case_init_bound on full-column-rank systems.

    Verifies ||x - xhat||^2 <= cap, up to relative SLACK, on every noiseless
    draw with pinv recovery; one SVD of B per draw serves both.
    """
    _require_trials(trials)
    if n < d:
        raise InvalidRange(f"need n >= d for full column rank, got n={n}, d={d}")
    violations = 0
    caps = np.empty(trials)
    for i in range(trials):
        B = rng.standard_normal((n, d))
        x_star = rng.standard_normal(d)
        y = B @ x_star
        f = svd(B)
        x_hat = f.solve(y)
        caps[i] = worst_case_init_bound(f, x_hat, y)
        err = float(np.sum((x_star - x_hat) ** 2))
        if err > caps[i] + SLACK * max(1.0, caps[i]):
            violations += 1
    return BoundReport(
        check="worst_case",
        params={"n": n, "d": d},
        threshold=float(np.mean(caps)),
        bound=None,
        empirical=violations / trials,
        trials=trials,
        passed=violations == 0,
        details={"violations": violations, "mean_cap": float(np.mean(caps))},
    )
