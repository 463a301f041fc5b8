"""Alternating minimization for permuted linear measurements.

Minimizes the forward error F(X, P) = ||Y - P B X||_F^2 by alternating an
exact permutation update (a linear assignment over the admissible permutation
set) with an exact least-squares signal update. Mode "rlocal" restricts the
assignment to the blocks of a partition and starts from the collapsed-system
solution; mode "ksparse" searches all permutations and starts from the
identity. Both half-steps are exact minimizers, so the recorded objective
trace is nonincreasing. ``B`` is factored once per instance
(``ProblemInstance.b_svd``) and every signal update reuses that factor. The
public half-steps ``permutation_update``, ``signal_update`` and ``objective``
validate their input and run the same private steps as the loop.

Both assignment steps are one call, ``assignment.solve_nearest``, which
matches each row of Y to a fitted row of B X at least total squared distance,
over all permutations or within the blocks of the partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import solve_nearest
from .collapse import build_collapsed, init_rlocal
from .data import ProblemInstance
from .errors import InvalidConfig, NonFinite, ShapeMismatch, TooFewIterations
from .linalg import SvdFactors, as_matrix, svd
from .permutation import BlockPartition, Permutation, apply

MODES = ("rlocal", "ksparse")

# Objective values at or below ZERO_FLOOR_REL * ||Y||_F^2 count as an exact fit.
ZERO_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    mode: str
    epsilon: float = 0.01
    max_iters: int = 100

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.epsilon > 0:
            raise InvalidConfig(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise InvalidConfig(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class SolveResult:
    p_hat: Permutation
    x_hat: np.ndarray
    objective_trace: np.ndarray
    iters: int
    converged: bool

    @property
    def final_objective(self) -> float:
        return float(self.objective_trace[-1])


def _objective_from_fit(Y: np.ndarray, y_fit: np.ndarray, p: Permutation) -> float:
    """Forward error ||Y - P y_fit||_F^2 given the fitted measurements y_fit = B @ X."""
    diff = Y - apply(p, y_fit)
    return float(np.sum(diff * diff))


def _signal(b_svd: SvdFactors, Y: np.ndarray, p: Permutation) -> np.ndarray:
    """Least-squares step pinv(B) @ P^T Y from the factors of B."""
    return b_svd.solve(apply(p.inverse(), Y))


def _matrices(B, Y, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B, Y and X as finite matrices whose shapes fit Y ~ P B X."""
    B, Y, X = as_matrix(B, "B"), as_matrix(Y, "Y"), as_matrix(X, "X")
    if B.shape[1] != X.shape[0] or Y.shape[1] != X.shape[1] or B.shape[0] != Y.shape[0]:
        raise ShapeMismatch(f"inconsistent shapes B {B.shape}, X {X.shape}, Y {Y.shape}")
    return B, Y, X


# An overflow shows up as a non-finite energy, objective or reward, each raised
# as NonFinite, so numpy's overflow warnings are silenced rather than escaping.
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@_quiet_overflow
def objective(B, Y, p: Permutation, X) -> float:
    """Forward error ||Y - P B X||_F^2; NonFinite if it overflows."""
    B, Y, X = _matrices(B, Y, X)
    value = _objective_from_fit(Y, B @ X, p)
    if not np.isfinite(value):
        raise NonFinite("objective overflows the float64 range")
    return value


@_quiet_overflow
def permutation_update(B, Y, X, partition: BlockPartition | None = None) -> Permutation:
    """Exact minimizer of F(X, .) over the admissible permutation set:
    ``assignment.solve_nearest`` of Y against B X, within the blocks of
    ``partition`` when one is given. NonFinite if a squared norm, distance or
    cost overflows.
    """
    B, Y, X = _matrices(B, Y, X)
    return solve_nearest(Y, B @ X, partition)


def signal_update(B, Y, p: Permutation) -> np.ndarray:
    """Exact least-squares update pinv(B) @ P^T Y, equal to pinv(P B) @ Y."""
    return _signal(svd(B), Y, p)


def relative_change(trace) -> float:
    """|F_t - F_{t-1}| / max(F_{t-1}, 1e-12 * F_0) on the last two trace entries."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.size < 2:
        raise TooFewIterations("relative change needs at least two objective values")
    f_prev, f_curr = float(trace[-2]), float(trace[-1])
    num = abs(f_curr - f_prev)
    if num == 0.0:
        return 0.0
    denom = max(f_prev, 1e-12 * float(trace[0]))
    return num / denom if denom > 0 else float("inf")


@_quiet_overflow
def solve(instance: ProblemInstance, config: SolverConfig) -> SolveResult:
    """Run the alternating minimization until the relative objective change
    falls below epsilon (or the objective hits the exact-fit floor), capped at
    max_iters.

    The first permutation is the assignment against the collapsed-system fit
    (rlocal, on the instance's partition) or the identity (ksparse). One
    iteration is one signal update followed by the objective, the stop test
    and, when the loop goes on, one permutation update; the trace records the
    objective of each iteration. Hitting the iteration cap is reported via
    ``converged=False``, not an error.
    """
    B, Y = instance.B, instance.Y
    y_energy = float(np.sum(Y * Y))
    if not np.isfinite(y_energy):
        raise NonFinite("||Y||_F^2 overflows the float64 range")
    # Factor B before the first assignment: factoring it after the r-local
    # blockwise assignment raised the rlocal_sweep peak RSS from 127 to 133 MB.
    b_svd = instance.b_svd
    if config.mode == "rlocal":
        partition = instance.partition
        if partition is None:
            raise InvalidConfig("rlocal mode requires an instance with a partition")
        p_hat = solve_nearest(Y, B @ init_rlocal(build_collapsed(B, Y, partition)), partition)
    else:
        # The first reward would be Y Y^T, and by Cauchy-Schwarz every maximizer
        # has P^T Y = Y: the identity is an exact first step.
        partition = None
        p_hat = Permutation.identity(instance.n)

    zero_floor = ZERO_FLOOR_REL * y_energy
    trace: list[float] = []
    while True:
        x_hat = _signal(b_svd, Y, p_hat)
        y_fit = B @ x_hat
        trace.append(_objective_from_fit(Y, y_fit, p_hat))
        if not np.isfinite(trace[-1]):
            raise NonFinite(f"objective of iteration {len(trace)} is not finite")
        converged = trace[-1] <= zero_floor or (
            len(trace) >= 2 and relative_change(trace) <= config.epsilon)
        if converged or len(trace) == config.max_iters:
            break
        p_hat = solve_nearest(Y, y_fit, partition)
    return SolveResult(
        p_hat=p_hat,
        x_hat=x_hat,
        objective_trace=np.asarray(trace),
        iters=len(trace),
        converged=converged,
    )
