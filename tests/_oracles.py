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
"""

import csv
import itertools
from functools import lru_cache
from pathlib import Path

import numpy as np

from unlabeled_sensing.assignment import solve_lap
from unlabeled_sensing.errors import ParseError
from unlabeled_sensing.linalg import pinv_solve


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
