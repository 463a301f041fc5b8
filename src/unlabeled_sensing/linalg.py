"""Dense matrix kernels the rest of the package relies on.

Thin SVD, Moore-Penrose pseudoinverse solves and orthogonal projectors onto
row spaces. Everything here is a pure function of float64 arrays; the
factorization itself is delegated to LAPACK via ``numpy.linalg``, the
contracts (finiteness checks, rank tolerance, minimum-norm semantics) are
owned by this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite, ShapeMismatch

# Relative rank cutoff: singular values at or below max(rows, cols) * eps * S[0]
# count as zero.
EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite, 2-D float64 array.

    1-D inputs are promoted to a single column. Raises ``NonFinite`` when any
    entry is NaN/Inf and ``ShapeMismatch`` for empty or >2-D inputs.
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"{name} must be a non-empty 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFinite(f"{name} contains NaN or Inf entries")
    return arr


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Thin SVD ``A = U @ diag(S) @ V.T`` with S nonincreasing and >= 0."""

    U: np.ndarray
    S: np.ndarray
    V: np.ndarray
    rank_tol: float

    @property
    def rank(self) -> int:
        return int(np.count_nonzero(self.S > self.rank_tol))

    def solve(self, Y) -> np.ndarray:
        """Minimum-norm least-squares solve ``X = pinv(A) @ Y`` from these factors.

        Applies ``V_r @ ((U_r.T @ Y) / S_r)`` over the singular values above
        ``rank_tol``, so one factorization serves any number of right-hand
        sides. A 1-D ``Y`` yields a 1-D ``X``.
        """
        y_arr = np.asarray(Y, dtype=np.float64)
        squeeze = y_arr.ndim == 1
        Y = as_matrix(y_arr, "Y")
        if self.U.shape[0] != Y.shape[0]:
            raise ShapeMismatch(f"A has {self.U.shape[0]} rows but Y has {Y.shape[0]}")
        r = self.rank
        X = (self.V[:, :r] @ ((self.U[:, :r].T @ Y) / self.S[:r, None]) if r
             else np.zeros((self.V.shape[0], Y.shape[1])))
        return X.ravel() if squeeze else X


def svd(A) -> SvdFactors:
    """Thin SVD of a finite matrix, with the rank cutoff max(rows, cols) * eps * S[0].

    Raises ``NonFinite`` for NaN/Inf input and ``NoConvergence`` (reporting the
    matrix dimensions) if the underlying iteration fails.
    """
    A = as_matrix(A, "A")
    try:
        U, S, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge for {A.shape[0]}x{A.shape[1]} matrix") from exc
    return SvdFactors(U=U, S=S, V=Vt.T, rank_tol=max(A.shape) * EPS * float(S[0]))


def pinv_solve(A, Y) -> np.ndarray:
    """Minimum-norm least-squares solve ``X = pinv(A) @ Y``.

    For consistent underdetermined systems the result has minimum Frobenius
    norm among all solutions; for overdetermined systems it minimizes
    ``||Y - A X||_F``. A 1-D ``Y`` yields a 1-D ``X``. Factors ``A`` on every
    call; to solve repeatedly against one ``A``, keep ``svd(A)`` and call its
    ``solve``.
    """
    return svd(A).solve(Y)


def row_space_projector(A) -> np.ndarray:
    """Orthogonal projector ``V_r @ V_r.T`` onto the row space of ``A``.

    The result is d x d for an s x d input, symmetric and idempotent up to
    floating-point roundoff.
    """
    f = svd(A)
    Vr = f.V[:, :f.rank]
    return Vr @ Vr.T
