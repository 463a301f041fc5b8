"""Dense matrix kernels the rest of the package relies on.

Thin SVD, Moore-Penrose pseudoinverse solves and orthogonal projectors onto
row spaces. Everything here is a pure function of float64 arrays. ``svd``
factors a tall, large matrix (rows >= ``CHOLQR_MIN_ASPECT`` * cols and at
least ``CHOLQR_MIN_ENTRIES`` entries) by CholeskyQR2, in which every operation
on the tall matrix is a matrix product (Fukaya, Nakatsukasa, Yanagisawa &
Yamamoto, "CholeskyQR2: a simple and communication-avoiding algorithm for
computing a tall-skinny QR factorization", ScalA 2014; Yamamoto et al.,
"Roundoff error analysis of the CholeskyQR2 algorithm", ETNA 2015). It hands
every other matrix, and a tall one that CholeskyQR2 cannot factor accurately,
to LAPACK's gesdd via ``numpy.linalg``. The contracts (finiteness checks, rank
tolerance, minimum-norm semantics) are owned by this module, and so are
``blas_threads``, which sets how many threads that LAPACK's BLAS runs, and
``blas_for``, the rule that picks that count for a command from the size of
its largest matrix.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite, ShapeMismatch

# Relative rank cutoff: singular values at or below max(rows, cols) * eps * S[0]
# count as zero.
EPS = float(np.finfo(np.float64).eps)

# The most entries a matrix may have for ``blas_for`` to run its command on one
# BLAS thread. The limit was set where gesdd of a tall matrix stopped being
# faster on one thread; now that CholeskyQR2 factors those, two reasons keep
# the pin (2-core Xeon VM, OpenBLAS 0.3.31). ``bench --threads 2`` runs two
# solves at once, and at two BLAS threads each they ask for four threads on two
# cores: a k-sparse sweep at n = 2000, d = 50 took 0.12 s pinned against 0.15 s
# (medians of one probe of 12 alternating runs). And a matrix that is not tall
# still goes to gesdd, whose bits change with the thread count (1000x300 did).
# Without the pin the fastest ksparse_sweep op was the same (0.039-0.043 s).
BLAS_SERIAL_MAX = 2**19

# ``svd`` factors a matrix by CholeskyQR2 when rows >= CHOLQR_MIN_ASPECT * cols
# and it has at least CHOLQR_MIN_ENTRIES entries. On a 2-core Xeon VM with
# OpenBLAS 0.3.31, gesdd was the faster of the two below 10^4 entries (200x10:
# 0.05 against 0.10 ms; 400x20: 0.22 against 0.24 ms), the two were even at
# 2^14 on one BLAS thread (512x32: 0.43 against 0.45 ms; 0.90 against 0.47 ms
# on two), and CholeskyQR2 was ahead above it (2000x50: 3.3 against 1.9 ms;
# 20000x50: 46 against 12 ms, both on one thread).
CHOLQR_MIN_ASPECT = 4
CHOLQR_MIN_ENTRIES = 2**14
# CholeskyQR2 falls back to gesdd when its singular values put cond(A) at this
# or above. The first Gram matrix A^T A has condition number cond(A)^2, so Q1
# drifts from orthonormal by about eps * cond(A)^2, and the second pass repairs
# that only while it stays well below 1 (ETNA 2015 above).
CHOLQR_MAX_COND = 1e6


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


def _cholqr2(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Thin SVD ``(U, S, Vt)`` of a tall ``A`` by CholeskyQR2, or None when it cannot be trusted.

    R1 = chol(A^T A) and Q1 = A R1^-1, then R2 = chol(Q1^T Q1), so that
    A = Q2 R2 R1 with Q2 = Q1 R2^-1 orthonormal to working precision. The
    small SVD R2 R1 = U_R S Vt gives U = Q2 U_R, formed as Q1 (R2^-1 U_R) so
    that Q2 is never built. None when A^T A overflows or has a column norm
    near the underflow range, when a Cholesky factorization fails, or when
    the singular values put cond(A) at ``CHOLQR_MAX_COND`` or above.
    """
    rows = A.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A.T @ A
        if not (np.all(np.isfinite(gram))
                and gram.diagonal().min() >= rows * np.finfo(np.float64).tiny / EPS):
            return None
        try:
            L1 = np.linalg.cholesky(gram)
            Q1 = A @ np.linalg.inv(L1).T
            L2 = np.linalg.cholesky(Q1.T @ Q1)
            R = L2.T @ L1.T
            if not np.all(np.isfinite(R)):
                return None
            U_R, S, Vt = np.linalg.svd(R)
        except np.linalg.LinAlgError:
            return None
    if not S[-1] * CHOLQR_MAX_COND > S[0]:
        return None
    return Q1 @ (np.linalg.inv(L2).T @ U_R), S, Vt


def svd(A) -> SvdFactors:
    """Thin SVD of a finite matrix, with the rank cutoff max(rows, cols) * eps * S[0].

    A matrix with rows >= ``CHOLQR_MIN_ASPECT`` * cols and at least
    ``CHOLQR_MIN_ENTRIES`` entries is factored by CholeskyQR2 (see
    ``_cholqr2``), whose every step on the tall matrix is a matrix product:
    with OpenBLAS 0.3.31 its factors had the same bits at one and two BLAS
    threads where gesdd's did not. When ``A^T A`` overflows or nears the
    underflow range, either Cholesky factorization fails, or the singular
    values put cond(A) at ``CHOLQR_MAX_COND`` or above (a rank-deficient
    ``A`` among them), and for every other shape, the factors come from
    LAPACK's gesdd.

    Raises ``NonFinite`` for NaN/Inf input and ``NoConvergence`` (reporting the
    matrix dimensions) if the underlying iteration fails.
    """
    A = as_matrix(A, "A")
    rows, cols = A.shape
    factors = (_cholqr2(A) if rows >= CHOLQR_MIN_ASPECT * cols and A.size >= CHOLQR_MIN_ENTRIES
               else None)
    try:
        U, S, Vt = factors or np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD did not converge for {rows}x{cols} matrix") from exc
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


def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set thread-count functions of the OpenBLAS numpy loaded, or None.

    Looks in numpy's bundled ``numpy.libs`` for an ``openblas`` library with
    the ``scipy_openblas...64_`` or ``openblas...`` symbol names; a numpy built
    against another BLAS, or installed without that directory, has none.
    """
    import ctypes
    import glob
    import os
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def blas_threads(count: int) -> Iterator[bool]:
    """Run the block with the OpenBLAS numpy loaded set to ``count`` threads.

    Yields whether it could: False, with nothing changed, when the library or
    its thread-count functions cannot be found. On exit, also when the block
    raises, the count the library had before is restored. The count is
    process-wide: BLAS calls from every thread run at ``count`` during the
    block, and two threads that enter the block at once can each restore the
    count the other set. Enter it once, before any worker thread starts.
    """
    controls = _openblas()
    if controls is None:
        yield False
        return
    get, put = controls
    before = get()
    put(count)
    try:
        yield True
    finally:
        put(before)


def blas_for(entries: int) -> AbstractContextManager[bool]:
    """``blas_threads(1)`` for a command whose largest matrix has ``entries`` entries.

    At most ``BLAS_SERIAL_MAX`` entries, the block runs on one BLAS thread;
    above that it yields False and leaves BLAS alone. Enter it once per
    command, around all of its solves and before any worker thread starts, as
    ``blas_threads`` asks.
    """
    return blas_threads(1) if entries <= BLAS_SERIAL_MAX else nullcontext(False)
