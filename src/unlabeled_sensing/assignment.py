"""Exact linear assignment: optimize <C, P> over permutation matrices.

A matrix whose rows have distinct best columns needs no search: the map that
sends each row to its best column collects every row's optimum, which bounds
the value of any permutation, so it is an exact optimum. Only a matrix in which
two rows share a best column goes to scipy's shortest-augmenting-path solver
(Jonker-Volgenant family, O(n^3)), which returns an exact integral optimum of
the assignment LP. Blockwise solving runs the same kernel on each run of
equal-size blocks, stacked, and concatenates the per-block optima into one
block-diagonal permutation.

``solve_nearest`` is the permutation step of both solver modes: it matches the
rows of ``Y`` to fitted rows ``Z`` at least total squared distance, over all
permutations or within the blocks of a partition. Each row's best column is its
nearest fitted row. Blocks that fit a memory budget are solved as stacks of
in-place cost matrices by the kernel above. The dense step, and a block past
the budget, asks a KD-tree for the nearest rows when the fit is close, in
O(n log n) time and O(n m) memory at any n; distinct nearest rows are the
optimum outright, with no n x n matrix. A step whose nearest rows collide, or
whose fit is too far for the tree to pay, builds the n x n cost matrix in
place while it fits the budget, and ``solve_lap`` certifies it by its row
argmins or scipy minimizes it with no negated copy. Past the budget no n x n
matrix is built: a scan of blocks of cost rows stands in for a declined tree,
and a warm-started augmenting-path search settles the rows that share a
nearest row, computing the cost rows it scans on demand.

scipy is imported on the first call that needs it, not with this module.
Loading ``scipy.optimize`` and ``scipy.spatial`` costs a fresh process about
0.6 s and 45 MB of resident memory, and most commands never call either: the
theory checks run no assignment, and the blocks of a Gaussian r-local solve
are all certified by their row argmaxes. ``linear_sum_assignment`` and
``cKDTree`` stay module-level names, so every call goes through this module's
globals and a test can still replace them.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .permutation import BlockPartition, Permutation

# The dense step tries the KD-tree first at every n: _tree_pays samples
# TREE_SAMPLE rows and takes the tree up to TREE_FAR_MAX. A step the tree does
# not certify builds the n x n cost matrix while it holds at most
# DENSE_BYTES_MAX bytes (n <= 8192); past the budget a blocked scan builds
# BLOCK_BYTES of cost rows at a time. All four are measured in
# BENCH_nearest_row.json, the tree within the budget in BENCH_tree_in_budget.json.
# A stack of block matrices also holds at most DENSE_BYTES_MAX bytes, and a
# single block larger than that takes the dense step.
DENSE_BYTES_MAX = 2**29
BLOCK_BYTES = 2**25
TREE_SAMPLE = 64
TREE_FAR_MAX = 4.0


def linear_sum_assignment(cost_matrix, maximize=False):
    """``scipy.optimize.linear_sum_assignment``, imported on the first call."""
    from scipy.optimize import linear_sum_assignment as lap
    return lap(cost_matrix, maximize=maximize)


def cKDTree(data):
    """``scipy.spatial.cKDTree`` over the rows of ``data``, imported on the first call."""
    from scipy.spatial import cKDTree as tree
    return tree(data)


def _runs(sizes, max_entries: int):
    """(first block, row offset, size, count) for runs of consecutive equal-size
    blocks, each run holding at most max_entries matrix entries (or one block)."""
    first = lo = 0
    for size, run in groupby(sizes):
        left, per = sum(1 for _ in run), max(1, max_entries // (size * size))
        while left:
            count = min(left, per)
            yield first, lo, size, count
            first, lo, left = first + count, lo + size * count, left - count


def _solve_stack(R: np.ndarray, describe, maximize: bool = True) -> np.ndarray:
    """Optimal column maps, shape (b, s), of a (b, s, s) stack of matrices.

    Raises ``NonFinite(describe(i))`` for the first matrix i holding a NaN or
    Inf, before any argmax. A matrix whose row argmaxes (argmins when not
    ``maximize``) are distinct takes them as its optimum; only the others go to
    ``linear_sum_assignment``.
    """
    finite = np.isfinite(R).all(axis=(1, 2))
    if not finite.all():
        raise NonFinite(describe(int(np.argmin(finite))))
    cols = R.argmax(axis=2) if maximize else R.argmin(axis=2)
    ranked = np.sort(cols, axis=1)
    for i in np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)):
        cols[i] = linear_sum_assignment(R[i], maximize=maximize)[1]
    return cols


def solve_lap(C, maximize: bool = True) -> tuple[Permutation, float]:
    """Permutation p maximizing sum_i C[i, p.map[i]] (minimizing it when
    ``maximize`` is false), and the attained value.

    Ties are broken deterministically per build (by the row argmax or by the
    solver's scan order); no canonical tie-break is promised. Minimizing hands
    ``C`` to scipy as it is, where maximizing makes scipy negate a copy.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] < 1:
        raise ShapeMismatch(f"reward matrix must be square, got shape {C.shape}")
    cols = _solve_stack(C[None], lambda _: "reward matrix contains NaN or Inf entries",
                        maximize)[0]
    return Permutation(cols), float(C[np.arange(C.shape[0]), cols].sum())


def solve_blockwise(C_blocks, partition: BlockPartition) -> Permutation:
    """Concatenated blockwise optima; result is block diagonal under the partition.

    Each block must be square of its partition size and finite. Each run of
    consecutive equal-size blocks is stacked, at most ``DENSE_BYTES_MAX`` bytes
    at a time (a slice of a ``(b, s, s)`` array is used as it is), and solved
    with the kernel of ``solve_lap``; the column indices go straight into one
    index map, validated once at the end.
    """
    if len(C_blocks) != partition.block_count:
        raise ShapeMismatch(
            f"got {len(C_blocks)} reward blocks for {partition.block_count} partition blocks")
    offsets = partition.offsets
    for block, size, offset in zip(C_blocks, partition.sizes, offsets):
        if np.shape(block) != (size, size):
            raise ShapeMismatch(
                f"block at offset {offset} must be {size}x{size}, got {np.shape(block)}")
    out = np.empty(partition.n, dtype=np.intp)
    for first, lo, size, count in _runs(partition.sizes, DENSE_BYTES_MAX // 8):
        stack = np.asarray(C_blocks[first:first + count], dtype=np.float64)
        cols = _solve_stack(stack, lambda i: (
            f"reward block at offset {lo + i * size} contains NaN or Inf entries"))
        out[lo:lo + count * size] = (cols + (lo + size * np.arange(count))[:, None]).ravel()
    return Permutation(out)


def _warm_lap(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """Column map minimizing sum_i C[i, p(i)], C[i, j] = half_norms[j] - <y_i, z_j>,
    started from ``cols``, each row's best column.

    Shortest augmenting paths (Jonker & Volgenant 1987; Crouse 2016, the
    algorithm of scipy's ``linear_sum_assignment``) from a warm start: the
    first row to claim a column keeps it, with duals u_i = C[i, cols[i]] and
    v = 0. They are feasible and tight on every kept edge, so only the rows
    left without a column need a path. A search computes each cost row it
    scans when it scans it, so memory stays O(n m).
    """
    n = Y.shape[0]
    taken, first = np.unique(cols, return_index=True)
    row4col = np.full(n, -1, dtype=np.intp)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col[taken], col4row[first] = first, taken
    u = half_norms[cols] - np.einsum("ij,ij->i", Y, Z[cols])
    v = np.zeros(n)
    dist, hv, r = np.empty(n), np.empty(n), np.empty(n)
    better = np.empty(n, dtype=bool)
    path = np.empty(n, dtype=np.intp)
    for cur in np.flatnonzero(col4row < 0):
        # dist[j]: the shortest reduced path from row cur to column j found so
        # far; hv = half_norms - v, set to inf once column j is scanned.
        dist.fill(np.inf)
        np.subtract(half_norms, v, out=hv)
        i, low = cur, 0.0
        scanned, lows = [], []
        while True:
            np.matmul(Z, Y[i], out=r)
            np.subtract(hv, r, out=r)
            r += low - u[i]
            np.less(r, dist, out=better)
            np.copyto(dist, r, where=better)
            np.copyto(path, i, where=better)
            j = int(dist.argmin())
            low = float(dist[j])
            if row4col[j] >= 0:
                # among equally short columns, end the search at a free one
                np.equal(dist, low, out=better)
                if np.count_nonzero(better) > 1:
                    better &= row4col < 0
                    if better.any():
                        j = int(better.argmax())
            dist[j] = hv[j] = np.inf
            scanned.append(j)
            lows.append(low)
            if row4col[j] < 0:
                break
            i = row4col[j]
        J, L = np.asarray(scanned), np.asarray(lows)
        u[cur] += low
        u[row4col[J[:-1]]] += low - L[:-1]
        v[J] -= low - L
        j = J[-1]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _cost(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray) -> np.ndarray:
    """Cost matrix half_norms[j] - <y_i, z_j>, built in place: the reward
    <y_i, z_j> - half_norms[j] negated bit for bit."""
    cost = Y @ Z.T
    np.subtract(half_norms, cost, out=cost)
    return cost


@np.errstate(over="ignore", invalid="ignore")
def _tree_pays(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray) -> bool:
    """Whether a KD-tree is likely to find the nearest fitted rows faster than
    the cost rows would, judged from TREE_SAMPLE evenly spaced rows of ``Y``.
    With at most TREE_SAMPLE rows the sample would be the whole matrix, so the
    step builds the cost instead. A sample whose distances overflow reads NaN
    and declines the tree, leaving the cost route to report any overflow.

    A query must search every cell that a ball of the nearest distance d1 meets,
    about (1 + d1 / d2)^m of them when the second-nearest row lies at d2. The
    step takes the tree while m log(1 + median d1 / d2) <= TREE_FAR_MAX.
    """
    n, m = Y.shape
    if n <= TREE_SAMPLE:
        return False
    sample = Y[np.arange(TREE_SAMPLE) * n // TREE_SAMPLE]
    # The sample's cost rows plus its half squared norms, built here so that
    # _cost runs only for cost matrices.
    half_sq = sample @ Z.T
    np.subtract(half_norms, half_sq, out=half_sq)
    half_sq += 0.5 * np.einsum("ij,ij->i", sample, sample)[:, None]
    d1, d2 = np.partition(half_sq, 1, axis=1)[:, :2].clip(min=0).T
    ratio = np.divide(d1, d2, out=np.ones_like(d1), where=d2 > 0)
    return bool(m * np.log1p(np.sqrt(np.median(ratio))) <= TREE_FAR_MAX)


def _nearest_blocked(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray) -> np.ndarray:
    """Each row's least-cost column, from cost rows built BLOCK_BYTES at a time."""
    n = Y.shape[0]
    rows = max(1, BLOCK_BYTES // (8 * n))
    cols = np.empty(n, dtype=np.intp)
    for lo in range(0, n, rows):
        cost = _cost(Y[lo:lo + rows], Z, half_norms)
        if not np.isfinite(cost).all():
            raise NonFinite("cost matrix contains NaN or Inf entries")
        cols[lo:lo + rows] = cost.argmin(axis=1)
    return cols


def _solve_dense(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray) -> Permutation:
    """The permutation minimizing sum_i C[i, p(i)], C[i, j] = half_norms[j] - <y_i, z_j>,
    over all permutations: the dense step of ``solve_nearest``."""
    n = Y.shape[0]
    dense = 8 * n * n <= DENSE_BYTES_MAX
    cols = None
    if _tree_pays(Y, Z, half_norms):
        dist, cols = cKDTree(Z).query(Y)
        if not np.isfinite(dist).all():
            raise NonFinite("nearest-row distances contain NaN or Inf entries")
    elif not dense:
        cols = _nearest_blocked(Y, Z, half_norms)
    if cols is not None and np.unique(cols).size == n:
        return Permutation(cols)
    if dense:
        return solve_lap(_cost(Y, Z, half_norms), maximize=False)[0]
    return Permutation(_warm_lap(Y, Z, half_norms, cols))


def solve_nearest(Y: np.ndarray, Z: np.ndarray,
                  partition: BlockPartition | None = None) -> Permutation:
    """Permutation p minimizing sum_i ||y_i - z_{p.map[i]}||^2 over all permutations,
    or over those that are block diagonal under ``partition``.

    ``Y`` and ``Z`` are finite (n, m) arrays, and ``partition`` covers their n
    rows (else ShapeMismatch). Equivalently p maximizes the reward
    sum_i <y_i, z_p(i)> - ||z_p(i)||^2 / 2, or minimizes the cost
    ``||z_j||^2 / 2 - <y_i, z_j>``, bit for bit the reward negated.

    Each row's best column is its nearest fitted row. Blocks whose cost
    matrices fit ``DENSE_BYTES_MAX`` are stacked by runs of equal size, at most
    ``Y.size`` entries at a time, and each stack is settled by the kernel of
    ``solve_blockwise``. The dense step, without a partition or for a block
    past the budget, asks a KD-tree for the nearest rows when ``_tree_pays``,
    and distinct ones are the optimum. Otherwise, while the cost matrix fits
    the budget, it is built once and goes to ``solve_lap``, whose row argmins
    certify it or else scipy minimizes it. Past the budget a blocked scan
    stands in for a declined tree, and ``_warm_lap`` settles the rows that
    lost their nearest row. NonFinite if a squared norm, distance or cost
    overflows; a stacked block's error names its row offset in ``Y``.
    """
    n, m = Y.shape
    if partition is not None and partition.n != n:
        raise ShapeMismatch(f"partition covers {partition.n} rows but Y has {n}")
    half_norms = 0.5 * np.einsum("ij,ij->i", Z, Z)
    if not np.isfinite(half_norms).all():
        raise NonFinite("fitted rows' squared norms contain NaN or Inf entries")
    if partition is None:
        return _solve_dense(Y, Z, half_norms)
    out = np.empty(n, dtype=np.intp)
    for _, lo, size, count in _runs(partition.sizes, min(Y.size, DENSE_BYTES_MAX // 8)):
        hi = lo + size * count
        if 8 * size * size > DENSE_BYTES_MAX:  # then count == 1
            out[lo:hi] = _solve_dense(Y[lo:hi], Z[lo:hi], half_norms[lo:hi]).map + lo
            continue
        fit = Z[lo:hi].reshape(count, size, m)
        cost = Y[lo:hi].reshape(count, size, m) @ fit.transpose(0, 2, 1)
        np.subtract(half_norms[lo:hi].reshape(count, 1, size), cost, out=cost)
        cols = _solve_stack(cost, lambda i: (
            f"cost block at offset {lo + i * size} contains NaN or Inf entries"), maximize=False)
        out[lo:hi] = (cols + (lo + size * np.arange(count))[:, None]).ravel()
    return Permutation(out)
