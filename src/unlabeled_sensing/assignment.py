"""Exact linear assignment: optimize <C, P> over permutation matrices.

A matrix whose rows have distinct best columns needs no search: the map that
sends each row to its best column collects every row's optimum, which bounds
the value of any permutation, so it is an exact optimum. Only a matrix in which
two rows share a best column goes to scipy's shortest-augmenting-path solver
(Jonker-Volgenant family, O(n^3)), which returns an exact integral optimum of
the assignment LP. ``solve_blockwise`` runs the same kernel on each block on
its own and concatenates the per-block optima into one block-diagonal
permutation.

``solve_nearest`` is the permutation step of both solver modes: it matches the
rows of ``Y`` to fitted rows ``Z`` at least total squared distance, over all
permutations or within the blocks of a partition. Each row's best column is its
nearest fitted row. ``_cost`` builds every cost block, a few rows, a stack of
blocks or a whole matrix, in place. Blocks that fit a memory budget are solved
as stacks of cost matrices by the kernel above. ``_solve_dense`` routes the
dense step, and a block past the budget: it finds the nearest rows in O(n m)
memory at any n, by a KD-tree when the fit is close, else by a scan of about
1 MiB of cost rows at a time. Distinct nearest rows are the optimum outright. A
step whose nearest rows collide starts from the nearest-row matching: augmenting
row reduction, then shortest augmenting paths, both computing the cost rows they
scan on demand, so no n x n matrix is built. Only a step that fits the budget
and that the row reduction leaves far from done builds its n x n cost matrix,
and scipy minimizes it with no negated copy.

scipy is imported on the first call that needs it, not with this module.
Loading ``scipy.optimize`` and ``scipy.spatial`` costs a fresh process about
0.6 s and 45 MB of resident memory, and most commands never call either: the
theory checks run no assignment, the blocks of a Gaussian r-local solve are
all certified by their row argmaxes, and a k-sparse solve away from k = n
mostly settles every step without scipy's LAP. ``linear_sum_assignment`` and
``cKDTree`` stay module-level names, so every call goes through this module's
globals and a test can still replace them.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import groupby

import numpy as np

from .errors import NonFinite, ShapeMismatch
from .permutation import BlockPartition, Permutation

# The dense step tries the KD-tree first at every n: _tree_pays samples
# TREE_SAMPLE rows and takes the tree up to TREE_FAR_MAX (BENCH_nearest_row.json,
# BENCH_tree_in_budget.json); a declined tree is replaced by a scan that builds
# BLOCK_BYTES of cost rows at a time, small enough to stay in a 2 MiB L2 cache,
# but never fewer than BLOCK_ROWS_MIN rows, so the GEMMs stay efficient at
# n = 20000; the tree's sample is built in the same blocks
# (BENCH_cache_blocks.json). A step whose nearest rows collide runs at most
# ARR_STEPS * n steps of augmenting row reduction, and shortest augmenting paths
# settle the rows it leaves free. But a step whose cost matrix holds at most
# DENSE_BYTES_MAX bytes (n <= 8192) and that row reduction leaves with more than
# ARR_LEFT_MAX * n rows free builds that matrix for scipy, which is 4-6x faster
# than the paths near k = n. The two ARR constants are measured in
# BENCH_row_reduction.json. A stack of block matrices also holds at most
# DENSE_BYTES_MAX bytes, and a single block larger than that takes the dense
# step.
DENSE_BYTES_MAX = 2**29
BLOCK_BYTES = 2**20
BLOCK_ROWS_MIN = 16
TREE_SAMPLE = 64
TREE_FAR_MAX = 4.0
ARR_STEPS = 2
ARR_LEFT_MAX = 1 / 32


def linear_sum_assignment(cost_matrix, maximize=False):
    """``scipy.optimize.linear_sum_assignment``, imported on the first call."""
    from scipy.optimize import linear_sum_assignment as lap
    return lap(cost_matrix, maximize=maximize)


def cKDTree(data):
    """``scipy.spatial.cKDTree`` over the rows of ``data``, imported on the first call."""
    from scipy.spatial import cKDTree as tree
    return tree(data)


def _runs(sizes, max_entries: int):
    """(row offset, size, count) for runs of consecutive equal-size blocks,
    each run holding at most max_entries matrix entries (or one block)."""
    lo = 0
    for size, run in groupby(sizes):
        left, per = sum(1 for _ in run), max(1, max_entries // (size * size))
        while left:
            count = min(left, per)
            yield lo, size, count
            lo, left = lo + size * count, left - count


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

    Each block must be square of its partition size and finite. The shapes are
    checked first; then each block is solved on its own by the kernel of
    ``solve_lap`` and its column indices go straight into one index map,
    validated once at the end.
    """
    if len(C_blocks) != partition.block_count:
        raise ShapeMismatch(
            f"got {len(C_blocks)} reward blocks for {partition.block_count} partition blocks")
    for block, size, offset in zip(C_blocks, partition.sizes, partition.offsets):
        if np.shape(block) != (size, size):
            raise ShapeMismatch(
                f"block at offset {offset} must be {size}x{size}, got {np.shape(block)}")
    out = np.empty(partition.n, dtype=np.intp)
    for block, size, offset in zip(C_blocks, partition.sizes, partition.offsets):
        cols = _solve_stack(np.asarray(block, dtype=np.float64)[None], lambda _: (
            f"reward block at offset {offset} contains NaN or Inf entries"))
        out[offset:offset + size] = cols[0] + offset
    return Permutation(out)


def _reduce_rows(Y: np.ndarray, Z: np.ndarray, prices: np.ndarray, u: np.ndarray,
                 row4col: np.ndarray, col4row: np.ndarray) -> list[int]:
    """Augmenting row reduction (Jonker & Volgenant 1987) of the free rows of
    ``col4row``, in place, for at most ARR_STEPS * n steps; the rows left free.

    A step takes a free row i and its least reduced-cost column j1. With a gap
    to its second-best column j2, it raises p[j1] by that gap and takes j1, and
    the row that held j1 is processed next: an auction with zero increment. On
    a tie it takes a free column among its minimizers, or else j2, and the row
    that held j2 waits at the back of the queue. Prices only rise, only on the
    column a row takes, and float subtraction is monotone, so every other
    assigned row still holds a minimizer of its reduced costs. A raise that
    rounds j1 above j2 for row i itself is lowered an ulp at a time until j1 is
    again a minimizer. Ties can displace rows in a cycle forever, which the
    step cap ends. Each step's cost row is ``Y[i] @ ZT``, read from one
    C-contiguous copy ``ZT`` of ``Z.T`` made per call: faster than
    ``Z @ Y[i]`` on the row-major ``Z``, and rounded differently in the last
    bits.
    """
    n = Y.shape[0]
    ZT = np.ascontiguousarray(Z.T)
    free = deque(np.flatnonzero(col4row < 0).tolist())
    dot, red = np.empty(n), np.empty(n)
    tied = np.empty(n, dtype=bool)
    for _ in range(ARR_STEPS * n):
        if not free:
            break
        i = free.popleft()
        np.matmul(Y[i], ZT, out=dot)
        np.subtract(prices, dot, out=red)
        j1 = int(red.argmin())
        u1 = float(red[j1])
        red[j1] = np.inf
        j2 = int(red.argmin())
        u2 = float(red[j2])
        if not (math.isfinite(u1) and math.isfinite(u2)):
            raise NonFinite("cost matrix contains NaN or Inf entries")
        if u1 < u2:
            d1 = float(dot[j1])
            price = float(prices[j1]) + (u2 - u1)
            while price - d1 > u2:
                price = math.nextafter(price, -math.inf)
            prices[j1] = price
            u[i] = price - d1
        else:
            u[i] = u1
            if row4col[j1] >= 0:
                red[j1] = u1
                np.equal(red, u1, out=tied)
                tied &= row4col < 0
                j1 = int(tied.argmax()) if tied.any() else j2
        i0 = int(row4col[j1])
        row4col[j1], col4row[i] = i, j1
        if i0 >= 0:
            col4row[i0] = -1
            if u1 < u2:
                free.appendleft(i0)
            else:
                free.append(i0)
    return list(free)


def _augment(Y: np.ndarray, Z: np.ndarray, prices: np.ndarray, u: np.ndarray,
             row4col: np.ndarray, col4row: np.ndarray, free: list[int]) -> None:
    """Assign each row of ``free`` by a shortest augmenting path, in place.

    The paths of Jonker & Volgenant (1987) and Crouse (2016), the algorithm of
    scipy's ``linear_sum_assignment``: a Dijkstra search over reduced costs
    from the free row to a free column, then a dual update that keeps the
    duals feasible and tight on every assigned edge. Each scanned cost row is
    ``Y[i] @ ZT``, read from one C-contiguous copy ``ZT`` of ``Z.T`` made per
    call, as in ``_reduce_rows``.
    """
    n = Y.shape[0]
    ZT = np.ascontiguousarray(Z.T)
    dist, hv, r = np.empty(n), np.empty(n), np.empty(n)
    better = np.empty(n, dtype=bool)
    path = np.empty(n, dtype=np.intp)
    for cur in free:
        # dist[j]: the shortest reduced path from row cur to column j found so
        # far; hv holds the prices, set to inf once column j is scanned.
        dist.fill(np.inf)
        np.copyto(hv, prices)
        i, low = cur, 0.0
        scanned, lows = [], []
        while True:
            np.matmul(Y[i], ZT, out=r)
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
        prices[J] += low - L
        j = J[-1]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break


def _cost(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray) -> np.ndarray:
    """Cost half_norms[j] - <y_i, z_j> of the rows of ``Y`` against those of
    ``Z``, built in place: the reward <y_i, z_j> - half_norms[j] negated bit for
    bit. Stacks of b blocks, ``Y`` and ``Z`` of shape (b, s, m) and
    ``half_norms`` of shape (b, s), give the (b, s, s) stack of block costs."""
    cost = Y @ np.swapaxes(Z, -1, -2)
    np.subtract(half_norms[..., None, :], cost, out=cost)
    return cost


def _block_rows(n: int) -> int:
    """Rows per block of cost rows of length n: BLOCK_BYTES of them, but at
    least BLOCK_ROWS_MIN."""
    return max(BLOCK_ROWS_MIN, BLOCK_BYTES // (8 * n))


@np.errstate(over="ignore", invalid="ignore")
def _tree_pays(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray) -> bool:
    """Whether a KD-tree is likely to find the nearest fitted rows faster than
    the cost rows would, judged from TREE_SAMPLE evenly spaced rows of ``Y``,
    whose cost rows are built in the blocks of the scan. With at most
    TREE_SAMPLE rows the sample would be the whole matrix, so the step builds
    the cost instead. A sample whose distances overflow reads NaN and declines
    the tree, leaving the cost route to report any overflow.

    A query must search every cell that a ball of the nearest distance d1 meets,
    about (1 + d1 / d2)^m of them when the second-nearest row lies at d2. The
    step takes the tree while m log(1 + median d1 / d2) <= TREE_FAR_MAX.
    """
    n, m = Y.shape
    if n <= TREE_SAMPLE:
        return False
    sample = Y[np.arange(TREE_SAMPLE) * n // TREE_SAMPLE]
    nearest = np.empty((TREE_SAMPLE, 2))
    rows = _block_rows(n)
    for lo in range(0, TREE_SAMPLE, rows):
        block = sample[lo:lo + rows]
        half_sq = _cost(block, Z, half_norms)
        half_sq += 0.5 * np.einsum("ij,ij->i", block, block)[:, None]
        nearest[lo:lo + rows] = np.partition(half_sq, 1, axis=1)[:, :2]
    d1, d2 = nearest.clip(min=0).T
    ratio = np.divide(d1, d2, out=np.ones_like(d1), where=d2 > 0)
    return bool(m * np.log1p(np.sqrt(np.median(ratio))) <= TREE_FAR_MAX)


@np.errstate(over="ignore", invalid="ignore")
def _nearest_blocked(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray) -> np.ndarray:
    """Each row's least-cost column, from blocks of ``_block_rows(n)`` cost rows.

    By Cauchy-Schwarz every cost entry is at most ymax * zmax + max(half_norms)
    in size, with ymax and zmax the largest row norms of ``Y`` and ``Z``. When
    that is below 2^1000, no entry, nor any partial sum of its dot product, can
    overflow, so the blocks are not checked; otherwise (or if a norm is NaN or
    Inf) each block is checked entry by entry, and NonFinite is raised for the
    first that holds a NaN or Inf.
    """
    n = Y.shape[0]
    rows = _block_rows(n)
    h_max = half_norms.max()
    y_max = np.sqrt(np.einsum("ij,ij->i", Y, Y).max())
    checked = not y_max * np.sqrt(2 * h_max) + h_max < 2.0**1000
    cols = np.empty(n, dtype=np.intp)
    for lo in range(0, n, rows):
        cost = _cost(Y[lo:lo + rows], Z, half_norms)
        if checked and not np.isfinite(cost).all():
            raise NonFinite("cost matrix contains NaN or Inf entries")
        cols[lo:lo + rows] = cost.argmin(axis=1)
    return cols


def _solve_dense(Y: np.ndarray, Z: np.ndarray, half_norms: np.ndarray) -> Permutation:
    """The permutation minimizing sum_i C[i, p(i)], C[i, j] = half_norms[j] - <y_i, z_j>,
    over all permutations: the dense step of ``solve_nearest``.

    Each row's best column comes from the KD-tree when ``_tree_pays``, else from
    the blocked scan, and distinct best columns are the optimum. Otherwise the
    first row to claim a column keeps it. The duals are column prices
    p = half_norms - v, starting at half_norms (v = 0), and row values u, with
    u_i = C[i, x_i] - v[x_i] for a row holding column x_i: row i's reduced cost
    at column j is p[j] - <y_i, z_j> - u_i. ``_reduce_rows`` settles most free
    rows and ``_augment`` the rest. Both keep every assigned row holding a
    minimizer of C[i, .] - v, so the duals stay feasible and tight on every
    assigned edge (complementary slackness), and the map they end with is an
    exact optimum. Each computes a cost row when it processes or scans that
    row, so memory stays O(n m). When the cost matrix fits DENSE_BYTES_MAX and
    the row reduction leaves more than ARR_LEFT_MAX * n rows free, that matrix
    is built instead and goes to scipy through ``solve_lap``.
    """
    n = Y.shape[0]
    if _tree_pays(Y, Z, half_norms):
        dist, cols = cKDTree(Z).query(Y)
        if not np.isfinite(dist).all():
            raise NonFinite("nearest-row distances contain NaN or Inf entries")
    else:
        cols = _nearest_blocked(Y, Z, half_norms)
    taken, first = np.unique(cols, return_index=True)
    if taken.size == n:
        return Permutation(cols)
    row4col = np.full(n, -1, dtype=np.intp)
    col4row = np.full(n, -1, dtype=np.intp)
    row4col[taken], col4row[first] = first, taken
    prices = half_norms.copy()
    u = np.zeros(n)
    u[first] = half_norms[taken] - np.einsum("ij,ij->i", Y[first], Z[taken])
    free = _reduce_rows(Y, Z, prices, u, row4col, col4row)
    if 8 * n * n <= DENSE_BYTES_MAX and len(free) > ARR_LEFT_MAX * n:
        return solve_lap(_cost(Y, Z, half_norms), maximize=False)[0]
    _augment(Y, Z, prices, u, row4col, col4row, free)
    return Permutation(col4row)


def solve_nearest(Y: np.ndarray, Z: np.ndarray,
                  partition: BlockPartition | None = None) -> Permutation:
    """Permutation p minimizing sum_i ||y_i - z_{p.map[i]}||^2 over all permutations,
    or over those that are block diagonal under ``partition``.

    ``Y`` and ``Z`` are finite (n, m) arrays with n >= 1, and ``partition``
    covers their n rows (else ShapeMismatch). Equivalently p maximizes the reward
    sum_i <y_i, z_p(i)> - ||z_p(i)||^2 / 2, or minimizes the cost
    ``||z_j||^2 / 2 - <y_i, z_j>``, bit for bit the reward negated.

    Each row's best column is its nearest fitted row. Blocks whose cost
    matrices fit ``DENSE_BYTES_MAX`` are stacked by runs of equal size, at most
    ``Y.size`` entries at a time, and each stack is settled by the kernel of
    ``solve_lap``. The dense step, without a partition or for a block
    past the budget, is ``_solve_dense``: it asks a KD-tree for the nearest
    rows when ``_tree_pays``, else scans blocks of cost rows, and distinct
    nearest rows are the optimum. Otherwise row reduction and augmenting paths
    settle the rows that lost their nearest row; only when the cost matrix fits
    the budget and the row reduction leaves the step far from done is that
    matrix built, once, for scipy through ``solve_lap``.
    NonFinite if a squared norm, distance or cost overflows; a block's error
    names its row offset in ``Y``.
    """
    if Y.ndim != 2 or Z.shape != Y.shape or Y.shape[0] < 1:
        raise ShapeMismatch(f"Y and Z must be (n, m) arrays of one shape with n >= 1, "
                            f"got {Y.shape} and {Z.shape}")
    n, m = Y.shape
    if partition is not None and partition.n != n:
        raise ShapeMismatch(f"partition covers {partition.n} rows but Y has {n}")
    half_norms = 0.5 * np.einsum("ij,ij->i", Z, Z)
    if not np.isfinite(half_norms).all():
        raise NonFinite("fitted rows' squared norms contain NaN or Inf entries")
    if partition is None:
        return _solve_dense(Y, Z, half_norms)
    out = np.empty(n, dtype=np.intp)
    for lo, size, count in _runs(partition.sizes, min(Y.size, DENSE_BYTES_MAX // 8)):
        hi = lo + size * count
        if 8 * size * size > DENSE_BYTES_MAX:  # then count == 1
            try:
                block = _solve_dense(Y[lo:hi], Z[lo:hi], half_norms[lo:hi])
            except NonFinite:
                raise NonFinite(f"cost block at offset {lo} contains NaN or Inf entries") from None
            out[lo:hi] = block.map + lo
            continue
        cost = _cost(Y[lo:hi].reshape(count, size, m), Z[lo:hi].reshape(count, size, m),
                     half_norms[lo:hi].reshape(count, size))
        cols = _solve_stack(cost, lambda i: (
            f"cost block at offset {lo + i * size} contains NaN or Inf entries"), maximize=False)
        out[lo:hi] = (cols + (lo + size * np.arange(count))[:, None]).ravel()
    return Permutation(out)
