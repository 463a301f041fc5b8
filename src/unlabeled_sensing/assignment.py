"""Exact linear assignment: maximize <C, P> over permutation matrices.

A reward whose rows have distinct best columns needs no search: the map that
sends each row to its best column collects every row's maximum, which bounds
the value of any permutation, so it is an exact optimum. Only a reward in which
two rows share a best column goes to scipy's shortest-augmenting-path solver
(Jonker-Volgenant family, O(n^3)), which returns an exact integral optimum of
the assignment LP. Blockwise solving runs the same kernel on each run of
equal-size blocks, stacked, and concatenates the per-block optima into one
block-diagonal permutation.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NonFinite, ShapeMismatch
from .permutation import BlockPartition, Permutation


def _solve_stack(R: np.ndarray, describe) -> np.ndarray:
    """Optimal column maps, shape (b, s), of a (b, s, s) stack of rewards.

    Raises ``NonFinite(describe(i))`` for the first matrix i holding a NaN or
    Inf, before any argmax. A matrix whose row argmaxes are distinct takes them
    as its optimum; only the others go to ``linear_sum_assignment``.
    """
    finite = np.isfinite(R).all(axis=(1, 2))
    if not finite.all():
        raise NonFinite(describe(int(np.argmin(finite))))
    cols = R.argmax(axis=2)
    ranked = np.sort(cols, axis=1)
    for i in np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1)):
        cols[i] = linear_sum_assignment(R[i], maximize=True)[1]
    return cols


def solve_lap(C) -> tuple[Permutation, float]:
    """Permutation p maximizing sum_i C[i, p.map[i]], and the attained value.

    Ties are broken deterministically per build (by the row argmax or by the
    solver's scan order); no canonical tie-break is promised.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] < 1:
        raise ShapeMismatch(f"reward matrix must be square, got shape {C.shape}")
    cols = _solve_stack(C[None], lambda _: "reward matrix contains NaN or Inf entries")[0]
    return Permutation(cols), float(C[np.arange(C.shape[0]), cols].sum())


def solve_blockwise(C_blocks, partition: BlockPartition) -> Permutation:
    """Concatenated blockwise optima; result is block diagonal under the partition.

    Each block must be square of its partition size and finite. Each run of
    consecutive equal-size blocks is stacked (a slice of a ``(b, s, s)`` array
    is used as it is) and solved with the kernel of ``solve_lap``; the column
    indices go straight into one index map, validated once at the end.
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
    first = 0
    for size, run in groupby(partition.sizes):
        count = sum(1 for _ in run)
        stack = np.asarray(C_blocks[first:first + count], dtype=np.float64)
        cols = _solve_stack(stack, lambda i: (
            f"reward block at offset {offsets[first + i]} contains NaN or Inf entries"))
        lo = offsets[first]
        out[lo:lo + count * size] = (cols + (lo + size * np.arange(count))[:, None]).ravel()
        first += count
    return Permutation(out)
