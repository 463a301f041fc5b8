"""Exact linear assignment: maximize <C, P> over permutation matrices.

The dense solve is delegated to scipy's shortest-augmenting-path solver
(Jonker-Volgenant family, O(n^3)), which returns an exact integral optimum of
the assignment LP. Blockwise solving calls the same kernel once per block and
concatenates the per-block optima into one block-diagonal permutation.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NonFinite, ShapeMismatch
from .permutation import BlockPartition, Permutation


def solve_lap(C) -> tuple[Permutation, float]:
    """Permutation p maximizing sum_i C[i, p.map[i]], and the attained value.

    Ties are broken deterministically per build by the solver's scan order; no
    canonical tie-break is promised.
    """
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] < 1:
        raise ShapeMismatch(f"reward matrix must be square, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise NonFinite("reward matrix contains NaN or Inf entries")
    rows, cols = linear_sum_assignment(C, maximize=True)
    p = Permutation(cols)
    return p, float(C[rows, cols].sum())


def solve_blockwise(C_blocks, partition: BlockPartition) -> Permutation:
    """Concatenated blockwise optima; result is block diagonal under the partition.

    Each block is checked (square of its partition size, finite) and solved
    with the same kernel and tie-breaking as ``solve_lap``; the raw column
    indices go straight into one index map, validated once at the end.
    """
    if len(C_blocks) != partition.block_count:
        raise ShapeMismatch(
            f"got {len(C_blocks)} reward blocks for {partition.block_count} partition blocks")
    out = np.empty(partition.n, dtype=np.intp)
    for block, size, offset in zip(C_blocks, partition.sizes, partition.offsets):
        block = np.asarray(block, dtype=np.float64)
        if block.shape != (size, size):
            raise ShapeMismatch(f"block at offset {offset} must be {size}x{size}, got {block.shape}")
        if not np.isfinite(block).all():
            raise NonFinite(f"reward block at offset {offset} contains NaN or Inf entries")
        out[offset:offset + size] = linear_sum_assignment(block, maximize=True)[1] + offset
    return Permutation(out)
