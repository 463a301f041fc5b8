"""Collapsed linear system and the r-local initialization.

Summing measurement rows within each block of an r-local permutation cancels
the unknown block shuffles, leaving one labelled equation per block:

    B_tilde[i] = sum of B rows in block i,   Y_tilde[i] = sum of Y rows in block i,

so B_tilde @ X_true == Y_tilde holds noiselessly regardless of the block-local
permutation. The r-local initialization is the minimum-norm solution of that
s x d system. The k-sparse start is the identity permutation, which
``solver.solve`` takes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .linalg import as_matrix, pinv_solve
from .permutation import BlockPartition


@dataclass(frozen=True, eq=False)
class CollapsedSystem:
    B_tilde: np.ndarray
    Y_tilde: np.ndarray
    partition: BlockPartition

    @property
    def s(self) -> int:
        return self.partition.block_count


def build_collapsed(B, Y, partition: BlockPartition) -> CollapsedSystem:
    """Per-block row sums of B and Y, in ascending row order within each block."""
    B = as_matrix(B, "B")
    Y = as_matrix(Y, "Y")
    if B.shape[0] != Y.shape[0]:
        raise ShapeMismatch(f"B has {B.shape[0]} rows but Y has {Y.shape[0]}")
    if B.shape[0] != partition.n:
        raise ShapeMismatch(f"partition covers {partition.n} rows but matrices have {B.shape[0]}")
    starts = np.asarray(partition.offsets[:-1], dtype=np.intp)
    return CollapsedSystem(
        B_tilde=np.add.reduceat(B, starts, axis=0),
        Y_tilde=np.add.reduceat(Y, starts, axis=0),
        partition=partition,
    )


def init_rlocal(sys: CollapsedSystem) -> np.ndarray:
    """Minimum-norm solution of the collapsed system.

    With s >= d and a full-rank collapsed matrix this recovers the true signal
    exactly on noiseless data; with s < d it returns the projection of the true
    signal onto the row space of ``B_tilde``.
    """
    return pinv_solve(sys.B_tilde, sys.Y_tilde)
