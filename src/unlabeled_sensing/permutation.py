"""Permutations, block partitions, and the two structured samplers.

A permutation is stored as an index map where ``map[i]`` is the source row
sent to output row ``i``: row i of P @ A equals row map[i] of A. Samplers take
an explicit ``numpy.random.Generator`` so identical seeds reproduce identical
draws; values are immutable once constructed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate, groupby

import numpy as np

from .errors import InvalidConfig, InvalidK, ShapeMismatch


@dataclass(frozen=True, eq=False)
class Permutation:
    map: np.ndarray

    def __post_init__(self):
        try:
            m = np.asarray(self.map, dtype=np.intp).copy()
        except OverflowError:  # an index beyond the platform integer cannot be in 0..n-1
            raise InvalidConfig("permutation map must be a bijection on 0..n-1") from None
        if m.ndim != 1 or m.size < 1:
            raise InvalidConfig("permutation map must be a non-empty 1-D index array")
        if not np.array_equal(np.sort(m), np.arange(m.size)):
            raise InvalidConfig("permutation map must be a bijection on 0..n-1")
        m.setflags(write=False)
        object.__setattr__(self, "map", m)

    @property
    def n(self) -> int:
        return int(self.map.size)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.intp)
        inv[self.map] = np.arange(self.n)
        return Permutation(inv)

    def to_list(self) -> list[int]:
        return [int(i) for i in self.map]

    def to_json(self) -> str:
        return json.dumps(self.to_list())

    @classmethod
    def from_list(cls, indices) -> "Permutation":
        return cls(list(indices))


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous blocks of row indices; sizes must be positive and sum to n."""

    sizes: tuple[int, ...]
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) == 0 or any(s < 1 for s in sizes):
            raise InvalidConfig(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)
        # Python integers, exact at any size: numpy's int64 cumsum sums (2**62,) * 4 + (12,) to 12
        object.__setattr__(self, "offsets", tuple(accumulate(sizes, initial=0)))

    @property
    def n(self) -> int:
        return self.offsets[-1]

    @property
    def block_count(self) -> int:
        return len(self.sizes)

    def slices(self):
        for i, size in enumerate(self.sizes):
            lo = self.offsets[i]
            yield slice(lo, lo + size)

    @classmethod
    def equal_blocks(cls, n: int, r: int) -> "BlockPartition":
        """n rows split into blocks of size r, with one smaller trailing block."""
        if r < 1 or n < 1:
            raise InvalidConfig(f"need n >= 1 and r >= 1, got n={n}, r={r}")
        sizes = [r] * (n // r)
        if n % r:
            sizes.append(n % r)
        return cls(tuple(sizes))


@dataclass(frozen=True)
class RLocal:
    """Block-diagonal permutation model: rows move only within partition blocks."""

    partition: BlockPartition


@dataclass(frozen=True)
class KSparse:
    """Permutation model displacing exactly k rows (n - k fixed points)."""

    k: int

    def __post_init__(self):
        if self.k < 0 or self.k == 1:
            raise InvalidK(f"no permutation displaces exactly k={self.k} rows")


PermutationModel = RLocal | KSparse


def apply(p: Permutation, A: np.ndarray) -> np.ndarray:
    """Row scrambling: output row i equals input row p.map[i]."""
    A = np.asarray(A)
    if A.shape[0] != p.n:
        raise ShapeMismatch(f"permutation has n={p.n} but matrix has {A.shape[0]} rows")
    return A[p.map]


def sample_rlocal(partition: BlockPartition, rng: np.random.Generator) -> Permutation:
    """Uniform r-local permutation: each block carries an independent uniform shuffle.

    Each run of consecutive equal-size blocks is shuffled row by row with one
    ``rng.permuted`` call, the same draws, in the same order, as one
    ``rng.permutation`` per block.
    """
    out = np.empty(partition.n, dtype=np.intp)
    lo = 0
    for size, run in groupby(partition.sizes):
        hi = lo + size * sum(1 for _ in run)
        out[lo:hi] = rng.permuted(np.arange(lo, hi).reshape(-1, size), axis=1).ravel()
        lo = hi
    return Permutation(out)


def sample_ksparse(n: int, k: int, rng: np.random.Generator) -> Permutation:
    """Uniform permutation with exactly k displaced rows.

    A uniform k-subset of rows carries a uniform derangement of itself (drawn
    by rejection, expected ~e retries); every other row is fixed. The result
    satisfies hamming_distortion(identity, result) == k exactly.
    """
    if k == 1 or k < 0 or k > n:
        raise InvalidK(f"k must satisfy 0 <= k <= n={n} and k != 1, got {k}")
    out = np.arange(n, dtype=np.intp)
    if k == 0:
        return Permutation(out)
    support = np.sort(rng.choice(n, size=k, replace=False))
    while True:
        d = rng.permutation(k)
        if not np.any(d == np.arange(k)):
            break
    out[support] = support[d]
    return Permutation(out)


def hamming_distortion(p: Permutation, q: Permutation) -> int:
    """Number of output rows where the two permutations disagree."""
    if p.n != q.n:
        raise ShapeMismatch(f"permutations have different sizes {p.n} and {q.n}")
    return int(np.count_nonzero(p.map != q.map))
