"""Ordered-pair bookkeeping for fully connected message passing.

Edges are kept receiver-major: all pairs (i -> j) grouped by receiver j
with senders ascending. That layout makes the three gather/scatter
patterns cheap and deterministic:

  * receiver features = each node row repeated (N-1) times,
  * sender features   = receiver features permuted by the transpose map
    (which is its own inverse), or the node rows gathered directly by
    `sender_rows`,
  * incoming-edge sums = contiguous fixed-order segment sums.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DataError


def _pair_position(i: int, j: int, n: int) -> int:
    """Index of ordered pair (i -> j) in the receiver-major list."""
    return j * (n - 1) + (i if i < j else i - 1)


@lru_cache(maxsize=64)
def pair_index(n_nodes: int, batch: int = 1):
    """Cached index bundle for a batch of fully connected n-node graphs."""
    return PairIndex(n_nodes, batch)


class PairIndex:
    def __init__(self, n_nodes: int, batch: int = 1):
        if n_nodes < 2:
            raise DataError(f"pairwise messages need at least two atoms, got {n_nodes}")
        self.n_nodes = n_nodes
        self.batch = batch
        self.n_pairs = n_nodes * (n_nodes - 1)
        senders, receivers, transpose = [], [], []
        for j in range(n_nodes):
            for i in range(n_nodes):
                if i == j:
                    continue
                senders.append(i)
                receivers.append(j)
                transpose.append(_pair_position(j, i, n_nodes))
        self.senders = np.array(senders)
        self.receivers = np.array(receivers)
        sigma = np.array(transpose)
        if batch > 1:
            offset = np.repeat(np.arange(batch) * self.n_pairs, self.n_pairs)
            sigma = np.tile(sigma, batch) + offset
            self.senders = np.tile(self.senders, batch)
            self.receivers = np.tile(self.receivers, batch)
        self.sigma = sigma  # self-inverse transpose permutation
        # row of each pair's sender among the batch's B*N node rows
        self.sender_rows = self.senders + np.repeat(np.arange(batch) * n_nodes, self.n_pairs)

    def to_matrix(self, flat: np.ndarray) -> np.ndarray:
        """[E, F] per-pair rows (one sample) -> [N, N, F] with i=sender and
        a zero diagonal."""
        n = self.n_nodes
        out = np.zeros((n, n) + flat.shape[1:])
        base_s = self.senders[: self.n_pairs]
        base_r = self.receivers[: self.n_pairs]
        out[base_s, base_r] = flat[: self.n_pairs]
        return out

    def from_matrix(self, mat: np.ndarray) -> np.ndarray:
        """[N, N, F] -> [E, F] in receiver-major pair order (one sample)."""
        base_s = self.senders[: self.n_pairs]
        base_r = self.receivers[: self.n_pairs]
        return mat[base_s, base_r]
