"""Edge-type posterior inference over ordered node pairs.

Two rounds of node/edge message passing turn each node's flattened
trajectory into a categorical distribution over three edge types for
every ordered pair: index 0 non-causal, index 1 causal bonded (hb),
index 2 causal separation (sep).

The pair networks `edge1`/`edge2` never build the [sender, receiver]
concatenation. Their first layer splits by the identity

    [s, r] W1 = s W1[:H] + r W1[H:],

so both halves (the bias added to the receiver's) are computed once per
node, on B*N rows, and gathered to the B*N*(N-1) pair rows before the
activation (see `Mlp2.run_pairs`). Results match the concatenated form
up to rounding in the last bits.

`encode_logits` has one forward pass (`_forward`) on plain arrays for
both modes. Eval mode normalizes with the running statistics, in place,
and both pair networks write into the same two pair-sized buffers,
allocated once per call. Training mode normalizes with the batch's
statistics and updates the running ones; each network gets fresh
buffers, because the backward reads them.

In training the logits are one tape node whose parents are the 26
encoder parameters. It keeps only what its backward reads: each
network's hidden activation, layer 2's activation and the normalized
rows, plus the node rows that enter each layer 1 and edge2's output.
The backward is the op-by-op chain's backward written out (the output
head, then each network from edge2 back to embed, with the segment sum
between edge1 and node1 as a repeat), with the same expressions; no
gradient in it sums more than two terms, so it gives that chain's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import format_rows
from .errors import DimensionError, ParameterError
from .graph import pair_index
from .layers import Linear, Mlp2, gumbel_softmax

N_EDGE_TYPES = 3
EDGE_COLUMNS = ("p_none", "p_hb", "p_sep")

CONCRETE = "concrete"
CATEGORICAL_HARD = "categorical-hard"


@dataclass
class EdgePosterior:
    """probs[N, N, 3] with sender-first indexing; diagonal unused."""

    probs: np.ndarray
    logits: np.ndarray

    def __post_init__(self):
        n = self.probs.shape[0]
        if self.probs.shape != (n, n, N_EDGE_TYPES):
            raise DimensionError(f"probs must be [N, N, 3], got {self.probs.shape}")
        off = ~np.eye(n, dtype=bool)
        rows = self.probs[off]
        if np.any(rows < -1e-12) or np.any(np.abs(rows.sum(axis=-1) - 1.0) > 1e-9):
            raise ParameterError("off-diagonal posterior rows must sum to 1")

    @property
    def n_nodes(self) -> int:
        return self.probs.shape[0]

    @classmethod
    def from_flat(cls, probs_flat, logits_flat, n_nodes: int) -> "EdgePosterior":
        idx = pair_index(n_nodes)
        return cls(idx.to_matrix(probs_flat), idx.to_matrix(logits_flat))


@dataclass
class EncoderParams:
    """Message-passing stacks; hidden widths follow the architecture table."""

    embed: Mlp2
    edge1: Mlp2
    node1: Mlp2
    edge2: Mlp2
    out: Linear

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_in: int,
        hidden: int = 128,
    ) -> "EncoderParams":
        return cls(
            embed=Mlp2.create(rng, n_in, hidden, hidden, "elu", batch_norm=True),
            edge1=Mlp2.create(rng, 2 * hidden, hidden, hidden, "elu", batch_norm=True),
            node1=Mlp2.create(rng, hidden, hidden, hidden, "elu", batch_norm=True),
            edge2=Mlp2.create(rng, 2 * hidden, hidden, hidden, "elu", batch_norm=True),
            out=Linear.create(rng, hidden, N_EDGE_TYPES),
        )

    def parameters(self, prefix: str = "enc") -> dict:
        params = {}
        for name in ("embed", "edge1", "node1", "edge2"):
            params.update(getattr(self, name).parameters(f"{prefix}.{name}"))
        params.update(self.out.parameters(f"{prefix}.out"))
        return params

    def buffers(self, prefix: str = "enc") -> dict:
        buffers = {}
        for name in ("embed", "edge1", "node1", "edge2"):
            buffers.update(getattr(self, name).buffers(f"{prefix}.{name}"))
        return buffers


def encode_logits(
    params: EncoderParams, windows: np.ndarray, training: bool = False
) -> T.Tensor:
    """Edge-type logits [B*E, 3] for a batch of [B, N, T, D] windows.

    Training mode normalizes by the batch and returns one tape node; eval
    mode uses the running statistics and returns a Tensor off the tape."""
    if windows.ndim != 4:
        raise DimensionError(f"expected [B, N, T, D], got shape {windows.shape}")
    b, n, t, d = windows.shape
    if t * d != params.embed.n_in:
        raise DimensionError(
            f"window gives {t * d} features per node, encoder expects "
            f"{params.embed.n_in}"
        )
    idx = pair_index(n, b)
    x = windows.reshape(b * n, t * d)
    logits, saved = _forward(params, x, idx, training)
    if not training:
        return T.Tensor(logits)
    node_h, s_embed, s_edge1, agg, s_node1, node_h2, s_edge2, edge_h2 = saved
    out = params.out

    def backward(g):
        T._affine_backward(g, edge_h2, out.w, out.b)
        g_node2 = params.edge2.backward_pairs(g @ out.w.data.T, node_h2, idx, s_edge2)
        g_agg = params.node1.backward_rows(g_node2, agg, s_node1)
        g_edge = np.repeat(g_agg, n - 1, axis=0)
        g_node = params.edge1.backward_pairs(g_edge, node_h, idx, s_edge1)
        params.embed.backward_rows(g_node, x, s_embed, x_grad=False)

    return T._node(logits, tuple(params.parameters().values()), backward)


def _forward(params: EncoderParams, x: np.ndarray, idx, training: bool) -> tuple:
    """Logits of the [B*N, T*D] node rows `x`, and what the backward reads.
    In eval mode edge2 overwrites edge1's buffers: edge1's output is summed
    first."""
    buffers = {}
    if not training:
        rows = len(idx.sender_rows)
        buffers = {"pre": np.empty((rows, params.edge1.w1.shape[1])),
                   "out": np.empty((rows, params.edge1.w2.shape[1]))}
    node_h, s_embed = params.embed.run_rows(x, training)
    edge_h, s_edge1 = params.edge1.run_pairs(node_h, idx, training, **buffers)
    agg = edge_h.reshape(len(x), idx.n_nodes - 1, -1).sum(axis=1)
    node_h2, s_node1 = params.node1.run_rows(agg, training)
    edge_h2, s_edge2 = params.edge2.run_pairs(node_h2, idx, training, **buffers)
    logits = edge_h2 @ params.out.w.data + params.out.b.data
    return logits, (node_h, s_embed, s_edge1, agg, s_node1, node_h2, s_edge2, edge_h2)


def encode(params: EncoderParams, sample: np.ndarray) -> EdgePosterior:
    """Posterior for one [N, T, D] sample (evaluation mode)."""
    if sample.ndim != 3:
        raise DimensionError(f"expected [N, T, D], got shape {sample.shape}")
    logits = encode_logits(params, sample[None, ...], training=False)
    probs = T.softmax_rows(logits)
    return EdgePosterior.from_flat(probs.data, logits.data, sample.shape[0])


def sample_edges(
    posterior: EdgePosterior,
    tau: float,
    mode: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw per-pair edge assignments [N, N, 3] from a posterior.

    Concrete mode returns relaxed one-hots (training-style draw); the
    categorical-hard mode returns exact one-hots for evaluation and
    prediction. Rows on the diagonal are left as zeros.
    """
    n = posterior.n_nodes
    idx = pair_index(n)
    flat_logits = idx.from_matrix(posterior.logits)
    if mode == CONCRETE:
        with T.no_grad():
            y = gumbel_softmax(flat_logits, tau, rng, hard=False)
        flat = y.data
    elif mode == CATEGORICAL_HARD:
        flat = gumbel_softmax(flat_logits, tau, rng, hard=True)
    else:
        raise ParameterError(f"unknown sampling mode '{mode}'")
    return idx.to_matrix(flat)


def export_posterior_csv(posterior: EdgePosterior) -> str:
    """`i,j,p_none,p_hb,p_sep` rows sorted by (sender i, receiver j)."""
    i, j = np.nonzero(~np.eye(posterior.n_nodes, dtype=bool))
    return "i,j," + ",".join(EDGE_COLUMNS) + "\n" + format_rows(
        "%d,%d,%.17g,%.17g,%.17g\n", i, j, posterior.probs[i, j]
    )
