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
activation (see `Mlp2.forward_pairs`). Results match the concatenated form up to
rounding in the last bits.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import fmt_float
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
        n_edge_types: int = N_EDGE_TYPES,
    ) -> "EncoderParams":
        return cls(
            embed=Mlp2.create(rng, n_in, hidden, hidden, "elu", batch_norm=True),
            edge1=Mlp2.create(rng, 2 * hidden, hidden, hidden, "elu", batch_norm=True),
            node1=Mlp2.create(rng, hidden, hidden, hidden, "elu", batch_norm=True),
            edge2=Mlp2.create(rng, 2 * hidden, hidden, hidden, "elu", batch_norm=True),
            out=Linear.create(rng, hidden, n_edge_types),
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
    """Edge-type logits [B*E, 3] for a batch of [B, N, T, D] windows."""
    if windows.ndim != 4:
        raise DimensionError(f"expected [B, N, T, D], got shape {windows.shape}")
    b, n, t, d = windows.shape
    if t * d != params.embed.n_in:
        raise DimensionError(
            f"window gives {t * d} features per node, encoder expects "
            f"{params.embed.n_in}"
        )
    idx = pair_index(n, b)
    x = T.Tensor(windows.reshape(b * n, t * d))
    node_h = params.embed.forward(x, training)
    edge_h = params.edge1.forward_pairs(node_h, idx, training)
    agg = T.segment_sum_rows(edge_h, n - 1)
    node_h2 = params.node1.forward(agg, training)
    edge_h2 = params.edge2.forward_pairs(node_h2, idx, training)
    return params.out.forward(edge_h2)


def encode(params: EncoderParams, sample: np.ndarray) -> EdgePosterior:
    """Posterior for one [N, T, D] sample (evaluation mode)."""
    if sample.ndim != 3:
        raise DimensionError(f"expected [N, T, D], got shape {sample.shape}")
    with T.no_grad():
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


def export_posterior_csv(posterior: EdgePosterior, path=None) -> str:
    """Write `i,j,p_none,p_hb,p_sep` rows sorted by (i, j)."""
    out = io.StringIO()
    out.write("i,j," + ",".join(EDGE_COLUMNS) + "\n")
    n = posterior.n_nodes
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            vals = ",".join(fmt_float(v) for v in posterior.probs[i, j])
            out.write(f"{i},{j},{vals}\n")
    content = out.getvalue()
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    return content
