"""Synthetic ground-truth factory: interacting springs with injectable
mechanism switches, plus a geometric hydrogen-bond event labeler.

The generator realizes first-order Markov dynamics: each node's next
position is a function of its parents' and its own current position
plus isotropic Gaussian noise. Two interaction mechanisms exist, a
binding spring (type 1, constant k_attract) and a post-switch mechanism
(type 2, constant k_switch; zero means detachment, negative repels).
Nodes in the change set have their incoming type-1 edges replaced by
the type-2 mechanism from the boundary step onward.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import PERSIST_MIN, SEPARATED_MAX, RegimeLabels, TrajectoryCorpus
from .errors import ConfigError, InstabilityError, ParameterError, check_number
from .rng import substream

EDGE_NONE = 0
EDGE_ATTRACT = 1
EDGE_SWITCHED = 2

_BLOWUP_LIMIT = 1e6


@dataclass
class ScmSpec:
    """Structural description of one synthetic system.

    adjacency[i, j] holds the edge type for the ordered pair i -> j
    (i influences j). Static nodes never move and receive no noise;
    they act as fixed anchors so the rest of the system is stationary.
    """

    n_nodes: int
    n_dims: int = 3
    adjacency: np.ndarray | None = None
    k_attract: float = 1.0
    k_switch: float = 0.0
    noise_std: float = 0.0
    step_size: float = 0.1
    change_set: set = field(default_factory=set)
    boundary_step: int | None = None
    static_nodes: set = field(default_factory=set)
    init_positions: np.ndarray | None = None

    def __post_init__(self):
        check_number("n_nodes", self.n_nodes, integer=True, minimum=1)
        if check_number("n_dims", self.n_dims, integer=True, minimum=1) > 3:
            raise ParameterError(f"n_dims must be at most 3 (x, y, z), got {self.n_dims}")
        self.k_attract = float(check_number("k_attract", self.k_attract))
        self.k_switch = float(check_number("k_switch", self.k_switch))
        self.noise_std = float(check_number("noise_std", self.noise_std, minimum=0))
        self.step_size = float(check_number("step_size", self.step_size, minimum=0, above=True))
        if self.adjacency is None:
            self.adjacency = np.zeros((self.n_nodes, self.n_nodes), dtype=int)
        self.adjacency = np.asarray(self.adjacency, dtype=int)
        if self.adjacency.shape != (self.n_nodes, self.n_nodes):
            raise ParameterError("adjacency must be [n_nodes, n_nodes]")
        if np.any(np.diag(self.adjacency) != 0):
            raise ParameterError("self-edges are not allowed")
        if not set(np.unique(self.adjacency)) <= {EDGE_NONE, EDGE_ATTRACT, EDGE_SWITCHED}:
            raise ParameterError("edge types must be 0, 1 or 2")
        if self.boundary_step is not None:
            check_number("boundary_step", self.boundary_step, integer=True, minimum=0)
        if self.k_attract == self.k_switch:
            raise ParameterError("the two mechanism constants must differ")
        for name in ("change_set", "static_nodes"):
            nodes = {int(check_number(name, i, integer=True)) for i in getattr(self, name)}
            bad = [i for i in nodes if not 0 <= i < self.n_nodes]
            if bad:
                raise ParameterError(f"{name} indices out of range: {bad}")
            setattr(self, name, nodes)
        if self.init_positions is not None:
            try:
                self.init_positions = np.asarray(self.init_positions, dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ParameterError(f"init_positions: {exc}") from exc
            if self.init_positions.shape != (self.n_nodes, self.n_dims):
                raise ParameterError("init_positions must be [n_nodes, n_dims]")

    @classmethod
    def from_dict(cls, d: dict) -> "ScmSpec":
        """Spec from a config's `scm` section: the fields above, with the
        adjacency given as `edges`, a list of [source, target, type]."""
        known = {f.name for f in fields(cls)} - {"adjacency"} | {"edges"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown generator keys {sorted(unknown)}")
        values = dict(d)
        n = check_number("n_nodes", values.get("n_nodes"), integer=True, minimum=1)
        adjacency = np.zeros((n, n), dtype=int)
        for edge in values.pop("edges", []):
            if not (isinstance(edge, list) and len(edge) == 3
                    and all(type(v) is int for v in edge)
                    and 0 <= min(edge[:2]) and max(edge[:2]) < n
                    and edge[2] in (EDGE_NONE, EDGE_ATTRACT, EDGE_SWITCHED)):
                raise ParameterError(
                    f"edges entry {edge!r} is not [source, target, type] with "
                    f"nodes in [0, {n}) and type 0, 1 or 2"
                )
            adjacency[edge[0], edge[1]] = edge[2]
        return cls(adjacency=adjacency, **values)


def _spring_matrix(spec: ScmSpec, switched: bool) -> np.ndarray:
    """W[i, j] = spring constant with which node i pulls node j."""
    w = np.zeros((spec.n_nodes, spec.n_nodes))
    w[spec.adjacency == EDGE_ATTRACT] = spec.k_attract
    w[spec.adjacency == EDGE_SWITCHED] = spec.k_switch
    if switched and spec.change_set:
        for j in spec.change_set:
            incoming = spec.adjacency[:, j] == EDGE_ATTRACT
            w[incoming, j] = spec.k_switch
    return w


def simulate(spec: ScmSpec, t_total: int, seed: int):
    """Generate one long trajectory of `t_total` steps.

    Returns (corpus, labels); the corpus holds a single sample of shape
    [N, t_total, D] and the labels record the change set as ground-truth
    root causes together with the boundary step. Window-level regimes
    are assigned later by corpus.window_corpus.
    """
    if t_total < 2:
        raise ParameterError("t_total must be >= 2")
    boundary = spec.boundary_step
    if spec.change_set and boundary is None:
        boundary = t_total // 2
    rng = substream(seed, "simulate", 0)
    n, d = spec.n_nodes, spec.n_dims
    if spec.init_positions is not None:
        pos0 = spec.init_positions.copy()
    else:
        pos0 = rng.normal(0.0, 1.0, size=(n, d))
    mobile = np.array([i not in spec.static_nodes for i in range(n)], dtype=float)[:, None]
    # force[j] = sum_i W[i,j] * (r[i] - r[j]) = (W.T @ r)[j] - colsum[j] * r[j]
    pre, post = ((w, w.sum(axis=0)[:, None])
                 for w in (_spring_matrix(spec, switched=False), _spring_matrix(spec, switched=True)))
    # one draw of every step's noise gives the stream of per-step draws; without
    # noise the zeros still add +0.0, which turns a step of -0.0 into +0.0
    noise = (rng.normal(0.0, spec.noise_std, size=(t_total - 1, n, d))
             if spec.noise_std > 0 else np.zeros((t_total - 1, 1, 1)))
    out = np.empty((n, t_total, d))
    out[:, 0, :] = pos0
    cur = pos0
    h = spec.step_size
    for t in range(t_total - 1):
        w, colsum = post if (boundary is not None and t + 1 >= boundary) else pre
        step = (h * (w.T @ cur - colsum * cur) + noise[t]) * mobile
        cur = cur + step
        if not np.abs(cur).max() <= _BLOWUP_LIMIT:
            raise InstabilityError(
                f"positions exceeded {_BLOWUP_LIMIT:g} or became non-finite at step "
                f"{t + 1}; try a smaller step_size"
            )
        out[:, t + 1, :] = cur
    labels = RegimeLabels(
        regimes={},
        root_cause_nodes=set(spec.change_set),
        boundary_step=boundary,
    )
    corpus = TrajectoryCorpus(
        positions=out[None, ...],
        atom_names=[f"A{i:02d}" for i in range(n)],
        dt=spec.step_size,
        labels=labels,
    )
    return corpus, labels


# -- hydrogen-bond event labeling -------------------------------------------


@dataclass
class HbCriterion:
    """Geometric bond test: donor-acceptor distance plus angle at H."""

    cutoff: float = 3.5
    min_angle_deg: float = 120.0

    def __post_init__(self):
        if self.cutoff <= 0:
            raise ParameterError("cutoff must be positive")
        if not 0.0 < self.min_angle_deg <= 180.0:
            raise ParameterError("min angle must lie in (0, 180] degrees")


def hb_indicator(
    donor: np.ndarray, hydrogen: np.ndarray, acceptor: np.ndarray,
    criterion: HbCriterion,
) -> np.ndarray:
    """Per-step bond indicator for stacked positions [T, D]."""
    dist = np.linalg.norm(donor - acceptor, axis=-1)
    u = donor - hydrogen
    v = acceptor - hydrogen
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    denom = np.where(nu * nv > 0, nu * nv, 1.0)
    cosang = np.clip((u * v).sum(axis=-1) / denom, -1.0, 1.0)
    angle = np.degrees(np.arccos(cosang))
    angle = np.where(nu * nv > 0, angle, 0.0)
    return (dist <= criterion.cutoff) & (angle >= criterion.min_angle_deg)


def label_hb_events(corpus: TrajectoryCorpus, criterion: HbCriterion) -> RegimeLabels:
    """Label each sample persist/separated from its bond indicator.

    Requires donor/hydrogen/acceptor roles in the corpus metadata; with
    several role triples the indicator is their conjunction. Samples
    where the bond holds at least PERSIST_MIN of the time are persist,
    at most SEPARATED_MAX separated, anything between is dropped.
    """
    if not corpus.roles:
        raise ConfigError("corpus metadata does not designate donor/H/acceptor roles")
    for triple in corpus.roles:
        for key in ("donor", "hydrogen", "acceptor"):
            if key not in triple:
                raise ConfigError(f"role triple missing '{key}': {triple}")
            if not 0 <= int(triple[key]) < corpus.n_atoms:
                raise ConfigError(f"role index out of range in {triple}")
    labels = RegimeLabels()
    for s in range(corpus.n_samples):
        held = np.ones(corpus.n_steps, dtype=bool)
        for triple in corpus.roles:
            held &= hb_indicator(
                corpus.positions[s, int(triple["donor"])],
                corpus.positions[s, int(triple["hydrogen"])],
                corpus.positions[s, int(triple["acceptor"])],
                criterion,
            )
        frac = held.mean()
        if frac >= PERSIST_MIN:
            labels.regimes[s] = "persist"
        elif frac <= SEPARATED_MAX:
            labels.regimes[s] = "separated"
    return labels
