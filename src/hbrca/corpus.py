"""Trajectory corpus: in-memory form, file format, windowing, splits.

A corpus file is a single text file: line 1 is a JSON metadata record,
line 2 the CSV header ``sample,atom,t,<axes>``, and the payload one row
per (sample, atom, t) in ascending order. Floats are written with 17
significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DegenerateInputError,
    ParameterError,
    ParseError,
)
from .rng import substream

PERSIST = "persist"
SEPARATED = "separated"

_AXIS_NAMES = ("x", "y", "z")

_META_REQUIRED = ("schema", "n_atoms", "n_steps", "n_dims", "dt", "atom_names",
                  "normalization_scale")
_META_OPTIONAL = ("regimes", "root_cause_nodes", "boundary_step", "roles",
                  "predicted")


def fmt_float(v: float) -> str:
    return f"{v:.17g}"


@dataclass
class RegimeLabels:
    """Per-sample regime tags plus intervention ground truth.

    `regimes` maps sample index to "persist" or "separated"; samples
    absent from the map were dropped by the labeler (ambiguous windows).
    `root_cause_nodes` is only populated for synthetic corpora.
    """

    regimes: dict = field(default_factory=dict)
    root_cause_nodes: set = field(default_factory=set)
    boundary_step: int | None = None

    def samples_in(self, regime: str) -> list:
        return sorted(s for s, r in self.regimes.items() if r == regime)


@dataclass
class TrajectoryCorpus:
    """Positions [S samples, N atoms, T steps, D dims] plus metadata."""

    positions: np.ndarray
    atom_names: list
    dt: float = 1.0
    normalization_scale: float = 1.0
    labels: RegimeLabels | None = None
    roles: list | None = None
    predicted: bool = False

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 4:
            raise DataError(
                f"positions must be [S,N,T,D], got shape {self.positions.shape}"
            )
        if len(self.atom_names) != self.positions.shape[1]:
            raise DataError("atom_names length does not match atom count")
        if not np.all(np.isfinite(self.positions)):
            raise DataError("corpus contains non-finite values")

    @property
    def n_samples(self) -> int:
        return self.positions.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[1]

    @property
    def n_steps(self) -> int:
        return self.positions.shape[2]

    @property
    def n_dims(self) -> int:
        return self.positions.shape[3]


def normalize(corpus: TrajectoryCorpus) -> TrajectoryCorpus:
    """Divide every value by the corpus-global max absolute value.

    The divisor folds into `normalization_scale` so the original units
    can be recovered with denormalize().
    """
    scale = float(np.max(np.abs(corpus.positions)))
    if scale == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero corpus")
    return TrajectoryCorpus(
        positions=corpus.positions / scale,
        atom_names=list(corpus.atom_names),
        dt=corpus.dt,
        normalization_scale=corpus.normalization_scale * scale,
        labels=corpus.labels,
        roles=corpus.roles,
        predicted=corpus.predicted,
    )


def denormalize(corpus: TrajectoryCorpus) -> TrajectoryCorpus:
    return TrajectoryCorpus(
        positions=corpus.positions * corpus.normalization_scale,
        atom_names=list(corpus.atom_names),
        dt=corpus.dt,
        normalization_scale=1.0,
        labels=corpus.labels,
        roles=corpus.roles,
        predicted=corpus.predicted,
    )


def window(long_trajectory: np.ndarray, t_window: int) -> np.ndarray:
    """Cut [N, T_total, D] into floor(T_total / T) non-overlapping windows.

    Remainder steps past the last full window are discarded. Returns
    [n_windows, N, T, D]; every retained value is preserved bitwise.
    """
    if t_window < 2:
        raise ParameterError(f"window length must be >= 2, got {t_window}")
    n_atoms, t_total, n_dims = long_trajectory.shape
    if t_window > t_total:
        raise ParameterError(
            f"window length {t_window} exceeds trajectory length {t_total}"
        )
    n_win = t_total // t_window
    trimmed = long_trajectory[:, : n_win * t_window, :]
    # [N, W, T, D] -> [W, N, T, D]
    return trimmed.reshape(n_atoms, n_win, t_window, n_dims).transpose(1, 0, 2, 3).copy()


def window_corpus(
    corpus: TrajectoryCorpus,
    t_window: int,
    persist_min: float = 0.9,
    separated_max: float = 0.1,
) -> TrajectoryCorpus:
    """Window every sample and derive per-window regime labels.

    A window counts as persist when at least `persist_min` of its steps
    fall before the boundary, separated when at most `separated_max` do,
    and is left unlabeled otherwise.
    """
    parts = [window(corpus.positions[s], t_window) for s in range(corpus.n_samples)]
    stacked = np.concatenate(parts, axis=0)
    labels = None
    if corpus.labels is not None:
        labels = RegimeLabels(
            regimes={},
            root_cause_nodes=set(corpus.labels.root_cause_nodes),
            boundary_step=corpus.labels.boundary_step,
        )
        b = corpus.labels.boundary_step
        if b is not None:
            per_sample = corpus.n_steps // t_window
            for s in range(corpus.n_samples):
                for w in range(per_sample):
                    frac_pre = min(max((b - w * t_window) / t_window, 0.0), 1.0)
                    idx = s * per_sample + w
                    if frac_pre >= persist_min:
                        labels.regimes[idx] = PERSIST
                    elif frac_pre <= separated_max:
                        labels.regimes[idx] = SEPARATED
    return TrajectoryCorpus(
        positions=stacked,
        atom_names=list(corpus.atom_names),
        dt=corpus.dt,
        normalization_scale=corpus.normalization_scale,
        labels=labels,
        roles=corpus.roles,
        predicted=corpus.predicted,
    )


# -- serialization ---------------------------------------------------------


def _metadata_dict(corpus: TrajectoryCorpus) -> dict:
    meta = {
        "schema": 1,
        "n_atoms": corpus.n_atoms,
        "n_steps": corpus.n_steps,
        "n_dims": corpus.n_dims,
        "dt": corpus.dt,
        "atom_names": list(corpus.atom_names),
        "normalization_scale": corpus.normalization_scale,
    }
    if corpus.labels is not None:
        meta["regimes"] = {str(k): v for k, v in sorted(corpus.labels.regimes.items())}
        meta["root_cause_nodes"] = sorted(corpus.labels.root_cause_nodes)
        meta["boundary_step"] = corpus.labels.boundary_step
    if corpus.roles is not None:
        meta["roles"] = corpus.roles
    if corpus.predicted:
        meta["predicted"] = True
    return meta


def serialize(corpus: TrajectoryCorpus) -> str:
    if corpus.n_dims > len(_AXIS_NAMES):
        raise DataError(f"file format supports up to 3 dims, got {corpus.n_dims}")
    out = io.StringIO()
    out.write(json.dumps(_metadata_dict(corpus), sort_keys=True))
    out.write("\n")
    axes = _AXIS_NAMES[: corpus.n_dims]
    out.write("sample,atom,t," + ",".join(axes) + "\n")
    pos = corpus.positions
    for s in range(corpus.n_samples):
        for a in range(corpus.n_atoms):
            for t in range(corpus.n_steps):
                vals = ",".join(fmt_float(v) for v in pos[s, a, t])
                out.write(f"{s},{a},{t},{vals}\n")
    return out.getvalue()


def save(corpus: TrajectoryCorpus, path) -> str:
    """Write the corpus file; returns its content hash."""
    content = serialize(corpus)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    return hash_content(content)


def hash_content(content: str) -> str:
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


def corpus_hash(corpus: TrajectoryCorpus) -> str:
    """Hash of the canonical serialized form (file and memory agree)."""
    return hash_content(serialize(corpus))


def _parse_metadata(line: str) -> dict:
    try:
        meta = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"metadata record is not valid JSON: {exc}", line=1)
    if not isinstance(meta, dict):
        raise ParseError("metadata record must be a JSON object", line=1)
    for key in _META_REQUIRED:
        if key not in meta:
            raise ParseError(f"metadata record missing '{key}'", line=1)
    unknown = set(meta) - set(_META_REQUIRED) - set(_META_OPTIONAL)
    if unknown:
        raise ParseError(f"unknown metadata keys {sorted(unknown)}", line=1)
    if meta["schema"] != 1:
        raise ParseError(f"unsupported schema version {meta['schema']}", line=1)
    return meta


def loads(content: str) -> TrajectoryCorpus:
    lines = content.splitlines()
    if len(lines) < 2:
        raise ParseError("file too short: expected metadata and header lines")
    meta = _parse_metadata(lines[0])
    n_s_expected = None
    n_atoms = int(meta["n_atoms"])
    n_steps = int(meta["n_steps"])
    n_dims = int(meta["n_dims"])
    if n_atoms < 1 or n_steps < 1:
        raise ParseError("n_atoms and n_steps must be positive", line=1)
    if not 1 <= n_dims <= 3:
        raise ParseError(f"n_dims must be 1..3, got {n_dims}", line=1)
    axes = _AXIS_NAMES[:n_dims]
    expected_header = "sample,atom,t," + ",".join(axes)
    if lines[1].strip() != expected_header:
        raise ParseError(
            f"bad CSV header: expected '{expected_header}', got '{lines[1]}'", line=2
        )
    rows = lines[2:]
    if len(rows) % (n_atoms * n_steps) != 0 or not rows:
        raise ParseError(
            f"payload has {len(rows)} rows, not a multiple of "
            f"n_atoms*n_steps = {n_atoms * n_steps}"
        )
    n_samples = len(rows) // (n_atoms * n_steps)
    n_s_expected = n_samples
    positions = np.empty((n_samples, n_atoms, n_steps, n_dims))
    row_iter = iter(enumerate(rows, start=3))
    for s in range(n_samples):
        for a in range(n_atoms):
            for t in range(n_steps):
                lineno, row = next(row_iter)
                parts = row.split(",")
                if len(parts) != 3 + n_dims:
                    raise ParseError(
                        f"expected {3 + n_dims} fields, got {len(parts)}", line=lineno
                    )
                try:
                    rs, ra, rt = int(parts[0]), int(parts[1]), int(parts[2])
                    vals = [float(p) for p in parts[3:]]
                except ValueError as exc:
                    raise ParseError(str(exc), line=lineno)
                if (rs, ra, rt) != (s, a, t):
                    raise ParseError(
                        f"row out of order: expected ({s},{a},{t}), got ({rs},{ra},{rt})",
                        line=lineno,
                    )
                if not all(math.isfinite(v) for v in vals):
                    raise ParseError("non-finite value", line=lineno)
                positions[s, a, t] = vals
    labels = None
    if "regimes" in meta or "boundary_step" in meta or "root_cause_nodes" in meta:
        regimes = {}
        for k, v in meta.get("regimes", {}).items():
            if v not in (PERSIST, SEPARATED):
                raise ParseError(f"unknown regime label '{v}'", line=1)
            regimes[int(k)] = v
        labels = RegimeLabels(
            regimes=regimes,
            root_cause_nodes=set(meta.get("root_cause_nodes", [])),
            boundary_step=meta.get("boundary_step"),
        )
        bad = [i for i in labels.root_cause_nodes if not 0 <= i < n_atoms]
        if bad:
            raise ParseError(f"root cause nodes out of range: {bad}", line=1)
    names = [str(n) for n in meta["atom_names"]]
    if len(names) != n_atoms:
        raise ParseError("atom_names length does not match n_atoms", line=1)
    corpus = TrajectoryCorpus(
        positions=positions,
        atom_names=names,
        dt=float(meta["dt"]),
        normalization_scale=float(meta["normalization_scale"]),
        labels=labels,
        roles=meta.get("roles"),
        predicted=bool(meta.get("predicted", False)),
    )
    if corpus.n_samples != n_s_expected or corpus.n_steps != n_steps:
        raise ParseError("metadata does not match payload extent")
    return corpus


def load(path) -> TrajectoryCorpus:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# -- splits ------------------------------------------------------------------


@dataclass
class SplitSpec:
    """Window-level train/val/test fractions; must sum to 1."""

    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0

    def __post_init__(self):
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"train + val + test fractions sum to {total}, expected 1")
        if min(self.train, self.val, self.test) < 0:
            raise ParameterError("train, val and test fractions must be nonnegative")


def split_windows(corpus: TrajectoryCorpus, spec: SplitSpec):
    """Disjoint, exhaustive index split, reproducible from (spec, corpus hash)."""
    digest = corpus_hash(corpus)
    rng = substream(spec.seed, "split", int(digest[:16], 16))
    order = rng.permutation(corpus.n_samples)
    n = corpus.n_samples
    n_train = int(n * spec.train)
    n_val = int(n * spec.val)
    train = np.sort(order[:n_train])
    val = np.sort(order[n_train : n_train + n_val])
    test = np.sort(order[n_train + n_val :])
    return train, val, test
