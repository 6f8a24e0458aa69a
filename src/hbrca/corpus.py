"""Trajectory corpus: in-memory form, file format, windowing, splits.

A corpus file is a single text file: line 1 is a JSON metadata record,
line 2 the CSV header ``sample,atom,t,<axes>``, and the payload one row
per (sample, atom, t) in ascending order. Floats are written with 17
significant digits so a save/load round trip is exact.

Both directions work on whole blocks of rows: `serialize` formats
_CHUNK_ROWS rows per %-format call, and `loads` reads the payload with
numpy's C text reader and then validates it in bulk. Only when a bulk
check fails does `_raise_first_bad_row` walk the rows one by one, to name
the first line at fault.

`save` and `corpus_hash` take the text block by block and never hold all
of it, nor its UTF-8 bytes: on a large corpus each whole copy is megabytes
that the allocator must find, and often fault in, on every call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError, DegenerateInputError, ParameterError, ParseError, check_number
from .rng import substream

PERSIST = "persist"
SEPARATED = "separated"
PERSIST_MIN = 0.9
SEPARATED_MAX = 0.1

_AXIS_NAMES = ("x", "y", "z")

_META_REQUIRED = ("schema", "n_atoms", "n_steps", "n_dims", "dt", "atom_names",
                  "normalization_scale")
_META_OPTIONAL = ("regimes", "root_cause_nodes", "boundary_step", "roles",
                  "predicted")

# rows per %-format call: bounds the tuple of values a call builds
_CHUNK_ROWS = 4096
# characters per piece that `hash_content` encodes at a time
_HASH_CHARS = 1 << 20


def format_rows(row: str, *columns: np.ndarray) -> str:
    """`row % values` for every row of `columns`, joined.

    Each column is a 1-D array with one value per row, or a 2-D array with
    one row per row. `row` holds one conversion per value and ends in a
    newline. Every table the program writes is built here, with "%.17g"
    for each float, so that every written float reads back exactly.
    """
    return "".join(_row_blocks(row, *columns))


def _row_blocks(row: str, *columns: np.ndarray):
    """The text of `format_rows`, _CHUNK_ROWS rows at a time."""
    columns = [c[:, None] if c.ndim == 1 else c for c in map(np.asarray, columns)]
    n_rows = len(columns[0])
    for lo in range(0, n_rows, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n_rows)
        block = np.concatenate([c[lo:hi].astype(object) for c in columns], axis=1)
        yield (row * (hi - lo)) % tuple(block.ravel().tolist())


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
    return replace(
        corpus,
        positions=corpus.positions / scale,
        normalization_scale=corpus.normalization_scale * scale,
    )


def denormalize(corpus: TrajectoryCorpus) -> TrajectoryCorpus:
    return replace(
        corpus, positions=corpus.positions * corpus.normalization_scale,
        normalization_scale=1.0,
    )


def regime_of(bonded_fraction: float):
    """The regime of a window (or sample) with `bonded_fraction` of its
    steps on the bonded side: PERSIST from PERSIST_MIN up, SEPARATED up
    to SEPARATED_MAX, else None (unlabeled)."""
    if bonded_fraction >= PERSIST_MIN:
        return PERSIST
    if bonded_fraction <= SEPARATED_MAX:
        return SEPARATED
    return None


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


def window_corpus(corpus: TrajectoryCorpus, t_window: int) -> TrajectoryCorpus:
    """Window every sample and derive per-window regime labels.

    A window's regime is `regime_of` the fraction of its steps that fall
    before the boundary.
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
                    regime = regime_of(min(max((b - w * t_window) / t_window, 0.0), 1.0))
                    if regime is not None:
                        labels.regimes[s * per_sample + w] = regime
    return replace(corpus, positions=stacked, labels=labels)


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


def _row_keys(shape: tuple) -> np.ndarray:
    """(sample, atom, t) of every payload row, in file order: [S*N*T, 3]."""
    return np.indices(shape[:3]).reshape(3, -1).T


def serialize(corpus: TrajectoryCorpus) -> str:
    return "".join(_text_blocks(corpus))


def _text_blocks(corpus: TrajectoryCorpus):
    """The corpus file's text in pieces: the two head lines, then blocks of
    _CHUNK_ROWS rows. A corpus the format cannot hold fails here, before
    any piece is made."""
    if corpus.n_dims > len(_AXIS_NAMES):
        raise DataError(f"file format supports up to 3 dims, got {corpus.n_dims}")
    head = (json.dumps(_metadata_dict(corpus), sort_keys=True) + "\n"
            + "sample,atom,t," + ",".join(_AXIS_NAMES[: corpus.n_dims]) + "\n")
    keys = _row_keys(corpus.positions.shape)
    values = corpus.positions.reshape(len(keys), corpus.n_dims)
    row = "%d,%d,%d," + ",".join(["%.17g"] * corpus.n_dims) + "\n"
    return itertools.chain([head], _row_blocks(row, keys, values))


def save(corpus: TrajectoryCorpus, path) -> str:
    """Write the corpus file; returns its content hash."""
    blocks = _text_blocks(corpus)
    digest = hashlib.sha256()
    with open(path, "w", encoding="utf-8") as fh:
        for block in blocks:
            fh.write(block)
            digest.update(block.encode("utf-8"))
    return digest.hexdigest()


def hash_content(content: str) -> str:
    return _sha256(content[lo:lo + _HASH_CHARS] for lo in range(0, len(content), _HASH_CHARS))


def corpus_hash(corpus: TrajectoryCorpus) -> str:
    """Hash of the canonical serialized form (file and memory agree)."""
    return _sha256(_text_blocks(corpus))


def _sha256(pieces) -> str:
    """SHA-256 of the UTF-8 text that `pieces` join to, fed one piece at a
    time."""
    digest = hashlib.sha256()
    for piece in pieces:
        digest.update(piece.encode("utf-8"))
    return digest.hexdigest()


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


def _read_rows(lines, n_dims: int) -> np.ndarray:
    """Payload lines as records (key [3] int64, pos [n_dims] float64).

    numpy's C reader; raises ValueError on an unreadable row and skips
    blank lines, so the record count can fall short of the line count.
    """
    dtype = np.dtype([("key", np.int64, (3,)), ("pos", np.float64, (n_dims,))])
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                      quotechar=None, ndmin=1)


def _rows_valid(table: np.ndarray, shape: tuple) -> bool:
    """One record per line, keys in (sample, atom, t) order, finite values."""
    return (np.array_equal(table["key"], _row_keys(shape))
            and bool(np.isfinite(table["pos"]).all()))


def _raise_first_bad_row(rows: list, shape: tuple):
    """Error branch of `loads`: raise ParseError naming the first bad line.

    Applies the checks of `_rows_valid` one row at a time, in file order:
    field count, numpy's reader, key order, finiteness. Never returns.
    """
    _, n_atoms, n_steps, n_dims = shape
    for i, row in enumerate(rows):
        lineno = i + 3
        n_fields = len(row.split(","))
        if n_fields != 3 + n_dims:
            raise ParseError(f"expected {3 + n_dims} fields, got {n_fields}", line=lineno)
        try:
            record = _read_rows([row], n_dims)[0]
        except ValueError as exc:
            raise ParseError(f"unreadable row: {exc}", line=lineno)
        s, a, t = i // (n_atoms * n_steps), i // n_steps % n_atoms, i % n_steps
        rs, ra, rt = (int(k) for k in record["key"])
        if (rs, ra, rt) != (s, a, t):
            raise ParseError(
                f"row out of order: expected ({s},{a},{t}), got ({rs},{ra},{rt})",
                line=lineno,
            )
        if not np.isfinite(record["pos"]).all():
            raise ParseError("non-finite value", line=lineno)
    raise ParseError("payload rows do not match the metadata")


def loads(content: str) -> TrajectoryCorpus:
    """Parse corpus text; every fault in it is a ParseError.

    A fault confined to one line (a ragged or unreadable row, a key out
    of order, a non-finite value) names that line.
    """
    lines = content.splitlines()
    if len(lines) < 2:
        raise ParseError("file too short: expected metadata and header lines")
    meta = _parse_metadata(lines[0])
    try:
        n_atoms, n_steps, n_dims = (int(meta[k]) for k in ("n_atoms", "n_steps", "n_dims"))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"n_atoms, n_steps and n_dims must be integers: {exc}", line=1)
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
    del lines[:2]  # the payload rows; line numbers start at 3
    if len(lines) % (n_atoms * n_steps) != 0 or not lines:
        raise ParseError(
            f"payload has {len(lines)} rows, not a multiple of "
            f"n_atoms*n_steps = {n_atoms * n_steps}"
        )
    shape = (len(lines) // (n_atoms * n_steps), n_atoms, n_steps, n_dims)
    try:
        table = _read_rows(lines, n_dims)
    except ValueError:
        table = None
    if table is None or not _rows_valid(table, shape):
        _raise_first_bad_row(lines, shape)
    del lines
    positions = table["pos"].reshape(shape)
    try:
        labels = None
        if "regimes" in meta or "boundary_step" in meta or "root_cause_nodes" in meta:
            regimes = {}
            for k, v in meta.get("regimes", {}).items():
                if v not in (PERSIST, SEPARATED):
                    raise ParseError(f"unknown regime label '{v}'", line=1)
                if not 0 <= int(k) < shape[0]:
                    raise ParseError(
                        f"regime key '{k}' is not a window of the {shape[0]} in the file",
                        line=1)
                regimes[int(k)] = v
            labels = RegimeLabels(
                regimes=regimes,
                root_cause_nodes={check_number("root_cause_nodes", i, integer=True)
                                  for i in meta.get("root_cause_nodes", [])},
                boundary_step=meta.get("boundary_step"),
            )
            if labels.boundary_step is not None:
                check_number("boundary_step", labels.boundary_step, integer=True, minimum=0)
            bad = [i for i in labels.root_cause_nodes if not 0 <= i < n_atoms]
            if bad:
                raise ParseError(f"root cause nodes out of range: {bad}", line=1)
        names = meta["atom_names"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ParseError(f"atom_names must be a list of strings, got {names!r}", line=1)
        if len(names) != n_atoms:
            raise ParseError("atom_names length does not match n_atoms", line=1)
        dt, scale = (float(check_number(key, meta[key], minimum=0, above=True))
                     for key in ("dt", "normalization_scale"))
        predicted = meta.get("predicted", False)
        if not isinstance(predicted, bool):
            raise ParseError(f"predicted must be a JSON boolean, got {predicted!r}", line=1)
    except ParameterError as exc:
        raise ParseError(str(exc), line=1)
    except (AttributeError, TypeError, ValueError) as exc:  # a value of the wrong type
        raise ParseError(f"malformed metadata: {exc}", line=1)
    return TrajectoryCorpus(
        positions=positions,
        atom_names=names,
        dt=dt,
        normalization_scale=scale,
        labels=labels,
        roles=meta.get("roles"),
        predicted=predicted,
    )


def read_text(path) -> str:
    """The decoded text of a file; a file that cannot be read or is not
    UTF-8 is a DataError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read corpus file {path}: {exc}") from exc


def load(path) -> TrajectoryCorpus:
    """`loads` of a file's text (see `read_text`)."""
    return loads(read_text(path))


# -- splits ------------------------------------------------------------------


@dataclass
class SplitSpec:
    """Window-level train/val/test fractions; must sum to 1."""

    train: float = 0.8
    val: float = 0.1
    test: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_number("seed", self.seed, integer=True, minimum=0)
        for name in ("train", "val", "test"):
            check_number(name, getattr(self, name), minimum=0)
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"train + val + test fractions sum to {total}, expected 1")


def split_windows(corpus: TrajectoryCorpus, spec: SplitSpec):
    """Disjoint, exhaustive index split, reproducible from (spec, corpus hash)."""
    return _split_indices(corpus.n_samples, spec, corpus_hash(corpus))


def _split_indices(n: int, spec: SplitSpec, digest: str):
    """`split_windows` for n windows of the corpus whose hash is `digest`."""
    rng = substream(spec.seed, "split", int(digest[:16], 16))
    order = rng.permutation(n)
    n_train = int(n * spec.train)
    n_val = int(n * spec.val)
    train = np.sort(order[:n_train])
    val = np.sort(order[n_train : n_train + n_val])
    test = np.sort(order[n_train + n_val :])
    return train, val, test
