import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbrca.corpus as corpus_mod
from hbrca.corpus import (
    RegimeLabels,
    SplitSpec,
    TrajectoryCorpus,
    corpus_hash,
    denormalize,
    load,
    loads,
    normalize,
    save,
    serialize,
    split_windows,
    window,
    window_corpus,
)
from hbrca.errors import DataError, DegenerateInputError, ParameterError, ParseError
from hbrca.training import TrainConfig, train


def make_corpus(positions, **kw):
    positions = np.asarray(positions, dtype=float)
    names = [f"A{i:02d}" for i in range(positions.shape[1])]
    return TrajectoryCorpus(positions=positions, atom_names=names, **kw)


def test_normalize_scales_by_max_abs():
    c = make_corpus(np.array([-4.0, 2.0]).reshape(1, 1, 2, 1))
    n = normalize(c)
    assert n.normalization_scale == 4.0
    assert n.positions.min() == -1.0 and n.positions.max() == 0.5


def test_normalize_identity_when_already_unit():
    c = make_corpus(np.array([1.0, -0.25]).reshape(1, 1, 2, 1))
    n = normalize(c)
    assert n.normalization_scale == 1.0
    assert np.array_equal(n.positions, c.positions)


def test_normalize_rejects_all_zero():
    with pytest.raises(DegenerateInputError):
        normalize(make_corpus(np.zeros((1, 2, 3, 1))))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_denormalize_round_trip_within_one_ulp(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=rng.uniform(0.1, 50.0), size=(2, 3, 4, 2))
    c = make_corpus(x)
    back = denormalize(normalize(c)).positions
    ulp = np.spacing(np.abs(x))
    assert np.all(np.abs(back - x) <= ulp)


def test_window_counts_match_floor_division():
    traj = np.zeros((3, 10_000, 2))
    assert window(traj, 350).shape[0] == 28
    assert window(traj, 5).shape[0] == 2000


def test_window_of_full_length_is_identity():
    rng = np.random.default_rng(0)
    traj = rng.normal(size=(2, 10, 3))
    w = window(traj, 10)
    assert w.shape == (1, 2, 10, 3)
    assert np.array_equal(w[0], traj)


def test_window_validates_arguments():
    traj = np.zeros((2, 10, 3))
    with pytest.raises(ParameterError):
        window(traj, 1)
    with pytest.raises(ParameterError):
        window(traj, 11)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=2, max_value=7))
def test_window_preserves_values_bitwise_in_order(seed, t_win):
    rng = np.random.default_rng(seed)
    traj = rng.normal(size=(3, 23, 2))
    wins = window(traj, t_win)
    for w in range(wins.shape[0]):
        assert np.array_equal(wins[w], traj[:, w * t_win : (w + 1) * t_win, :])


def test_window_corpus_labels_by_boundary():
    pos = np.arange(2 * 100 * 1, dtype=float).reshape(1, 2, 100, 1)
    c = make_corpus(pos, labels=RegimeLabels(boundary_step=50, root_cause_nodes={1}))
    wc = window_corpus(c, 10)
    assert wc.n_samples == 10
    assert all(wc.labels.regimes[i] == "persist" for i in range(5))
    assert all(wc.labels.regimes[i] == "separated" for i in range(5, 10))
    assert wc.labels.root_cause_nodes == {1}


def test_window_corpus_drops_straddling_window():
    pos = np.zeros((1, 2, 100, 1))
    pos += np.arange(100).reshape(1, 1, 100, 1)
    c = make_corpus(pos, labels=RegimeLabels(boundary_step=45, root_cause_nodes=set()))
    wc = window_corpus(c, 10)
    # window 4 covers steps 40..49: half pre, half post -> unlabeled
    assert 4 not in wc.labels.regimes
    assert wc.labels.regimes[3] == "persist"
    assert wc.labels.regimes[5] == "separated"


# -- file format -----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    c = make_corpus(
        rng.normal(size=(2, 3, 4, 3)),
        labels=RegimeLabels(regimes={0: "persist", 1: "separated"},
                            root_cause_nodes={2}, boundary_step=2),
        roles=[{"donor": 0, "hydrogen": 1, "acceptor": 2}],
    )
    path = tmp_path / "c.txt"
    digest = save(c, path)
    back = load(path)
    assert np.array_equal(back.positions, c.positions)
    assert back.atom_names == c.atom_names
    assert back.labels.regimes == c.labels.regimes
    assert back.labels.root_cause_nodes == {2}
    assert back.roles == c.roles
    assert corpus_hash(back) == digest


def test_piecewise_hashes_match_the_whole_text(tmp_path, monkeypatch):
    """`save`, `corpus_hash` and `hash_content` hash the text a piece at a
    time; with pieces far smaller than the text, each gives the SHA-256 of
    the whole serialized text, and `save` writes exactly that text."""
    monkeypatch.setattr(corpus_mod, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(corpus_mod, "_HASH_CHARS", 5)
    c = make_corpus(np.random.default_rng(4).normal(size=(6, 3, 4, 2)))
    text = serialize(c)
    whole = hashlib.sha256(text.encode("utf-8")).hexdigest()
    path = tmp_path / "c.txt"
    assert save(c, path) == whole
    assert path.read_text(encoding="utf-8") == text
    assert corpus_hash(c) == whole
    assert corpus_mod.hash_content(text) == whole
    other = "Hé,Hé\n" * 3  # two-byte characters on both sides of piece edges
    assert corpus_mod.hash_content(other) == hashlib.sha256(other.encode("utf-8")).hexdigest()


def test_save_of_a_corpus_the_format_cannot_hold_writes_no_file(tmp_path):
    path = tmp_path / "c.txt"
    with pytest.raises(DataError):
        save(make_corpus(np.zeros((1, 1, 2, 4))), path)
    assert not path.exists()


def test_handwritten_two_atom_file_parses_exactly():
    content = (
        '{"schema": 1, "n_atoms": 2, "n_steps": 3, "n_dims": 3, "dt": 0.5, '
        '"atom_names": ["O1", "H1"], "normalization_scale": 1.0}\n'
        "sample,atom,t,x,y,z\n"
        "0,0,0,0.1,0.2,0.3\n"
        "0,0,1,0.4,0.5,0.6\n"
        "0,0,2,0.7,0.8,0.9\n"
        "0,1,0,-1,-2,-3\n"
        "0,1,1,-4,-5,-6\n"
        "0,1,2,-7,-8,-9\n"
    )
    c = loads(content)
    assert c.positions.shape == (1, 2, 3, 3)
    assert c.positions[0, 0, 1, 2] == 0.6
    assert c.positions[0, 1, 2, 0] == -7.0
    assert c.atom_names == ["O1", "H1"]
    assert c.dt == 0.5


def test_missing_metadata_is_parse_error():
    with pytest.raises(ParseError):
        loads("sample,atom,t,x,y,z\n0,0,0,1,2,3\n")


def test_ragged_row_reports_line_number():
    content = (
        '{"schema": 1, "n_atoms": 1, "n_steps": 2, "n_dims": 3, "dt": 1.0, '
        '"atom_names": ["A"], "normalization_scale": 1.0}\n'
        "sample,atom,t,x,y,z\n"
        "0,0,0,1,2,3\n"
        "0,0,1,1,2\n"
    )
    with pytest.raises(ParseError) as err:
        loads(content)
    assert err.value.line == 4


def test_nonfinite_value_rejected():
    content = (
        '{"schema": 1, "n_atoms": 1, "n_steps": 1, "n_dims": 1, "dt": 1.0, '
        '"atom_names": ["A"], "normalization_scale": 1.0}\n'
        "sample,atom,t,x\n"
        "0,0,0,nan\n"
    )
    with pytest.raises(ParseError):
        loads(content)


def test_unknown_metadata_key_rejected():
    content = (
        '{"schema": 1, "n_atoms": 1, "n_steps": 1, "n_dims": 1, "dt": 1.0, '
        '"atom_names": ["A"], "normalization_scale": 1.0, "mystery": 1}\n'
        "sample,atom,t,x\n"
        "0,0,0,0.5\n"
    )
    with pytest.raises(ParseError):
        loads(content)


def test_out_of_order_rows_rejected():
    content = (
        '{"schema": 1, "n_atoms": 1, "n_steps": 2, "n_dims": 1, "dt": 1.0, '
        '"atom_names": ["A"], "normalization_scale": 1.0}\n'
        "sample,atom,t,x\n"
        "0,0,1,1\n"
        "0,0,0,2\n"
    )
    with pytest.raises(ParseError):
        loads(content)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_serialization_round_trip_is_exact(seed):
    rng = np.random.default_rng(seed)
    c = make_corpus(rng.normal(scale=100.0, size=(1, 2, 3, 2)))
    assert np.array_equal(loads(serialize(c)).positions, c.positions)


def reference_payload(positions):
    """The payload one row at a time: keys as ints, values at 17 digits."""
    s_n, n_n, t_n, _ = positions.shape
    out = []
    for s in range(s_n):
        for a in range(n_n):
            for t in range(t_n):
                vals = ",".join(f"{v:.17g}" for v in positions[s, a, t])
                out.append(f"{s},{a},{t},{vals}\n")
    return "".join(out)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 1e16, 0.1]


@st.composite
def corpora(draw):
    shape = tuple(draw(st.integers(min_value=1, max_value=3)) for _ in range(4))
    values = st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-10**6, max_value=10**6).map(float),
    )
    flat = draw(st.lists(values, min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    return make_corpus(np.array(flat, dtype=float).reshape(shape))


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_serialize_matches_row_by_row_reference_bytes(c):
    head, header, payload = serialize(c).split("\n", 2)
    assert json.loads(head)["n_dims"] == c.n_dims
    assert header == "sample,atom,t," + ",".join("xyz"[: c.n_dims])
    assert payload == reference_payload(c.positions)
    back = loads(serialize(c)).positions
    assert np.array_equal(back.view(np.uint64), c.positions.view(np.uint64))


def test_serialize_matches_reference_across_format_chunks():
    rng = np.random.default_rng(1)
    c = make_corpus(rng.normal(size=(3, 2, 1500, 2)))  # 9000 rows: three chunks
    assert serialize(c).split("\n", 2)[2] == reference_payload(c.positions)
    assert np.array_equal(loads(serialize(c)).positions, c.positions)


HEAD = ('{"schema": 1, "n_atoms": 1, "n_steps": 2, "n_dims": 3, "dt": 1.0, '
        '"atom_names": ["A"], "normalization_scale": 1.0%s}\n')
GOOD_ROWS = "0,0,0,1,2,3\n0,0,1,4,5,6\n"


def payload(rows=GOOD_ROWS, meta="", header="sample,atom,t,x,y,z"):
    return HEAD % meta + header + "\n" + rows


# (content, line, the key the message names)
BAD_METADATA_KEYS = [
    (payload(meta=', "regimes": {"99999": "persist"}'), 1, "99999"),
    (payload(meta=', "regimes": {"0": "persist", "-1": "separated"}'), 1, "-1"),
    (payload().replace('"normalization_scale": 1.0', '"normalization_scale": 0'), 1,
     "normalization_scale"),
    (payload().replace('"normalization_scale": 1.0', '"normalization_scale": -2.0'), 1,
     "normalization_scale"),
    (payload().replace('"normalization_scale": 1.0', '"normalization_scale": "nan"'), 1,
     "normalization_scale"),
    (payload().replace('"dt": 1.0', '"dt": -1'), 1, "dt"),
]
BAD_METADATA = [(content, line) for content, line, _ in BAD_METADATA_KEYS]


def test_table_base_payload_parses():
    c = loads(payload(meta=', "regimes": {"0": "persist"}, "root_cause_nodes": [0]'))
    assert c.positions.ravel().tolist() == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("content,line", [
    (payload(rows="0,0,0,1,2,3\n0,0,1,4,5\n"), 4),              # ragged row
    (payload(rows="0,0,0,1,2,3\n0,0,1,4,5,6,7\n"), 4),          # one field too many
    (payload(rows="0,0,0,1,2,3\n\n"), 4),                       # blank row
    (payload(rows="0,0,0,1,2,3\n0,0,1,4,nan,6\n"), 4),
    (payload(rows="0,0,0,inf,2,3\n0,0,1,4,5,6\n"), 3),
    (payload(rows="0,0,0,1,2,3\n0,0,1,4,-inf,6\n"), 4),
    (payload(rows="0,0,0,1,2,3\n0,0,1,4,1e999,6\n"), 4),        # overflows to inf
    (payload(rows="0,0,1,1,2,3\n0,0,0,4,5,6\n"), 3),            # keys out of order
    (payload(rows="0,0,0,1,2,3\n0,1,1,4,5,6\n"), 4),            # atom key wrong
    (payload(rows="0,0,0,1,2,3\n0,0,1.0,4,5,6\n"), 4),          # float key
    (payload(rows="0,0,0,1,2,3\n0,0,1,4,x,6\n"), 4),            # not a number
    (payload(header="sample,atom,t,x,y"), 2),
    (payload(rows=""), None),                                   # empty payload
    ("", None),
    (payload(rows=GOOD_ROWS + "0,0,2,7,8,9\n"), None),          # wrong row count
    (payload(meta=', "regimes": {"0": "boiling"}'), 1),
    (payload(meta=', "root_cause_nodes": [1]'), 1),
    (payload(meta=', "mystery": 1'), 1),
    # rejected since the bulk reader: Python's float() takes "1_0", and
    # mistyped metadata raised TypeError/ValueError/AttributeError
    (payload(rows="0,0,0,1,2,3\n0,0,1,4,1_0,6\n"), 4),
    (payload().replace('"n_steps": 2', '"n_steps": "two"'), 1),
    (payload(meta=', "regimes": ["persist"]'), 1),
    (payload(meta=', "regimes": {"zero": "persist"}'), 1),
    (payload(meta=', "root_cause_nodes": ["0"]'), 1),
    # regime keys outside the file's windows; scales that make
    # `denormalize` return zeros, flipped values or NaN
    *BAD_METADATA,
])
def test_bad_corpus_text_names_its_line(content, line):
    with pytest.raises(ParseError) as err:
        loads(content)
    assert err.value.line == line


@pytest.mark.parametrize("content,line,key", BAD_METADATA_KEYS)
def test_bad_metadata_value_names_its_key(content, line, key):
    with pytest.raises(ParseError) as err:
        loads(content)
    assert err.value.line == line and key in str(err.value)


def test_train_hashes_the_corpus_once(monkeypatch):
    rng = np.random.default_rng(2)
    c = make_corpus(rng.normal(size=(8, 3, 4, 2)))
    calls = []
    real = corpus_mod._text_blocks

    def counting(corpus):
        calls.append(corpus)
        return real(corpus)

    monkeypatch.setattr(corpus_mod, "_text_blocks", counting)
    config = TrainConfig(tau=0.5, lr=1e-3, prior=(0.6, 0.2, 0.2), k=2, epochs=1,
                         batch_size=4, seed=5)
    ckpt = train(config, c)
    assert len(calls) == 1
    assert ckpt.corpus_hash == corpus_hash(c)


# -- splits -----------------------------------------------------------------------


def test_splits_disjoint_exhaustive_reproducible():
    rng = np.random.default_rng(5)
    c = make_corpus(rng.normal(size=(20, 2, 3, 1)))
    spec = SplitSpec(seed=9)
    tr, va, te = split_windows(c, spec)
    again = split_windows(c, SplitSpec(seed=9))
    assert np.array_equal(tr, again[0])
    all_idx = np.sort(np.concatenate([tr, va, te]))
    assert np.array_equal(all_idx, np.arange(20))
    assert len(tr) == 16 and len(va) == 2 and len(te) == 2


def test_split_depends_on_corpus_hash():
    rng = np.random.default_rng(5)
    c1 = make_corpus(rng.normal(size=(20, 2, 3, 1)))
    c2 = make_corpus(rng.normal(size=(20, 2, 3, 1)))
    tr1, _, _ = split_windows(c1, SplitSpec(seed=9))
    tr2, _, _ = split_windows(c2, SplitSpec(seed=9))
    assert not np.array_equal(tr1, tr2)


def test_split_fractions_validated():
    with pytest.raises(ParameterError):
        SplitSpec(train=0.5, val=0.1, test=0.1)
