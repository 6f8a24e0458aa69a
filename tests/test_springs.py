import numpy as np
import pytest

from hbrca.corpus import window_corpus
from hbrca.errors import ConfigError, InstabilityError, ParameterError
from hbrca.rca import GroundTruthOracle
from hbrca.rng import substream
from hbrca.springs import (
    EDGE_ATTRACT,
    EDGE_SWITCHED,
    HbCriterion,
    ScmSpec,
    _spring_matrix,
    hb_indicator,
    label_hb_events,
    simulate,
)


def two_node_spec(k=0.8, h=0.1, mutual=False):
    adj = np.zeros((2, 2), dtype=int)
    adj[0, 1] = EDGE_ATTRACT
    if mutual:
        adj[1, 0] = EDGE_ATTRACT
    return ScmSpec(
        n_nodes=2, n_dims=3, adjacency=adj, k_attract=k, step_size=h,
        init_positions=np.array([[0.0, 0.0, 0.0], [1.0, 2.0, -1.0]]),
    )


def test_no_forces_no_noise_is_stationary():
    spec = ScmSpec(n_nodes=3, n_dims=2,
                   init_positions=np.array([[0.0, 1.0], [2.0, 3.0], [-1.0, 0.5]]))
    corpus, _ = simulate(spec, 50, seed=0)
    for t in range(50):
        assert np.array_equal(corpus.positions[0, :, t], spec.init_positions)


def test_one_directed_spring_matches_closed_form():
    """r1 relaxes toward a parent that never moves: geometric contraction."""
    k, h = 0.8, 0.1
    spec = two_node_spec(k=k, h=h)
    corpus, _ = simulate(spec, 200, seed=0)
    pos = corpus.positions[0]
    d0 = spec.init_positions[1] - spec.init_positions[0]
    for t in range(200):
        expect = spec.init_positions[0] + (1.0 - h * k) ** t * d0
        assert np.max(np.abs(pos[1, t] - expect)) < 1e-9
        assert np.array_equal(pos[0, t], spec.init_positions[0])


def test_mutual_spring_matches_closed_form():
    """Symmetric pair: center fixed, separation contracts by (1 - 2hk)^t."""
    k, h = 0.8, 0.1
    spec = two_node_spec(k=k, h=h, mutual=True)
    corpus, _ = simulate(spec, 150, seed=0)
    pos = corpus.positions[0]
    center = spec.init_positions.mean(axis=0)
    d0 = spec.init_positions[1] - spec.init_positions[0]
    for t in range(150):
        d = (1.0 - 2.0 * h * k) ** t * d0
        assert np.max(np.abs(pos[1, t] - (center + d / 2))) < 1e-9
        assert np.max(np.abs(pos[0, t] - (center - d / 2))) < 1e-9


def test_simulation_is_deterministic_per_seed():
    spec = ScmSpec(n_nodes=4, noise_std=0.3)
    a, _ = simulate(spec, 100, seed=42)
    b, _ = simulate(spec, 100, seed=42)
    c, _ = simulate(spec, 100, seed=43)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_nodes_outside_change_set_keep_their_mechanism():
    """Replaying pre and post force laws on the same states must agree
    everywhere except on incoming edges of switched nodes."""
    rng = np.random.default_rng(0)
    n = 5
    adj = np.zeros((n, n), dtype=int)
    adj[0, 2] = EDGE_ATTRACT
    adj[1, 3] = EDGE_ATTRACT
    adj[0, 4] = EDGE_ATTRACT
    spec = ScmSpec(n_nodes=n, adjacency=adj, k_attract=1.0, k_switch=0.0,
                   change_set={3}, boundary_step=10, noise_std=0.0,
                   init_positions=rng.normal(size=(n, 3)))
    w_pre = _spring_matrix(spec, switched=False)
    w_post = _spring_matrix(spec, switched=True)
    states = rng.normal(size=(7, n, 3))
    for s in states:
        f_pre = w_pre.T @ s - w_pre.sum(axis=0)[:, None] * s
        f_post = w_post.T @ s - w_post.sum(axis=0)[:, None] * s
        unchanged = [i for i in range(n) if i != 3]
        assert np.array_equal(f_pre[unchanged], f_post[unchanged])


def test_switched_node_has_largest_distribution_shift():
    """Self-consistency with the Gaussian-KL ground-truth oracle."""
    n = 5
    top = []
    for seed in range(5):
        adj = np.zeros((n, n), dtype=int)
        adj[0, 3] = EDGE_ATTRACT
        adj[1, 4] = EDGE_ATTRACT
        init = np.zeros((n, 3))
        init[0] = [1.0, 0.0, 0.0]
        init[1] = [-1.0, 0.0, 0.0]
        init[3] = [1.0, 0.2, 0.0]
        init[4] = [-1.0, -0.2, 0.0]
        spec = ScmSpec(
            n_nodes=n, adjacency=adj, k_attract=5.0, k_switch=0.0,
            noise_std=0.05, step_size=0.1, change_set={3}, boundary_step=500,
            static_nodes={0, 1}, init_positions=init,
        )
        corpus, _ = simulate(spec, 1000, seed=seed)
        windows = window_corpus(corpus, 10)
        oracle = GroundTruthOracle.fit(windows)
        top.append(int(np.argmax(oracle.scores("kl"))))
    assert top == [3, 3, 3, 3, 3]


def _simulate_per_step(spec, t_total, seed, boundary):
    """The simulator's loop as first written: spring matrix, column sums
    and noise drawn afresh at every step."""
    rng = substream(seed, "simulate", 0)
    n, d = spec.n_nodes, spec.n_dims
    cur = spec.init_positions.copy() if spec.init_positions is not None \
        else rng.normal(0.0, 1.0, size=(n, d))
    mobile = np.array([i not in spec.static_nodes for i in range(n)], dtype=float)
    out = [cur]
    for t in range(t_total - 1):
        w = _spring_matrix(spec, switched=t + 1 >= boundary)
        force = w.T @ cur - w.sum(axis=0)[:, None] * cur
        noise = rng.normal(0.0, spec.noise_std, size=(n, d)) if spec.noise_std > 0 else 0.0
        cur = cur + (spec.step_size * force + noise) * mobile[:, None]
        out.append(cur)
    return np.stack(out, axis=1)


@pytest.mark.parametrize("noise_std", [0.0, 0.2])
def test_simulate_matches_per_step_loop_bitwise(noise_std):
    """Hoisted column sums and one up-front noise draw give the bits of the
    per-step loop, on both sides of the mechanism switch."""
    adj = np.zeros((5, 5), dtype=int)
    adj[0, 3] = adj[1, 4] = EDGE_ATTRACT
    adj[2, 4] = EDGE_SWITCHED
    spec = ScmSpec(n_nodes=5, adjacency=adj, k_attract=9.5, k_switch=1.0,
                   noise_std=noise_std, change_set={3}, boundary_step=40,
                   static_nodes={0, 1})
    corpus, _ = simulate(spec, 100, seed=7)
    expect = _simulate_per_step(spec, 100, 7, boundary=40)
    assert corpus.positions[0].tobytes() == expect.tobytes()


def test_blowup_raises_instability():
    adj = np.zeros((2, 2), dtype=int)
    adj[0, 1] = EDGE_ATTRACT
    spec = ScmSpec(n_nodes=2, adjacency=adj, k_attract=25.0, step_size=1.0,
                   init_positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(InstabilityError):
        simulate(spec, 200, seed=0)


def test_spec_validation():
    with pytest.raises(ParameterError):
        ScmSpec(n_nodes=2, adjacency=np.eye(2, dtype=int))  # self-edge
    with pytest.raises(ParameterError):
        ScmSpec(n_nodes=2, k_attract=1.0, k_switch=1.0)  # equal constants
    with pytest.raises(ParameterError):
        ScmSpec(n_nodes=2, noise_std=-0.1)
    with pytest.raises(ParameterError):
        ScmSpec(n_nodes=2, change_set={5})


# -- hydrogen-bond labeling ------------------------------------------------------


def test_collinear_close_triple_is_bonded():
    crit = HbCriterion(cutoff=3.5, min_angle_deg=120.0)
    donor = np.array([[0.0, 0.0, 0.0]])
    hydrogen = np.array([[1.0, 0.0, 0.0]])
    acceptor = np.array([[2.0, 0.0, 0.0]])  # D-H-A angle 180, distance 2.0
    assert hb_indicator(donor, hydrogen, acceptor, crit).all()


def test_distant_pair_is_not_bonded():
    crit = HbCriterion(cutoff=3.5, min_angle_deg=120.0)
    donor = np.array([[0.0, 0.0, 0.0]])
    hydrogen = np.array([[1.0, 0.0, 0.0]])
    acceptor = np.array([[5.0, 0.0, 0.0]])
    assert not hb_indicator(donor, hydrogen, acceptor, crit).any()


def test_right_angle_geometry_fails_angle_test():
    crit = HbCriterion(cutoff=3.5, min_angle_deg=120.0)
    donor = np.array([[1.0, 0.0, 0.0]])
    hydrogen = np.array([[0.0, 0.0, 0.0]])
    acceptor = np.array([[0.0, 1.0, 0.0]])  # angle at H is 90 degrees
    assert not hb_indicator(donor, hydrogen, acceptor, crit).any()


def test_label_hb_events_thresholds():
    t = 20
    pos = np.zeros((3, 3, t, 3))
    pos[:, 1, :, 0] = 1.0
    pos[:, 2, :, 0] = 2.0  # bonded geometry everywhere
    pos[1, 2, :, 0] = 50.0  # sample 1 never bonded
    pos[2, 2, :t // 2, 0] = 50.0  # sample 2 bonded half the time
    pos = pos.transpose(0, 1, 2, 3)
    from hbrca.corpus import TrajectoryCorpus

    corpus = TrajectoryCorpus(
        positions=pos, atom_names=["D", "H", "A"],
        roles=[{"donor": 0, "hydrogen": 1, "acceptor": 2}],
    )
    labels = label_hb_events(corpus, HbCriterion())
    assert labels.regimes[0] == "persist"
    assert labels.regimes[1] == "separated"
    assert 2 not in labels.regimes


def test_label_hb_requires_roles():
    from hbrca.corpus import TrajectoryCorpus

    corpus = TrajectoryCorpus(positions=np.zeros((1, 2, 3, 3)), atom_names=["a", "b"])
    with pytest.raises(ConfigError):
        label_hb_events(corpus, HbCriterion())


def test_criterion_validation():
    with pytest.raises(ParameterError):
        HbCriterion(cutoff=0.0)
    with pytest.raises(ParameterError):
        HbCriterion(min_angle_deg=181.0)
