"""Synthetic worlds, session generation, and weighted-MF reward imputation."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from lpirec.data import expand_examples
from lpirec.synth import (
    ImputationModel,
    SyntheticWorld,
    TabularInstance,
    bucket_contexts_by_state,
    exact_state_visitation,
    fit_weighted_mf,
    generate_sessions,
    impute_reward,
    imputed_matrix,
    imputed_rewards,
    make_random_world,
    project_policy_to_tabular,
    random_instance,
    sample_bandit_logs,
    simulate_policy_value,
    weighted_mf_objective,
    world_policy_value,
)
from lpirec.synth import _sample_actions


TOP_DRAW = 1.0 - 2.0**-53  # the largest value Generator.random can return
_default_rng = np.random.default_rng


class TopDraws:
    """A generator whose uniform draws all equal TOP_DRAW; choices are seeded."""

    def __init__(self, seed=0):
        self._rng = _default_rng(seed)

    def choice(self, *args, **kwargs):
        return self._rng.choice(*args, **kwargs)

    def random(self, size=None):
        return TOP_DRAW if size is None else np.full(size, TOP_DRAW)


def two_state_world(behavior=None, rewards=None, start=None):
    instance = TabularInstance(
        context_probs=np.array([1.0, 0.0]) if start is None else np.asarray(start),
        behavior=np.array([[0.0, 1.0], [1.0, 0.0]]) if behavior is None else np.asarray(behavior),
        rewards=np.array([[0.1, 0.9], [0.8, 0.2]]) if rewards is None else np.asarray(rewards),
    )
    return SyntheticWorld(instance, seed=0)


# -- instance serialization -----------------------------------------------------


def test_instance_json_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    inst = random_instance(rng, 3, 4, with_transitions=True, discount=0.7)
    path = tmp_path / "instance.json"
    inst.save(path)
    back = TabularInstance.load(path)
    np.testing.assert_allclose(back.behavior, inst.behavior, atol=1e-15)
    np.testing.assert_allclose(back.transitions, inst.transitions, atol=1e-15)
    assert back.discount == inst.discount


def test_instance_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="shapes"):
        TabularInstance(np.array([1.0]), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="rows"):
        TabularInstance(np.array([0.5, 0.5]), np.ones((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-negative"):
        TabularInstance(np.array([1.0]), np.array([[1.0]]), np.array([[-0.1]]))


# -- logged bandit sampling -------------------------------------------------------


def test_logged_actions_follow_the_behavior_policy():
    rng = np.random.default_rng(1)
    inst = random_instance(rng, 3, 4)
    contexts, actions, rewards = sample_bandit_logs(inst, 200_000, rng)
    for x in range(3):
        mask = contexts == x
        freq = np.bincount(actions[mask], minlength=4) / mask.sum()
        np.testing.assert_allclose(freq, inst.behavior[x], atol=0.01)
    np.testing.assert_array_equal(rewards, inst.rewards[contexts, actions])


def test_context_frequencies_follow_the_context_distribution():
    rng = np.random.default_rng(2)
    inst = random_instance(rng, 5, 3)
    contexts, _, _ = sample_bandit_logs(inst, 100_000, rng)
    freq = np.bincount(contexts, minlength=5) / len(contexts)
    np.testing.assert_allclose(freq, inst.context_probs, atol=0.01)


def test_bernoulli_noise_logs_zero_one_with_matching_mean():
    rng = np.random.default_rng(3)
    inst = random_instance(rng, 2, 3)
    contexts, actions, rewards = sample_bandit_logs(inst, 100_000, rng, reward_noise="bernoulli")
    assert set(np.unique(rewards)) <= {0.0, 1.0}
    means = inst.rewards[contexts, actions]
    assert rewards.mean() == pytest.approx(float(means.mean()), abs=0.01)
    with pytest.raises(ValueError, match="reward_noise"):
        sample_bandit_logs(inst, 10, rng, reward_noise="gaussian")


# -- worlds ------------------------------------------------------------------------


def test_a_draw_at_the_rounded_row_total_picks_the_last_action(monkeypatch):
    behavior = np.full((1, 10), 0.1)
    assert np.cumsum(behavior)[-1] == TOP_DRAW
    instance = TabularInstance(np.array([1.0]), behavior, np.eye(10)[[9]])
    _, actions, _ = sample_bandit_logs(instance, 5, TopDraws())
    assert actions.tolist() == [9] * 5

    monkeypatch.setattr(np.random, "default_rng", TopDraws)
    world = SyntheticWorld(instance)
    assert simulate_policy_value(world, behavior, 3, n_sessions=4, seed=0)[0] == 1.0
    sessions = generate_sessions(world, 2, 3, seed=0).sequences
    assert [it.item for seq in sessions for it in seq.interactions[1:]] == [9] * 6


def test_bernoulli_noise_rejects_rewards_above_one_before_any_draw():
    world = two_state_world(rewards=[[2.0, 0.9], [0.8, 0.2]])
    with pytest.raises(ValueError, match=r"bernoulli noise requires rewards in \[0, 1\]"):
        generate_sessions(world, 3, 2, reward_noise="bernoulli")
    with pytest.raises(ValueError, match=r"bernoulli noise requires rewards in \[0, 1\]"):
        sample_bandit_logs(world.instance, 3, np.random.default_rng(0), "bernoulli")


def test_world_state_is_last_item_modulo_state_count():
    world = make_random_world(seed=0, n_states=4, catalog_size=10)
    assert world.state_of_context((7,)) == 3
    assert world.state_of_context((1, 2, 9)) == 1
    assert world.state_of_context((3,)) == 3
    with pytest.raises(ValueError, match="seed item"):
        world.state_of_context(())


def test_world_validation():
    inst = TabularInstance(
        np.array([0.5, 0.5]),
        np.full((2, 2), 0.5),
        np.zeros((2, 2)),
    )
    SyntheticWorld(inst)  # catalog == states is allowed
    with pytest.raises(ValueError, match="catalog"):
        SyntheticWorld(
            TabularInstance(
                np.array([0.5, 0.5]), np.array([[1.0], [1.0]]), np.zeros((2, 1))
            )
        )
    rng = np.random.default_rng(4)
    big = random_instance(rng, 65, 65)
    with pytest.raises(ValueError, match="64"):
        SyntheticWorld(big)


def test_random_world_rows_are_distributions():
    world = make_random_world(seed=5, n_states=6, catalog_size=9)
    np.testing.assert_allclose(world.instance.behavior.sum(axis=-1), 1.0, atol=1e-12)
    assert world.instance.behavior.min() > 0
    sharp = make_random_world(seed=5, n_states=6, catalog_size=9, behavior_sharpness=8.0)
    assert sharp.instance.behavior.max() > world.instance.behavior.max()


def test_state_transition_matrix_folds_catalog_onto_states():
    world = make_random_world(seed=6, n_states=2, catalog_size=4)
    policy = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]])
    t = world.state_transition_matrix(policy)
    # items 0 and 2 land in state 0; items 1 and 3 in state 1
    np.testing.assert_allclose(t[0], [0.1 + 0.3, 0.2 + 0.4], atol=1e-15)
    np.testing.assert_allclose(t[1], [0.5, 0.5], atol=1e-15)


def test_world_json_round_trip():
    world = make_random_world(seed=7, n_states=3, catalog_size=5)
    back = SyntheticWorld.from_json_dict(world.to_json_dict())
    np.testing.assert_allclose(back.instance.behavior, world.instance.behavior, atol=1e-15)
    assert back.seed == 7


# -- session generation ---------------------------------------------------------------


def test_sessions_open_with_the_seed_interaction():
    world = make_random_world(seed=8, n_states=3, catalog_size=6)
    ds = generate_sessions(world, n_sessions=20, horizon=4, seed=1)
    for seq in ds.sequences:
        first = seq.interactions[0]
        assert first.reward == 0.0
        assert first.timestamp == 0
        assert first.event == "synthetic"
        assert 0 <= first.item < 3  # a start state pins itself
        assert len(seq) == 5
        assert [it.timestamp for it in seq.interactions] == [0, 1, 2, 3, 4]


def test_deterministic_behavior_makes_identical_sessions():
    world = two_state_world()  # one-hot behavior rows, fixed start state 0
    ds = generate_sessions(world, n_sessions=5, horizon=3, seed=2)
    reference = [it.item for it in ds.sequences[0].interactions]
    assert reference == [0, 1, 0, 1]  # state 0 -> item 1 -> state 1 -> item 0 ...
    for seq in ds.sequences[1:]:
        assert [it.item for it in seq.interactions] == reference


def test_generated_action_frequencies_converge_to_behavior():
    world = make_random_world(seed=9, n_states=3, catalog_size=5)
    ds = generate_sessions(world, n_sessions=100_000, horizon=2, seed=3)
    counts = np.zeros((3, 5))
    for seq in ds.sequences:
        items = [it.item for it in seq.interactions]
        for prev, action in zip(items, items[1:]):
            counts[prev % 3, action] += 1
    freq = counts / counts.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(freq, world.instance.behavior, atol=0.01)


def test_same_seed_reproduces_the_dataset():
    world = make_random_world(seed=10, n_states=4, catalog_size=7)
    a = generate_sessions(world, n_sessions=50, horizon=5, seed=4)
    b = generate_sessions(world, n_sessions=50, horizon=5, seed=4)
    assert [s.id for s in a.sequences] == [s.id for s in b.sequences]
    for s1, s2 in zip(a.sequences, b.sequences):
        assert [(i.item, i.reward) for i in s1.interactions] == [
            (i.item, i.reward) for i in s2.interactions
        ]
    c = generate_sessions(world, n_sessions=50, horizon=5, seed=5)
    assert any(
        [i.item for i in s1.interactions] != [i.item for i in s2.interactions]
        for s1, s2 in zip(a.sequences, c.sequences)
    )


def session_digest(ds):
    h = hashlib.sha256()
    for seq in ds.sequences:
        h.update(seq.id.encode())
        for it in seq.interactions:
            h.update(f"{it.item!r},{it.event},{it.reward!r},{it.timestamp!r};".encode())
    return h.hexdigest()[:16]


# digests taken from a generator that drew one session, then one step, at a time
@pytest.mark.parametrize(
    "noise, seed, digest",
    [
        ("none", 0, "13111583397ff051"),
        ("none", 1, "01f05f2a9ba91745"),
        ("none", 7, "e19e9a9ebfaf4b90"),
        ("none", 42, "61aed3874e761e71"),
        ("none", 613, "093895774bf3d6ec"),
        ("bernoulli", 0, "73d1796ec1315d81"),
        ("bernoulli", 1, "3ee6917d01cbafda"),
        ("bernoulli", 7, "6dc72692bb2a49b0"),
        ("bernoulli", 42, "9b0263b7ebc73659"),
        ("bernoulli", 613, "b677d23994665d41"),
    ],
)
def test_sessions_stepped_together_equal_sessions_stepped_one_by_one(noise, seed, digest):
    world = make_random_world(seed=12, n_states=5, catalog_size=9)
    ds = generate_sessions(world, n_sessions=40, horizon=6, seed=seed, reward_noise=noise)
    assert session_digest(ds) == digest


def test_session_generation_validates_sizes():
    world = make_random_world(seed=11, n_states=2, catalog_size=3)
    with pytest.raises(ValueError, match="n_sessions"):
        generate_sessions(world, n_sessions=0, horizon=3)
    with pytest.raises(ValueError, match="horizon"):
        generate_sessions(world, n_sessions=3, horizon=1)


# -- exact world evaluation -------------------------------------------------------------


def test_visitation_at_horizon_one_is_the_start_distribution():
    world = make_random_world(seed=12, n_states=3, catalog_size=4)
    policy = np.full((3, 4), 0.25)
    np.testing.assert_allclose(
        exact_state_visitation(world, policy, horizon=1),
        world.instance.context_probs,
        atol=1e-15,
    )


def test_visitation_tracks_deterministic_cycles():
    world = two_state_world()
    # behavior: state 0 -> item 1 (state 1), state 1 -> item 0 (state 0)
    vis = exact_state_visitation(world, world.instance.behavior, horizon=4)
    np.testing.assert_allclose(vis, [0.5, 0.5], atol=1e-15)
    vis3 = exact_state_visitation(world, world.instance.behavior, horizon=3)
    np.testing.assert_allclose(vis3, [2 / 3, 1 / 3], atol=1e-15)


def test_exact_value_matches_hand_computation_on_a_cycle():
    world = two_state_world()
    mu = world.instance.behavior
    # alternating 0 -> 1 -> 0 ...; rewards r(0, item1)=0.9, r(1, item0)=0.8
    value = world_policy_value(world, mu, horizon=4)
    assert value == pytest.approx((0.9 + 0.8) / 2, abs=1e-12)


def test_exact_value_agrees_with_monte_carlo_rollouts():
    world = make_random_world(seed=13, n_states=4, catalog_size=6)
    rng = np.random.default_rng(14)
    policy = rng.dirichlet(np.ones(6), size=4)
    exact = world_policy_value(world, policy, horizon=5)
    mc, stderr = simulate_policy_value(world, policy, horizon=5, n_sessions=100_000, seed=15)
    assert abs(mc - exact) < 3 * stderr


def test_simulation_memory_does_not_grow_with_sessions_times_catalog():
    # the rows of all sessions' action CDFs, gathered at once, would be 4x this bound
    world = make_random_world(seed=16, n_states=64, catalog_size=300)
    policy = np.random.default_rng(17).dirichlet(np.ones(300), size=64)
    n_sessions = 20_000
    tracemalloc.start()
    try:
        simulate_policy_value(world, policy, horizon=3, n_sessions=n_sessions, seed=18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_sessions * 300 / 4


def test_session_generation_memory_does_not_grow_with_sessions_times_catalog():
    # world-lpi's sessions; the action CDF rows of all sessions, gathered at once, exceed this
    world = make_random_world(7, 64, 300)
    n_sessions = 12_000
    tracemalloc.start()
    try:
        generate_sessions(world, n_sessions, 5, seed=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_sessions * world.catalog_size


@pytest.mark.parametrize("catalog", [1, 2, 7, 64, 300])
def test_inverse_cdf_draws_equal_a_searchsorted_per_draw(catalog):
    rng = np.random.default_rng(catalog)
    probs = rng.dirichlet(np.full(catalog, 0.3), size=6)
    probs[rng.random(probs.shape) < 0.3] = 0.0  # flat runs in the CDF
    probs[probs.sum(axis=1) == 0, 0] = 1.0
    cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=-1)
    cdf[5] *= 0.999  # a row whose rounded total falls short of 1
    rows = rng.integers(0, 6, size=2000)
    draws = rng.random(2000)
    draws[:300] = cdf[rows[:300], rng.integers(0, catalog, size=300)]  # draws on CDF values
    draws[300:320] = np.nextafter(1.0, 0.0)
    draws[320:340] = 0.0
    expected = [min(int(np.searchsorted(cdf[r], d, side="right")), catalog - 1)
                for r, d in zip(rows, draws)]
    assert _sample_actions(cdf, rows, draws).tolist() == expected

def test_policy_values_reject_a_policy_over_another_catalog():
    world = make_random_world(seed=19, n_states=4, catalog_size=10)
    policy = np.random.default_rng(20).dirichlet(np.ones(8), size=4)
    with pytest.raises(ValueError, match=r"policy must have shape \(4, 10\), got \(4, 8\)"):
        simulate_policy_value(world, policy, horizon=3, n_sessions=100, seed=21)
    with pytest.raises(ValueError, match=r"policy must have shape \(4, 10\), got \(4, 8\)"):
        world_policy_value(world, policy, horizon=3)
    with pytest.raises(ValueError, match=r"policy must have shape \(4, 10\), got \(4, 12\)"):
        exact_state_visitation(world, np.full((4, 12), 1 / 12), horizon=3)


def test_simulation_rejects_policy_rows_that_are_not_distributions():
    world = make_random_world(seed=22, n_states=4, catalog_size=10)
    policy = np.full((4, 10), 0.09)
    with pytest.raises(ValueError, match="policy rows must be probability distributions"):
        simulate_policy_value(world, policy, horizon=3, n_sessions=100, seed=23)


def test_projection_averages_contexts_within_states():
    world = make_random_world(seed=16, n_states=2, catalog_size=4)
    rows = {
        (0,): np.array([0.7, 0.1, 0.1, 0.1]),
        (2, 0): np.array([0.1, 0.1, 0.7, 0.1]),
        (1,): np.array([0.25, 0.25, 0.25, 0.25]),
    }
    probs_fn = lambda contexts: np.stack([rows[tuple(c)] for c in contexts])
    buckets = {0: [(0,), (2, 0)], 1: [(1,)]}
    projected = project_policy_to_tabular(probs_fn, world, buckets)
    np.testing.assert_allclose(projected[0], [0.4, 0.1, 0.4, 0.1], atol=1e-12)
    np.testing.assert_allclose(projected[1], 0.25, atol=1e-12)


def test_projection_probes_unobserved_states_with_their_seed_context():
    world = make_random_world(seed=17, n_states=2, catalog_size=3)
    seen = []

    def probs_fn(contexts):
        seen.extend(tuple(c) for c in contexts)
        return np.full((len(contexts), 3), 1.0 / 3.0)

    project_policy_to_tabular(probs_fn, world, {0: [(0,)]})
    assert (1,) in seen


def test_bucketing_examples_by_state():
    world = make_random_world(seed=18, n_states=2, catalog_size=4)
    ds = generate_sessions(world, n_sessions=10, horizon=3, seed=19)
    examples = [ex for seq in ds.sequences for ex in expand_examples(seq, loss_window=50)]
    buckets = bucket_contexts_by_state(world, examples)
    assert set(buckets) == {0, 1}
    for state, contexts in buckets.items():
        for ctx in contexts:
            assert ctx[-1] % 2 == state
    assert sum(len(v) for v in buckets.values()) == len(examples)


# -- weighted matrix factorization -------------------------------------------------------


def test_rank_one_ratings_recovered_when_missing_weight_vanishes():
    rng = np.random.default_rng(20)
    u_true = rng.uniform(0.5, 1.0, size=8)
    v_true = rng.uniform(0.3, 0.9, size=6)
    truth = np.outer(u_true, v_true)
    cells = [(i, j) for i in range(8) for j in range(6) if rng.random() < 0.75]
    ratings = [(i, j, truth[i, j]) for i, j in cells]
    model = fit_weighted_mf(
        ratings, f=2, l2=1e-6, missing_weight=1e-9, epochs=60, seed=0,
        n_users=8, n_items=6,
    )
    preds = model.user_factors @ model.item_factors.T + model.global_bias
    observed_err = [(preds[i, j] - truth[i, j]) ** 2 for i, j in cells]
    assert np.sqrt(np.mean(observed_err)) < 1e-3


def test_constant_ratings_fit_the_constant_everywhere():
    ratings = [(i, j, 0.6) for i in range(4) for j in range(5) if (i + j) % 2 == 0]
    model = fit_weighted_mf(ratings, f=3, missing_target=0.6, seed=1, n_users=4, n_items=5)
    preds = imputed_matrix(model)
    assert np.sqrt(np.mean((preds - 0.6) ** 2)) < 1e-3


def test_als_objective_never_increases_across_epochs():
    rng = np.random.default_rng(21)
    ratings = [
        (int(u), int(i), float(rng.uniform(0, 1)))
        for u, i in zip(rng.integers(0, 6, 40), rng.integers(0, 7, 40))
    ]
    from lpirec.synth import _imputation_arrays

    means, observed = _imputation_arrays(ratings, 6, 7)
    values = []
    for epochs in range(1, 11):
        model = fit_weighted_mf(ratings, f=3, epochs=epochs, seed=2, n_users=6, n_items=7)
        values.append(weighted_mf_objective(model, means, observed))
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def per_row_ridge_fit(ratings, f, l2, missing_target, missing_weight, epochs, seed, n_users, n_items):
    """Alternating least squares with one ridge solve per user and per item."""
    sums = np.zeros((n_users, n_items))
    counts = np.zeros((n_users, n_items))
    for u, i, r in ratings:
        sums[u, i] += r
        counts[u, i] += 1
    observed = counts > 0
    means = np.where(observed, sums / np.maximum(counts, 1), 0.0)
    bias = means[observed].mean()
    targets = np.where(observed, means, missing_target) - bias
    weights = np.where(observed, 1.0, missing_weight)
    rng = np.random.default_rng(seed)
    users = rng.standard_normal((n_users, f)) * 0.1
    items = rng.standard_normal((n_items, f)) * 0.1
    for _ in range(epochs):
        for row in range(n_users):
            gram = sum(weights[row, c] * np.outer(items[c], items[c]) for c in range(n_items))
            rhs = sum(weights[row, c] * targets[row, c] * items[c] for c in range(n_items))
            users[row] = np.linalg.solve(gram + l2 * np.eye(f), rhs)
        for col in range(n_items):
            gram = sum(weights[r, col] * np.outer(users[r], users[r]) for r in range(n_users))
            rhs = sum(weights[r, col] * targets[r, col] * users[r] for r in range(n_users))
            items[col] = np.linalg.solve(gram + l2 * np.eye(f), rhs)
    return users, items


def test_als_matches_per_row_ridge_solves():
    rng = np.random.default_rng(22)
    ratings = [
        (int(u), int(i), float(rng.uniform(0, 1)))
        for u, i in zip(rng.integers(0, 9, 50), rng.integers(0, 11, 50))
    ]
    settings = dict(f=3, l2=0.05, missing_target=0.25, missing_weight=0.05, epochs=4, seed=5)
    model = fit_weighted_mf(ratings, n_users=9, n_items=11, **settings)
    users, items = per_row_ridge_fit(ratings, n_users=9, n_items=11, **settings)
    np.testing.assert_allclose(model.user_factors, users, rtol=0, atol=1e-10)
    np.testing.assert_allclose(model.item_factors, items, rtol=0, atol=1e-10)


def test_zero_factors_impute_the_clamped_bias():
    model = ImputationModel(
        user_factors=np.zeros((2, 3)),
        item_factors=np.zeros((4, 3)),
        global_bias=0.37,
        l2=0.05,
        missing_target=0.25,
        missing_weight=0.05,
    )
    assert impute_reward(model, 0, 2) == pytest.approx(0.37, abs=1e-15)
    model.global_bias = 1.9
    assert impute_reward(model, 1, 3) == 1.0  # clamped from above
    model.global_bias = -0.5
    assert impute_reward(model, 1, 0) == 0.0  # clamped from below


def test_imputation_matches_dot_product_oracle():
    rng = np.random.default_rng(22)
    model = ImputationModel(
        user_factors=rng.standard_normal((3, 4)) * 0.1,
        item_factors=rng.standard_normal((5, 4)) * 0.1,
        global_bias=0.4,
        l2=0.05,
        missing_target=0.25,
        missing_weight=0.05,
    )
    for u in range(3):
        for i in range(5):
            raw = sum(model.user_factors[u][k] * model.item_factors[i][k] for k in range(4))
            expected = min(1.0, max(0.0, raw + 0.4))
            assert impute_reward(model, u, i) == pytest.approx(expected, abs=1e-12)


def test_imputation_range_errors_name_the_cell():
    model = fit_weighted_mf([(0, 0, 1.0)], f=1, n_users=2, n_items=3)
    with pytest.raises(ValueError, match=r"user=2, item=0.*\(2, 3\)"):
        impute_reward(model, 2, 0)
    with pytest.raises(ValueError, match="item=3"):
        impute_reward(model, 0, 3)


def test_impute_reward_is_the_one_row_case_of_imputed_rewards():
    rng = np.random.default_rng(23)
    for f in (1, 4, 8, 16):
        model = ImputationModel(
            user_factors=rng.standard_normal((6, f)) * 0.5 / f**0.25,
            item_factors=rng.standard_normal((7, f)) * 0.5 / f**0.25,
            global_bias=0.3,
            l2=0.05,
            missing_target=0.25,
            missing_weight=0.05,
        )
        users, items = np.divmod(np.arange(42), 7)
        together = imputed_rewards(model, users, items)
        for j, (u, i) in enumerate(zip(users.tolist(), items.tolist())):
            alone = impute_reward(model, u, i)
            assert alone == imputed_rewards(model, [u], [i])[0] == together[j]
            raw = float(model.user_factors[u] @ model.item_factors[i]) + 0.3
            assert alone == min(1.0, max(0.0, raw))


def test_imputed_rewards_name_the_first_cell_out_of_range():
    model = fit_weighted_mf([(0, 0, 1.0)], f=1, n_users=2, n_items=3)
    with pytest.raises(ValueError, match=r"user=-1, item=2"):
        imputed_rewards(model, [0, 1, -1, 5], [0, 1, 2, 0])


def test_perfect_rating_maps_to_unit_reward():
    # a user whose only interactions are top ratings imputes at the ceiling
    ratings = [(0, j, 1.0) for j in range(4)] + [(1, j, 0.1) for j in range(4)]
    model = fit_weighted_mf(
        ratings, f=2, l2=1e-6, missing_weight=1e-6, epochs=50, seed=3,
        n_users=2, n_items=4,
    )
    assert impute_reward(model, 0, 0) == pytest.approx(1.0, abs=1e-3)


def test_heavy_missing_weight_depresses_unobserved_cells():
    rng = np.random.default_rng(23)
    ratings = [
        (int(u), int(i), float(rng.uniform(0.6, 1.0)))
        for u, i in zip(rng.integers(0, 10, 30), rng.integers(0, 10, 30))
    ]
    from lpirec.synth import _imputation_arrays

    means, observed = _imputation_arrays(ratings, 10, 10)
    model = fit_weighted_mf(
        ratings, f=2, missing_target=0.2, missing_weight=1.0, seed=4,
        n_users=10, n_items=10,
    )
    preds = imputed_matrix(model)
    assert preds[~observed].mean() <= preds[observed].mean()


def test_duplicate_ratings_are_averaged():
    model = fit_weighted_mf(
        [(0, 0, 1.0), (0, 0, 0.0)], f=1, l2=1e-9, missing_weight=1e-9,
        epochs=40, seed=5, n_users=1, n_items=1,
    )
    assert impute_reward(model, 0, 0) == pytest.approx(0.5, abs=1e-6)


def test_empty_ratings_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        fit_weighted_mf([], f=2)
    with pytest.raises(ValueError, match="missing_weight"):
        fit_weighted_mf([(0, 0, 1.0)], missing_weight=0.0)
    with pytest.raises(ValueError, match="rank"):
        fit_weighted_mf([(0, 0, 1.0)], f=0)


def test_a_rating_outside_the_matrix_is_rejected_naming_it():
    ratings = [(0, 0, 1.0), (1, 2, 0.5), (2, 0, 0.5), (0, 3, 0.5)]
    with pytest.raises(ValueError, match=r"rating \(2, 0, 0\.5\) outside the \(2, 3\) matrix"):
        fit_weighted_mf(ratings, f=1, n_users=2, n_items=3)
    with pytest.raises(ValueError, match=r"rating \(0, 3, 0\.5\) outside the \(3, 3\) matrix"):
        fit_weighted_mf(ratings, f=1, n_users=3, n_items=3)
    with pytest.raises(ValueError, match=r"rating \(0, -1, 0\.5\) outside"):
        fit_weighted_mf([(0, 0, 1.0), (0, -1, 0.5)], f=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_reward_is_rejected_naming_it(bad):
    ratings = [(0, 0, 1.0), (1, 2, bad), (0, 1, bad)]
    with pytest.raises(ValueError, match=rf"rating \(1, 2, {bad}\) has a non-finite reward"):
        fit_weighted_mf(ratings, f=1, n_users=2, n_items=3)
