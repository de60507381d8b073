"""Tabular oracles: exact values, closed-form optima, IPS, and dynamic programming."""

import tracemalloc

import numpy as np
import pytest

from lpirec.estimators import (
    DegenerateContextError,
    SupportViolationError,
    direct_method_value,
    empirical_behavior_tabular,
    ips_value_estimate,
    lmu_objective_value,
    lpi_objective_value,
    policy_improvement_check,
    project_to_simplex,
    projected_gradient_policy,
    tabular_advantages,
    tabular_optimal_lmu,
    tabular_optimal_lpi,
    tabular_q_values,
    tabular_state_values,
    tabular_td_learning,
    tabular_value,
    value_iteration,
)
from lpirec.synth import TabularInstance, random_instance


def bandit(seed=0, n=4, k=5):
    rng = np.random.default_rng(seed)
    return TabularInstance(
        context_probs=rng.dirichlet(np.ones(n)),
        behavior=rng.dirichlet(np.ones(k), size=n),
        rewards=rng.uniform(0, 1, size=(n, k)),
    )


def mdp(seed=0, n=3, k=2, gamma=0.9):
    rng = np.random.default_rng(seed)
    return TabularInstance(
        context_probs=rng.dirichlet(np.ones(n)),
        behavior=rng.dirichlet(np.ones(k), size=n),
        rewards=rng.uniform(0, 1, size=(n, k)),
        transitions=rng.dirichlet(np.ones(n), size=(n, k)),
        discount=gamma,
    )


def random_policy(instance, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(instance.catalog_size), size=instance.n_contexts)


# -- exact tabular values ----------------------------------------------------------


def test_constant_reward_one_values_any_policy_at_one():
    inst = bandit(seed=1)
    inst.rewards[:] = 1.0
    for seed in range(5):
        assert tabular_value(inst, random_policy(inst, seed)) == pytest.approx(1.0, abs=1e-12)


def test_greedy_policy_attains_context_weighted_max_reward():
    inst = bandit(seed=2)
    greedy = np.zeros_like(inst.rewards)
    greedy[np.arange(inst.n_contexts), inst.rewards.argmax(axis=-1)] = 1.0
    expected = float(inst.context_probs @ inst.rewards.max(axis=-1))
    assert tabular_value(inst, greedy) == pytest.approx(expected, abs=1e-12)


def test_bandit_value_matches_double_sum_oracle():
    inst = bandit(seed=3)
    pi = random_policy(inst, 4)
    total = 0.0
    for x in range(inst.n_contexts):
        for a in range(inst.catalog_size):
            total += inst.context_probs[x] * pi[x, a] * inst.rewards[x, a]
    assert tabular_value(inst, pi) == pytest.approx(total, abs=1e-12)


def test_non_stochastic_policy_rejected():
    inst = bandit()
    pi = random_policy(inst, 0)
    pi[0, 0] += 0.1
    with pytest.raises(ValueError, match="probability"):
        tabular_value(inst, pi)
    with pytest.raises(ValueError, match="shape"):
        tabular_value(inst, pi[:, :-1])


def test_mdp_value_satisfies_bellman_identity():
    inst = mdp(seed=5)
    pi = random_policy(inst, 6)
    v = tabular_state_values(inst, pi)
    r_pi = (pi * inst.rewards).sum(axis=-1)
    p_pi = np.einsum("xa,xay->xy", pi, inst.transitions)
    np.testing.assert_allclose(v, r_pi + inst.discount * p_pi @ v, atol=1e-10)
    assert tabular_value(inst, pi) == pytest.approx(float(inst.context_probs @ v), abs=1e-12)


def test_mdp_q_values_expand_the_state_values():
    inst = mdp(seed=7)
    pi = random_policy(inst, 8)
    q = tabular_q_values(inst, pi)
    v = tabular_state_values(inst, pi)
    np.testing.assert_allclose(
        q, inst.rewards + inst.discount * inst.transitions @ v, atol=1e-12
    )


def test_advantages_center_under_behavior():
    inst = bandit(seed=9)
    adv = tabular_advantages(inst)
    np.testing.assert_allclose((inst.behavior * adv).sum(axis=-1), 0.0, atol=1e-12)


# -- empirical behavior ---------------------------------------------------------------


def test_empirical_behavior_normalizes_counts_and_fills_unvisited():
    contexts = np.array([0, 0, 0, 1])
    actions = np.array([2, 2, 1, 0])
    mu = empirical_behavior_tabular(contexts, actions, n_contexts=3, catalog_size=3)
    np.testing.assert_allclose(mu[0], [0.0, 1 / 3, 2 / 3])
    np.testing.assert_allclose(mu[1], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(mu[2], [1 / 3, 1 / 3, 1 / 3])


def test_empirical_behavior_smoothing_covers_support():
    mu = empirical_behavior_tabular(
        np.array([0]), np.array([1]), n_contexts=1, catalog_size=3, smoothing=1.0
    )
    np.testing.assert_allclose(mu[0], [0.25, 0.5, 0.25])


# -- IPS estimation ---------------------------------------------------------------


def sample_logs(instance, n, seed):
    rng = np.random.default_rng(seed)
    contexts = rng.choice(instance.n_contexts, size=n, p=instance.context_probs)
    actions = np.array(
        [rng.choice(instance.catalog_size, p=instance.behavior[x]) for x in contexts]
    )
    rewards = instance.rewards[contexts, actions]
    return contexts, actions, rewards


def test_matching_policies_reduce_ips_to_reward_mean():
    inst = bandit(seed=10)
    triplets = sample_logs(inst, 500, seed=11)
    est = ips_value_estimate(triplets, inst.behavior, inst.behavior, clip=None)
    assert est.estimate == pytest.approx(float(triplets[2].mean()), abs=1e-12)


def test_unclipped_ips_lands_near_true_value():
    inst = bandit(seed=12)
    pi = random_policy(inst, 13)
    triplets = sample_logs(inst, 100_000, seed=14)
    est = ips_value_estimate(triplets, pi, inst.behavior, clip=None)
    truth = tabular_value(inst, pi)
    assert abs(est.estimate - truth) < 3 * est.standard_error


def test_unit_clip_cannot_exceed_reward_mean():
    inst = bandit(seed=15)
    pi = random_policy(inst, 16)
    triplets = sample_logs(inst, 2000, seed=17)
    est = ips_value_estimate(triplets, pi, inst.behavior, clip=1.0)
    assert est.estimate <= float(triplets[2].mean()) + 1e-12


def test_support_violation_names_the_pair():
    inst = bandit(seed=18)
    mu_hat = inst.behavior.copy()
    contexts = np.array([2])
    actions = np.array([3])
    rewards = np.array([1.0])
    mu_hat[2, 3] = 0.0
    mu_hat[2] /= mu_hat[2].sum()
    with pytest.raises(SupportViolationError, match=r"context=2, action=3"):
        ips_value_estimate((contexts, actions, rewards), inst.behavior, mu_hat)


def test_ips_rejects_empty_or_ragged_triplets():
    inst = bandit()
    with pytest.raises(ValueError):
        ips_value_estimate((np.array([]), np.array([]), np.array([])), inst.behavior, inst.behavior)
    with pytest.raises(ValueError):
        ips_value_estimate(
            (np.array([0]), np.array([0, 1]), np.array([1.0])), inst.behavior, inst.behavior
        )


def test_direct_method_recovers_constants_and_selections():
    inst = bandit(seed=19)
    pi = random_policy(inst, 20)
    contexts = np.array([0, 1, 1, 3])
    triplets = (contexts, np.zeros(4, dtype=int), np.zeros(4))
    constant = np.full_like(inst.rewards, 0.7)
    assert direct_method_value(triplets, pi, constant) == pytest.approx(0.7, abs=1e-12)
    one_hot = np.zeros_like(pi)
    one_hot[np.arange(inst.n_contexts), 2] = 1.0
    expected = float(inst.rewards[contexts, 2].mean())
    assert direct_method_value(triplets, one_hot, inst.rewards) == pytest.approx(
        expected, abs=1e-12
    )


def test_direct_method_with_exact_model_matches_tabular_value():
    inst = bandit(seed=21)
    pi = random_policy(inst, 22)
    contexts, actions, rewards = sample_logs(inst, 200_000, seed=23)
    dm = direct_method_value((contexts, actions, rewards), pi, inst.rewards)
    exact = tabular_value(inst, pi)
    # the only error is the sampled context frequency
    assert dm == pytest.approx(exact, abs=0.01)


# -- closed-form optima ---------------------------------------------------------------


def test_constant_rewards_leave_surrogate_optimum_at_behavior():
    inst = bandit(seed=24)
    inst.rewards[:] = np.tile(
        np.random.default_rng(25).uniform(0.2, 1.0, size=(inst.n_contexts, 1)),
        (1, inst.catalog_size),
    )
    np.testing.assert_allclose(tabular_optimal_lmu(inst), inst.behavior, atol=1e-12)


def test_uniform_behavior_surrogate_optimum_proportional_to_reward():
    inst = bandit(seed=26)
    inst.behavior[:] = 1.0 / inst.catalog_size
    expected = inst.rewards / inst.rewards.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(tabular_optimal_lmu(inst), expected, atol=1e-12)


def test_zero_reward_context_is_degenerate_for_the_surrogate():
    inst = bandit(seed=27)
    inst.rewards[1, :] = 0.0
    with pytest.raises(DegenerateContextError, match="context 1"):
        tabular_optimal_lmu(inst)


def test_surrogate_optimum_beats_projected_gradient_oracle():
    for seed in range(5):
        inst = bandit(seed=100 + seed, n=3, k=4)
        closed = tabular_optimal_lmu(inst)
        oracle = projected_gradient_policy(inst, objective="log_surrogate")
        closed_val = lmu_objective_value(inst, closed)
        oracle_val = lmu_objective_value(inst, oracle)
        assert closed_val >= oracle_val - 1e-6


def test_penalized_optimum_approaches_behavior_for_large_beta():
    inst = bandit(seed=28)
    pi = tabular_optimal_lpi(inst, beta=1e9)
    tv = 0.5 * np.abs(pi - inst.behavior).sum(axis=-1).max()
    assert tv < 1e-9


def test_penalized_optimum_beats_random_policies():
    inst = bandit(seed=31)
    beta = 0.5
    best = lpi_objective_value(inst, tabular_optimal_lpi(inst, beta), beta)
    rng = np.random.default_rng(32)
    for _ in range(2000):
        pi = rng.dirichlet(np.ones(inst.catalog_size), size=inst.n_contexts)
        assert lpi_objective_value(inst, pi, beta) <= best + 1e-12


def test_penalized_optimum_matches_projected_gradient_oracle():
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        inst = TabularInstance(
            context_probs=rng.dirichlet(np.full(3, 5.0)),
            behavior=rng.dirichlet(np.full(4, 5.0), size=3),
            rewards=0.1 + 0.9 * rng.uniform(size=(3, 4)),
        )
        closed = tabular_optimal_lpi(inst, beta=0.5)
        oracle = projected_gradient_policy(inst, objective="penalized_improvement", beta=0.5)
        gap = lpi_objective_value(inst, closed, 0.5) - lpi_objective_value(inst, oracle, 0.5)
        assert abs(gap) < 1e-6


def test_penalized_optimum_respects_behavior_support():
    inst = bandit(seed=33)
    inst.behavior[0, 2] = 0.0
    inst.behavior[0] /= inst.behavior[0].sum()
    pi = tabular_optimal_lpi(inst, beta=0.3)
    assert pi[0, 2] == 0.0
    np.testing.assert_allclose(pi.sum(axis=-1), 1.0, atol=1e-12)


def test_off_support_policies_score_minus_infinity():
    inst = bandit(seed=34)
    inst.behavior[1, 0] = 0.0
    inst.behavior[1] /= inst.behavior[1].sum()
    pi = np.full_like(inst.behavior, 1.0 / inst.catalog_size)
    assert lpi_objective_value(inst, pi, beta=1.0) == float("-inf")


def test_improvement_check_reports_gap_and_kl():
    for seed in range(10):
        inst = bandit(seed=400 + seed)
        for beta in (0.1, 1.0, 10.0):
            result = policy_improvement_check(inst, beta)
            assert result.improved_value >= result.logging_value - 1e-12
            gap = result.improved_value - result.logging_value
            assert gap >= beta * result.kl_term - 1e-12
            assert result.kl_term >= 0


def test_improvement_vanishes_when_behavior_already_optimal():
    inst = bandit(seed=35)
    greedy = np.full_like(inst.rewards, 1e-12)
    greedy[np.arange(inst.n_contexts), inst.rewards.argmax(axis=-1)] = 1.0
    greedy /= greedy.sum(axis=-1, keepdims=True)
    inst = TabularInstance(inst.context_probs, greedy, inst.rewards)
    result = policy_improvement_check(inst, beta=0.05)
    assert result.improved_value - result.logging_value < 0.02
    assert result.kl_term < 0.4


def test_kl_term_shrinks_as_beta_grows():
    for seed in range(5):
        inst = bandit(seed=500 + seed)
        kls = [policy_improvement_check(inst, beta).kl_term for beta in (0.1, 1.0, 10.0)]
        assert kls[0] >= kls[1] - 1e-12
        assert kls[1] >= kls[2] - 1e-12


# -- dynamic programming ---------------------------------------------------------------


def test_zero_rewards_give_zero_optimal_q():
    inst = mdp(seed=36)
    inst.rewards[:] = 0.0
    np.testing.assert_array_equal(value_iteration(inst), 0.0)


def test_single_state_uniform_reward_geometric_sum():
    inst = TabularInstance(
        context_probs=np.array([1.0]),
        behavior=np.array([[0.5, 0.5]]),
        rewards=np.array([[0.6, 0.6]]),
        transitions=np.ones((1, 2, 1)),
        discount=0.5,
    )
    q = value_iteration(inst)
    np.testing.assert_allclose(q, 0.6 / (1 - 0.5), atol=1e-9)


def test_value_iteration_reaches_a_bellman_fixed_point():
    inst = mdp(seed=37, n=4, k=3)
    q = value_iteration(inst)
    bellman = inst.rewards + inst.discount * inst.transitions @ q.max(axis=-1)
    assert np.abs(bellman - q).max() < 1e-9
    # greedy policy is stable under further iteration
    greedy = q.argmax(axis=-1)
    for _ in range(10):
        q = inst.rewards + inst.discount * inst.transitions @ q.max(axis=-1)
        np.testing.assert_array_equal(q.argmax(axis=-1), greedy)


def test_value_iteration_requires_transitions_and_valid_discount():
    with pytest.raises(ValueError, match="transitions"):
        value_iteration(bandit())
    inst = mdp(seed=38)
    with pytest.raises(ValueError, match="discount"):
        value_iteration(inst, gamma=1.0)


def test_sampled_td_learning_approaches_the_fixed_point():
    inst = mdp(seed=0, n=3, k=2, gamma=0.9)
    q_star = value_iteration(inst)
    q_td = tabular_td_learning(inst, n_updates=400_000, seed=0)
    assert np.abs(q_td - q_star).max() < 1e-2


def test_td_learning_memory_does_not_grow_with_updates_times_states():
    # the next-state CDF rows of every update, gathered at once, would exceed this
    # bound; every term scales with n_updates, kept small as tracing slows the loop
    inst = mdp(seed=1, n=20, k=30)
    n_updates = 20_000
    tracemalloc.start()
    try:
        tabular_td_learning(inst, n_updates=n_updates, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_updates * inst.n_contexts


def test_td_learning_requires_transitions():
    with pytest.raises(ValueError, match="transitions"):
        tabular_td_learning(bandit())


# -- simplex projection ---------------------------------------------------------------


def test_projection_fixes_points_already_on_the_simplex():
    rng = np.random.default_rng(40)
    p = rng.dirichlet(np.ones(6))
    np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-12)


def test_projection_output_is_feasible_and_idempotent():
    rng = np.random.default_rng(41)
    for _ in range(50):
        v = rng.standard_normal(7) * rng.uniform(0.1, 10)
        p = project_to_simplex(v)
        assert p.min() >= -1e-15
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-9)


def test_projection_is_the_euclidean_nearest_point():
    rng = np.random.default_rng(42)
    v = rng.standard_normal(4)
    p = project_to_simplex(v)
    for _ in range(3000):
        q = rng.dirichlet(np.ones(4))
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9


def test_random_instance_generator_produces_valid_instances():
    rng = np.random.default_rng(43)
    inst = random_instance(rng, n_contexts=5, catalog_size=7)
    np.testing.assert_allclose(inst.behavior.sum(axis=-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(inst.context_probs.sum(), 1.0, atol=1e-12)
    assert inst.rewards.min() >= 0
    with_mdp = random_instance(rng, 4, 3, with_transitions=True, discount=0.8)
    assert with_mdp.transitions.shape == (4, 3, 4)
    np.testing.assert_allclose(with_mdp.transitions.sum(axis=-1), 1.0, atol=1e-12)
