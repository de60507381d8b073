"""Training objectives: weight tables, stop-gradient convention, TD targets."""

import numpy as np
import pytest

from lpirec.data import (
    Interaction,
    SessionSequence,
    TrainingExample,
    discounted_returns,
    expand_columns,
)
from lpirec.encoder import EncoderConfig
from lpirec.objectives import (
    BEHAVIOR_KINDS,
    OBJECTIVE_KINDS,
    RATIO_KINDS,
    TD_KINDS,
    ObjectiveConfig,
    SupportViolationError,
    advantage_from_q,
    attach_reward_to_go,
    build_batch,
    ce_loss,
    composite_loss,
    evaluate_prepared,
    ips_ce_loss,
    lpi_loss,
    lpi_weight,
    prepare_step,
    reward_to_go,
    reward_weighted_ce,
    td_q_loss,
)
from lpirec.policy import SequenceModel, softmax


def example(context, action, reward=1.0, terminal=False, seq="s", pos=0):
    return TrainingExample(
        context=tuple(context),
        action=action,
        reward=reward,
        next_context=tuple(context) + (action,),
        terminal=terminal,
        in_loss_window=True,
        event="click",
        sequence_id=seq,
        position=pos,
    )


def make_model(catalog=6, dim=4, seed=0):
    return SequenceModel.initialize(EncoderConfig(catalog_size=catalog, dim=dim), seed)


def small_batch(catalog=6, n=4, seed=0):
    rng = np.random.default_rng(seed)
    exs = [
        example(
            tuple(rng.integers(0, catalog, size=rng.integers(1, 4))),
            int(rng.integers(0, catalog)),
            reward=float(rng.uniform(0, 1)),
            terminal=(i == n - 1),
            pos=i,
        )
        for i in range(n)
    ]
    return build_batch(exs)


def uniform_behavior(catalog):
    return lambda contexts: np.full((len(contexts), catalog), 1.0 / catalog)


# -- configuration ---------------------------------------------------------------


def test_kind_sets_are_consistent():
    assert set(TD_KINDS) == {"sqn", "sac", "lpi"}
    assert set(RATIO_KINDS) == {"ips_ce", "ips_pg"}
    assert set(BEHAVIOR_KINDS) == {"lpi", "ips_ce", "ips_pg"}
    assert RATIO_KINDS < set(OBJECTIVE_KINDS)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "nope"},
        {"kind": "ce", "td_weight": 0.5},
        {"kind": "reward_ce", "td_weight": 1.0},
        {"kind": "sqn", "td_weight": -1.0},
        {"kind": "sqn", "discount": 1.0},
        {"kind": "lpi", "beta": 0.0},
        {"kind": "ips_ce", "clip": 0.0},
        {"kind": "lpi", "max_policy_weight": -1.0},
        {"kind": "sqn", "target_refresh": 0},
    ],
)
def test_config_rejects_invalid_combinations(kwargs):
    with pytest.raises(ValueError):
        ObjectiveConfig(**kwargs)


def test_td_kinds_accept_td_weight():
    for kind in TD_KINDS:
        cfg = ObjectiveConfig(kind=kind, td_weight=0.5, discount=0.9)
        assert cfg.td_weight == 0.5


# -- reward-to-go -----------------------------------------------------------------


def test_zero_discount_returns_immediate_rewards():
    exs = [example((0,), 1, reward=r, pos=i) for i, r in enumerate([0.3, 0.9, 0.1])]
    np.testing.assert_array_equal(reward_to_go(exs, 0.0), [0.3, 0.9, 0.1])


def test_unit_rewards_half_discount_hand_values():
    exs = [example((0,), 1, reward=1.0, pos=i) for i in range(3)]
    np.testing.assert_allclose(reward_to_go(exs, 0.5), [1.75, 1.5, 1.0], atol=1e-15)


def test_final_example_keeps_its_own_reward():
    exs = [example((0,), 1, reward=r, pos=i) for i, r in enumerate([0.2, 0.7])]
    assert reward_to_go(exs, 0.9)[-1] == 0.7


def test_out_of_order_positions_rejected():
    exs = [example((0,), 1, pos=1), example((0,), 1, pos=0)]
    with pytest.raises(ValueError, match="ordered"):
        reward_to_go(exs, 0.5)


def test_gaps_and_repeats_in_a_sequences_positions_are_rejected():
    exs = [example((0,), 1, reward=1.0, pos=i) for i in range(4)]
    np.testing.assert_allclose(attach_reward_to_go(exs, 0.5), [1.875, 1.75, 1.5, 1.0])
    for broken in (exs[:2] + exs[3:], exs[:3] + exs[2:]):
        for returns in (reward_to_go, attach_reward_to_go):
            with pytest.raises(ValueError, match="consecutive"):
                returns(broken, 0.5)
    # a consecutive run that stops short of its sequence's end is accepted
    np.testing.assert_allclose(attach_reward_to_go(exs[1:3], 0.5), [1.5, 1.0])


def test_reward_to_go_computed_per_sequence():
    exs = [
        example((0,), 1, reward=1.0, seq="a", pos=0),
        example((0,), 1, reward=1.0, seq="b", pos=0),
        example((0, 1), 2, reward=1.0, seq="a", pos=1),
    ]
    rtg = attach_reward_to_go(exs, 0.5)
    np.testing.assert_allclose(rtg, [1.5, 1.0, 1.0])


def test_reward_to_go_satisfies_bellman_recursion():
    rng = np.random.default_rng(4)
    for _ in range(10):
        rewards = rng.uniform(0, 2, size=rng.integers(1, 12))
        gamma = float(rng.uniform(0, 0.99))
        exs = [example((0,), 1, reward=float(r), pos=i) for i, r in enumerate(rewards)]
        g = reward_to_go(exs, gamma)
        for t in range(len(rewards) - 1):
            assert g[t] == pytest.approx(rewards[t] + gamma * g[t + 1], abs=1e-12)
        assert g[-1] == pytest.approx(rewards[-1], abs=1e-15)


def test_segmented_returns_equal_a_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(5)
    lengths = [0, 1, 7, 2, 12, 1, 5]
    rewards = rng.uniform(-1, 2, size=sum(lengths))
    for gamma in (0.0, 0.5, 0.93):
        expected = []
        for end, n in zip(np.cumsum(lengths), lengths):
            acc, tail = 0.0, []
            for r in rewards[end - n : end][::-1]:
                acc = r + gamma * acc
                tail.append(acc)
            expected.extend(tail[::-1])
        np.testing.assert_array_equal(discounted_returns(rewards, lengths, gamma), expected)


# -- cross-entropies ---------------------------------------------------------------


def test_uniform_policy_ce_is_log_catalog():
    model = make_model(catalog=5)
    model.params["item_embeddings"][:] = 0.0
    batch = build_batch([example((0,), a) for a in range(3)])
    out = ce_loss(model, batch, compute_grads=False)
    assert out.loss == pytest.approx(np.log(5.0), abs=1e-12)


def test_certain_policy_ce_is_zero():
    model = make_model(catalog=5)
    model.params["item_embeddings"][:] = 0.0
    model.params["head_b"][:] = 0.0
    model.params["head_b"][2] = 1e3  # probability 1 up to float64 resolution
    batch = build_batch([example((0,), 2), example((1, 3), 2)])
    assert ce_loss(model, batch, compute_grads=False).loss == 0.0


def test_ce_matches_per_example_scalar_oracle():
    model = make_model(seed=3)
    exs = [example((0, 2), 1), example((4,), 5), example((3, 3, 0), 0)]
    batch = build_batch(exs)
    out = ce_loss(model, batch, compute_grads=False)
    total = 0.0
    for ex in exs:
        lp = model.log_probs([ex.context])[0]
        total -= lp[ex.action]
    assert out.loss == pytest.approx(total / 3, abs=1e-12)


def test_zero_rewards_zero_loss_and_gradients():
    model = make_model(seed=1)
    batch = build_batch([example((0,), 1, reward=0.0), example((2,), 3, reward=0.0)])
    out = reward_weighted_ce(model, batch)
    assert out.loss == 0.0
    for g in out.gradients.values():
        np.testing.assert_array_equal(np.asarray(g, dtype=float), 0.0)


def test_unit_rewards_reduce_to_plain_ce():
    model = make_model(seed=2)
    batch = build_batch([example((0, 1), 2, reward=1.0), example((3,), 4, reward=1.0)])
    assert reward_weighted_ce(model, batch, compute_grads=False).loss == pytest.approx(
        ce_loss(model, batch, compute_grads=False).loss, abs=1e-15
    )


def test_mixed_rewards_match_hand_weighted_oracle():
    model = make_model(seed=5)
    exs = [example((1,), 2, reward=0.2), example((0, 3), 4, reward=1.0)]
    out = reward_weighted_ce(model, build_batch(exs), compute_grads=False)
    lp0 = model.log_probs([exs[0].context])[0][exs[0].action]
    lp1 = model.log_probs([exs[1].context])[0][exs[1].action]
    assert out.loss == pytest.approx(-(0.2 * lp0 + 1.0 * lp1) / 2, abs=1e-12)


def test_negative_reward_rejected():
    model = make_model()
    batch = build_batch([example((0,), 1, reward=-0.1)])
    with pytest.raises(ValueError, match="non-negative"):
        reward_weighted_ce(model, batch)


# -- advantages and policy weights ---------------------------------------------


def test_constant_q_has_zero_advantage():
    model = make_model(catalog=4)
    model.params["q_W"][:] = 0.0
    model.params["q_b"][:] = 2.5
    mu = uniform_behavior(4)
    for a in range(4):
        assert advantage_from_q(model, mu, (1, 2), a) == pytest.approx(0.0, abs=1e-12)


def test_one_hot_q_under_uniform_behavior():
    model = make_model(catalog=4)
    model.params["q_W"][:] = 0.0
    model.params["q_b"][:] = 0.0
    model.params["q_b"][3] = 1.0
    assert advantage_from_q(model, uniform_behavior(4), (0,), 3) == pytest.approx(
        1.0 - 1.0 / 4.0, abs=1e-12
    )


def test_advantage_matches_scalar_summation_oracle():
    rng = np.random.default_rng(6)
    model = make_model(catalog=5, seed=7)
    mu_row = rng.dirichlet(np.ones(5))
    mu = lambda contexts: np.tile(mu_row, (len(contexts), 1))
    q = model.q_values([(2, 4)])[0]
    for a in range(5):
        expected = q[a] - sum(mu_row[j] * q[j] for j in range(5))
        assert advantage_from_q(model, mu, (2, 4), a) == pytest.approx(expected, abs=1e-12)


def test_advantages_center_to_zero_under_their_behavior():
    rng = np.random.default_rng(8)
    model = make_model(catalog=7, seed=9)
    for _ in range(20):
        mu_row = rng.dirichlet(np.full(7, rng.uniform(0.3, 3.0)))
        mu = lambda contexts: np.tile(mu_row, (len(contexts), 1))
        ctx = tuple(rng.integers(0, 7, size=rng.integers(1, 4)))
        total = sum(
            mu_row[a] * advantage_from_q(model, mu, ctx, a) for a in range(7)
        )
        assert total == pytest.approx(0.0, abs=1e-12)


def test_lpi_weight_fixed_points():
    assert lpi_weight(0.0, beta=0.7) == 1.0
    assert lpi_weight(123.0, beta=1e12) == pytest.approx(1.0, abs=1e-9)
    assert lpi_weight(0.5, beta=0.1) == pytest.approx(np.exp(5.0), rel=1e-12)
    assert np.exp(5.0) == pytest.approx(148.413, abs=5e-4)


def test_lpi_weight_cap_and_validation():
    assert lpi_weight(1000.0, beta=0.01) == 1e4
    assert lpi_weight(1000.0, beta=0.01, cap=50.0) == 50.0
    with pytest.raises(ValueError):
        lpi_weight(1.0, beta=0.0)


# -- LPI loss ----------------------------------------------------------------------


def test_zero_q_head_reduces_lpi_to_ce():
    model = make_model(seed=10)
    model.params["q_W"][:] = 0.0
    model.params["q_b"][:] = 0.0
    batch = small_batch()
    lpi = lpi_loss(model, uniform_behavior(6), batch, beta=0.3, compute_grads=False)
    ce = ce_loss(model, batch, compute_grads=False)
    assert lpi.loss == pytest.approx(ce.loss, abs=1e-15)
    np.testing.assert_array_equal(lpi.weights, 1.0)


def test_huge_beta_reduces_lpi_to_ce():
    model = make_model(seed=11)
    batch = small_batch(seed=1)
    lpi = lpi_loss(model, uniform_behavior(6), batch, beta=1e12, compute_grads=False)
    ce = ce_loss(model, batch, compute_grads=False)
    assert lpi.loss == pytest.approx(ce.loss, abs=1e-9)


def test_lpi_weights_match_per_example_formula():
    model = make_model(seed=12)
    rng = np.random.default_rng(13)
    mu_rows = rng.dirichlet(np.ones(6), size=3)
    contexts = [(0,), (1, 2), (3, 4, 5)]
    mu = lambda cs: np.array([mu_rows[contexts.index(tuple(c))] for c in cs])
    exs = [example(c, int(rng.integers(0, 6))) for c in contexts]
    out = lpi_loss(model, mu, build_batch(exs), beta=0.4, compute_grads=False)
    for i, ex in enumerate(exs):
        adv = advantage_from_q(model, mu, ex.context, ex.action)
        assert out.weights[i] == pytest.approx(lpi_weight(adv, 0.4), rel=1e-12)


def test_lpi_requires_behavior_estimate():
    model = make_model()
    with pytest.raises(ValueError, match="behavior"):
        composite_loss(model, small_batch(), ObjectiveConfig(kind="lpi", beta=1.0))


# -- IPS-corrected losses ------------------------------------------------------------


def test_ratio_one_reduces_ips_to_reward_weighted_ce():
    model = make_model(seed=14)
    batch = small_batch(seed=2)
    own_probs = lambda contexts: model.probs(contexts)
    ips = ips_ce_loss(model, own_probs, batch, compute_grads=False)
    rce = reward_weighted_ce(model, batch, compute_grads=False)
    assert ips.loss == pytest.approx(rce.loss, abs=1e-12)


def test_large_ratio_hits_the_clip():
    model = make_model(seed=15)
    exs = [example((0, 1), 2, reward=0.5)]
    batch = build_batch(exs)
    pi = float(model.probs([(0, 1)])[0][2])
    row = np.full(6, (1.0 - pi / 100.0) / 5.0)
    row[2] = pi / 100.0  # forces ratio pi/mu = 100
    mu = lambda contexts: np.tile(row, (len(contexts), 1))
    out = ips_ce_loss(model, mu, batch, clip=30.0, compute_grads=False)
    assert out.weights[0] == pytest.approx(30.0 * 0.5, rel=1e-12)
    unclipped = ips_ce_loss(model, mu, batch, clip=1e9, compute_grads=False)
    assert unclipped.weights[0] == pytest.approx(100.0 * 0.5, rel=1e-9)


def test_zero_rewards_make_ips_loss_zero():
    model = make_model(seed=16)
    exs = [example((0,), 1, reward=0.0), example((2, 3), 4, reward=0.0)]
    out = ips_ce_loss(model, uniform_behavior(6), build_batch(exs), compute_grads=False)
    assert out.loss == 0.0


def test_unsupported_action_raises_support_violation():
    model = make_model(seed=17)
    row = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    mu = lambda contexts: np.tile(row, (len(contexts), 1))
    batch = build_batch([example((0,), 1), example((1,), 3, seq="t", pos=1)])
    with pytest.raises(SupportViolationError, match=r"action 3 \(batch row 1\)"):
        ips_ce_loss(model, mu, batch)


# -- TD loss ----------------------------------------------------------------------


def test_exact_q_on_terminal_example_has_zero_td_loss():
    model = make_model(seed=18)
    model.params["q_W"][:] = 0.0
    model.params["q_b"][:] = 0.0
    batch = build_batch([example((0, 1), 2, reward=0.0, terminal=True)])
    out = td_q_loss(model, model.copy(), batch, discount=0.9, compute_grads=False)
    assert out.td_term == 0.0


def test_zero_discount_td_is_reward_regression():
    model = make_model(seed=19)
    exs = [example((0,), 1, reward=0.3), example((2, 4), 5, reward=0.8, terminal=True)]
    batch = build_batch(exs)
    out = td_q_loss(model, model.copy(), batch, discount=0.0, compute_grads=False)
    expected = np.mean(
        [
            (float(model.q_values([ex.context])[0][ex.action]) - ex.reward) ** 2
            for ex in exs
        ]
    )
    assert out.td_term == pytest.approx(expected, rel=1e-12)


def test_td_targets_use_online_argmax_and_target_values():
    online = make_model(seed=20)
    target = make_model(seed=21)  # deliberately different value head
    exs = [example((0,), 1, reward=0.4), example((2,), 3, reward=0.6, terminal=True)]
    batch = build_batch(exs)
    cfg = ObjectiveConfig(kind="sqn", td_weight=1.0, discount=0.9)
    prepared = prepare_step(online, batch, cfg, target_model=target)
    nxt = exs[0].next_context
    best = int(np.argmax(online.q_values([nxt])[0]))
    bootstrap = float(target.q_values([nxt])[0][best])
    np.testing.assert_allclose(
        prepared.td_targets, [0.4 + 0.9 * bootstrap, 0.6], atol=1e-12
    )


def test_td_requires_target_model():
    model = make_model()
    cfg = ObjectiveConfig(kind="sqn", td_weight=1.0, discount=0.5)
    with pytest.raises(ValueError, match="target model"):
        prepare_step(model, small_batch(), cfg)


def test_td_loss_reports_zero_policy_weights():
    model = make_model(seed=22)
    out = td_q_loss(model, model.copy(), small_batch(seed=3), discount=0.5)
    np.testing.assert_array_equal(out.weights, 0.0)
    assert out.policy_term == 0.0


# -- composite objective -----------------------------------------------------------


def test_sqn_without_td_term_equals_ce():
    model = make_model(seed=23)
    batch = small_batch(seed=4)
    sqn = composite_loss(model, batch, ObjectiveConfig(kind="sqn"), compute_grads=False)
    assert sqn.loss == pytest.approx(ce_loss(model, batch, compute_grads=False).loss, abs=1e-15)


def test_unit_q_sac_equals_ce():
    model = make_model(seed=24)
    model.params["q_W"][:] = 0.0
    model.params["q_b"][:] = 1.0
    batch = small_batch(seed=5)
    sac = composite_loss(model, batch, ObjectiveConfig(kind="sac"), compute_grads=False)
    assert sac.loss == pytest.approx(ce_loss(model, batch, compute_grads=False).loss, abs=1e-14)


def test_pg_at_zero_discount_equals_reward_weighted_ce():
    model = make_model(seed=25)
    exs = [example((0,), 1, reward=0.5, pos=0), example((0, 1), 2, reward=0.9, pos=1)]
    pg = composite_loss(
        model, exs, ObjectiveConfig(kind="pg", discount=0.0), compute_grads=False
    )
    rce = reward_weighted_ce(model, build_batch(exs), compute_grads=False)
    assert pg.loss == pytest.approx(rce.loss, abs=1e-14)


def test_pg_weights_are_reward_to_go():
    model = make_model(seed=26)
    exs = [example((0,), 1, reward=1.0, pos=0), example((0, 1), 2, reward=1.0, pos=1)]
    pg = composite_loss(
        model, exs, ObjectiveConfig(kind="pg", discount=0.5), compute_grads=False
    )
    np.testing.assert_allclose(pg.weights, [1.5, 1.0], atol=1e-15)


def test_ips_pg_at_zero_discount_equals_ips_ce():
    model = make_model(seed=27)
    exs = [example((0,), 1, reward=0.5, pos=0), example((0, 1), 2, reward=0.9, pos=1)]
    mu = uniform_behavior(6)
    a = composite_loss(
        model, exs, ObjectiveConfig(kind="ips_pg", discount=0.0), logging_policy=mu,
        compute_grads=False,
    )
    b = ips_ce_loss(model, mu, build_batch(exs), compute_grads=False)
    assert a.loss == pytest.approx(b.loss, abs=1e-14)


def test_weight_table_matches_specification_for_every_kind():
    """One scenario, all eight kinds: the per-example policy weights."""
    model = make_model(catalog=5, seed=28)
    rng = np.random.default_rng(29)
    exs = [
        example((0, 1), 2, reward=0.2, seq="s", pos=0),
        example((0, 1, 2), 4, reward=1.0, seq="s", pos=1, terminal=True),
    ]
    mu_rows = rng.dirichlet(np.ones(5), size=2)
    mu = lambda contexts: mu_rows[: len(contexts)]
    batch_probs = softmax(model.policy_logits([ex.context for ex in exs]))
    q = model.q_values([ex.context for ex in exs])
    rtg = np.array([0.2 + 0.9 * 1.0, 1.0])

    expected = {
        "ce": np.ones(2),
        "sqn": np.ones(2),
        "reward_ce": np.array([0.2, 1.0]),
        "pg": rtg,
        "sac": np.array([q[0, 2], q[1, 4]]),
        "ips_ce": np.minimum(
            np.array([batch_probs[0, 2] / mu_rows[0, 2], batch_probs[1, 4] / mu_rows[1, 4]]),
            30.0,
        )
        * np.array([0.2, 1.0]),
        "ips_pg": np.minimum(
            np.array([batch_probs[0, 2] / mu_rows[0, 2], batch_probs[1, 4] / mu_rows[1, 4]]),
            30.0,
        )
        * rtg,
        "lpi": np.clip(
            np.exp(
                np.array(
                    [
                        q[0, 2] - mu_rows[0] @ q[0],
                        q[1, 4] - mu_rows[1] @ q[1],
                    ]
                )
                / 0.5
            ),
            0.0,
            1e4,
        ),
    }
    for kind in OBJECTIVE_KINDS:
        cfg = ObjectiveConfig(kind=kind, beta=0.5, discount=0.9)
        out = composite_loss(model, list(exs), cfg, logging_policy=mu, compute_grads=False)
        np.testing.assert_allclose(out.weights, expected[kind], rtol=1e-12, err_msg=kind)


def test_composite_loss_splits_into_policy_and_td_terms():
    model = make_model(seed=30)
    batch = small_batch(seed=6)
    cfg = ObjectiveConfig(kind="sqn", td_weight=0.7, discount=0.8)
    out = composite_loss(model, batch, cfg, target_model=model.copy(), compute_grads=False)
    assert out.loss == pytest.approx(out.policy_term + 0.7 * out.td_term, abs=1e-12)
    assert out.td_term > 0


def test_a_prepadded_batch_is_pooled_with_the_model_recency():
    exs = [example((0, 1, 2), 3, pos=0), example((4, 5, 1, 2), 0, pos=1)]
    model = SequenceModel.initialize(EncoderConfig(catalog_size=6, dim=4, recency=0.5), 0)
    padded_for_other = ce_loss(model, build_batch(exs, recency=0.8))
    padded_for_model = ce_loss(model, build_batch(exs, recency=0.5))
    assert padded_for_other.loss == padded_for_model.loss
    for name, grad in padded_for_model.gradients.items():
        np.testing.assert_array_equal(padded_for_other.gradients[name], grad)


def test_empty_batch_rejected():
    model = make_model()
    with pytest.raises(ValueError, match="non-empty"):
        build_batch([])


def test_a_misaligned_reward_to_go_is_rejected():
    exs = [example((0,), 1, pos=0), example((0, 1), 2, pos=1)]
    with pytest.raises(ValueError, match="reward_to_go has 3 entries for a batch of 2"):
        build_batch(exs, np.zeros(3))
    interactions = [Interaction(item=i, event="click", reward=1.0, timestamp=i) for i in range(4)]
    columns = expand_columns([SessionSequence("s", interactions)], loss_window=5, discount=0.5)
    with pytest.raises(ValueError, match="reward_to_go has 3 entries for a batch of 2"):
        build_batch(columns, np.zeros(3), rows=np.array([0, 2]))
    batch = build_batch(columns, rows=np.array([0, 2]))
    np.testing.assert_array_equal(batch.reward_to_go, [1.75, 1.0])


def test_a_callable_behavior_reads_a_columnar_batch_as_tuples():
    interactions = [Interaction(item=i, event="click", reward=0.5, timestamp=i) for i in range(5)]
    columns = expand_columns([SessionSequence("s", interactions)], loss_window=5, discount=0.0)
    batch = build_batch(columns)
    seen = []

    def behavior(contexts):
        seen.extend(contexts)
        return np.full((len(contexts), 6), 1.0 / 6)

    model = make_model()
    cfg = ObjectiveConfig(kind="lpi", beta=0.5)
    assert batch.contexts[2][-1] == 2
    prepared = prepare_step(model, batch, cfg, behavior)
    assert seen == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3)]
    listed = build_batch([example(c, len(c), reward=0.5, pos=len(c)) for c in seen])
    np.testing.assert_array_equal(
        prepared.policy_weights, prepare_step(model, listed, cfg, behavior).policy_weights
    )


# -- gradient conventions -----------------------------------------------------------


def fd_gradient_frozen(model, batch, cfg, prepared, step=1e-5):
    """Central finite differences of the loss with step constants frozen."""

    def value():
        return evaluate_prepared(model, batch, cfg, prepared, compute_grads=False).loss

    out = {}
    for name, arr in model.params.items():
        numeric = np.zeros_like(arr)
        flat, num_flat = arr.ravel(), numeric.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = value()
            flat[i] = orig - step
            down = value()
            flat[i] = orig
            num_flat[i] = (up - down) / (2 * step)
        out[name] = numeric
    return out


def test_gradients_match_finite_differences_with_frozen_weights():
    model = make_model(catalog=5, dim=3, seed=31)
    batch = small_batch(catalog=5, n=3, seed=7)
    mu = uniform_behavior(5)
    cfg = ObjectiveConfig(kind="lpi", beta=0.5, td_weight=0.4, discount=0.9)
    target = make_model(catalog=5, dim=3, seed=32)
    prepared = prepare_step(model, batch, cfg, mu, target)
    analytic = evaluate_prepared(model, batch, cfg, prepared).gradients
    numeric = fd_gradient_frozen(model, batch, cfg, prepared)
    for name, num in numeric.items():
        ana = np.asarray(analytic.get(name, np.zeros_like(num)), dtype=float)
        rel = np.linalg.norm(ana - num) / max(np.linalg.norm(num), 1e-10)
        assert rel < 1e-4, f"{name}: relative error {rel}"


def test_weights_are_constants_under_differentiation():
    """Differentiating through recomputed weights would give a different
    gradient than the reported one; freezing them reproduces it exactly."""
    model = make_model(catalog=5, dim=3, seed=33)
    batch = small_batch(catalog=5, n=3, seed=8)
    mu = uniform_behavior(5)
    cfg = ObjectiveConfig(kind="lpi", beta=0.2)
    analytic = composite_loss(model, batch, cfg, logging_policy=mu).gradients

    step = 1e-5

    def full_value():
        # recomputes the weights from the perturbed parameters
        return composite_loss(
            model, batch, cfg, logging_policy=mu, compute_grads=False
        ).loss

    name = "q_W"  # policy weights depend on the value head only through prepare
    arr = model.params[name]
    numeric = np.zeros_like(arr)
    flat, num_flat = arr.ravel(), numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = full_value()
        flat[i] = orig - step
        down = full_value()
        flat[i] = orig
        num_flat[i] = (up - down) / (2 * step)
    # the loss genuinely varies with the value head through the weights...
    assert np.abs(numeric).max() > 1e-6
    # ...yet the reported gradient deliberately carries none of it
    reported = np.asarray(analytic.get(name, np.zeros_like(arr)), dtype=float)
    np.testing.assert_array_equal(reported, 0.0)


def test_policy_gradient_is_independent_of_beta_given_weights():
    model = make_model(catalog=5, dim=3, seed=34)
    batch = small_batch(catalog=5, n=3, seed=9)
    prepared_weights = np.array([0.5, 2.0, 1.5])
    from lpirec.objectives import PreparedWeights

    grads = []
    for beta in (0.1, 10.0):
        cfg = ObjectiveConfig(kind="lpi", beta=beta)
        out = evaluate_prepared(
            model, batch, cfg, PreparedWeights(policy_weights=prepared_weights.copy())
        )
        grads.append(out.gradients)
    for name in grads[0]:
        np.testing.assert_array_equal(
            np.asarray(grads[0][name], dtype=float),
            np.asarray(grads[1][name], dtype=float),
        )


# -- tabular surrogate bound ---------------------------------------------------------


def test_importance_weighted_value_dominates_its_log_surrogate():
    rng = np.random.default_rng(35)
    for _ in range(200):
        k = int(rng.integers(2, 8))
        mu = rng.dirichlet(np.ones(k))
        pi = rng.dirichlet(np.ones(k))
        r = rng.uniform(0, 2, size=k)
        lhs = float((mu * (pi / mu) * r).sum())
        rhs = float((mu * r * (1.0 + np.log(pi / mu))).sum())
        assert lhs >= rhs - 1e-12
    mu = rng.dirichlet(np.ones(5))
    r = rng.uniform(0, 1, size=5)
    lhs = float((mu * (mu / mu) * r).sum())
    rhs = float((mu * r * (1.0 + np.log(mu / mu))).sum())
    assert lhs == pytest.approx(rhs, abs=1e-12)
