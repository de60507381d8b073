"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states a property of the toolkit — closed-form optimality, unbiased
estimation, gradient exactness, regularization trends, end-to-end policy
improvement, metric correctness, reproducibility, preprocessing counts — and
verifies it against an independent oracle at an explicit tolerance, within an
explicit runtime budget where one applies.
"""

import json
import math
import time

import numpy as np
import pytest

from lpirec.cli import main as cli_main
from lpirec.config import RunConfig
from lpirec.data import (
    Dataset,
    ExampleColumns,
    Interaction,
    PreprocessRules,
    SessionSequence,
    TrainingExample,
    expand_examples,
    preprocess,
    split,
)
from lpirec.encoder import EncoderConfig
from lpirec.estimators import (
    ips_value_estimate,
    lmu_objective_value,
    lpi_objective_value,
    projected_gradient_policy,
    tabular_optimal_lmu,
    tabular_optimal_lpi,
    tabular_td_learning,
    tabular_value,
    value_iteration,
)
from lpirec.metrics import (
    hit_rate_samples,
    js_divergence,
    kl_divergence,
    mean_divergence,
    ndcg_samples,
    ranks_from_scores,
)
from lpirec.objectives import (
    OBJECTIVE_KINDS,
    ObjectiveConfig,
    attach_reward_to_go,
    build_batch,
    evaluate_prepared,
    prepare_step,
)
from lpirec.policy import SequenceModel
from lpirec.synth import (
    TabularInstance,
    bucket_contexts_by_state,
    make_random_world,
    project_policy_to_tabular,
    sample_bandit_logs,
    world_policy_value,
)
from lpirec.training import (
    batched_probs,
    evaluate_examples,
    fit_behavior_model,
    load_dataset,
    train_model,
)


# -- shared builders ----------------------------------------------------------


@pytest.fixture(scope="module")
def small_instances():
    """Fifty random bandit instances with full-support behavior rows."""
    rng = np.random.default_rng(2024)
    instances = []
    for _ in range(50):
        n_contexts = int(rng.integers(2, 11))
        catalog = int(rng.integers(2, 11))
        instances.append(
            TabularInstance(
                context_probs=rng.dirichlet(np.full(n_contexts, 5.0)),
                behavior=rng.dirichlet(np.full(catalog, 5.0), size=n_contexts),
                rewards=0.1 + 0.9 * rng.uniform(size=(n_contexts, catalog)),
            )
        )
    return instances


def training_example(context, action, reward, terminal, position):
    from lpirec.data import TrainingExample

    return TrainingExample(
        context=tuple(context),
        action=action,
        reward=reward,
        next_context=tuple(context) + (action,),
        terminal=terminal,
        in_loss_window=True,
        event="click",
        sequence_id="s",
        position=position,
    )


def world_config(seed, **overrides):
    """Training config for the 32-state / 50-item simulated world."""
    fields = dict(
        data_source="synthetic",
        synthetic_states=32,
        synthetic_catalog=50,
        synthetic_sessions=20_000,
        synthetic_horizon=6,
        synthetic_seed=7,
        dim=32,
        batch_size=256,
        learning_rate=0.05,
        behavior_learning_rate=0.05,
        epochs=4,
        behavior_epochs=2,
        objective="lpi",
        beta=0.5,
        td_weight=1.0,
        discount=0.0,
        seed=seed,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def exact_policy_value(model, world, buckets, horizon):
    """The exact per-action value of a sequence policy, projected per state."""
    projected = project_policy_to_tabular(
        lambda contexts: batched_probs(model, contexts), world, buckets
    )
    return world_policy_value(world, projected, horizon)


def behavior_kl(instance, policy):
    """E over contexts of KL(policy row || behavior row), summed directly."""
    safe = np.where(policy > 0, policy, 1.0)
    per_row = np.where(policy > 0, policy * np.log(safe / instance.behavior), 0.0)
    return float(instance.context_probs @ per_row.sum(axis=1))


# -- acceptance ----------------------------------------------------------------


def test_01_closed_form_optima_match_the_projected_gradient_oracle(small_instances):
    start = time.monotonic()
    for instance in small_instances:
        closed = lpi_objective_value(instance, tabular_optimal_lpi(instance, beta=0.5), 0.5)
        ascended = lpi_objective_value(
            instance,
            projected_gradient_policy(instance, objective="penalized_improvement", beta=0.5),
            0.5,
        )
        assert abs(closed - ascended) < 1e-6

        closed = lmu_objective_value(instance, tabular_optimal_lmu(instance))
        ascended = lmu_objective_value(
            instance, projected_gradient_policy(instance, objective="log_surrogate")
        )
        assert abs(closed - ascended) < 1e-6
    assert time.monotonic() - start < 60.0


def test_02_penalized_optimum_improves_on_behavior_by_its_kl_cost(small_instances):
    for instance in small_instances:
        value_behavior = tabular_value(instance, instance.behavior)
        for beta in (0.1, 1.0, 10.0):
            policy = tabular_optimal_lpi(instance, beta=beta)
            value_policy = tabular_value(instance, policy)
            assert value_policy >= value_behavior - 1e-12
            gap = value_policy - value_behavior
            assert gap >= beta * behavior_kl(instance, policy) - 1e-12


def test_03_importance_sampling_is_unbiased_for_the_true_value():
    start = time.monotonic()
    rng = np.random.default_rng(77)
    instance = TabularInstance(
        context_probs=rng.dirichlet(np.full(5, 5.0)),
        behavior=rng.dirichlet(np.full(8, 5.0), size=5),
        rewards=rng.uniform(size=(5, 8)),
    )
    target = rng.dirichlet(np.full(8, 5.0), size=5)
    truth = tabular_value(instance, target)

    estimates = np.array([
        ips_value_estimate(
            sample_bandit_logs(instance, 10_000, np.random.default_rng(1000 + resample)),
            target,
            instance.behavior,
            clip=None,
        ).estimate
        for resample in range(200)
    ])
    standard_error = estimates.std(ddof=1) / np.sqrt(len(estimates))
    assert abs(estimates.mean() - truth) < 3.0 * standard_error
    assert time.monotonic() - start < 60.0


def test_04_importance_weighted_value_dominates_its_log_surrogate_bound():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        catalog = int(rng.integers(2, 11))
        mu = rng.dirichlet(np.ones(catalog))
        pi = rng.dirichlet(np.ones(catalog))
        rewards = rng.uniform(0.0, 2.0, size=catalog)
        lhs = float(np.sum(pi * rewards))  # E_mu[(pi/mu) r]
        rhs = float(np.sum(mu * rewards * (1.0 + np.log(pi / mu))))
        assert lhs >= rhs - 1e-12

        equal_lhs = float(np.sum(mu * rewards))
        equal_rhs = float(np.sum(mu * rewards * (1.0 + np.log(mu / mu))))
        assert abs(equal_lhs - equal_rhs) <= 1e-12


def _objective_for(kind):
    if kind in ("sqn", "sac"):
        return ObjectiveConfig(kind=kind, td_weight=0.5, discount=0.9)
    if kind == "lpi":
        return ObjectiveConfig(kind=kind, beta=0.7, td_weight=0.4, discount=0.9)
    if kind == "ips_pg":
        return ObjectiveConfig(kind=kind, clip=5.0, discount=0.9)
    if kind == "ips_ce":
        return ObjectiveConfig(kind=kind, clip=5.0)
    if kind == "pg":
        return ObjectiveConfig(kind=kind, discount=0.9)
    return ObjectiveConfig(kind=kind)


def test_05_every_objective_gradient_matches_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(41)
    step = 1e-5
    for trial in range(20):
        dim = int(rng.integers(2, 9))
        catalog = int(rng.integers(3, 21))
        batch_size = int(rng.integers(2, 17))
        encoder = EncoderConfig(dim=dim, catalog_size=catalog, tie_weights=bool(trial % 2))
        model = SequenceModel.initialize(encoder, seed=trial)
        target = SequenceModel.initialize(encoder, seed=trial + 1000)
        examples = [
            training_example(
                tuple(rng.integers(0, catalog, size=rng.integers(1, 5))),
                int(rng.integers(0, catalog)),
                float(rng.uniform(0, 1)),
                i == batch_size - 1,
                i,
            )
            for i in range(batch_size)
        ]
        behavior_rows = rng.dirichlet(np.full(catalog, 2.0), size=batch_size)

        def behavior_fn(contexts, rows=behavior_rows):
            return rows

        for kind in OBJECTIVE_KINDS:
            objective = _objective_for(kind)
            batch = build_batch(examples, attach_reward_to_go(examples, objective.discount))
            prepared = prepare_step(model, batch, objective, behavior_fn, target)
            analytic = evaluate_prepared(model, batch, objective, prepared).gradients

            def loss_value():
                return evaluate_prepared(
                    model, batch, objective, prepared, compute_grads=False
                ).loss

            for name, values in model.params.items():
                flat = values.ravel()
                coords = rng.permutation(flat.size)[: min(30, flat.size)]
                numeric = np.zeros(len(coords))
                for out_idx, coord in enumerate(coords):
                    original = flat[coord]
                    flat[coord] = original + step
                    up = loss_value()
                    flat[coord] = original - step
                    down = loss_value()
                    flat[coord] = original
                    numeric[out_idx] = (up - down) / (2.0 * step)
                reported = np.asarray(
                    analytic.get(name, np.zeros_like(values)), dtype=float
                ).ravel()[coords]
                denom = max(np.linalg.norm(numeric), np.linalg.norm(reported), 1e-8)
                relative = np.linalg.norm(numeric - reported) / denom
                assert relative < 1e-4, f"{kind}/{name}: relative error {relative}"
    assert time.monotonic() - start < 120.0


def test_06_kl_strength_controls_divergence_and_recovers_plain_ce():
    # Part 1: stronger regularization keeps the trained policy nearer the
    # behavior estimate — majority vote per adjacent strength pair, 5 seeds.
    def config_for(seed, beta):
        return RunConfig(
            data_source="synthetic",
            synthetic_states=6,
            synthetic_catalog=10,
            synthetic_sessions=2000,
            synthetic_horizon=4,
            synthetic_seed=3,
            dim=16,
            batch_size=256,
            learning_rate=0.05,
            behavior_learning_rate=0.05,
            epochs=2,
            behavior_epochs=2,
            objective="lpi",
            beta=beta,
            td_weight=1.0,
            discount=0.0,
            seed=seed,
        )

    betas = (0.01, 1.0, 100.0)
    divergences = {}
    for seed in range(5):
        cfg = config_for(seed, 1.0)
        dataset = load_dataset(cfg)
        behavior = fit_behavior_model(dataset, cfg)
        contexts = [
            ex.context
            for seq in dataset.sequences_in("validation")
            for ex in expand_examples(seq, cfg.loss_window)
        ]
        row = []
        for beta in betas:
            model = train_model(dataset, config_for(seed, beta), behavior_model=behavior).model
            mean_js, _ = mean_divergence(
                model, behavior, contexts, kind="js", cap=50_000, seed=cfg.seed
            )
            row.append(mean_js)
        divergences[seed] = row
    for pair in (0, 1):
        votes = sum(divergences[s][pair] >= divergences[s][pair + 1] for s in divergences)
        assert votes >= 3, f"strength pair {betas[pair]} vs {betas[pair + 1]}: {divergences}"

    # Part 2: with overwhelming regularization the weighted loss IS the
    # unweighted cross-entropy loss.
    rng = np.random.default_rng(6)
    catalog = 6
    model = SequenceModel.initialize(EncoderConfig(dim=4, catalog_size=catalog), seed=0)
    examples = [
        training_example(
            tuple(rng.integers(0, catalog, size=2)),
            int(rng.integers(0, catalog)),
            float(rng.uniform(0, 1)),
            i == 3,
            i,
        )
        for i in range(4)
    ]
    batch = build_batch(examples, attach_reward_to_go(examples, 0.0))
    behavior_rows = rng.dirichlet(np.full(catalog, 2.0), size=4)
    weighted = ObjectiveConfig(kind="lpi", beta=1e12)
    plain = ObjectiveConfig(kind="ce")
    weighted_loss = evaluate_prepared(
        model, batch, weighted,
        prepare_step(model, batch, weighted, lambda contexts: behavior_rows, None),
    ).loss
    plain_loss = evaluate_prepared(
        model, batch, plain, prepare_step(model, batch, plain, None, None)
    ).loss
    assert abs(weighted_loss - plain_loss) < 1e-9


def test_07_sampled_double_q_learning_reaches_the_dynamic_programming_fixed_point():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    instance = TabularInstance(
        context_probs=rng.dirichlet(np.ones(3)),
        behavior=rng.dirichlet(np.ones(2), size=3),
        rewards=rng.uniform(0, 1, size=(3, 2)),
        transitions=rng.dirichlet(np.ones(3), size=(3, 2)),
        discount=0.9,
    )
    learned = tabular_td_learning(instance)
    optimal = value_iteration(instance)
    assert np.abs(learned - optimal).max() < 1e-2
    assert time.monotonic() - start < 60.0


def test_08_reward_weighted_training_beats_behavior_and_imitation_end_to_end():
    start = time.monotonic()
    world = make_random_world(7, 32, 50)
    wins = 0
    for seed in range(5):
        cfg = world_config(seed)
        dataset = load_dataset(cfg)
        behavior = fit_behavior_model(dataset, cfg)
        weighted = train_model(dataset, cfg, behavior_model=behavior).model
        imitation = train_model(
            dataset, world_config(seed, objective="ce", td_weight=0.0)
        ).model

        examples = []
        for seq in dataset.sequences_in("train"):
            examples.extend(expand_examples(seq, cfg.loss_window))
        buckets = bucket_contexts_by_state(world, examples)
        value_behavior = exact_policy_value(behavior, world, buckets, cfg.synthetic_horizon)
        value_weighted = exact_policy_value(weighted, world, buckets, cfg.synthetic_horizon)
        value_imitation = exact_policy_value(imitation, world, buckets, cfg.synthetic_horizon)
        if value_weighted >= value_behavior and value_weighted > value_imitation:
            wins += 1
    assert wins >= 4, f"improvement held in only {wins} of 5 seeds"
    assert time.monotonic() - start < 600.0


def test_09_ranking_reward_and_divergence_metrics_match_enumeration_oracles():
    # Ranking metrics against a full-enumeration rank oracle, ties included.
    rng = np.random.default_rng(9)
    scores = rng.standard_normal((200, 10))
    scores[::5, 3] = scores[::5, 7]  # inject ties
    actions = rng.integers(0, 10, size=200)
    ranks = ranks_from_scores(scores, actions)
    for i in range(200):
        target_score = scores[i, actions[i]]
        stronger = int(np.sum(scores[i] > target_score))
        earlier_ties = int(np.sum(scores[i, : actions[i]] == target_score))
        oracle_rank = 1 + stronger + earlier_ties
        assert ranks[i] == oracle_rank
        for k in (1, 3, 5, 10):
            assert hit_rate_samples(ranks[i : i + 1], k)[0] == float(oracle_rank <= k)
            expected = 1.0 / math.log2(oracle_rank + 1.0) if oracle_rank <= k else 0.0
            assert ndcg_samples(ranks[i : i + 1], k)[0] == pytest.approx(expected, abs=1e-12)

    # The evaluation's greedy observed reward on a hand fixture: an all-zero
    # model always recommends item 0, so only logged action 0 collects its reward.
    model = SequenceModel.initialize(
        EncoderConfig(dim=4, catalog_size=4, recency=0.8, tie_weights=True), seed=0
    )
    for values in model.params.values():
        values[...] = 0.0
    examples = ExampleColumns.of(
        TrainingExample((x,), a, r, (x, a), False, True, "click", "s", 1)
        for x, a, r in zip(range(4), [0, 1, 0, 2], [0.4, 0.9, 0.8, 0.5])
    )
    report = evaluate_examples(model, examples, RunConfig())
    assert report.metrics["ar_at_1"].value == pytest.approx(0.3, abs=1e-12)

    # Divergences against plain summation, plus range and symmetry.
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    assert js_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    for _ in range(100):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        oracle_kl = sum(p[i] * math.log(p[i] / q[i]) for i in range(k) if p[i] > 0)
        assert kl_divergence(p, q) == pytest.approx(oracle_kl, abs=1e-12)
        mid = 0.5 * (p + q)
        oracle_js = 0.5 * kl_divergence(p, mid) + 0.5 * kl_divergence(q, mid)
        assert js_divergence(p, q) == pytest.approx(oracle_js, abs=1e-12)
    for _ in range(1000):
        k = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        if rng.random() < 0.3:  # exercise disjoint-support regions too
            p[: k // 2] = 0.0
            q[k // 2 :] = 0.0
            p, q = p / p.sum(), q / q.sum()
        forward = js_divergence(p, q)
        assert forward == js_divergence(q, p)
        assert 0.0 <= forward <= math.log(2.0) + 1e-15
        assert js_divergence(p, p) == 0.0


def test_10_training_and_evaluation_are_byte_reproducible(tmp_path):
    config_path = tmp_path / "config.txt"
    cfg = RunConfig(
        data_source="synthetic",
        synthetic_states=4,
        synthetic_catalog=8,
        synthetic_sessions=500,
        synthetic_horizon=3,
        synthetic_seed=1,
        dim=8,
        batch_size=128,
        learning_rate=0.05,
        behavior_learning_rate=0.05,
        epochs=2,
        behavior_epochs=1,
        objective="lpi",
        beta=0.5,
        td_weight=1.0,
        discount=0.0,
        seed=0,
        output_dir=str(tmp_path / "out"),
    )
    config_path.write_text(cfg.to_text())
    report_path = tmp_path / "report.json"

    def train_and_eval():
        assert cli_main(["train", "--config", str(config_path)]) == 0
        assert cli_main([
            "eval", "--config", str(config_path),
            "--checkpoint", str(tmp_path / "out" / "model.ckpt"),
            "--split", "test", "--output", str(report_path),
        ]) == 0
        return {
            "model": (tmp_path / "out" / "model.ckpt").read_bytes(),
            "behavior": (tmp_path / "out" / "behavior.ckpt").read_bytes(),
            "log": (tmp_path / "out" / "train_log.json").read_bytes(),
            "report": report_path.read_bytes(),
        }

    first = train_and_eval()
    second = train_and_eval()
    for name in first:
        assert first[name] == second[name], f"{name} differs between identical runs"
    json.loads(first["report"])  # the report is valid JSON


def test_11_preprocessing_rules_produce_exact_survivor_counts():
    def session(sid, items):
        return SessionSequence(
            id=sid,
            interactions=[
                Interaction(item=item, event="click", reward=0.2, timestamp=t)
                for t, item in enumerate(items)
            ],
        )

    commons = [f"c{i}" for i in range(10)]
    raw = []
    for i in range(88):  # well-supported sequences that survive untouched
        raw.append(session(f"bulk{i:02d}", [commons[(i + j) % 10] for j in range(5)]))
    for i in range(8):  # too short: fewer than 3 interactions
        raw.append(session(f"short{i}", [commons[0], commons[1]]))
    # rare item r1 appears twice (support < 3) and is dropped; the first host
    # sequence then falls under 3 interactions and is dropped with it
    raw.append(session("r1_dropped", ["r1", commons[0], commons[1]]))
    raw.append(session("r1_kept", ["r1", commons[2], commons[3], commons[4]]))
    raw.append(session("r2_dropped", ["r2", commons[5], commons[6]]))
    raw.append(session("long", [commons[i % 10] for i in range(25)]))
    assert len(raw) == 100

    dataset = preprocess(
        raw, PreprocessRules(min_interactions=3, min_item_support=3, max_length=20)
    )
    survivors = {seq.id for seq in dataset.sequences}
    assert len(survivors) == 90
    assert dataset.catalog_size == 10
    assert {f"bulk{i:02d}" for i in range(88)} <= survivors
    assert "r1_kept" in survivors and "long" in survivors
    assert not survivors & {"r1_dropped", "r2_dropped"}
    assert not survivors & {f"short{i}" for i in range(8)}

    by_id = {seq.id: seq for seq in dataset.sequences}
    assert len(by_id["long"]) == 20  # truncated to the most recent 20
    assert len(by_id["r1_kept"]) == 3  # survives with the rare item removed

    split_dataset = split(dataset, (0.8, 0.1, 0.1), seed=0)
    assert len(split_dataset.sequences_in("train")) == 72
    assert len(split_dataset.sequences_in("validation")) == 9
    assert len(split_dataset.sequences_in("test")) == 9
