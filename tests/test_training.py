"""Tests for the training loop and the train/eval/diagnose pipelines."""

import csv
import io
import json
import math
import os
import shutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from lpirec import training
from lpirec.config import RunConfig, load_config
from lpirec.data import Dataset, Interaction, SessionSequence, TrainingExample, expand_examples
from lpirec.encoder import EncoderConfig, pad_contexts
from lpirec.metrics import MetricsReport, MetricSummary, breakdown_report, ndcg_samples
from lpirec.policy import SequenceModel, load_checkpoint, save_checkpoint
from lpirec.synth import (
    bucket_contexts_by_state,
    fit_weighted_mf,
    impute_reward,
    make_random_world,
    project_policy_to_tabular,
    world_policy_value,
)
from lpirec.training import (
    batched_probs,
    evaluate_examples,
    evaluate_split,
    fit_behavior_model,
    fit_imputation,
    load_dataset,
    report_selection_score,
    run_diagnose,
    run_eval,
    run_train,
    train_model,
)


def clicks(sid, items, rewards=None, event="click"):
    rewards = rewards if rewards is not None else [0.2] * len(items)
    interactions = [
        Interaction(item=item, event=event, reward=reward, timestamp=t)
        for t, (item, reward) in enumerate(zip(items, rewards))
    ]
    return SessionSequence(id=sid, interactions=interactions)


def dataset_of(rows, catalog, n_validation=0, n_test=0):
    """Dataset over the given item rows; the last rows become val/test."""
    seqs = [clicks(f"s{i:02d}", items) for i, items in enumerate(rows)]
    splits = {s.id: "train" for s in seqs}
    for seq in seqs[len(seqs) - n_validation - n_test : len(seqs) - n_test]:
        splits[seq.id] = "validation"
    for seq in seqs[len(seqs) - n_test :]:
        splits[seq.id] = "test"
    return Dataset(sequences=seqs, catalog_size=catalog, splits=splits)


def example(context, action, reward=0.0, event="click", sequence_id="s0"):
    context = tuple(context)
    return TrainingExample(
        context=context,
        action=action,
        reward=reward,
        next_context=context + (action,),
        terminal=False,
        in_loss_window=True,
        event=event,
        sequence_id=sequence_id,
        position=len(context),
    )


def zeroed_model(catalog, dim=4):
    """A model whose policy is exactly uniform (all logits zero)."""
    model = SequenceModel.initialize(
        EncoderConfig(dim=dim, catalog_size=catalog, recency=0.8, tie_weights=True), seed=0
    )
    for value in model.params.values():
        value[...] = 0.0
    return model


def synth_cfg(**overrides):
    """A small simulated-world run that trains in well under a second."""
    fields = dict(
        data_source="synthetic",
        synthetic_states=6,
        synthetic_catalog=10,
        synthetic_sessions=3000,
        synthetic_horizon=4,
        synthetic_seed=3,
        dim=16,
        batch_size=256,
        learning_rate=0.05,
        behavior_learning_rate=0.05,
        epochs=2,
        behavior_epochs=2,
        objective="lpi",
        beta=0.5,
        td_weight=1.0,
        discount=0.0,
        seed=0,
    )
    fields.update(overrides)
    return RunConfig(**fields)


@pytest.fixture(scope="module")
def world_run(tmp_path_factory):
    cfg = synth_cfg(output_dir=str(tmp_path_factory.mktemp("world_run")))
    return cfg, run_train(cfg)


# -- load_dataset ---------------------------------------------------------------


def test_csv_source_requires_a_data_path():
    with pytest.raises(ValueError, match="data_path"):
        load_dataset(RunConfig(data_source="csv", data_path=""))


def test_csv_source_applies_the_configured_rules(tmp_path):
    path = tmp_path / "logs.csv"
    path.write_text(
        "session_id,timestamp,item_id,event_type,rating\n"
        "a,1,i1,click,\n"
        "a,2,i2,click,\n"
        "b,1,i1,click,\n"
        "b,2,i3,click,\n"
        "c,1,i2,click,\n"
        "c,2,i1,click,\n"
    )
    cfg = RunConfig(
        data_source="csv",
        data_path=str(path),
        min_interactions=2,
        min_item_support=1,
        reward_click=0.7,
        seed=0,
    )
    dataset = load_dataset(cfg)

    from lpirec.data import PreprocessRules, load_interactions_csv, preprocess, split

    raw = load_interactions_csv(str(path), reward_click=0.7, reward_purchase=1.0)
    rules = PreprocessRules(
        min_interactions=2, min_item_support=1, max_length=20, min_count_event=None
    )
    expected = split(preprocess(raw, rules), (0.8, 0.1, 0.1), 0)
    assert dataset.catalog_size == expected.catalog_size
    assert [s.id for s in dataset.sequences] == [s.id for s in expected.sequences]
    assert dataset.splits == expected.splits
    assert all(
        inter.reward == 0.7 for seq in dataset.sequences for inter in seq.interactions
    )


def test_synthetic_source_yields_split_sessions():
    cfg = synth_cfg(synthetic_states=4, synthetic_catalog=8, synthetic_sessions=50,
                    synthetic_horizon=3)
    dataset = load_dataset(cfg)
    assert dataset.catalog_size == 8
    assert len(dataset.sequences) == 50
    assert all(len(seq) == 4 for seq in dataset.sequences)
    first = dataset.sequences[0].interactions[0]
    assert first.reward == 0.0 and first.timestamp == 0 and first.event == "synthetic"
    assert len(dataset.sequences_in("train")) == 40
    assert len(dataset.sequences_in("validation")) == 5
    assert len(dataset.sequences_in("test")) == 5

    again = load_dataset(cfg)
    assert [s.items() for s in again.sequences] == [s.items() for s in dataset.sequences]


# -- train_model ----------------------------------------------------------------


def test_training_learns_a_deterministic_successor_map():
    dataset = dataset_of([[0, 1, 2, 0, 1, 2]] * 8, catalog=3)
    cfg = RunConfig(epochs=40, learning_rate=0.1, batch_size=64, dim=8, seed=0)
    result = train_model(dataset, cfg)
    contexts = [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 0), (0, 1, 2, 0, 1)]
    successors = [1, 2, 0, 1, 2]
    probs = batched_probs(result.model, contexts)
    for row, successor in zip(probs, successors):
        assert row[successor] > 0.99


def test_training_splits_mass_between_two_successors():
    dataset = dataset_of([[0, 1]] * 10 + [[0, 2]] * 10, catalog=3)
    cfg = RunConfig(epochs=60, learning_rate=0.05, batch_size=32, dim=8, seed=0)
    result = train_model(dataset, cfg)
    probs = batched_probs(result.model, [(0,)])[0]
    assert probs[1] == pytest.approx(0.5, abs=0.05)
    assert probs[2] == pytest.approx(0.5, abs=0.05)


def test_training_is_deterministic_for_a_seed():
    rows = [[i % 4, (i + 1) % 4, (i + 2) % 4, (i * 2) % 4] for i in range(12)]
    dataset = dataset_of(rows, catalog=4, n_validation=2)
    cfg = RunConfig(epochs=3, learning_rate=0.05, batch_size=16, dim=8, seed=11)
    first = train_model(dataset, cfg)
    second = train_model(dataset, cfg)
    assert first.log == second.log
    assert first.best_epoch == second.best_epoch
    assert first.best_score == second.best_score
    for key, value in first.model.params.items():
        assert np.array_equal(value, second.model.params[key])


def test_training_without_validation_keeps_the_final_model():
    dataset = dataset_of([[0, 1, 2]] * 6, catalog=3)
    cfg = RunConfig(epochs=4, learning_rate=0.05, batch_size=16, dim=8, seed=0)
    result = train_model(dataset, cfg)
    assert result.best_epoch == 4
    assert math.isnan(result.best_score)
    assert [entry["type"] for entry in result.log] == ["epoch"] * 4
    assert all("val_score" not in entry and "validation" not in entry for entry in result.log)


def test_log_loss_selection_tracks_validation_cross_entropy():
    rows = [[i % 4, (i + 1) % 4, (i + 3) % 4] for i in range(12)]
    dataset = dataset_of(rows, catalog=4, n_validation=3)
    cfg = RunConfig(epochs=4, learning_rate=0.05, batch_size=16, dim=8, seed=2)
    result = train_model(dataset, cfg, select_by="log_loss")
    losses = [entry["val_log_loss"] for entry in result.log]
    assert len(losses) == 4
    assert result.best_score == -min(losses)
    assert result.best_epoch == 1 + losses.index(min(losses))
    assert all("validation" not in entry for entry in result.log)


def test_score_selection_attaches_validation_reports():
    rows = [[i % 4, (i + 1) % 4, (i + 3) % 4] for i in range(12)]
    dataset = dataset_of(rows, catalog=4, n_validation=3)
    cfg = RunConfig(epochs=3, learning_rate=0.05, batch_size=16, dim=8, seed=2)
    result = train_model(dataset, cfg)
    scores = []
    for entry in result.log:
        assert entry["type"] == "epoch"
        assert entry["val_score"] == entry["validation"]["ndcg_at_20"]["value"]
        scores.append(entry["val_score"])
    assert result.best_score == max(scores)
    assert result.best_epoch == 1 + scores.index(max(scores))


def test_divergence_aborts_training_but_returns_a_model():
    dataset = dataset_of([[0, 1, 2, 0, 1, 2]] * 8, catalog=3)
    cfg = RunConfig(
        epochs=3,
        learning_rate=1e200,
        batch_size=64,
        dim=8,
        seed=0,
        objective="sqn",
        td_weight=1.0,
        discount=0.9,
    )
    with np.errstate(all="ignore"):
        result = train_model(dataset, cfg)
    assert [entry["type"] for entry in result.log] == ["epoch", "abort"]
    assert result.log[-1] == {
        "type": "abort",
        "epoch": 2,
        "step": 1,
        "reason": "non-finite loss",
    }
    assert result.best_epoch == 1
    assert all(np.isfinite(value).all() for value in result.model.params.values())


def test_training_requires_train_examples():
    dataset = dataset_of([[0], [1]], catalog=2)
    cfg = RunConfig(epochs=1, dim=4)
    with pytest.raises(ValueError, match="no examples"):
        train_model(dataset, cfg)


def test_behavior_model_is_fitted_only_for_weighted_objectives():
    rows = [[i % 4, (i + 1) % 4, (i + 3) % 4] for i in range(12)]
    dataset = dataset_of(rows, catalog=4, n_validation=2)
    cfg = RunConfig(epochs=1, behavior_epochs=1, learning_rate=0.05, batch_size=16,
                    dim=8, seed=0)
    assert train_model(dataset, cfg).behavior_model is None

    lpi_cfg = RunConfig(epochs=1, behavior_epochs=1, learning_rate=0.05, batch_size=16,
                        dim=8, seed=0, objective="lpi", beta=1.0)
    fitted = train_model(dataset, lpi_cfg)
    assert fitted.behavior_model is not None

    explicit = fit_behavior_model(dataset, lpi_cfg)
    reused = train_model(dataset, lpi_cfg, behavior_model=explicit)
    assert reused.behavior_model is explicit


def test_a_behavior_model_over_another_catalog_is_rejected():
    rows = [[i % 4, (i + 1) % 4, (i + 3) % 4] for i in range(12)]
    dataset = dataset_of(rows, catalog=4, n_validation=2)
    cfg = RunConfig(epochs=1, batch_size=16, dim=8, seed=0, objective="lpi", beta=1.0)
    other = SequenceModel.initialize(cfg.encoder_config(5), seed=0)
    with pytest.raises(ValueError, match="behavior model catalog size 5"):
        train_model(dataset, cfg, behavior_model=other)


def test_behavior_fit_ignores_rewards():
    rows = [[i % 4, (i + 1) % 4, (i + 3) % 4] for i in range(12)]
    low = Dataset(
        sequences=[clicks(f"s{i:02d}", items, rewards=[0.2] * len(items))
                   for i, items in enumerate(rows)],
        catalog_size=4,
        splits={f"s{i:02d}": "train" if i < 10 else "validation" for i in range(12)},
    )
    high = Dataset(
        sequences=[clicks(f"s{i:02d}", items, rewards=[1.0] * len(items))
                   for i, items in enumerate(rows)],
        catalog_size=4,
        splits=dict(low.splits),
    )
    cfg = RunConfig(behavior_epochs=2, behavior_learning_rate=0.05, batch_size=16,
                    dim=8, seed=0)
    from_low = fit_behavior_model(low, cfg)
    from_high = fit_behavior_model(high, cfg)
    for key, value in from_low.params.items():
        assert np.array_equal(value, from_high.params[key])


def test_behavior_fit_uses_its_own_epoch_and_rate_settings():
    rows = [[i % 4, (i + 1) % 4, (i + 3) % 4] for i in range(12)]
    dataset = dataset_of(rows, catalog=4, n_validation=2)

    untrained = fit_behavior_model(dataset, RunConfig(dim=8, seed=5, behavior_epochs=0))
    expected = SequenceModel.initialize(
        RunConfig(dim=8, seed=5).encoder_config(4), seed=5 + 101
    )
    for key, value in untrained.params.items():
        assert np.array_equal(value, expected.params[key])

    base = dict(dim=8, seed=0, batch_size=16, behavior_epochs=2)
    slow_main = fit_behavior_model(
        dataset, RunConfig(learning_rate=123.0, behavior_learning_rate=0.05, **base)
    )
    fast_main = fit_behavior_model(
        dataset, RunConfig(learning_rate=0.001, behavior_learning_rate=0.05, **base)
    )
    other_rate = fit_behavior_model(
        dataset, RunConfig(learning_rate=0.001, behavior_learning_rate=0.01, **base)
    )
    for key, value in slow_main.params.items():
        assert np.array_equal(value, fast_main.params[key])
    assert any(
        not np.array_equal(slow_main.params[key], other_rate.params[key])
        for key in slow_main.params
    )


class PaddingSpy(SequenceModel):
    """A behavior model that records every padded batch it scores."""

    def __init__(self, config, params):
        super().__init__(config, params)
        self.scored = []

    def probs(self, contexts):
        self.scored.append(self.as_batch(contexts))
        return super().probs(contexts)


def spy_behavior(dataset):
    encoder = EncoderConfig(catalog_size=dataset.catalog_size, dim=8, recency=0.3)
    return PaddingSpy(encoder, SequenceModel.initialize(encoder, 4).params)


def test_every_model_pools_with_its_own_recency():
    cfg = synth_cfg(epochs=1, recency=0.8)
    dataset = load_dataset(cfg)
    encoder = EncoderConfig(catalog_size=dataset.catalog_size, dim=cfg.dim, recency=0.5)
    behavior = spy_behavior(dataset)

    trained = train_model(dataset, cfg, encoder=encoder, behavior_model=behavior).model
    reference = train_model(
        dataset, replace(cfg, recency=0.5), encoder=encoder, behavior_model=behavior
    ).model
    for name, value in reference.params.items():
        np.testing.assert_array_equal(trained.params[name], value)

    assert behavior.scored
    for batch in behavior.scored:
        contexts = [tuple(row[:n]) for row, n in zip(batch.indices, batch.lengths)]
        np.testing.assert_array_equal(batch.weights, pad_contexts(contexts, 0.3).weights)


def test_lpi_scores_the_behavior_model_on_each_steps_own_batch(monkeypatch):
    cfg = synth_cfg(epochs=3)
    dataset = load_dataset(cfg)
    behavior = spy_behavior(dataset)
    steps = []
    original = training.evaluate_prepared

    def recorded(model, batch, *args, **kwargs):
        steps.append(batch)
        return original(model, batch, *args, **kwargs)

    monkeypatch.setattr(training, "evaluate_prepared", recorded)
    result = train_model(dataset, cfg, behavior_model=behavior)

    n_steps, n_scored = len(steps), len(behavior.scored)
    assert n_steps == result.log[-1]["steps"] > 3
    assert n_scored == n_steps
    for batch, scored in zip(steps, behavior.scored):
        assert scored is batch.pad(0.3)[0]


def test_objectives_without_a_behavior_term_never_score_the_behavior_model():
    cfg = synth_cfg(objective="ce", td_weight=0.0, epochs=1)
    dataset = load_dataset(cfg)
    behavior = spy_behavior(dataset)
    train_model(dataset, cfg, behavior_model=behavior)
    n_scored = len(behavior.scored)
    assert n_scored == 0


def test_training_memory_does_not_grow_with_examples_times_catalog():
    # a run-long examples x catalog float64 behavior matrix alone would be 1.0x
    cfg = synth_cfg(synthetic_catalog=1000, synthetic_sessions=1000, epochs=1,
                    behavior_epochs=1)
    dataset = load_dataset(cfg)
    n_train = sum(min(cfg.loss_window, len(s) - 1) for s in dataset.sequences_in("train"))
    tracemalloc.start()
    try:
        train_model(dataset, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n_train * dataset.catalog_size


# -- fit_imputation -------------------------------------------------------------


def test_imputation_holds_out_final_validation_and_test_rewards():
    seqs = [
        clicks("s0", [0, 1, 2], rewards=[0.2, 0.5, 1.0]),
        clicks("s1", [1, 2, 3], rewards=[0.3, 0.4, 0.9]),
        clicks("s2", [2, 3, 0], rewards=[0.1, 0.6, 0.8]),
    ]
    dataset = Dataset(
        sequences=seqs,
        catalog_size=4,
        splits={"s0": "train", "s1": "validation", "s2": "test"},
    )
    cfg = RunConfig(imputation_rank=2, seed=5)
    model, user_index = fit_imputation(dataset, cfg)
    assert user_index == {"s0": 0, "s1": 1, "s2": 2}

    triples = [(0, 0, 0.2), (0, 1, 0.5), (0, 2, 1.0),  # train: every interaction
               (1, 1, 0.3), (1, 2, 0.4),  # validation: final reward held out
               (2, 2, 0.1), (2, 3, 0.6)]  # test: final reward held out
    expected = fit_weighted_mf(
        triples,
        f=2,
        missing_target=cfg.imputation_missing_target,
        missing_weight=cfg.imputation_missing_weight,
        seed=5,
        n_users=3,
        n_items=4,
    )
    assert np.array_equal(model.user_factors, expected.user_factors)
    assert np.array_equal(model.item_factors, expected.item_factors)
    assert model.global_bias == expected.global_bias


# -- evaluate_examples ----------------------------------------------------------


def test_report_covers_ranking_and_reward_metrics():
    model = zeroed_model(catalog=4)  # all logits zero: rank of action a is a+1
    examples = [
        example((0,), 0, reward=0.8),
        example((1,), 1, reward=0.5),
        example((2,), 2, reward=0.5),
        example((3,), 3, reward=0.5),
    ]
    cfg = RunConfig(eval_ks="1,2,4")
    report = evaluate_examples(model, examples, cfg)
    assert set(report.metrics) == {
        "hr_at_1", "hr_at_2", "hr_at_4", "ndcg_at_1", "ndcg_at_2", "ndcg_at_4", "ar_at_1"
    }
    assert report.metrics["hr_at_1"].value == pytest.approx(0.25, abs=1e-12)
    assert report.metrics["hr_at_2"].value == pytest.approx(0.5, abs=1e-12)
    assert report.metrics["hr_at_4"].value == pytest.approx(1.0, abs=1e-12)
    assert report.metrics["ndcg_at_1"].value == pytest.approx(0.25, abs=1e-12)
    assert report.metrics["ndcg_at_2"].value == pytest.approx(
        (1.0 + 1.0 / np.log2(3.0)) / 4.0, abs=1e-12
    )
    assert report.metrics["ndcg_at_4"].value == pytest.approx(
        (1.0 + 1.0 / np.log2(3.0) + 0.5 + 1.0 / np.log2(5.0)) / 4.0, abs=1e-12
    )
    # greedy action is 0 everywhere, so only the first example earns its reward
    assert report.metrics["ar_at_1"].value == pytest.approx(0.2, abs=1e-12)
    assert all(summary.count == 4 for summary in report.metrics.values())
    assert report.breakdown is None
    assert report.metadata is None


def test_event_split_metrics_appear_only_with_mixed_events():
    model = zeroed_model(catalog=4)
    cfg = RunConfig(eval_ks="1,4")
    uniform_event = [example((0,), 0), example((1,), 1)]
    report = evaluate_examples(model, uniform_event, cfg)
    assert not any("click" in name for name in report.metrics)

    mixed = [
        example((0,), 0, event="click"),
        example((1,), 1, event="click"),
        example((2,), 3, event="purchase"),
    ]
    report = evaluate_examples(model, mixed, cfg)
    assert report.metrics["ndcg_click_at_1"].value == pytest.approx(0.5, abs=1e-12)
    assert report.metrics["ndcg_click_at_1"].count == 2
    assert report.metrics["hr_purchase_at_4"].value == pytest.approx(1.0, abs=1e-12)
    assert report.metrics["ndcg_purchase_at_4"].value == pytest.approx(
        1.0 / np.log2(5.0), abs=1e-12
    )
    assert report.metrics["ndcg_purchase_at_4"].count == 1


def test_empty_example_set_is_rejected():
    with pytest.raises(ValueError, match="empty example set"):
        evaluate_examples(zeroed_model(catalog=4), [], RunConfig())


def test_imputed_reward_metric_needs_the_user_index():
    model = zeroed_model(catalog=4)
    examples = [example((0,), 1, sequence_id="a"), example((1,), 2, sequence_id="a"),
                example((2,), 3, sequence_id="b")]
    imputation = fit_weighted_mf(
        [(0, 0, 1.0), (1, 1, 0.0), (0, 1, 0.5), (1, 0, 0.3)],
        f=1, missing_target=0.25, missing_weight=0.05, seed=0, n_users=2, n_items=4,
    )
    cfg = RunConfig(eval_ks="1")
    with pytest.raises(ValueError, match="sequence-to-user index"):
        evaluate_examples(model, examples, cfg, imputation=imputation)

    user_index = {"a": 0, "b": 1}
    report = evaluate_examples(model, examples, cfg, imputation=imputation,
                               user_index=user_index)
    # greedy action is item 0 for every context
    expected = np.mean([
        impute_reward(imputation, 0, 0),
        impute_reward(imputation, 0, 0),
        impute_reward(imputation, 1, 0),
    ])
    assert report.metrics["iar_at_1"].value == pytest.approx(expected, abs=1e-12)
    assert report.metrics["iar_at_1"].count == 3


def test_sequence_lengths_add_the_count_breakdown():
    model = zeroed_model(catalog=4)
    examples = [
        example((0,), 0, sequence_id="a"),
        example((0, 1), 1, sequence_id="a"),
        example((1,), 3, sequence_id="b"),
        example((1, 2), 3, sequence_id="b"),
    ]
    cfg = RunConfig(eval_ks="1")
    lengths = {"a": 3, "b": 12}
    report = evaluate_examples(model, examples, cfg, sequence_lengths=lengths)
    per_sequence = [
        float(ndcg_samples(np.array([1, 2]), 20).mean()),  # sequence "a": ranks 1, 2
        float(ndcg_samples(np.array([4, 4]), 20).mean()),  # sequence "b": ranks 4, 4
    ]
    expected = breakdown_report(per_sequence, [3, 12], max_count=cfg.max_length).breakdown
    assert report.breakdown == expected
    assert report.breakdown["1-5"].count == 1
    assert report.breakdown["11-15"].count == 1
    assert report.breakdown["6-10"].count == 0


def test_behavior_divergence_metrics_compare_policies():
    model = zeroed_model(catalog=4)
    examples = [example((i,), i) for i in range(4)]
    cfg = RunConfig(eval_ks="1")
    report = evaluate_examples(model, examples, cfg, behavior_model=zeroed_model(4),
                               metadata={"divergence_contexts": "here"})
    assert report.metrics["js_vs_behavior"].value == 0.0
    assert report.metrics["kl_vs_behavior"].value == 0.0
    assert report.metrics["js_vs_behavior"].count == 4
    assert report.metadata == {"divergence_contexts": "here"}

    shifted = zeroed_model(catalog=4)
    shifted.params["head_b"][0] = 1.0
    report = evaluate_examples(model, examples, cfg, behavior_model=shifted)
    assert report.metrics["js_vs_behavior"].value > 0.0
    assert report.metrics["kl_vs_behavior"].value > 0.0


# -- evaluate_split -------------------------------------------------------------


def test_split_evaluation_requires_examples():
    dataset = dataset_of([[0, 1, 2]] * 5 + [[3]], catalog=4, n_validation=1)
    with pytest.raises(ValueError, match="split 'validation' has no evaluable examples"):
        evaluate_split(zeroed_model(4), dataset, "validation", RunConfig(eval_ks="1"))


def test_split_evaluation_marks_missing_behavior_with_a_warning():
    dataset = dataset_of([[0, 1, 2]] * 5 + [[1, 2, 3]], catalog=4, n_test=1)
    cfg = RunConfig(eval_ks="1")
    report = evaluate_split(zeroed_model(4), dataset, "test", cfg)
    assert report.metadata == {
        "warning": "logging-policy estimate unavailable; divergence metrics omitted"
    }
    assert "js_vs_behavior" not in report.metrics

    report = evaluate_split(zeroed_model(4), dataset, "test", cfg,
                            behavior_model=zeroed_model(4))
    assert report.metadata == {"divergence_contexts": "test"}
    assert report.metrics["js_vs_behavior"].value == 0.0


def test_split_evaluation_adds_imputation_when_configured():
    dataset = dataset_of([[0, 1, 2], [1, 2, 3], [2, 3, 0], [3, 0, 1]], catalog=4,
                         n_test=1)
    without = evaluate_split(zeroed_model(4), dataset, "test", RunConfig(eval_ks="1"))
    assert "iar_at_1" not in without.metrics
    with_imputation = evaluate_split(
        zeroed_model(4), dataset, "test", RunConfig(eval_ks="1", imputation_rank=2)
    )
    assert "iar_at_1" in with_imputation.metrics


# -- report_selection_score -------------------------------------------------------


def test_selection_score_blends_purchase_and_click_ranking():
    report = MetricsReport(metrics={
        "ndcg_purchase_at_20": MetricSummary(value=0.5, count=3, stderr=0.0),
        "ndcg_click_at_20": MetricSummary(value=0.4, count=3, stderr=0.0),
    })
    assert report_selection_score(report, 1.0, 0.2) == pytest.approx(0.58, abs=1e-12)


def test_selection_score_falls_back_through_ndcg_variants():
    overall = MetricsReport(metrics={
        "ndcg_purchase_at_20": MetricSummary(value=0.5, count=0, stderr=None),
        "ndcg_click_at_20": MetricSummary(value=0.4, count=3, stderr=0.0),
        "ndcg_at_20": MetricSummary(value=0.3, count=3, stderr=0.0),
    })
    assert report_selection_score(overall, 1.0, 0.2) == pytest.approx(0.3, abs=1e-12)

    largest_k = MetricsReport(metrics={
        "ndcg_at_5": MetricSummary(value=0.2, count=3, stderr=0.0),
        "ndcg_at_10": MetricSummary(value=0.25, count=3, stderr=0.0),
    })
    assert report_selection_score(largest_k, 1.0, 0.2) == pytest.approx(0.25, abs=1e-12)

    no_ranking = MetricsReport(metrics={
        "ar_at_1": MetricSummary(value=0.5, count=3, stderr=0.0),
        "ndcg_at_10": MetricSummary(value=None, count=0, stderr=None),
    })
    assert report_selection_score(no_ranking, 1.0, 0.2) is None


# -- run_train ------------------------------------------------------------------


def test_zero_epoch_run_saves_the_initial_model(tmp_path):
    cfg = synth_cfg(epochs=0, objective="ce", td_weight=0.0,
                    output_dir=str(tmp_path / "run"))
    paths = run_train(cfg)
    assert set(paths) == {"checkpoint", "meta", "log", "config"}

    loaded = load_checkpoint(paths["checkpoint"])
    expected = SequenceModel.initialize(cfg.encoder_config(10), cfg.seed)
    for key, value in expected.params.items():
        assert np.array_equal(
            loaded.params[key], value.astype(np.float32).astype(np.float64)
        )

    log = json.loads(open(paths["log"]).read())
    assert log == {"schema_version": 1, "best_epoch": 0, "best_score": None, "entries": []}

    meta = json.loads(open(paths["meta"]).read())
    assert meta["objective"] == "ce"
    assert meta["catalog_size"] == 10
    assert meta["dim"] == 16
    assert meta["best_epoch"] == 0
    assert meta["val_score"] is None

    assert load_config(paths["config"]) == cfg


def test_identical_runs_write_identical_artifacts(tmp_path):
    cfg_a = synth_cfg(output_dir=str(tmp_path / "a"))
    cfg_b = synth_cfg(output_dir=str(tmp_path / "b"))
    paths_a = run_train(cfg_a)
    paths_b = run_train(cfg_b)
    for name in ("checkpoint", "behavior", "log", "meta"):
        with open(paths_a[name], "rb") as fh:
            bytes_a = fh.read()
        with open(paths_b[name], "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b, f"{name} differs between identical runs"

    _, json_a = run_eval(cfg_a, paths_a["checkpoint"], "test")
    _, json_b = run_eval(cfg_b, paths_b["checkpoint"], "test")
    assert json_a == json_b


def test_reward_weighted_run_beats_its_behavior_estimate(tmp_path):
    cfg = synth_cfg(beta=0.25, epochs=4, output_dir=str(tmp_path / "run"))
    paths = run_train(cfg)

    world = make_random_world(cfg.synthetic_seed, cfg.synthetic_states, cfg.synthetic_catalog)
    dataset = load_dataset(cfg)
    examples = []
    for seq in dataset.sequences_in("train"):
        examples.extend(expand_examples(seq, cfg.loss_window))
    buckets = bucket_contexts_by_state(world, examples)

    values = {}
    for name in ("checkpoint", "behavior"):
        model = load_checkpoint(paths[name])
        projected = project_policy_to_tabular(
            lambda contexts, m=model: batched_probs(m, contexts), world, buckets
        )
        values[name] = world_policy_value(world, projected, cfg.synthetic_horizon)
    assert values["checkpoint"] >= values["behavior"]


# -- run_eval -------------------------------------------------------------------


def test_eval_of_the_behavior_estimate_against_itself_reports_zero_divergence(
    world_run, tmp_path
):
    cfg, paths = world_run
    shutil.copyfile(paths["behavior"], tmp_path / "model.ckpt")
    shutil.copyfile(paths["behavior"], tmp_path / "behavior.ckpt")
    report, payload = run_eval(cfg, str(tmp_path / "model.ckpt"), "validation")
    assert report.metrics["js_vs_behavior"].value == 0.0
    assert report.metrics["kl_vs_behavior"].value == 0.0
    assert report.metadata == {"divergence_contexts": "validation"}
    assert json.loads(payload)["js_vs_behavior"]["value"] == 0.0


def test_eval_validates_split_name_and_catalog(world_run, tmp_path):
    cfg, paths = world_run
    with pytest.raises(ValueError, match="unknown split 'dev'"):
        run_eval(cfg, paths["checkpoint"], "dev")

    other = SequenceModel.initialize(cfg.encoder_config(11), seed=0)
    save_checkpoint(other, str(tmp_path / "other.ckpt"))
    with pytest.raises(ValueError, match="catalog size"):
        run_eval(cfg, str(tmp_path / "other.ckpt"), "test")

    shutil.copy(paths["checkpoint"], tmp_path / "model.ckpt")
    save_checkpoint(other, str(tmp_path / "behavior.ckpt"))
    with pytest.raises(ValueError, match="behavior.ckpt catalog size 11"):
        run_eval(cfg, str(tmp_path / "model.ckpt"), "test")


def test_eval_without_a_behavior_checkpoint_warns(world_run, tmp_path):
    cfg, _ = world_run
    lone = SequenceModel.initialize(cfg.encoder_config(10), seed=0)
    save_checkpoint(lone, str(tmp_path / "model.ckpt"))
    report, _ = run_eval(cfg, str(tmp_path / "model.ckpt"), "test")
    assert report.metadata == {
        "warning": "logging-policy estimate unavailable; divergence metrics omitted"
    }
    assert "js_vs_behavior" not in report.metrics


def test_eval_of_an_empty_split_is_an_error(world_run, tmp_path):
    cfg, _ = world_run
    lone = SequenceModel.initialize(cfg.encoder_config(10), seed=0)
    save_checkpoint(lone, str(tmp_path / "model.ckpt"))
    no_validation = synth_cfg(split_train=0.9, split_validation=0.0,
                              output_dir=cfg.output_dir)
    with pytest.raises(ValueError, match="has no evaluable examples"):
        run_eval(no_validation, str(tmp_path / "model.ckpt"), "validation")


# -- run_diagnose ---------------------------------------------------------------


def copy_as_sweep(paths, directory, betas):
    """Duplicate one trained checkpoint as a fake sweep over beta values."""
    with open(paths["meta"]) as fh:
        base_meta = json.load(fh)
    shutil.copyfile(paths["behavior"], os.path.join(directory, "behavior.ckpt"))
    out = []
    for i, beta in enumerate(betas):
        ckpt = os.path.join(directory, f"model_{i}.ckpt")
        shutil.copyfile(paths["checkpoint"], ckpt)
        meta = dict(base_meta, beta=beta)
        with open(ckpt + ".meta.json", "w") as fh:
            json.dump(meta, fh)
        out.append(ckpt)
    return out


def test_diagnose_needs_at_least_two_checkpoints(world_run):
    cfg, paths = world_run
    with pytest.raises(ValueError, match="at least two"):
        run_diagnose(cfg, [paths["checkpoint"]])


def test_diagnose_requires_metadata_sidecars(world_run, tmp_path):
    cfg, paths = world_run
    bare = str(tmp_path / "bare.ckpt")
    shutil.copyfile(paths["checkpoint"], bare)
    with pytest.raises(ValueError, match="metadata sidecar"):
        run_diagnose(cfg, [paths["checkpoint"], bare])


def test_diagnose_rejects_sweeps_over_multiple_fields(world_run, tmp_path):
    cfg, paths = world_run
    ckpts = copy_as_sweep(paths, str(tmp_path), [0.1, 10.0])
    with open(paths["meta"]) as fh:
        meta = json.load(fh)
    meta.update(beta=10.0, discount=0.5)
    with open(ckpts[1] + ".meta.json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError, match="multiple hyperparameters"):
        run_diagnose(cfg, ckpts)


def test_identical_checkpoints_share_every_column_except_the_swept_value(
    world_run, tmp_path
):
    cfg, paths = world_run
    ckpts = copy_as_sweep(paths, str(tmp_path), [0.1, 10.0])
    rows = list(csv.DictReader(io.StringIO(run_diagnose(cfg, ckpts))))
    assert len(rows) == 2
    assert [row["hyperparameter"] for row in rows] == ["beta", "beta"]
    assert [row["value"] for row in rows] == ["0.1", "10.0"]
    for column in ("ndcg_click_at_20", "ndcg_purchase_at_20", "js_mean"):
        assert rows[0][column] == rows[1][column]
        assert 0.0 <= float(rows[0][column]) <= 1.0


def test_diagnose_reports_ndcg20_even_when_not_configured(world_run, tmp_path):
    cfg, paths = world_run
    ckpts = copy_as_sweep(paths, str(tmp_path), [0.1, 10.0])
    narrow = synth_cfg(eval_ks="5", output_dir=cfg.output_dir)
    rows = list(csv.DictReader(io.StringIO(run_diagnose(narrow, ckpts))))
    for row in rows:
        assert 0.0 <= float(row["ndcg_click_at_20"]) <= 1.0
        assert 0.0 <= float(row["ndcg_purchase_at_20"]) <= 1.0


def test_beta_sweep_orders_behavior_divergence(tmp_path):
    ckpts = []
    for beta in (0.01, 1.0, 100.0):
        cfg = synth_cfg(beta=beta, epochs=3, output_dir=str(tmp_path / f"b{beta}"))
        ckpts.append(run_train(cfg)["checkpoint"])
    table = run_diagnose(synth_cfg(output_dir=str(tmp_path)), ckpts)
    rows = list(csv.DictReader(io.StringIO(table)))
    assert [row["value"] for row in rows] == ["0.01", "1.0", "100.0"]
    divergences = [float(row["js_mean"]) for row in rows]
    assert divergences[0] >= divergences[1] >= divergences[2]
