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

from lpirec import encoder, objectives, training
from lpirec.config import RunConfig, load_config
from lpirec.data import (
    Dataset,
    Interaction,
    ExampleColumns,
    SessionSequence,
    TrainingExample,
    expand_columns,
    expand_examples,
    split,
)
from lpirec.encoder import EncoderConfig, pad_contexts
from lpirec.metrics import (
    _DIVERGENCE_CHUNK,
    MetricsReport,
    MetricSummary,
    breakdown_report,
    divergence_rows,
    mean_divergence,
    ndcg_samples,
)
from lpirec.objectives import attach_reward_to_go, build_batch
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
    _validation_log_loss,
    batched_policy_scores,
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


def test_a_loaded_world_keeps_its_sessions_in_flat_columns():
    # 12,000 sessions of 6 interactions, world-lpi's size: one object per
    # interaction kept about 12 MiB alive, the table's columns keep about 3 MiB
    cfg = synth_cfg(synthetic_states=64, synthetic_catalog=300, synthetic_sessions=12_000,
                    synthetic_horizon=5)
    tracemalloc.start()
    try:
        dataset = load_dataset(cfg)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset.sequences) == 12_000
    assert kept < 4 * 2**20


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


def test_reward_to_go_follows_the_objectives_discount(monkeypatch):
    cfg = synth_cfg(objective="pg", td_weight=0.0, synthetic_sessions=200, discount=0.9)
    dataset = load_dataset(cfg)
    expanded = []
    original = training.expand_columns

    def spy(sequences, loss_window, discount):
        expanded.append((sequences.ids.tolist(), discount))
        return original(sequences, loss_window, discount)

    monkeypatch.setattr(training, "expand_columns", spy)
    train_model(dataset, cfg)
    assert (dataset.sequences_in("train").ids.tolist(), 0.9) in expanded


@pytest.mark.parametrize("discount", [0.5, 0.9])
def test_columnar_batches_equal_batches_of_expanded_examples(discount):
    loss_window = 4
    rng = np.random.default_rng(8)
    sequences = [
        clicks(f"s{i}", list(rng.integers(0, 9, size=n)), list(rng.uniform(-1, 2, size=n)))
        for i, n in enumerate([1, 2, loss_window - 1, loss_window + 3, 2, loss_window + 3])
    ]
    examples = [ex for seq in sequences for ex in expand_examples(seq, loss_window)]
    rtg = attach_reward_to_go(examples, discount)
    keep = [i for i, ex in enumerate(examples) if ex.in_loss_window]
    examples, rtg = [examples[i] for i in keep], rtg[keep]
    columns = expand_columns(sequences, loss_window, discount)
    assert len(columns) == len(examples)

    order = rng.permutation(len(examples))
    for start in range(0, len(order), 5):
        rows = order[start : start + 5]
        got = build_batch(columns, rows=rows)
        want = build_batch([examples[i] for i in rows], rtg[rows])
        contexts = [examples[i].context for i in rows]
        next_contexts = [examples[i].next_context for i in rows]
        assert list(got.contexts) == list(want.contexts) == contexts
        assert list(got.next_contexts) == list(want.next_contexts) == next_contexts
        for name in ("actions", "rewards", "terminals", "reward_to_go"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert getattr(got, name).dtype == getattr(want, name).dtype
        # the list padding path is the independent reference
        pairs = (
            (got.contexts, want.contexts, contexts),
            (got.next_contexts, want.next_contexts, next_contexts),
        )
        for ragged, listed, plain in pairs:
            reference = pad_contexts(plain, 0.7)
            for padded in (pad_contexts(ragged, 0.7), pad_contexts(listed, 0.7)):
                for name in ("indices", "weights", "lengths"):
                    np.testing.assert_array_equal(
                        getattr(padded, name), getattr(reference, name)
                    )


def test_train_model_never_expands_a_train_sequence(monkeypatch):
    # no split is expanded into TrainingExample objects, in training or evaluation
    cfg = synth_cfg(epochs=1, synthetic_sessions=300)
    dataset = load_dataset(cfg)
    expanded = []
    original = training.expand_examples

    def spy(sequence, loss_window):
        expanded.append(dataset.splits[sequence.id])
        return original(sequence, loss_window)

    monkeypatch.setattr(training, "expand_examples", spy)
    result = train_model(dataset, replace(cfg, objective="ce", td_weight=0.0))
    assert "validation" in result.log[-1]
    evaluate_split(result.model, dataset, "test", cfg, behavior_model=result.model)
    assert expanded == []


def test_an_unknown_select_by_is_rejected():
    rows = [[i % 4, (i + 1) % 4, (i + 3) % 4] for i in range(12)]
    dataset = dataset_of(rows, catalog=4, n_validation=2)
    with pytest.raises(ValueError, match='"score" or "log_loss", got \'loglos\''):
        train_model(dataset, RunConfig(epochs=1, dim=4), select_by="loglos")


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

    def encode(self, contexts):
        self.scored.append(self.as_batch(contexts))
        return super().encode(contexts)


def spy_behavior(dataset):
    encoder = EncoderConfig(catalog_size=dataset.catalog_size, dim=8, recency=0.3)
    return PaddingSpy(encoder, SequenceModel.initialize(encoder, 4).params)


def test_every_model_pools_with_its_own_recency():
    cfg = synth_cfg(epochs=1, recency=0.5)
    dataset = load_dataset(cfg)
    behavior = spy_behavior(dataset)
    train_model(dataset, cfg, behavior_model=behavior)

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
        reference = pad_contexts(batch.contexts, 0.3)
        for name in ("indices", "weights", "lengths"):
            np.testing.assert_array_equal(getattr(scored, name), getattr(reference, name))


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


def test_log_loss_selection_memory_does_not_grow_with_examples_times_catalog():
    # log_softmax of a held validation examples x catalog float64 matrix alone would be 1.0x
    rng = np.random.default_rng(9)
    catalog = 100
    rows = [list(rng.integers(0, catalog, size=11)) for _ in range(2200)]
    dataset = dataset_of(rows, catalog=catalog, n_validation=2000)
    cfg = RunConfig(epochs=1, loss_window=10, batch_size=256, dim=8)
    n_validation = len(expand_columns(dataset.sequences_in("validation"), 10, 0.0))
    assert n_validation >= 20_000
    tracemalloc.start()
    try:
        result = train_model(dataset, cfg, select_by="log_loss")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "val_log_loss" in result.log[-1]
    assert peak < 8 * n_validation * catalog


def test_a_ce_fit_holds_one_steps_padding_not_the_whole_runs():
    rng = np.random.default_rng(2)
    dataset = dataset_of([list(rng.integers(0, 40, size=60)) for _ in range(200)], catalog=40)
    cfg = RunConfig(objective="ce", loss_window=50, batch_size=256, epochs=1, dim=8)
    lengths = expand_columns(dataset.sequences_in("train"), 50, 0.0).contexts.lengths
    # indices + weights of every context and next context, at their own lengths
    all_padding = 16 * (2 * int(lengths.sum()) + len(lengths))
    tracemalloc.start()
    try:
        train_model(dataset, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < all_padding / 2


def test_grouped_pooling_leaves_a_long_context_fit_bit_identical(monkeypatch):
    rng = np.random.default_rng(6)
    rows = [list(rng.integers(0, 30, size=rng.integers(2, 70))) for _ in range(80)]
    dataset = dataset_of(rows, catalog=30, n_validation=8)
    cfg = RunConfig(
        objective="lpi", td_weight=1.0, discount=0.5, batch_size=64, epochs=2, behavior_epochs=1,
        dim=8, learning_rate=0.05, behavior_learning_rate=0.05, seed=5,
    )
    group_counts = []
    row_groups = encoder._row_groups

    def counted(lengths, width):
        groups = row_groups(lengths, width)
        group_counts.append(len(groups))
        return groups

    monkeypatch.setattr(encoder, "_row_groups", counted)
    grouped = train_model(dataset, cfg)
    assert max(group_counts) > 2  # the fit did pool in groups
    monkeypatch.setattr(encoder, "_row_groups", lambda lengths, width: [(slice(None), width)])
    single = train_model(dataset, cfg)
    assert grouped.log == single.log
    for name, value in grouped.model.params.items():
        assert np.array_equal(value, single.model.params[name]), name


def test_a_step_pads_only_what_it_reads(monkeypatch):
    padded, steps = [], []
    pad, evaluate = objectives.pad_contexts, training.evaluate_prepared

    def counted_pad(contexts, recency):
        padded.append(contexts)
        return pad(contexts, recency)

    def recorded(model, batch, *args, **kwargs):
        steps.append(batch)
        return evaluate(model, batch, *args, **kwargs)

    monkeypatch.setattr(objectives, "pad_contexts", counted_pad)
    monkeypatch.setattr(training, "evaluate_prepared", recorded)
    cfg = synth_cfg(epochs=3)
    dataset = load_dataset(cfg)

    # ce reads contexts only: one pad per step, of that step's own batch
    train_model(dataset, replace(cfg, objective="ce", td_weight=0.0))
    assert len(steps) > 3 and len(padded) == len(steps)
    assert all(contexts is batch.contexts for contexts, batch in zip(padded, steps))

    # lpi + TD with one recency everywhere: contexts and next contexts once each
    padded.clear()
    steps.clear()
    encoder = EncoderConfig(catalog_size=dataset.catalog_size, dim=8, recency=cfg.recency)
    train_model(dataset, cfg, behavior_model=SequenceModel.initialize(encoder, 4))
    assert len(steps) > 3 and len(padded) == 2 * len(steps)
    for i, batch in enumerate(steps):
        assert padded[2 * i] is batch.contexts
        assert padded[2 * i + 1] is batch.next_contexts

    # mu_hat at another recency re-weights the step's padding instead of padding again
    padded.clear()
    steps.clear()
    other = replace(encoder, recency=0.3)
    assert other.recency != cfg.recency
    train_model(dataset, cfg, behavior_model=SequenceModel.initialize(other, 4))
    assert len(steps) > 3 and len(padded) == 2 * len(steps)


def test_a_step_runs_each_forward_once(monkeypatch):
    """Encodes and catalog-wide heads per gradient step, per model."""
    forwards = {}

    def counting(name, slot):
        original = getattr(SequenceModel, name)

        def counted(self, *args, **kwargs):
            forwards.setdefault(self, [0, 0])[slot] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SequenceModel, name, counted)

    counting("encode", 0)
    counting("policy_logits_from", 1)
    counting("q_values_from", 1)
    rng = np.random.default_rng(5)
    dataset = dataset_of([list(rng.integers(0, 12, size=6)) for _ in range(40)], catalog=12)
    behavior = SequenceModel.initialize(EncoderConfig(catalog_size=12, dim=8), 4)
    # [encodes, heads]: mu_hat scores the contexts; the model encodes the
    # contexts once, shared with the loss, and the next contexts once for
    # the online argmax; the target network reads Q at best_next only
    expected = {
        "lpi": ([1, 1], [[1, 0], [2, 3]]),
        "sac": (None, [[1, 0], [2, 2]]),
        "ips_ce": ([1, 1], [[1, 1]]),
        "ce": (None, [[1, 1]]),
    }
    for kind, (behavior_counts, model_counts) in expected.items():
        td_weight = 1.0 if kind in objectives.TD_KINDS else 0.0
        cfg = RunConfig(objective=kind, beta=0.5, td_weight=td_weight, discount=0.5,
                        epochs=2, batch_size=64, dim=8)
        forwards.clear()
        steps = train_model(dataset, cfg, behavior_model=behavior).log[-1]["steps"]
        per_step = {model: [n / steps for n in counts] for model, counts in forwards.items()}
        assert steps > 2
        assert per_step.pop(behavior, None) == behavior_counts, kind
        assert sorted(per_step.values()) == model_counts, kind


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
    report = evaluate_examples(model, ExampleColumns.of(examples), cfg)
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
    report = evaluate_examples(model, ExampleColumns.of(uniform_event), cfg)
    assert not any("click" in name for name in report.metrics)

    mixed = [
        example((0,), 0, event="click"),
        example((1,), 1, event="click"),
        example((2,), 3, event="purchase"),
    ]
    report = evaluate_examples(model, ExampleColumns.of(mixed), cfg)
    assert report.metrics["ndcg_click_at_1"].value == pytest.approx(0.5, abs=1e-12)
    assert report.metrics["ndcg_click_at_1"].count == 2
    assert report.metrics["hr_purchase_at_4"].value == pytest.approx(1.0, abs=1e-12)
    assert report.metrics["ndcg_purchase_at_4"].value == pytest.approx(
        1.0 / np.log2(5.0), abs=1e-12
    )
    assert report.metrics["ndcg_purchase_at_4"].count == 1


def test_evaluation_rejects_a_behavior_model_over_another_catalog_naming_it():
    behavior = SequenceModel.initialize(EncoderConfig(catalog_size=6, dim=4), seed=0)
    examples = ExampleColumns.of([example((0,), 1), example((2, 3), 4)])
    with pytest.raises(ValueError, match=r"shape \(2, 6\) for 2 contexts over a catalog of 5"):
        evaluate_examples(zeroed_model(catalog=5), examples, RunConfig(), behavior_model=behavior)


def test_empty_example_set_is_rejected():
    with pytest.raises(ValueError, match="empty example set"):
        evaluate_examples(zeroed_model(catalog=4), ExampleColumns.of([]), RunConfig())


def test_imputed_reward_metric_reads_the_fitted_pair():
    model = zeroed_model(catalog=4)
    examples = ExampleColumns.of([example((0,), 1, sequence_id="a"),
                                  example((1,), 2, sequence_id="a"),
                                  example((2,), 3, sequence_id="b")])
    imputation = fit_weighted_mf(
        [(0, 0, 1.0), (1, 1, 0.0), (0, 1, 0.5), (1, 0, 0.3)],
        f=1, missing_target=0.25, missing_weight=0.05, seed=0, n_users=2, n_items=4,
    )
    cfg = RunConfig(eval_ks="1")
    report = evaluate_examples(model, examples, cfg, imputation=(imputation, {"a": 0, "b": 1}))
    # greedy action is item 0 for every context
    expected = np.mean([
        impute_reward(imputation, 0, 0),
        impute_reward(imputation, 0, 0),
        impute_reward(imputation, 1, 0),
    ])
    assert report.metrics["iar_at_1"].value == pytest.approx(expected, abs=1e-12)
    assert report.metrics["iar_at_1"].count == 3


@pytest.mark.parametrize("user_index, missing", [({}, "a"), ({"a": 0, "b": 1}, "w06")])
def test_an_imputation_pair_without_a_sequence_is_rejected_naming_it(user_index, missing):
    examples = ExampleColumns.of([example((0,), 1, sequence_id="a"),
                                  example((1,), 2, sequence_id="w06"),
                                  example((2,), 3, sequence_id="b")])
    imputation = fit_weighted_mf([(0, 0, 1.0), (1, 1, 0.0)], f=1, seed=0, n_users=2, n_items=4)
    with pytest.raises(ValueError, match=f"sequence '{missing}' is missing from the imputation"):
        evaluate_examples(
            zeroed_model(catalog=4), examples, RunConfig(), imputation=(imputation, user_index)
        )


def test_sequence_lengths_add_the_count_breakdown():
    model = zeroed_model(catalog=4)
    examples = ExampleColumns.of([
        example((0,), 0, sequence_id="a"),
        example((0, 1), 1, sequence_id="a"),
        example((1,), 3, sequence_id="b"),
        example((1, 2), 3, sequence_id="b"),
    ])
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


def test_breakdown_means_equal_each_sequences_own_mean_bit_for_bit():
    # long sequences too: np.add.reduceat and np.bincount sum them in another order
    rng = np.random.default_rng(10)
    sequences = [clicks(f"s{i:03d}", list(rng.integers(0, 30, size=rng.integers(2, 40))))
                 for i in range(200)]
    columns = expand_columns(sequences, loss_window=40, discount=0.0)
    lengths = {seq.id: len(seq) for seq in sequences}
    model = zeroed_model(catalog=30)
    model.params["head_b"][:] = rng.permutation(30)  # every context's logits, exactly
    cfg = RunConfig(eval_ks="20", max_length=40)
    report = evaluate_examples(model, columns, cfg, sequence_lengths=lengths)
    ranks = 1 + (model.params["head_b"] > model.params["head_b"][columns.actions, None]).sum(1)
    ndcg20 = ndcg_samples(ranks, 20)
    per_sequence = [float(ndcg20[columns.sequence_ids == seq.id].mean()) for seq in sequences]
    counts = [lengths[seq.id] for seq in sequences]
    assert report.breakdown == breakdown_report(per_sequence, counts, max_count=40).breakdown


def test_behavior_divergence_metrics_compare_policies():
    model = zeroed_model(catalog=4)
    examples = ExampleColumns.of([example((i,), i) for i in range(4)])
    cfg = RunConfig(eval_ks="1")
    report = evaluate_examples(model, examples, cfg, behavior_model=zeroed_model(4))
    assert report.metrics["js_vs_behavior"].value == 0.0
    assert report.metrics["kl_vs_behavior"].value == 0.0
    assert report.metrics["js_vs_behavior"].count == 4

    shifted = zeroed_model(catalog=4)
    shifted.params["head_b"][0] = 1.0
    report = evaluate_examples(model, examples, cfg, behavior_model=shifted)
    assert report.metrics["js_vs_behavior"].value > 0.0
    assert report.metrics["kl_vs_behavior"].value > 0.0


def mixed_sequences(n, catalog, seed):
    """Sequences of clicks and purchases with varied lengths and rewards."""
    rng = np.random.default_rng(seed)
    sequences = []
    for i in range(n):
        length = int(rng.integers(1, 9))
        events = rng.choice(["click", "purchase"], size=length, p=[0.7, 0.3])
        interactions = [
            Interaction(item=int(item), event=str(event), reward=float(reward), timestamp=t)
            for t, (item, event, reward) in enumerate(
                zip(rng.integers(0, catalog, size=length), events, rng.uniform(0, 1, size=length))
            )
        ]
        sequences.append(SessionSequence(id=f"q{i:03d}", interactions=interactions))
    return sequences


def test_evaluate_examples_reads_a_list_and_its_columns_alike():
    catalog = 7
    sequences = mixed_sequences(60, catalog, seed=4)
    cfg = RunConfig(eval_ks="1,3,20", loss_window=4, max_length=8)
    listed = [
        ex for seq in sequences for ex in expand_examples(seq, cfg.loss_window)
        if ex.in_loss_window
    ]
    columns = expand_columns(sequences, cfg.loss_window, cfg.discount)
    model = SequenceModel.initialize(EncoderConfig(catalog_size=catalog, dim=4), seed=1)
    behavior = SequenceModel.initialize(EncoderConfig(catalog_size=catalog, dim=4), seed=2)
    imputation = fit_weighted_mf(
        [(u, it.item, it.reward) for u, seq in enumerate(sequences) for it in seq.interactions],
        f=2, missing_target=0.2, missing_weight=0.1, seed=0, n_users=len(sequences),
        n_items=catalog,
    )
    extras = dict(
        behavior_model=behavior,
        imputation=(imputation, {seq.id: u for u, seq in enumerate(sequences)}),
        sequence_lengths={seq.id: len(seq) for seq in sequences},
    )
    from_list = evaluate_examples(model, ExampleColumns.of(listed), cfg, **extras)
    from_columns = evaluate_examples(model, columns, cfg, **extras)
    assert {"ndcg_purchase_at_3", "iar_at_1", "kl_vs_behavior"} <= set(from_list.metrics)
    assert from_list.breakdown is not None
    assert from_columns.to_json() == from_list.to_json()


def test_evaluate_examples_reads_a_generator_like_its_list():
    sequences = mixed_sequences(20, 7, seed=4)
    listed = [ex for seq in sequences for ex in expand_examples(seq, 4) if ex.in_loss_window]
    model = SequenceModel.initialize(EncoderConfig(catalog_size=7, dim=4), seed=1)
    cfg = RunConfig(eval_ks="1,3", loss_window=4)
    from_list = evaluate_examples(model, ExampleColumns.of(listed), cfg)
    from_generator = evaluate_examples(model, ExampleColumns.of(ex for ex in listed), cfg)
    assert from_generator.to_json() == from_list.to_json()


def test_a_model_against_itself_has_exactly_zero_divergence():
    sequences = mixed_sequences(700, 9, seed=5)
    columns = expand_columns(sequences, loss_window=8, discount=0.0)
    assert len(columns) > 2_500  # more than two divergence chunks
    model = SequenceModel.initialize(EncoderConfig(catalog_size=9, dim=6), seed=3)
    report = evaluate_examples(model, columns, RunConfig(eval_ks="1"), behavior_model=model)
    for kind in ("js", "kl"):
        summary = report.metrics[f"{kind}_vs_behavior"]
        assert (summary.value, summary.stderr, summary.count) == (0.0, 0.0, len(columns))


def test_capped_divergences_equal_mean_divergence_for_each_kind():
    sequences = mixed_sequences(300, 8, seed=6)
    columns = expand_columns(sequences, loss_window=8, discount=0.0)
    cfg = RunConfig(eval_ks="1", divergence_cap=500, seed=11)
    assert len(columns) > cfg.divergence_cap
    model = SequenceModel.initialize(EncoderConfig(catalog_size=8, dim=4), seed=1)
    behavior = SequenceModel.initialize(EncoderConfig(catalog_size=8, dim=4), seed=2)
    report = evaluate_examples(model, columns, cfg, behavior_model=behavior)
    contexts = list(columns.contexts)
    for kind in ("js", "kl"):
        summary = report.metrics[f"{kind}_vs_behavior"]
        assert summary.count == cfg.divergence_cap
        expected = mean_divergence(
            model, behavior, contexts, kind=kind, cap=cfg.divergence_cap, seed=cfg.seed
        )
        assert (summary.value, summary.stderr) == expected


class CountingModel(SequenceModel):
    """Counts the contexts every catalog-wide policy head scores."""

    scored = 0

    def policy_logits_from(self, cache, out=None):
        self.scored += len(cache.state)
        return super().policy_logits_from(cache, out)


def test_evaluation_scores_the_behavior_model_once_and_the_model_once():
    cfg = synth_cfg(epochs=1, behavior_epochs=1, synthetic_sessions=300)
    dataset = load_dataset(cfg)
    n = len(expand_columns(dataset.sequences_in("test"), cfg.loss_window, cfg.discount))
    encoder = EncoderConfig(catalog_size=dataset.catalog_size, dim=8)
    model = CountingModel(encoder, SequenceModel.initialize(encoder, 1).params)
    behavior = CountingModel(encoder, SequenceModel.initialize(encoder, 2).params)
    evaluate_split(model, dataset, "test", cfg, behavior_model=behavior)
    # one head per context gives its rank, its greedy action and the model's divergence side
    assert (model.scored, behavior.scored) == (n, n)


def test_a_capped_evaluation_scores_the_model_once_and_the_behavior_model_on_the_cap():
    cfg = synth_cfg(epochs=1, behavior_epochs=1, synthetic_sessions=300, divergence_cap=50)
    dataset = load_dataset(cfg)
    n = len(expand_columns(dataset.sequences_in("test"), cfg.loss_window, cfg.discount))
    assert n > cfg.divergence_cap
    encoder = EncoderConfig(catalog_size=dataset.catalog_size, dim=8)
    model = CountingModel(encoder, SequenceModel.initialize(encoder, 1).params)
    behavior = CountingModel(encoder, SequenceModel.initialize(encoder, 2).params)
    report = evaluate_split(model, dataset, "test", cfg, behavior_model=behavior)
    assert report.metrics["js_vs_behavior"].count == cfg.divergence_cap
    assert (model.scored, behavior.scored) == (n, cfg.divergence_cap)


def test_evaluation_memory_does_not_grow_with_examples_times_catalog():
    # the held examples x catalog float64 ranking scores alone would be 2x this bound
    rng = np.random.default_rng(8)
    catalog = 100
    sequences = [clicks(f"s{i:04d}", list(rng.integers(0, catalog, size=11))) for i in range(2000)]
    columns = expand_columns(sequences, loss_window=10, discount=0.0)
    n = len(columns)
    assert n >= 20_000
    encoder = EncoderConfig(catalog_size=catalog, dim=8)
    model, behavior = (SequenceModel.initialize(encoder, seed) for seed in (1, 2))
    cfg = RunConfig(eval_ks="5,20")
    tracemalloc.start()
    try:
        report = evaluate_examples(model, columns, cfg, behavior_model=behavior)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.metrics["kl_vs_behavior"].count == n
    assert peak < 8 * n * catalog / 2


def test_an_evaluation_holds_a_few_small_chunks_at_a_time():
    # 6,000 contexts over 300 items: ~7 float64 temporaries of a 1,024-row chunk exceed 14 MiB
    rng = np.random.default_rng(4)
    catalog = 300
    sequences = [clicks(f"s{i:04d}", list(rng.integers(0, catalog, size=6))) for i in range(1200)]
    columns = expand_columns(sequences, loss_window=5, discount=0.0)
    assert len(columns) == 6000
    encoder = EncoderConfig(catalog_size=catalog, dim=8)
    model, behavior = (SequenceModel.initialize(encoder, seed) for seed in (1, 2))
    tracemalloc.start()
    try:
        report = evaluate_examples(model, columns, RunConfig(eval_ks="5,20"), behavior_model=behavior)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.metrics["js_vs_behavior"].count == 6000
    assert peak < 6 * 2**20


class EncodeSizes(SequenceModel):
    """Records how many contexts each encode takes."""

    def __init__(self, config, params):
        super().__init__(config, params)
        self.rows = []

    def encode(self, contexts):
        cache = super().encode(contexts)
        self.rows.append(len(cache.state))
        return cache


def test_no_scoring_pass_encodes_more_than_one_chunk_of_contexts():
    columns = expand_columns(mixed_sequences(400, 9, seed=3), loss_window=8, discount=0.0)
    n = len(columns)
    assert n > 2 * _DIVERGENCE_CHUNK
    encoder = EncoderConfig(catalog_size=9, dim=4)
    passes = {
        "validation log-loss": lambda m, b: _validation_log_loss(m, columns),
        "batched scores": lambda m, b: batched_policy_scores(m, list(columns.contexts)),
        "evaluation": lambda m, b: evaluate_examples(m, columns, RunConfig(), behavior_model=b),
        "divergences": lambda m, b: divergence_rows(m, b, columns.contexts, cap=None),
    }
    for name, scoring in passes.items():
        model, behavior = (EncodeSizes(encoder, SequenceModel.initialize(encoder, s).params)
                           for s in (1, 2))
        scoring(model, behavior)
        assert max(model.rows) <= _DIVERGENCE_CHUNK and sum(model.rows) == n, name


def test_the_validation_log_loss_holds_one_chunks_gather_of_long_contexts():
    # 3,000 contexts of 40-49 items at dim 32: a 2,048-row gather alone is 25.7 MB
    rng = np.random.default_rng(17)
    catalog = 400
    sequences = [clicks(f"s{i:03d}", list(rng.integers(0, catalog, size=50))) for i in range(300)]
    columns = expand_columns(sequences, loss_window=10, discount=0.0)
    assert len(columns) == 3000 and columns.contexts.lengths.min() == 40
    model = SequenceModel.initialize(EncoderConfig(catalog_size=catalog, dim=32), seed=1)
    tracemalloc.start()
    try:
        loss = _validation_log_loss(model, columns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(loss)
    assert peak < 8 * 10**6


def test_batched_scores_of_no_contexts_are_an_empty_catalog_wide_array():
    model = SequenceModel.initialize(EncoderConfig(catalog_size=7, dim=4), seed=1)
    assert model.policy_logits([]).shape == (0, 7)
    assert batched_policy_scores(model, []).shape == (0, 7)
    assert batched_probs(model, []).shape == (0, 7)


# -- evaluate_split -------------------------------------------------------------


def test_split_evaluation_requires_examples():
    dataset = dataset_of([[0, 1, 2]] * 5 + [[3]], catalog=4, n_validation=1)
    with pytest.raises(ValueError, match="split 'validation' has no evaluable examples"):
        evaluate_split(zeroed_model(4), dataset, "validation", RunConfig(eval_ks="1"))


@pytest.mark.parametrize(
    "model_catalog, behavior_catalog, named",
    [(3, None, "model catalog size 3"), (4, 5, "behavior model catalog size 5"),
     (5, None, "model catalog size 5")],
    ids=["smaller-model", "larger-behavior-model", "larger-model"],
)
def test_split_evaluation_rejects_a_model_over_another_catalog(
    model_catalog, behavior_catalog, named
):
    dataset = dataset_of([[0, 1, 2]] * 5 + [[1, 2, 3]], catalog=4, n_test=1)
    behavior = zeroed_model(behavior_catalog) if behavior_catalog else None
    with pytest.raises(ValueError, match=f"^{named} does not match dataset catalog size 4"):
        evaluate_split(zeroed_model(model_catalog), dataset, "test", RunConfig(eval_ks="1"),
                       behavior_model=behavior)


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


def imputation_cfg(**overrides):
    return synth_cfg(synthetic_sessions=400, imputation_rank=2, **overrides)


def count_fits(monkeypatch):
    """Record every imputer fit made through training's global name."""
    calls = []
    original = training.fit_weighted_mf

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "fit_weighted_mf", counted)
    return calls


def test_split_evaluations_of_one_dataset_fit_the_imputer_once(monkeypatch):
    cfg = imputation_cfg()
    model = SequenceModel.initialize(cfg.encoder_config(cfg.synthetic_catalog), seed=1)
    names = ("test", "validation", "test")
    fresh = [evaluate_split(model, load_dataset(cfg), name, cfg).to_json() for name in names]
    fits = count_fits(monkeypatch)
    dataset = load_dataset(cfg)
    reports = [evaluate_split(model, dataset, name, cfg).to_json() for name in names]
    assert len(fits) == 1
    assert reports == fresh
    assert all("iar_at_1" in json.loads(report) for report in reports)


@pytest.mark.parametrize("change", [
    {"imputation_rank": 3},
    {"imputation_missing_target": 0.5},
    {"imputation_missing_weight": 0.1},
    {"seed": 1},
])
def test_each_imputer_setting_keys_its_own_fit(monkeypatch, change):
    cfg = imputation_cfg()
    dataset = load_dataset(cfg)
    fits = count_fits(monkeypatch)
    first, users = fit_imputation(dataset, cfg)
    other, _ = fit_imputation(dataset, replace(cfg, **change))
    assert len(fits) == 2 and other is not first
    again, again_users = fit_imputation(dataset, cfg)
    assert again is first and again_users is users
    assert fit_imputation(dataset, replace(cfg, beta=2.0, eval_ks="5"))[0] is first
    assert fit_imputation(dataset, replace(cfg, **change))[0] is other
    assert len(fits) == 2


def test_a_re_split_dataset_fits_its_own_imputer(monkeypatch):
    cfg = imputation_cfg()
    dataset = load_dataset(cfg)
    fits = count_fits(monkeypatch)
    first, _ = fit_imputation(dataset, cfg)
    resplit = split(dataset, (0.5, 0.25, 0.25), seed=9)
    assert resplit == replace(dataset, splits=resplit.splits)  # the memo is not compared
    second, _ = fit_imputation(resplit, cfg)
    assert fit_imputation(dataset, cfg)[0] is first
    assert len(fits) == 2 and second is not first


def test_the_shared_imputer_factors_are_read_only():
    cfg = imputation_cfg()
    model, _ = fit_imputation(load_dataset(cfg), cfg)
    for factors in (model.user_factors, model.item_factors):
        assert not factors.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            factors[0, 0] = 1.0


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

    with open(paths["log"]) as fh:
        log = json.load(fh)
    assert log == {"schema_version": 1, "best_epoch": 0, "best_score": None, "entries": []}

    with open(paths["meta"]) as fh:
        meta = json.load(fh)
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


def test_diagnose_fits_the_imputer_once_for_every_checkpoint(world_run, tmp_path, monkeypatch):
    cfg, paths = world_run
    ckpts = copy_as_sweep(paths, str(tmp_path), [0.1, 1.0, 10.0])
    fits = count_fits(monkeypatch)
    evaluations = []
    original = training.evaluate_split

    def counted(*args, **kwargs):
        evaluations.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "evaluate_split", counted)
    rows = list(csv.DictReader(io.StringIO(run_diagnose(replace(cfg, imputation_rank=2), ckpts))))
    assert len(rows) == len(evaluations) == 3
    assert all(dataset is evaluations[0] for dataset in evaluations)
    assert len(fits) == 1


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
