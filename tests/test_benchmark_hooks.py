"""The benchmark's tracer wraps package names that must keep existing."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lpirec import training
from lpirec.config import RunConfig
from lpirec.data import Dataset, Interaction, SessionSequence, expand_columns
from lpirec.metrics import _DIVERGENCE_CHUNK
from lpirec.policy import SequenceModel

CYCLEBENCH = Path(__file__).resolve().parents[1] / "cyclebench"


def load_cyclebench(name):
    spec = importlib.util.spec_from_file_location(f"cyclebench_{name}", CYCLEBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_cyclebench("spans")


def test_every_traced_boundary_resolves_to_a_callable():
    spans = load_spans()
    assert spans.BOUNDARIES
    for target, attr, name, _ in spans.BOUNDARIES:
        owner = spans._resolve(target)
        assert callable(vars(owner).get(attr)), f"{name}: {target} has no {attr!r}"


def test_train_model_calls_evaluate_prepared_once_per_step_on_every_window_example(
    monkeypatch,
):
    # cyclebench counts trained examples by wrapping training.evaluate_prepared
    rng = np.random.default_rng(0)
    sequences = [
        SessionSequence(
            id=f"s{i:02d}",
            interactions=[
                Interaction(item=int(item), event="click", reward=0.5, timestamp=t)
                for t, item in enumerate(rng.integers(0, 6, size=rng.integers(1, 10)))
            ],
        )
        for i in range(40)
    ]
    splits = {s.id: "train" if i < 34 else "validation" for i, s in enumerate(sequences)}
    dataset = Dataset(sequences=sequences, catalog_size=6, splits=splits)
    cfg = RunConfig(objective="lpi", beta=1.0, td_weight=1.0, epochs=3, behavior_epochs=1,
                    loss_window=4, batch_size=16, dim=8, seed=0)
    behavior = training.fit_behavior_model(dataset, cfg)

    batch_sizes = []
    original = training.evaluate_prepared

    def counted(model, batch, *args, **kwargs):
        batch_sizes.append(len(batch))
        return original(model, batch, *args, **kwargs)

    monkeypatch.setattr(training, "evaluate_prepared", counted)
    result = training.train_model(dataset, cfg, behavior_model=behavior)

    per_epoch = sum(min(cfg.loss_window, len(s) - 1) for s in dataset.sequences_in("train"))
    assert per_epoch > cfg.batch_size
    assert len(batch_sizes) == result.log[-1]["steps"] == cfg.epochs * math.ceil(
        per_epoch / cfg.batch_size
    )
    assert sum(batch_sizes) == cfg.epochs * per_epoch


def test_every_training_encode_runs_inside_a_traced_step_span():
    # objectives.encodes_per_step counts encodes under these spans only
    spans = load_spans()
    cfg = RunConfig(data_source="synthetic", synthetic_sessions=300, objective="lpi", beta=0.5,
                    td_weight=1.0, discount=0.5, epochs=2, behavior_epochs=1, dim=8, seed=0)
    dataset = training.load_dataset(cfg)
    behavior = training.fit_behavior_model(dataset, cfg)
    tracer = spans.Tracer()
    tracer.install()
    try:
        training.train_model(dataset, cfg, behavior_model=behavior)
    finally:
        tracer.uninstall()
    encodes = sum(span[0] == "encoder.encode" for span in tracer.spans)
    steps = sum(span[0] == "objectives.evaluate_prepared" for span in tracer.spans)
    owners = {"objectives.prepare_step", "objectives.evaluate_prepared",
              "training.evaluate_examples"}
    assert steps > 2 and encodes >= 4 * steps
    assert tracer.count_under("encoder.encode", owners, phase=0) == encodes


def test_a_synthetic_load_reaches_the_traced_session_generator():
    # synth.generate_sessions_s is timed by wrapping the name on lpirec.synth, so
    # training must look it up there at call time, not bind it at import
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        training.load_dataset(RunConfig(data_source="synthetic", synthetic_sessions=50))
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["synth.generate_sessions", "data.split"]


@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_a_traced_load_records_every_data_layer_span(tmp_path, source):
    # the load phase's per-layer self times read these spans; a missing one reads 0
    if source == "csv":
        path = tmp_path / "logs.csv"
        rows = "".join(f"s{i % 7},{i},i{i % 5},click,\n" for i in range(60))
        path.write_text("session_id,timestamp,item_id,event_type,rating\n" + rows)
        cfg = RunConfig(data_source="csv", data_path=str(path))
        expected = ["data.load_interactions_csv", "data.preprocess", "data.split"]
    else:
        cfg = RunConfig(data_source="synthetic", synthetic_sessions=50)
        expected = ["synth.generate_sessions", "data.split"]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        dataset = training.load_dataset(cfg)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == expected
    assert all(own > 0 for own in tracer.self_times())
    assert len(dataset.sequences_in("train")) > 0

def test_the_first_split_evaluation_reaches_the_traced_imputer_fit():
    # synth.fit_weighted_mf_s is timed by wrapping training.fit_weighted_mf; the
    # fit is kept per dataset, so only a dataset's first evaluation records it
    spans = load_spans()
    cfg = RunConfig(data_source="synthetic", synthetic_sessions=300, imputation_rank=2, dim=8)
    dataset = training.load_dataset(cfg)
    model = SequenceModel.initialize(cfg.encoder_config(dataset.catalog_size), seed=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            training.evaluate_split(model, dataset, "test", cfg)
        training.evaluate_split(model, training.load_dataset(cfg), "test", cfg)
    finally:
        tracer.uninstall()
    fits = [span for span in tracer.spans if span[0] == "synth.fit_weighted_mf"]
    evaluations = [span for span in tracer.spans if span[0] == "training.evaluate_examples"]
    assert len(fits) == 2 and len(evaluations) == 3
    assert fits[0][1] < evaluations[0][1] and evaluations[1][2] < fits[1][1] < evaluations[2][1]


def test_an_evaluation_encodes_pads_and_scores_each_context_once_per_model():
    # encoder.encode_rows, policy.head_cells, metrics.ranked_cells and encoder.pad_fill
    # read these counts from an evaluate_split with a behavior model
    spans = load_spans()
    cfg = RunConfig(data_source="synthetic", synthetic_sessions=4000, imputation_rank=2, dim=8)
    dataset = training.load_dataset(cfg)
    encoder = cfg.encoder_config(dataset.catalog_size)
    model, behavior = (SequenceModel.initialize(encoder, seed) for seed in (0, 1))
    test = expand_columns(dataset.sequences_in("test"), cfg.loss_window, cfg.discount)
    n, catalog = len(test), dataset.catalog_size
    tracer = spans.Tracer()
    tracer.install()
    try:
        training.evaluate_split(model, dataset, "test", cfg, behavior_model=behavior)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert n > _DIVERGENCE_CHUNK  # more than one evaluation chunk
    assert counts["encoder.encode_rows"] == 2 * n
    assert counts["policy.head_cells"] == 2 * n * catalog
    assert counts["metrics.ranked_cells"] == n * catalog
    # both models pool with one recency: every context is padded once, in a traced span
    pads = sum(span[0] == "encoder.pad_contexts" for span in tracer.spans)
    encodes = sum(span[0] == "encoder.encode" for span in tracer.spans)
    assert counts["encoder.pad_filled"] == test.contexts.lengths.sum()
    assert encodes == 2 * pads


def test_cyclebench_checks_pass_on_a_small_world():
    # the checks build batches from TrainingExample lists and read batch.contexts
    checks = load_cyclebench("checks")
    cfg = RunConfig(data_source="synthetic", synthetic_sessions=300, objective="lpi", beta=0.5,
                    td_weight=1.0, discount=0.5, epochs=1, behavior_epochs=1, dim=8, seed=0)
    dataset = training.load_dataset(cfg)
    behavior = training.fit_behavior_model(dataset, cfg)
    model = training.train_model(dataset, cfg, behavior_model=behavior).model
    report = training.evaluate_split(model, dataset, "test", cfg, behavior)
    assert checks.check_preprocessing(dataset, cfg) == []
    assert checks.check_gradients(model, behavior, dataset, cfg) == []
    assert checks.check_ranking(model, report, dataset, cfg, seed=0) == []
