"""The benchmark's tracer wraps package names that must keep existing."""

import importlib.util
import math
from pathlib import Path

import numpy as np

from lpirec import training
from lpirec.config import RunConfig
from lpirec.data import Dataset, Interaction, SessionSequence

SPANS = Path(__file__).resolve().parents[1] / "cyclebench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("cyclebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
