"""Training loop and the train/eval/diagnose pipelines behind the CLI.

Training is plain minibatch gradient descent with Adam: the train split's
loss-window examples are expanded once into flat arrays and cut into fixed
minibatches of row indices, visited in a reshuffled order every epoch; each
step builds and pads its own batch. Validation and test use the same arrays.
Objectives that bootstrap (td_weight > 0) maintain a target model refreshed
by hard copy every ``target_refresh`` updates. After every epoch the model is
scored on the validation split and the best-scoring parameters are kept.

Everything is seeded from the run config, so a (config, seed) pair yields
byte-identical checkpoints and metric reports.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .config import RunConfig
from .data import (
    Dataset,
    ExampleColumns,
    PreprocessRules,
    TrainingExample,
    expand_columns,
    expand_examples,  # unused here; cyclebench's tracer wraps this name
    load_interactions_csv,
    preprocess,
    split,
)
from .encoder import Adam, EncoderConfig, TrainingDivergedError
from .metrics import (
    MetricsReport,
    MetricSummary,
    breakdown_report,
    divergence_rows,
    hit_rate_samples,
    mean_divergence,  # unused here; cyclebench's tracer wraps this name
    model_selection_score,
    ndcg_samples,
    ranks_from_scores,
    summarize,
)
from .objectives import (
    BEHAVIOR_KINDS,
    ObjectiveConfig,
    build_batch,
    evaluate_prepared,
    prepare_step,
)
from .policy import SequenceModel, load_checkpoint, log_softmax, save_checkpoint, softmax
from .synth import ImputationModel, fit_weighted_mf, impute_reward

LOG_SCHEMA_VERSION = 1
_BEHAVIOR_SEED_OFFSET = 101
_BATCH_SEED_OFFSET = 17
_BREAKDOWN_K = 20


def load_dataset(cfg: RunConfig) -> Dataset:
    """Materialize the configured data source as a split Dataset."""
    fractions = (cfg.split_train, cfg.split_validation, cfg.split_test)
    if cfg.data_source == "csv":
        if not cfg.data_path:
            raise ValueError("data_source=csv requires data_path")
        raw = load_interactions_csv(
            cfg.data_path, reward_click=cfg.reward_click, reward_purchase=cfg.reward_purchase
        )
        rules = PreprocessRules(
            min_interactions=cfg.min_interactions,
            min_item_support=cfg.min_item_support,
            max_length=cfg.max_length,
            min_count_event=cfg.min_count_event or None,
        )
        dataset = preprocess(raw, rules)
    else:  # synthetic: already dense and regular, no preprocessing needed
        from .synth import generate_sessions, make_random_world

        world = make_random_world(cfg.synthetic_seed, cfg.synthetic_states, cfg.synthetic_catalog)
        dataset = generate_sessions(
            world, cfg.synthetic_sessions, cfg.synthetic_horizon, seed=cfg.synthetic_seed + 1
        )
    return split(dataset, fractions, cfg.seed)


def batched_policy_scores(model: SequenceModel, contexts, chunk: int = 2048) -> np.ndarray:
    rows = []
    for start in range(0, len(contexts), chunk):
        rows.append(model.policy_logits(contexts[start : start + chunk]))
    return np.concatenate(rows, axis=0)


def batched_probs(model: SequenceModel, contexts, chunk: int = 2048) -> np.ndarray:
    return softmax(batched_policy_scores(model, contexts, chunk))


# -- training -------------------------------------------------------------------


@dataclass
class TrainResult:
    """Winning model of a run plus its per-epoch log."""

    model: SequenceModel
    best_epoch: int
    best_score: float
    log: list[dict] = field(default_factory=list)
    behavior_model: SequenceModel | None = None


def report_selection_score(report: MetricsReport, r_p: float, r_c: float) -> float | None:
    """Selection score of a validation report.

    Uses the per-event nDCG@20 pair when the data distinguishes purchases
    from clicks; otherwise falls back to the overall nDCG@20 (or the largest
    evaluated cutoff). Returns None when the report has no ranking metrics.
    """
    purchase = report.metrics.get("ndcg_purchase_at_20")
    click = report.metrics.get("ndcg_click_at_20")
    if purchase is not None and click is not None and purchase.count and click.count:
        return model_selection_score(purchase.value, click.value, r_p, r_c)
    best_k = -1
    best = None
    for name, summary in report.metrics.items():
        if name.startswith("ndcg_at_") and summary.count:
            k = int(name.rsplit("_", 1)[1])
            if k == 20:
                return float(summary.value)
            if k > best_k:
                best_k, best = k, summary
    return float(best.value) if best is not None else None


def _validation_log_loss(model: SequenceModel, columns: ExampleColumns) -> float:
    logp = log_softmax(batched_policy_scores(model, columns.contexts))
    return float(-logp[np.arange(len(columns)), columns.actions].mean())


def train_model(
    dataset: Dataset,
    cfg: RunConfig,
    objective: ObjectiveConfig | None = None,
    encoder: EncoderConfig | None = None,
    behavior_model: SequenceModel | None = None,
    seed_offset: int = 0,
    select_by: str = "score",
) -> TrainResult:
    """Train one model on the dataset's train split.

    select_by: "score" keeps the epoch with the best validation selection
    score, "log_loss" the one with the lowest validation cross-entropy; with
    no validation score the final model is kept. A non-finite loss or
    gradient aborts training and keeps the best (or last good) parameters.
    """
    if select_by not in ("score", "log_loss"):
        raise ValueError(f'select_by must be "score" or "log_loss", got {select_by!r}')
    objective = objective or cfg.objective_config()
    encoder = encoder or cfg.encoder_config(dataset.catalog_size)
    if behavior_model is not None:
        _check_catalog(behavior_model, "behavior model", dataset)
    if objective.kind in BEHAVIOR_KINDS and behavior_model is None:
        behavior_model = fit_behavior_model(dataset, cfg, encoder)

    columns = expand_columns(dataset.sequences_in("train"), cfg.loss_window, cfg.discount)
    if not len(columns):
        raise ValueError("train split expands to no examples")
    batch_rng = np.random.default_rng(cfg.seed + seed_offset + _BATCH_SEED_OFFSET)
    shuffled = batch_rng.permutation(len(columns))
    batch_rows = np.split(shuffled, np.arange(cfg.batch_size, len(shuffled), cfg.batch_size))

    val_columns = expand_columns(
        dataset.sequences_in("validation"), cfg.loss_window, cfg.discount
    )

    model = SequenceModel.initialize(encoder, cfg.seed + seed_offset)
    adam = Adam(
        lr=cfg.learning_rate, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps
    )
    target = model.copy() if objective.td_weight > 0 else None

    best_params = {k: v.copy() for k, v in model.params.items()}
    best_score = -np.inf
    best_epoch = 0
    log: list[dict] = []
    steps = 0
    aborted = False

    for epoch in range(1, cfg.epochs + 1):
        order = batch_rng.permutation(len(batch_rows))
        loss_sum = policy_sum = td_sum = 0.0
        for index in order:
            batch = build_batch(columns, rows=batch_rows[index])
            try:
                prepared = prepare_step(model, batch, objective, behavior_model, target)
                result = evaluate_prepared(model, batch, objective, prepared)
                if not np.isfinite(result.loss):
                    raise TrainingDivergedError("non-finite loss")
                adam.step(model.params, result.gradients)
            except TrainingDivergedError as exc:
                log.append(
                    {"type": "abort", "epoch": epoch, "step": steps, "reason": str(exc)}
                )
                aborted = True
                break
            steps += 1
            if target is not None and steps % objective.target_refresh == 0:
                target = model.copy()
            loss_sum += result.loss
            policy_sum += result.policy_term
            td_sum += result.td_term
        if aborted:
            break

        entry = {
            "type": "epoch",
            "epoch": epoch,
            "steps": steps,
            "mean_loss": loss_sum / len(batch_rows),
            "mean_policy_term": policy_sum / len(batch_rows),
            "mean_td_term": td_sum / len(batch_rows),
        }
        score = None
        if len(val_columns):
            if select_by == "log_loss":
                val_ll = _validation_log_loss(model, val_columns)
                score = -val_ll
                entry["val_log_loss"] = val_ll
            else:
                report = evaluate_examples(model, val_columns, cfg)
                entry["validation"] = report.to_json_dict()
                score = report_selection_score(report, cfg.reward_purchase, cfg.reward_click)
                if score is not None:
                    entry["val_score"] = score
        log.append(entry)
        if score is not None and score > best_score:
            best_score = score
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in model.params.items()}

    if best_epoch == 0:
        # keep the final model when no epoch was scored
        best_params = {k: v.copy() for k, v in model.params.items()}
        best_epoch = len([e for e in log if e["type"] == "epoch"])
        best_score = float("nan") if not np.isfinite(best_score) else best_score
    best = SequenceModel(encoder, best_params)
    return TrainResult(
        model=best,
        best_epoch=best_epoch,
        best_score=float(best_score),
        log=log,
        behavior_model=behavior_model,
    )


def fit_behavior_model(
    dataset: Dataset, cfg: RunConfig, encoder: EncoderConfig | None = None
) -> SequenceModel:
    """Estimate the logging policy by next-item cross-entropy on the train split.

    Rewards are ignored; epochs and learning rate come from the
    behavior_epochs / behavior_learning_rate settings; the best epoch is
    chosen by validation log loss.
    """
    behavior_cfg = replace(
        cfg,
        objective="ce",
        td_weight=0.0,
        epochs=cfg.behavior_epochs,
        learning_rate=cfg.behavior_learning_rate,
    )
    result = train_model(
        dataset,
        behavior_cfg,
        objective=ObjectiveConfig(kind="ce", discount=0.0),
        encoder=encoder or cfg.encoder_config(dataset.catalog_size),
        seed_offset=_BEHAVIOR_SEED_OFFSET,
        select_by="log_loss",
    )
    return result.model


# -- evaluation -------------------------------------------------------------------


def fit_imputation(dataset: Dataset, cfg: RunConfig) -> tuple[ImputationModel, dict[str, int]]:
    """Fit the reward imputer on observable cells; returns (model, user index).

    Sequences act as imputation users. Training sequences contribute every
    interaction; validation/test sequences contribute all but their final
    interaction so the canonical held-out target stays unobserved.
    """
    user_index: dict[str, int] = {}
    triples = []
    for idx, seq in enumerate(dataset.sequences):
        user_index[seq.id] = idx
        observable = (
            seq.interactions
            if dataset.splits.get(seq.id) == "train"
            else seq.interactions[:-1]
        )
        for inter in observable:
            triples.append((idx, inter.item, inter.reward))
    model = fit_weighted_mf(
        triples,
        f=cfg.imputation_rank,
        missing_target=cfg.imputation_missing_target,
        missing_weight=cfg.imputation_missing_weight,
        seed=cfg.seed,
        n_users=len(dataset.sequences),
        n_items=dataset.catalog_size,
    )
    return model, user_index


def evaluate_examples(
    model: SequenceModel,
    examples: list[TrainingExample] | ExampleColumns,
    cfg: RunConfig,
    behavior_model: SequenceModel | None = None,
    imputation: ImputationModel | None = None,
    user_index: dict[str, int] | None = None,
    sequence_lengths: dict[str, int] | None = None,
    metadata: dict[str, str] | None = None,
) -> MetricsReport:
    """Full metric report over examples, given as columns or as a list.

    Always reports HR@k / nDCG@k at the configured cutoffs (split by event
    type when several are present) and AR@1. Optional inputs add iAR@1
    (imputation + user_index), the action-count breakdown (sequence_lengths),
    and mean JS/KL against the behavior estimate.
    """
    examples = ExampleColumns.of(examples)
    if not len(examples):
        raise ValueError("cannot evaluate an empty example set")
    contexts, actions = examples.contexts, examples.actions
    scores = batched_policy_scores(model, contexts)
    ranks = ranks_from_scores(scores, actions)
    ks = cfg.eval_ks_list()

    metrics: dict[str, MetricSummary] = {}
    for k in ks:
        metrics[f"hr_at_{k}"] = summarize(hit_rate_samples(ranks, k))
        metrics[f"ndcg_at_{k}"] = summarize(ndcg_samples(ranks, k))
    events = sorted(set(examples.events))
    if len(events) > 1:
        for event in events:
            mask = examples.events == event
            for k in ks:
                metrics[f"hr_{event}_at_{k}"] = summarize(hit_rate_samples(ranks[mask], k))
                metrics[f"ndcg_{event}_at_{k}"] = summarize(ndcg_samples(ranks[mask], k))

    greedy = scores.argmax(axis=1)
    metrics["ar_at_1"] = summarize(examples.rewards * (greedy == actions))
    if imputation is not None:
        if user_index is None:
            raise ValueError("imputation metrics need the sequence-to-user index")
        users = [user_index[sid] for sid in examples.sequence_ids]
        imputed = [impute_reward(imputation, u, int(item)) for u, item in zip(users, greedy)]
        metrics["iar_at_1"] = summarize(imputed)

    breakdown = None
    if sequence_lengths is not None:
        ndcg20 = ndcg_samples(ranks, _BREAKDOWN_K)
        seq_ids, owner = np.unique(examples.sequence_ids, return_inverse=True)
        grouped = ndcg20[np.argsort(owner, kind="stable")]
        bounds = np.cumsum(np.bincount(owner))[:-1]
        per_seq = [float(values.mean()) for values in np.split(grouped, bounds)]
        counts = [sequence_lengths[sid] for sid in seq_ids]
        breakdown = breakdown_report(per_seq, counts, max_count=cfg.max_length).breakdown

    if behavior_model is not None:
        rows = divergence_rows(
            model, behavior_model, contexts, cap=cfg.divergence_cap, seed=cfg.seed
        )
        for kind, values in rows.items():
            metrics[f"{kind}_vs_behavior"] = summarize(values)

    return MetricsReport(metrics=metrics, breakdown=breakdown, metadata=metadata)


def evaluate_split(
    model: SequenceModel,
    dataset: Dataset,
    split_name: str,
    cfg: RunConfig,
    behavior_model: SequenceModel | None = None,
) -> MetricsReport:
    """Evaluate a model on one split with every configured metric family."""
    examples = expand_columns(dataset.sequences_in(split_name), cfg.loss_window, cfg.discount)
    if not len(examples):
        raise ValueError(f"split {split_name!r} has no evaluable examples")
    sequence_lengths = {s.id: len(s) for s in dataset.sequences_in(split_name)}
    imputation = None
    user_index = None
    if cfg.imputation_rank > 0:
        imputation, user_index = fit_imputation(dataset, cfg)
    metadata = {"divergence_contexts": split_name}
    if behavior_model is None:
        metadata = {
            "warning": "logging-policy estimate unavailable; divergence metrics omitted"
        }
    return evaluate_examples(
        model,
        examples,
        cfg,
        behavior_model=behavior_model,
        imputation=imputation,
        user_index=user_index,
        sequence_lengths=sequence_lengths,
        metadata=metadata,
    )


# -- pipeline entry points ----------------------------------------------------


def _meta_path(checkpoint_path: str) -> str:
    return checkpoint_path + ".meta.json"


def _behavior_path(checkpoint_path: str) -> str:
    return os.path.join(os.path.dirname(checkpoint_path) or ".", "behavior.ckpt")


def _check_catalog(model: SequenceModel, name: str, dataset: Dataset) -> None:
    if model.config.catalog_size != dataset.catalog_size:
        raise ValueError(
            f"{name} catalog size {model.config.catalog_size} does not match "
            f"dataset catalog size {dataset.catalog_size}"
        )


def _load_checkpoint_for(path: str, dataset: Dataset) -> SequenceModel:
    model = load_checkpoint(path)
    _check_catalog(model, f"checkpoint {path}", dataset)
    return model


def _load_behavior_for(checkpoint_path: str, dataset: Dataset) -> SequenceModel | None:
    """The behavior checkpoint next to ``checkpoint_path``, or None if there is none."""
    path = _behavior_path(checkpoint_path)
    return _load_checkpoint_for(path, dataset) if os.path.exists(path) else None


def run_train(cfg: RunConfig) -> dict:
    """Train per config, write checkpoint/log/meta into output_dir.

    Returns the written paths. The resolved config is copied alongside the
    outputs for reproducibility.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    dataset = load_dataset(cfg)
    result = train_model(dataset, cfg)

    checkpoint_path = os.path.join(cfg.output_dir, "model.ckpt")
    save_checkpoint(result.model, checkpoint_path)
    paths = {"checkpoint": checkpoint_path}

    if result.behavior_model is not None:
        save_checkpoint(result.behavior_model, _behavior_path(checkpoint_path))
        paths["behavior"] = _behavior_path(checkpoint_path)

    meta = {
        "schema_version": LOG_SCHEMA_VERSION,
        "objective": cfg.objective,
        "beta": cfg.beta,
        "td_weight": cfg.td_weight,
        "discount": cfg.discount,
        "seed": cfg.seed,
        "dim": cfg.dim,
        "catalog_size": dataset.catalog_size,
        "best_epoch": result.best_epoch,
        "val_score": result.best_score if np.isfinite(result.best_score) else None,
    }
    with open(_meta_path(checkpoint_path), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["meta"] = _meta_path(checkpoint_path)

    log_payload = {
        "schema_version": LOG_SCHEMA_VERSION,
        "best_epoch": result.best_epoch,
        "best_score": result.best_score if np.isfinite(result.best_score) else None,
        "entries": result.log,
    }
    log_path = os.path.join(cfg.output_dir, "train_log.json")
    with open(log_path, "w", encoding="utf-8") as fh:
        json.dump(log_payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths["log"] = log_path

    config_path = os.path.join(cfg.output_dir, "config.txt")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())
    paths["config"] = config_path
    return paths


def run_eval(cfg: RunConfig, checkpoint_path: str, split_name: str) -> tuple[MetricsReport, str]:
    """Evaluate a checkpoint on one split; returns (report, report JSON).

    Divergence-from-behavior metrics appear only when a behavior checkpoint
    sits next to the model checkpoint (run_train leaves one there whenever the
    objective required it); otherwise the report carries a warning record.
    """
    if split_name not in ("train", "validation", "test"):
        raise ValueError(f"unknown split {split_name!r}")
    dataset = load_dataset(cfg)
    model = _load_checkpoint_for(checkpoint_path, dataset)
    behavior = _load_behavior_for(checkpoint_path, dataset)
    report = evaluate_split(model, dataset, split_name, cfg, behavior)
    return report, report.to_json()


def _meta_for(path: str) -> dict:
    meta_path = _meta_path(path)
    if not os.path.exists(meta_path):
        raise ValueError(f"checkpoint {path} lacks its metadata sidecar {meta_path}")
    with open(meta_path, encoding="utf-8") as fh:
        return json.load(fh)


_SWEEP_FIELDS = ("objective", "beta", "td_weight", "discount")


def run_diagnose(cfg: RunConfig, checkpoint_paths: list[str]) -> str:
    """Compare a hyperparameter sweep's checkpoints on the validation split.

    Emits one CSV row per checkpoint: the swept hyperparameter and its value
    (from the metadata sidecar written at train time), nDCG@20 by event type
    (overall nDCG@20 when the data has a single event type), and the mean JS
    against the checkpoint's behavior estimate. Checkpoints must agree on
    everything except the single swept hyperparameter.
    """
    if len(checkpoint_paths) < 2:
        raise ValueError("diagnose compares checkpoints; give at least two")
    metas = [_meta_for(path) for path in checkpoint_paths]
    for key in ("dim", "catalog_size"):
        if len({meta.get(key) for meta in metas}) > 1:
            raise ValueError(f"checkpoints disagree on {key}; not a comparable sweep")
    differing = [
        name for name in _SWEEP_FIELDS if len({meta.get(name) for meta in metas}) > 1
    ]
    if len(differing) > 1:
        raise ValueError(
            "checkpoints differ in multiple hyperparameters "
            f"({', '.join(differing)}); sweep exactly one"
        )
    swept = differing[0] if differing else "beta"

    if _BREAKDOWN_K not in cfg.eval_ks_list():
        # the sweep table always reports nDCG@20, so make sure it is computed
        cfg = replace(cfg, eval_ks=f"{cfg.eval_ks},{_BREAKDOWN_K}")

    dataset = load_dataset(cfg)
    rows = []
    for path, meta in zip(checkpoint_paths, metas):
        model = _load_checkpoint_for(path, dataset)
        behavior = _load_behavior_for(path, dataset)
        report = evaluate_split(model, dataset, "validation", cfg, behavior)
        overall = report.metrics.get("ndcg_at_20")
        fallback = overall.value if overall is not None and overall.count else ""
        js = report.metrics.get("js_vs_behavior")
        rows.append(
            {
                "checkpoint": path,
                "hyperparameter": swept,
                "value": meta.get(swept, ""),
                "ndcg_click_at_20": _metric_or(report, "ndcg_click_at_20", fallback),
                "ndcg_purchase_at_20": _metric_or(report, "ndcg_purchase_at_20", fallback),
                "js_mean": js.value if js is not None else "",
            }
        )
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def _metric_or(report: MetricsReport, name: str, fallback):
    summary = report.metrics.get(name)
    if summary is None or summary.count == 0:
        return fallback
    return summary.value
