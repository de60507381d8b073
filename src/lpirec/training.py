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

from . import synth
from .config import RunConfig
from .data import (
    SPLITS,
    Dataset,
    ExampleColumns,
    PreprocessRules,
    expand_columns,
    expand_examples,  # unused here; cyclebench's tracer wraps this name
    load_interactions_csv,
    preprocess,
    split,
)
from .encoder import Adam, TrainingDivergedError
from .metrics import (
    MetricsReport,
    MetricSummary,
    _chunk_plan,
    _divergences,
    breakdown_report,
    hit_rate_samples,
    mean_divergence,  # unused here; cyclebench's tracer wraps this name
    model_selection_score,
    ndcg_samples,
    ranks_from_scores,
    summarize,
)
from .objectives import (
    BEHAVIOR_KINDS,
    _behavior_probs,
    build_batch,
    evaluate_prepared,
    prepare_step,
)
from .policy import SequenceModel, Workspace, load_checkpoint, log_softmax, save_checkpoint, softmax
from .synth import ImputationModel, fit_weighted_mf, imputed_rewards, make_random_world

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
        world = make_random_world(cfg.synthetic_seed, cfg.synthetic_states, cfg.synthetic_catalog)
        # looked up on the module, where cyclebench's tracer wraps this name
        dataset = synth.generate_sessions(
            world, cfg.synthetic_sessions, cfg.synthetic_horizon, seed=cfg.synthetic_seed + 1
        )
    return split(dataset, fractions, cfg.seed)


def batched_policy_scores(model: SequenceModel, contexts) -> np.ndarray:
    """(n, catalog) policy logits, each chunk of :func:`metrics._chunk_plan` formed in place."""
    scores = np.empty((len(contexts), model.config.catalog_size))
    for rows, _ in _chunk_plan(len(contexts), None, 0)[1]:
        model.policy_logits_from(model.encode(contexts[rows]), out=scores[rows])
    return scores


def batched_probs(model: SequenceModel, contexts) -> np.ndarray:
    scores = batched_policy_scores(model, contexts)
    return softmax(scores, out=scores)


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


def _validation_log_loss(
    model: SequenceModel, columns: ExampleColumns, workspace: Workspace | None = None
) -> float:
    """Mean -log pi(a|x), gathered in :func:`metrics._chunk_plan`'s chunks.

    Each chunk's log-probabilities are formed in two arrays of ``workspace``
    (default: one held for this call).
    """
    workspace = workspace or Workspace(model.config.catalog_size)
    logp = np.empty(len(columns))
    for rows, _ in _chunk_plan(len(columns), None, 0)[1]:
        cache = model.encode(columns.contexts[rows])
        log_probs, scratch = workspace.take(len(cache.state), 2)
        model.policy_logits_from(cache, out=log_probs)
        log_softmax(log_probs, out=log_probs, scratch=scratch)
        logp[rows] = log_probs[np.arange(len(log_probs)), columns.actions[rows]]
    return float(-logp.mean())


def train_model(
    dataset: Dataset,
    cfg: RunConfig,
    behavior_model: SequenceModel | None = None,
    select_by: str = "score",
) -> TrainResult:
    """Train one model on the dataset's train split, configured by ``cfg`` alone.

    select_by: "score" keeps the epoch with the best validation selection
    score, "log_loss" the one with the lowest validation cross-entropy; with
    no validation score the final model is kept. A non-finite loss or
    gradient aborts training and keeps the best (or last good) parameters.
    """
    if select_by not in ("score", "log_loss"):
        raise ValueError(f'select_by must be "score" or "log_loss", got {select_by!r}')
    objective = cfg.objective_config()
    encoder = cfg.encoder_config(dataset.catalog_size)
    if behavior_model is not None:
        _check_catalog(behavior_model, "behavior model", dataset)
    if objective.kind in BEHAVIOR_KINDS and behavior_model is None:
        behavior_model = fit_behavior_model(dataset, cfg)

    columns = expand_columns(dataset.sequences_in("train"), cfg.loss_window, objective.discount)
    if not len(columns):
        raise ValueError("train split expands to no examples")
    batch_rng = np.random.default_rng(cfg.seed + _BATCH_SEED_OFFSET)
    shuffled = batch_rng.permutation(len(columns))
    batch_rows = np.split(shuffled, np.arange(cfg.batch_size, len(shuffled), cfg.batch_size))

    val_columns = expand_columns(
        dataset.sequences_in("validation"), cfg.loss_window, objective.discount
    )

    model = SequenceModel.initialize(encoder, cfg.seed)
    adam = Adam(
        lr=cfg.learning_rate, beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps
    )
    target = model.copy() if objective.td_weight > 0 else None
    # the steps and the validation passes fill one block, held for the fit
    workspace = Workspace(encoder.catalog_size)

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
                prepared = prepare_step(model, batch, objective, behavior_model, target, workspace)
                result = evaluate_prepared(model, batch, objective, prepared, forward=prepared.forward)
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
                val_ll = _validation_log_loss(model, val_columns, workspace)
                score = -val_ll
                entry["val_log_loss"] = val_ll
            else:
                report = evaluate_examples(model, val_columns, cfg, workspace=workspace)
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
        best_score = float("nan")
    best = SequenceModel(encoder, best_params)
    return TrainResult(
        model=best,
        best_epoch=best_epoch,
        best_score=float(best_score),
        log=log,
        behavior_model=behavior_model,
    )


def fit_behavior_model(dataset: Dataset, cfg: RunConfig) -> SequenceModel:
    """Estimate the logging policy by next-item cross-entropy on the train split.

    It is ``train_model`` at a config derived from ``cfg``: objective ce,
    behavior_epochs / behavior_learning_rate, an offset seed, and the epoch
    with the lowest validation log loss kept.
    """
    behavior_cfg = replace(
        cfg,
        objective="ce",
        td_weight=0.0,
        epochs=cfg.behavior_epochs,
        learning_rate=cfg.behavior_learning_rate,
        seed=cfg.seed + _BEHAVIOR_SEED_OFFSET,
    )
    return train_model(dataset, behavior_cfg, select_by="log_loss").model


# -- evaluation -------------------------------------------------------------------


def fit_imputation(dataset: Dataset, cfg: RunConfig) -> tuple[ImputationModel, dict[str, int]]:
    """Fit the reward imputer on observable cells; returns (model, user index).

    Sequences act as imputation users. Training sequences contribute every
    interaction; validation/test sequences contribute all but their final
    interaction so the canonical held-out target stays unobserved.

    The fit reads nothing else, so it is kept on the dataset, keyed by the
    settings it is given, and shared: its factor arrays are read-only.
    """
    settings = dict(
        f=cfg.imputation_rank,
        missing_target=cfg.imputation_missing_target,
        missing_weight=cfg.imputation_missing_weight,
        seed=cfg.seed,
    )
    key = ("imputation", *settings.values())
    if key in dataset._memo:
        return dataset._memo[key]
    table = dataset.table
    lengths = np.diff(table.offsets)
    observable = np.ones(len(table.items), dtype=bool)
    held_out = (table.splits != SPLITS.index("train")) & (lengths > 0)
    observable[table.offsets[1:][held_out] - 1] = False
    users = np.repeat(np.arange(len(table)), lengths)
    cells = np.column_stack((users, table.items, table.rewards))[observable]
    model = fit_weighted_mf(cells, **settings, n_users=len(table), n_items=dataset.catalog_size)
    user_index = {sid: idx for idx, sid in enumerate(table.ids.tolist())}
    model.user_factors.setflags(write=False)
    model.item_factors.setflags(write=False)
    dataset._memo[key] = model, user_index
    return model, user_index


def evaluate_examples(
    model: SequenceModel,
    examples: ExampleColumns,
    cfg: RunConfig,
    behavior_model: SequenceModel | None = None,
    imputation: tuple[ImputationModel, dict[str, int]] | None = None,
    sequence_lengths: dict[str, int] | None = None,
    workspace: Workspace | None = None,
) -> MetricsReport:
    """Full metric report over the examples' columns.

    Always reports HR@k / nDCG@k at the configured cutoffs (split by event
    type when several are present) and AR@1. Optional inputs add iAR@1
    (imputation: the (model, user index) pair :func:`fit_imputation`
    returns), the action-count breakdown (sequence_lengths), and mean JS/KL
    against the behavior estimate.

    The contexts are scored once, in the chunks :func:`metrics.divergence_rows`
    walks: each chunk is padded once and encoded once per model, and its
    logits give the ranks, the greedy actions and, on the chunks the
    divergence cap covers, the model's side of both divergences.

    Every chunk fills the same (chunk, catalog) arrays of ``workspace``
    (default: one held for this call): the logits (later log p), and with a
    behavior model p, q, the exps' scratch (later log q) and the KL terms.
    """
    if not len(examples):
        raise ValueError("cannot evaluate an empty example set")
    contexts, actions = examples.contexts, examples.actions
    ranks = np.empty(len(examples), dtype=np.int64)
    greedy = np.empty(len(examples), dtype=np.int64)
    kinds = () if behavior_model is None else ("js", "kl")
    cap = cfg.divergence_cap if kinds else None
    covered, chunks = _chunk_plan(len(examples), cap, cfg.seed)
    divergences = {kind: np.empty(covered) for kind in kinds}
    workspace = workspace or Workspace(model.config.catalog_size)
    for rows, first in chunks:
        chunk = contexts[rows]
        batch = model.as_batch(chunk)
        logits, *buffers = workspace.take(len(chunk), 5 if kinds else 1)
        model.policy_logits_from(model.encode(batch), out=logits)
        ranks[rows] = ranks_from_scores(logits, actions[rows])
        greedy[rows] = logits.argmax(axis=1)
        if not kinds or first is None:
            continue
        p, q, scratch, terms = buffers
        softmax(logits, out=p, scratch=scratch)
        q = _behavior_probs(behavior_model, chunk, batch, logits.shape[1], q, scratch)
        logs = (logits, scratch, terms)
        for kind, values in _divergences(p, q, kinds, first, logs).items():
            divergences[kind][first : first + len(values)] = values
    ks = cfg.eval_ks_list()

    metrics: dict[str, MetricSummary] = {}
    for k in ks:
        metrics[f"hr_at_{k}"] = summarize(hit_rate_samples(ranks, k))
        metrics[f"ndcg_at_{k}"] = summarize(ndcg_samples(ranks, k))
    names = examples.event_names
    codes = sorted(np.unique(examples.event_codes).tolist(), key=names.__getitem__)
    if len(codes) > 1:
        for code in codes:
            event, mask = names[code], examples.event_codes == code
            for k in ks:
                metrics[f"hr_{event}_at_{k}"] = summarize(hit_rate_samples(ranks[mask], k))
                metrics[f"ndcg_{event}_at_{k}"] = summarize(ndcg_samples(ranks[mask], k))

    metrics["ar_at_1"] = summarize(examples.rewards * (greedy == actions))
    # the source sequences that have examples, by owner code; each id is read once
    owners = examples.owners
    sizes = np.bincount(owners, minlength=len(examples.owner_ids))
    present = np.flatnonzero(sizes)
    present_ids = examples.owner_ids[present]
    if imputation is not None:
        imputer, user_index = imputation
        user_of = np.zeros(len(sizes), dtype=np.int64)
        missing = [sid for sid in present_ids if sid not in user_index]
        if missing:
            raise ValueError(f"sequence {missing[0]!r} is missing from the imputation's user index")
        user_of[present] = [user_index[sid] for sid in present_ids]
        metrics["iar_at_1"] = summarize(imputed_rewards(imputer, user_of[owners], greedy))

    breakdown = None
    if sequence_lengths is not None:
        ndcg20 = ndcg_samples(ranks, _BREAKDOWN_K)
        grouped = ndcg20[np.argsort(owners, kind="stable")]
        sizes = sizes[present]
        starts = np.cumsum(sizes) - sizes
        per_seq = np.empty(len(present))
        # row-wise means per length sum as each sequence's own mean does (reduceat does not)
        for size in np.unique(sizes):
            same = sizes == size
            per_seq[same] = grouped[starts[same, None] + np.arange(size)].mean(axis=1)
        by_id = np.argsort(present_ids, kind="stable")  # the breakdown reads sequences by id
        counts = [sequence_lengths[sid] for sid in present_ids[by_id]]
        breakdown = breakdown_report(per_seq[by_id], counts, max_count=cfg.max_length).breakdown

    for kind, values in divergences.items():
        metrics[f"{kind}_vs_behavior"] = summarize(values)

    return MetricsReport(metrics=metrics, breakdown=breakdown)


def evaluate_split(
    model: SequenceModel,
    dataset: Dataset,
    split_name: str,
    cfg: RunConfig,
    behavior_model: SequenceModel | None = None,
) -> MetricsReport:
    """Evaluate a model on one split with every configured metric family."""
    _check_catalog(model, "model", dataset)
    if behavior_model is not None:
        _check_catalog(behavior_model, "behavior model", dataset)
    sequences = dataset.sequences_in(split_name)
    examples = expand_columns(sequences, cfg.loss_window, cfg.discount)
    if not len(examples):
        raise ValueError(f"split {split_name!r} has no evaluable examples")
    sequence_lengths = dict(zip(sequences.ids.tolist(), np.diff(sequences.offsets).tolist()))
    imputation = fit_imputation(dataset, cfg) if cfg.imputation_rank > 0 else None
    report = evaluate_examples(
        model,
        examples,
        cfg,
        behavior_model=behavior_model,
        imputation=imputation,
        sequence_lengths=sequence_lengths,
    )
    report.metadata = {"divergence_contexts": split_name}
    if behavior_model is None:
        report.metadata = {"warning": "logging-policy estimate unavailable; divergence metrics omitted"}
    return report


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
    if split_name not in SPLITS:
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
