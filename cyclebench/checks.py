"""Correctness checks of one train -> evaluate -> serve cycle.

Every check compares the program against a computation made here, apart from
the program, or against a property the method must have. Each returns a list
of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

from lpirec import data, objectives, synth, training
from lpirec import metrics as lmetrics

GRADIENT_EPS = 1e-6
GRADIENT_RTOL = 1e-4
GRADIENT_ATOL = 1e-7
SCORE_TOL = 1e-9
VALUE_STDERRS = 4.0
RANK_SAMPLE = 256


def window_count(sequences, loss_window: int) -> int:
    """Examples a split trains or evaluates on: sum of min(loss_window, len - 1)."""
    return sum(min(loss_window, len(s) - 1) for s in sequences if len(s) >= 2)


def largest_remainder(n: int, fractions) -> list[int]:
    floors = [math.floor(f * n) for f in fractions]
    order = sorted(range(3), key=lambda j: (-(fractions[j] * n - floors[j]), j))
    for j in order[: n - sum(floors)]:
        floors[j] += 1
    return floors


def check_preprocessing(dataset, cfg) -> list[str]:
    """Lengths within the rules, item support, dense ids, split sizes."""
    errors = []
    seqs = dataset.sequences
    lengths = np.array([len(s) for s in seqs])
    if cfg.data_source == "csv":
        lo, hi = cfg.min_interactions, cfg.max_length
        if lengths.min() < lo or lengths.max() > hi:
            errors.append(f"sequence lengths span [{lengths.min()}, {lengths.max()}], rules say [{lo}, {hi}]")
        support = np.zeros(dataset.catalog_size, dtype=np.int64)
        for s in seqs:
            support[np.unique(np.array(s.items(), dtype=np.int64))] += 1
        if support.min() < cfg.min_item_support:
            errors.append(f"an item survives with support {support.min()} < {cfg.min_item_support}")
    else:
        if np.any(lengths != cfg.synthetic_horizon + 1):
            errors.append("simulated sessions are not horizon + 1 long")
    items = np.concatenate([np.array(s.items(), dtype=np.int64) for s in seqs])
    if items.min() < 0 or items.max() >= dataset.catalog_size:
        errors.append("item ids fall outside [0, catalog_size)")
    if cfg.data_source == "csv" and len(np.unique(items)) != dataset.catalog_size:
        errors.append("item ids are not dense: some index in [0, catalog_size) is unused")
    fractions = (cfg.split_train, cfg.split_validation, cfg.split_test)
    expected = largest_remainder(len(seqs), fractions)
    got = [len(dataset.sequences_in(name)) for name in ("train", "validation", "test")]
    if got != expected:
        errors.append(f"split sizes {got} differ from the largest-remainder sizes {expected}")
    return errors


def check_examples_trained(trained: dict[str, int], dataset, cfg) -> list[str]:
    """Examples seen by gradient steps == epochs * windowed train examples."""
    per_epoch = window_count(dataset.sequences_in("train"), cfg.loss_window)
    expected = {"behavior": cfg.behavior_epochs * per_epoch, "train": cfg.epochs * per_epoch}
    return [
        f"{phase}: {trained.get(phase, 0)} examples trained, expected {want}"
        for phase, want in expected.items()
        if trained.get(phase, 0) != want
    ]


def check_same_params(runs: list[dict]) -> list[str]:
    """Every round trains on the same seed, so every round's parameters agree."""
    return [
        f"round {r}: trained parameters differ from round 0 in {name}"
        for r, params in enumerate(runs[1:], start=1)
        for name, value in params.items()
        if not np.array_equal(value, runs[0][name])
    ]


def _real_batch(dataset, cfg):
    examples = []
    for seq in dataset.sequences_in("train"):
        examples.extend(data.expand_examples(seq, cfg.loss_window))
    rtg = objectives.attach_reward_to_go(examples, cfg.discount)
    keep = [i for i, ex in enumerate(examples) if ex.in_loss_window][: cfg.batch_size]
    return objectives.build_batch([examples[i] for i in keep], rtg[keep], recency=cfg.recency)


def _gradient_errors(label, model, batch, config, prepared) -> list[str]:
    result = objectives.evaluate_prepared(model, batch, config, prepared)
    action = int(batch.actions[0])
    context_item = int(batch.contexts[0][-1])
    coordinates = [
        ("item_embeddings", (action, 0)),
        ("item_embeddings", (context_item, 1)),
        ("W", (0, 1)),
        ("b", (2,)),
        ("head_b", (action,)),
    ]
    if config.td_weight > 0:
        coordinates += [("q_W", (action, 3)), ("q_b", (action,))]
    errors = []
    for name, index in coordinates:
        param = model.params[name]
        original = param[index]
        losses = []
        for step in (GRADIENT_EPS, -GRADIENT_EPS):
            param[index] = original + step
            losses.append(objectives.evaluate_prepared(model, batch, config, prepared, compute_grads=False).loss)
        param[index] = original
        numeric = (losses[0] - losses[1]) / (2 * GRADIENT_EPS)
        analytic = float(result.gradients[name][index])
        if abs(numeric - analytic) > GRADIENT_ATOL + GRADIENT_RTOL * abs(numeric):
            errors.append(f"{label} d/d{name}{index}: analytic {analytic:.6g}, finite difference {numeric:.6g}")
    return errors


def check_gradients(model, behavior, dataset, cfg) -> list[str]:
    """Finite differences of evaluate_prepared for ce and for lpi with TD."""
    batch = _real_batch(dataset, cfg)
    ce = objectives.ObjectiveConfig(kind="ce")
    errors = _gradient_errors("ce", behavior, batch, ce, objectives.prepare_step(behavior, batch, ce))
    lpi = cfg.objective_config()
    prepared = objectives.prepare_step(model, batch, lpi, behavior.probs, model.copy())
    return errors + _gradient_errors("lpi", model, batch, lpi, prepared)


def reference_scores(params: dict, recency: float, context) -> np.ndarray:
    """Recency-weighted mean of embeddings, tanh projection, then the head."""
    emb = params["item_embeddings"]
    items = np.asarray(context, dtype=np.int64)
    if len(items):
        w = recency ** np.arange(len(items) - 1, -1, -1, dtype=float)
        pool = (w / w.sum()) @ emb[items]
    else:
        pool = np.zeros(emb.shape[1])
    state = np.tanh(params["W"] @ pool + params["b"])
    head = params.get("head_W", emb)
    return head @ state + params["head_b"]


def check_serving(model, samples, k: int) -> list[str]:
    """Served scores and top-k sets against the plain-NumPy forward pass."""
    errors = []
    for context, top, served in samples:
        expected = reference_scores(model.params, model.config.recency, context)
        if not np.allclose(served, expected, rtol=SCORE_TOL, atol=SCORE_TOL):
            errors.append(f"context {context}: served scores differ from the reference pass")
            continue
        order = np.argsort(-expected, kind="stable")
        if set(order[:k].tolist()) != set(top.tolist()):
            # a different set is only acceptable across an exact boundary tie
            if abs(expected[order[k - 1]] - expected[order[k]]) > SCORE_TOL:
                errors.append(f"context {context}: served top-{k} differs from the reference")
        if np.any(np.diff(served[top]) > 0):
            errors.append(f"context {context}: served list is not in descending score order")
    return errors


def check_ranking(model, report, dataset, cfg, seed: int) -> list[str]:
    """Subsampled HR/nDCG from a stable argsort, and report-level invariants."""
    errors = []
    examples = []
    for seq in dataset.sequences_in("test"):
        examples.extend(e for e in data.expand_examples(seq, cfg.loss_window) if e.in_loss_window)
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(examples), size=min(RANK_SAMPLE, len(examples)), replace=False)
    contexts = [examples[i].context for i in pick]
    targets = np.array([examples[i].action for i in pick], dtype=np.int64)
    scores = training.batched_policy_scores(model, contexts)
    order = np.argsort(-scores, axis=1, kind="stable")
    ranks = 1 + np.argmax(order == targets[:, None], axis=1)
    if not np.array_equal(lmetrics.ranks_from_scores(scores, targets), ranks):
        errors.append("ranks_from_scores disagrees with a stable per-row argsort")
    for k in cfg.eval_ks_list():
        hits = (ranks <= k).astype(float)
        gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
        if not np.array_equal(lmetrics.hit_rate_samples(ranks, k), hits):
            errors.append(f"hit_rate_samples at {k} disagrees with the recomputation")
        if not np.allclose(lmetrics.ndcg_samples(ranks, k), gains, rtol=0, atol=1e-12):
            errors.append(f"ndcg_samples at {k} disagrees with the recomputation")

    m = report.metrics
    ks = sorted(cfg.eval_ks_list())
    hr = [m[f"hr_at_{k}"].value for k in ks]
    ndcg = [m[f"ndcg_at_{k}"].value for k in ks]
    if any(b < a for a, b in zip(hr, hr[1:])):
        errors.append(f"hr_at_k falls as k grows: {hr}")
    if any(n > h + 1e-12 for n, h in zip(ndcg, hr)):
        errors.append(f"ndcg_at_k exceeds hr_at_k: {ndcg} vs {hr}")
    js, kl = m["js_vs_behavior"].value, m["kl_vs_behavior"].value
    if not 0.0 <= js <= math.log(2.0) + 1e-12:
        errors.append(f"mean JS {js} outside [0, ln 2]")
    if not kl >= 0.0:
        errors.append(f"mean KL {kl} is negative")
    return errors


def world_values(model, behavior, dataset, cfg, seed: int) -> tuple[list[str], dict]:
    """Exact vs simulated value of both policies, and lpi >= behavior estimate."""
    world = synth.make_random_world(cfg.synthetic_seed, cfg.synthetic_states, cfg.synthetic_catalog)
    examples = []
    for seq in dataset.sequences_in("train"):
        examples.extend(data.expand_examples(seq, cfg.loss_window))
    buckets = synth.bucket_contexts_by_state(world, examples)
    errors = []
    values = {}
    for name, policy in (("lpi", model), ("behavior", behavior)):
        tabular = synth.project_policy_to_tabular(
            lambda contexts, p=policy: training.batched_probs(p, contexts), world, buckets
        )
        exact = synth.world_policy_value(world, tabular, cfg.synthetic_horizon)
        simulated, stderr = synth.simulate_policy_value(world, tabular, cfg.synthetic_horizon, 20_000, seed)
        values[name] = exact
        if abs(exact - simulated) > VALUE_STDERRS * stderr:
            errors.append(f"{name}: exact value {exact:.5f} vs simulated {simulated:.5f} +- {stderr:.5f}")
    if values["lpi"] < values["behavior"]:
        errors.append(f"lpi value {values['lpi']:.5f} below the behavior estimate's {values['behavior']:.5f}")
    return errors, values
