"""Ranking metrics, greedy-reward metrics, divergences, and reports.

Ranks are 1-based: an item's rank is one plus the number of items scored
strictly higher, with ties resolved in favor of smaller item indices. Reports
carry (value, count, standard_error) per metric, where the standard error is
the sample standard deviation over per-example values divided by sqrt(count).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .estimators import SupportViolationError

DEFAULT_BUCKET_EDGES = (5, 10, 15)
DEFAULT_DIVERGENCE_CAP = 50_000
_DIVERGENCE_CHUNK = 1024


@dataclass(frozen=True)
class MetricSummary:
    """A metric's mean over samples, the sample count, and its standard error."""

    value: float | None
    count: int
    stderr: float | None

    def to_json_dict(self) -> dict:
        return {"value": self.value, "count": self.count, "stderr": self.stderr}


def summarize(samples: np.ndarray) -> MetricSummary:
    """Mean / count / standard error of per-example metric values."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n == 0:
        return MetricSummary(value=None, count=0, stderr=None)
    stderr = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MetricSummary(value=float(samples.mean()), count=n, stderr=stderr)


@dataclass
class MetricsReport:
    """Named metric summaries with an optional per-bucket breakdown."""

    metrics: dict[str, MetricSummary] = field(default_factory=dict)
    breakdown: dict[str, MetricSummary] | None = None
    metadata: dict[str, str] | None = None

    def to_json_dict(self) -> dict:
        out = {name: m.to_json_dict() for name, m in self.metrics.items()}
        if self.breakdown is not None:
            out["breakdown"] = {k: m.to_json_dict() for k, m in self.breakdown.items()}
        if self.metadata is not None:
            out["metadata"] = dict(self.metadata)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, payload: dict) -> "MetricsReport":
        def summary(d):
            return MetricSummary(value=d["value"], count=d["count"], stderr=d["stderr"])

        metrics = {
            k: summary(v)
            for k, v in payload.items()
            if k not in ("breakdown", "metadata")
        }
        breakdown = (
            {k: summary(v) for k, v in payload["breakdown"].items()}
            if "breakdown" in payload
            else None
        )
        return cls(metrics=metrics, breakdown=breakdown, metadata=payload.get("metadata"))


# -- ranking ---------------------------------------------------------------------


def hr_at_k(rank: int, k: int) -> int:
    """1 iff the held-out item's rank is within the top k."""
    if rank < 1 or k < 1:
        raise ValueError("rank and k must be >= 1")
    return 1 if rank <= k else 0


def ndcg_at_k(rank: int, k: int) -> float:
    """1/log2(rank + 1) if rank <= k else 0."""
    if rank < 1 or k < 1:
        raise ValueError("rank and k must be >= 1")
    return 1.0 / math.log2(rank + 1.0) if rank <= k else 0.0


def rank_from_scores(scores: np.ndarray, target: int) -> int:
    """1 + #(strictly higher scores) + #(equal scores at smaller indices)."""
    scores = np.asarray(scores, dtype=float)
    t = scores[target]
    higher = int((scores > t).sum())
    earlier_ties = int((scores[:target] == t).sum())
    return 1 + higher + earlier_ties


def ranks_from_scores(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Vectorized rank_from_scores over rows of a score matrix."""
    scores = np.asarray(scores, dtype=float)
    targets = np.asarray(targets, dtype=np.int64)
    rows = np.arange(len(targets))
    t = scores[rows, targets]
    higher = (scores > t[:, None]).sum(axis=1)
    ties = (scores == t[:, None]).cumsum(axis=1)
    earlier_ties = ties[rows, targets] - 1
    return (1 + higher + earlier_ties).astype(np.int64)


def rank_of(model, context, target: int) -> int:
    """Rank of ``target`` under the model's action scores for ``context``."""
    scores = np.asarray(model.policy_logits([tuple(context)])[0])
    return rank_from_scores(scores, target)


def hit_rate_samples(ranks: np.ndarray, k: int) -> np.ndarray:
    ranks = np.asarray(ranks)
    return (ranks <= k).astype(float)


def ndcg_samples(ranks: np.ndarray, k: int) -> np.ndarray:
    ranks = np.asarray(ranks, dtype=float)
    return np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)


# -- greedy-reward metrics ---------------------------------------------------------


def ar_at_1(model, triplets) -> float:
    """Average observed reward claimed by the greedy action.

    ``triplets`` is (contexts, actions, rewards); each logged reward counts
    only when the model's greedy action equals the logged action.
    """
    contexts, actions, rewards = triplets
    contexts = list(contexts)
    if not contexts:
        raise ValueError("held-out triplets must be non-empty")
    actions = np.asarray(actions, dtype=np.int64)
    rewards = np.asarray(rewards, dtype=float)
    greedy = np.asarray(model.greedy_actions(contexts))
    return float((rewards * (greedy == actions)).mean())


def iar_at_1(model, heldout, imputation) -> float:
    """Average imputed reward of the greedy action over held-out contexts.

    ``heldout`` is a sequence of (user, context) pairs; the imputation model
    predicts the reward of the greedy item for that user.
    """
    from .synth import impute_reward

    pairs = list(heldout)
    if not pairs:
        raise ValueError("held-out contexts must be non-empty")
    users = [u for u, _ in pairs]
    contexts = [tuple(c) for _, c in pairs]
    greedy = np.asarray(model.greedy_actions(contexts))
    total = 0.0
    for user, item in zip(users, greedy):
        total += impute_reward(imputation, int(user), int(item))
    return total / len(pairs)


# -- divergences -------------------------------------------------------------------


def _kl_rows(p: np.ndarray, q: np.ndarray, first_context: int | None = None) -> np.ndarray:
    """KL(p_i | q_i) for each row i, 0 log 0 = 0; q must cover p's support.

    A violation in row i names context ``first_context + i`` when it is given.
    """
    support = p > 0
    bad = np.argwhere(support & (q <= 0))
    if bad.size:
        row, index = (int(v) for v in bad[0])
        where = "" if first_context is None else f"context {first_context + row}: "
        raise SupportViolationError(
            f"{where}second distribution has zero mass at index {index} "
            "inside the first distribution's support"
        )
    log_ratio = np.log(p, out=np.zeros_like(p), where=support)
    log_ratio -= np.log(q, out=np.zeros_like(q), where=support)
    log_ratio *= p
    return log_ratio.sum(axis=1)


def _js_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(KL(p_i|m_i) + KL(q_i|m_i)) / 2 per row, m the midpoint; never raises."""
    m = 0.5 * (p + q)
    return 0.5 * _kl_rows(p, m) + 0.5 * _kl_rows(q, m)


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum p * (log p - log q) with 0 log 0 = 0; q must cover p's support."""
    return float(_kl_rows(np.asarray(p, dtype=float)[None], np.asarray(q, dtype=float)[None])[0])


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """(KL(p|m) + KL(q|m)) / 2 with m the midpoint; bounded by [0, ln 2]."""
    return float(_js_rows(np.asarray(p, dtype=float)[None], np.asarray(q, dtype=float)[None])[0])


def mean_divergence(
    model,
    logging_estimate,
    contexts,
    kind: str = "js",
    cap: int = DEFAULT_DIVERGENCE_CAP,
    seed: int = 0,
) -> tuple[float, float]:
    """Average per-context divergence between two policies' full distributions.

    Both arguments expose probs(contexts) -> (n, catalog). When more than
    ``cap`` contexts are given, a seeded subsample of ``cap`` of them is used.
    Returns (mean, standard_error). KL support violations name the offending
    context's position. Contexts are scored in chunks of _DIVERGENCE_CHUNK, so
    memory does not grow with their number.
    """
    if kind not in ("kl", "js"):
        raise ValueError(f"divergence kind must be kl or js, got {kind!r}")
    contexts = [tuple(c) for c in contexts]
    if not contexts:
        raise ValueError("contexts must be non-empty")
    if cap is not None and len(contexts) > cap:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(contexts), size=cap, replace=False)
        keep.sort()
        contexts = [contexts[i] for i in keep]
    values = np.empty(len(contexts))
    for start in range(0, len(contexts), _DIVERGENCE_CHUNK):
        chunk = contexts[start : start + _DIVERGENCE_CHUNK]
        p = np.asarray(model.probs(chunk), dtype=float)
        q = np.asarray(logging_estimate.probs(chunk), dtype=float)
        values[start : start + len(chunk)] = (
            _js_rows(p, q) if kind == "js" else _kl_rows(p, q, first_context=start)
        )
    summary = summarize(values)
    return summary.value, (summary.stderr if summary.stderr is not None else 0.0)


# -- model selection and breakdowns --------------------------------------------------


def model_selection_score(
    ndcg_purchase: float, ndcg_click: float, r_p: float = 1.0, r_c: float = 0.2
) -> float:
    """Reward-weighted combination r_p * ndcg_purchase + r_c * ndcg_click."""
    return r_p * ndcg_purchase + r_c * ndcg_click


def bucket_label(count: int, edges=DEFAULT_BUCKET_EDGES, max_count: int = 20) -> str:
    """Label of the action-count bucket containing ``count``."""
    if count < 1:
        raise ValueError("action counts must be >= 1")
    lower = 1
    for edge in edges:
        if count <= edge:
            return f"{lower}-{edge}"
        lower = edge + 1
    return f"{lower}-{max(max_count, lower)}"


def breakdown_report(
    per_sequence_metrics,
    action_counts,
    edges=DEFAULT_BUCKET_EDGES,
    max_count: int = 20,
) -> MetricsReport:
    """Bucket per-sequence metric values by each sequence's action count.

    Buckets are the ranges [1, e1], [e1+1, e2], ..., [last+1, max_count];
    counts beyond max_count fall into the final bucket. Empty buckets are
    reported with count 0 and no mean.
    """
    values = np.asarray(list(per_sequence_metrics), dtype=float)
    counts = np.asarray(list(action_counts), dtype=np.int64)
    if len(values) != len(counts):
        raise ValueError("metrics and action counts must align")
    labels = [bucket_label(int(c), edges, max_count) for c in counts]
    all_labels = []
    lower = 1
    for edge in edges:
        all_labels.append(f"{lower}-{edge}")
        lower = edge + 1
    all_labels.append(f"{lower}-{max(max_count, lower)}")
    breakdown = {}
    for label in all_labels:
        mask = np.array([lab == label for lab in labels], dtype=bool)
        breakdown[label] = summarize(values[mask])
    return MetricsReport(metrics={"ndcg_overall": summarize(values)}, breakdown=breakdown)
