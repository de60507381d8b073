"""Ranking metrics, divergences, and reports.

Ranks are 1-based: an item's rank is one plus the number of items scored
strictly higher, with ties resolved in favor of smaller item indices. The
greedy action, and AR@1 and iAR@1 read from it, have one scorer: the logits
that give :func:`training.evaluate_examples` its ranks. Reports carry (value,
count, standard_error) per metric, where the standard error is the sample
standard deviation over per-example values divided by sqrt(count).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import RaggedContexts
from .estimators import SupportViolationError
from .objectives import _behavior_probs

DEFAULT_BUCKET_EDGES = (5, 10, 15)
DEFAULT_DIVERGENCE_CAP = 50_000
_DIVERGENCE_CHUNK = 256


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
    return int(hit_rate_samples([rank], k)[0])


def ndcg_at_k(rank: int, k: int) -> float:
    """1/log2(rank + 1) if rank <= k else 0."""
    return float(ndcg_samples([rank], k)[0])


def rank_from_scores(scores: np.ndarray, target: int) -> int:
    """1 + #(strictly higher scores) + #(equal scores at smaller indices)."""
    return int(ranks_from_scores(np.asarray(scores)[None], [target])[0])


def ranks_from_scores(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """rank_from_scores per row; a target out of range or with a non-finite score is rejected."""
    scores = np.asarray(scores, dtype=float)
    targets = np.asarray(targets, dtype=np.int64)
    bad = np.flatnonzero((targets < 0) | (targets >= scores.shape[1]))
    if bad.size:
        raise ValueError(f"row {bad[0]}: target {targets[bad[0]]} outside [0, {scores.shape[1]})")
    t = scores[np.arange(len(targets)), targets]
    bad = np.flatnonzero(~np.isfinite(t))
    if bad.size:
        raise ValueError(f"row {bad[0]}: target score {t[bad[0]]} is not finite")
    at_target = t[:, None]
    ranks = 1 + np.count_nonzero(scores > at_target, axis=1).astype(np.int64)
    equal = scores == at_target
    if np.count_nonzero(equal) > len(t):  # some target ties another item
        equal &= np.arange(scores.shape[1]) < targets[:, None]
        ranks += np.count_nonzero(equal, axis=1)
    return ranks


def hit_rate_samples(ranks: np.ndarray, k: int) -> np.ndarray:
    ranks = np.asarray(ranks)
    if k < 1 or np.any(ranks < 1):
        raise ValueError("rank and k must be >= 1")
    return (ranks <= k).astype(float)


def ndcg_samples(ranks: np.ndarray, k: int) -> np.ndarray:
    return hit_rate_samples(ranks, k) / np.log2(np.asarray(ranks, dtype=float) + 1.0)


# -- divergences -------------------------------------------------------------------


def _divergences(
    p: np.ndarray,
    q: np.ndarray,
    kinds: tuple[str, ...],
    first_context: int | None = None,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """kind -> per row i, KL(p_i | q_i) ("kl") or JS(p_i, q_i) ("js"), 0 log 0 = 0.

    log p, log q and log m (m the midpoint) are taken once, each where its
    distribution is positive; without a zero entry (the usual softmax case)
    that is the plain log, and q covers p's support. KL needs that cover; a
    violation in row i names context ``first_context + i`` when it is given.
    JS never raises. Neither input is written to: log p, log q and the terms
    go to the three arrays of p's shape in ``out`` (default: new arrays).
    """
    p, q = (np.atleast_2d(np.asarray(x, dtype=float)) for x in (p, q))
    if p.shape != q.shape:
        raise ValueError(f"distributions have shapes {p.shape} and {q.shape}")
    # initial=1: an empty pair has no zero either
    positive = p.min(initial=1) > 0 and q.min(initial=1) > 0
    if "kl" in kinds and not positive:
        bad = np.argwhere((p > 0) & (q <= 0))
        if bad.size:
            row, index = (int(v) for v in bad[0])
            where = "" if first_context is None else f"context {first_context + row}: "
            raise SupportViolationError(
                f"{where}second distribution has zero mass at index {index} "
                "inside the first distribution's support"
            )
    log_p, log_q, terms = out if out is not None else (np.empty_like(p) for _ in range(3))
    for x, log_x in ((p, log_p), (q, log_q)):
        if not positive:
            log_x.fill(0.0)
        np.log(x, out=log_x, where=True if positive else x > 0)
    # one buffer holds the KL terms, then the midpoint m, then log m
    np.subtract(log_p, log_q, out=terms)
    terms *= p
    kl = terms.sum(axis=1)
    m = np.add(p, q, out=terms)
    m *= 0.5
    log_m = np.log(m, out=m, where=True if positive else m > 0)
    # the JS terms in place: log p and log q are not read again
    log_p -= log_m
    log_p *= p
    log_q -= log_m
    log_q *= q
    js = 0.5 * log_p.sum(axis=1) + 0.5 * log_q.sum(axis=1)
    return {kind: kl if kind == "kl" else js for kind in kinds}


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum p * (log p - log q) with 0 log 0 = 0; q must cover p's support."""
    return float(_divergences(p, q, ("kl",))["kl"][0])


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """(KL(p|m) + KL(q|m)) / 2 with m the midpoint; bounded by [0, ln 2]."""
    return float(_divergences(p, q, ("js",))["js"][0])


def _chunk_plan(n: int, cap: int | None, seed: int) -> tuple[int, list[tuple]]:
    """How many of n contexts the divergences cover, and their chunks as (rows, first).

    ``first`` is the position of the chunk's first row among the covered
    contexts. With more than ``cap`` contexts those are a sorted seeded
    subsample of ``cap``, whose chunks come first; the chunks of the remaining
    rows follow with ``first`` None.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"divergence cap must be >= 1, got {cap}")
    step = _DIVERGENCE_CHUNK
    if cap is None or n <= cap:
        return n, [(slice(s, s + step), s) for s in range(0, n, step)]
    keep = np.random.default_rng(seed).choice(n, size=cap, replace=False)
    keep.sort()
    rest = np.delete(np.arange(n), keep)
    return cap, [(keep[s : s + step], s) for s in range(0, cap, step)] + [
        (rest[s : s + step], None) for s in range(0, len(rest), step)
    ]


def divergence_rows(
    model,
    logging_estimate,
    contexts,
    kinds: tuple[str, ...] = ("js", "kl"),
    cap: int | None = DEFAULT_DIVERGENCE_CAP,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """kind -> per-context divergence between two policies' full distributions.

    ``model`` exposes probs(contexts) -> (n, catalog); ``logging_estimate``
    is read as every mu is (:func:`objectives._behavior_probs`), so a
    callable works and another catalog is rejected. When more than
    ``cap`` contexts are given, a seeded subsample of ``cap`` of them is used.
    Each chunk of :func:`_chunk_plan` is scored once per policy for all kinds,
    as an evaluation scores it. KL support violations name the offending
    context's position.
    """
    if set(kinds) - {"kl", "js"}:
        raise ValueError(f"divergence kinds must be kl or js, got {kinds!r}")
    contexts = RaggedContexts.of(contexts)
    if not len(contexts):
        raise ValueError("contexts must be non-empty")
    covered, chunks = _chunk_plan(len(contexts), cap, seed)
    values = {kind: np.empty(covered) for kind in kinds}
    for rows, first in chunks:
        if first is None:
            break
        chunk = contexts[rows]
        p = model.probs(chunk)
        q = _behavior_probs(logging_estimate, chunk, chunk, p.shape[1])
        for kind, chunk_values in _divergences(p, q, kinds, first_context=first).items():
            values[kind][first : first + len(chunk)] = chunk_values
    return values


def mean_divergence(
    model,
    logging_estimate,
    contexts,
    kind: str = "js",
    cap: int | None = DEFAULT_DIVERGENCE_CAP,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean and standard error of one kind of :func:`divergence_rows`."""
    rows = divergence_rows(model, logging_estimate, contexts, (kind,), cap, seed)
    summary = summarize(rows[kind])
    return summary.value, summary.stderr


# -- model selection and breakdowns --------------------------------------------------


def model_selection_score(
    ndcg_purchase: float, ndcg_click: float, r_p: float = 1.0, r_c: float = 0.2
) -> float:
    """Reward-weighted combination r_p * ndcg_purchase + r_c * ndcg_click."""
    return r_p * ndcg_purchase + r_c * ndcg_click


def _buckets(counts, edges, max_count: int) -> tuple[list[str], np.ndarray]:
    """Every bucket's label, and each count's bucket: its first edge >= it, else the last."""
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 1):
        raise ValueError("action counts must be >= 1")
    labels = []
    lower = 1
    for edge in edges:
        labels.append(f"{lower}-{edge}")
        lower = edge + 1
    labels.append(f"{lower}-{max(max_count, lower)}")
    above = counts[:, None] > np.asarray(edges, dtype=np.int64)
    return labels, np.cumprod(above, axis=1).sum(axis=1)


def bucket_label(count: int, edges=DEFAULT_BUCKET_EDGES, max_count: int = 20) -> str:
    """Label of the action-count bucket containing ``count``."""
    labels, index = _buckets([count], edges, max_count)
    return labels[index[0]]


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
    counts = list(action_counts)
    if len(values) != len(counts):
        raise ValueError("metrics and action counts must align")
    labels, index = _buckets(counts, edges, max_count)
    breakdown = {label: summarize(values[index == i]) for i, label in enumerate(labels)}
    return MetricsReport(metrics={"ndcg_overall": summarize(values)}, breakdown=breakdown)
