"""Context encoder: recency-weighted embedding pooling with a tanh projection.

A context (item prefix) is encoded as

    pool  = sum_t rho^(T-1-t) * E[a_t] / sum_t rho^(T-1-t)
    state = tanh(W @ pool + b)

so recent items dominate for rho < 1. The backward pass is written by hand;
the only trainable pieces are the embedding table, W, and b. An empty context
pools to the zero vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import RaggedContexts


class TrainingDivergedError(RuntimeError):
    """Optimization produced non-finite gradients."""


@dataclass(frozen=True)
class EncoderConfig:
    """Shapes and constants of the sequence model."""

    catalog_size: int
    dim: int = 64
    recency: float = 0.8
    tie_weights: bool = True

    def __post_init__(self):
        if self.catalog_size < 1 or self.dim < 1:
            raise ValueError("catalog_size and dim must be positive")
        if not 0.0 < self.recency <= 1.0:
            raise ValueError("recency must lie in (0, 1]")


@dataclass
class PaddedBatch:
    """Contexts padded to a rectangle; weights are pre-normalized per row at ``recency``.

    What encoding derives from the padding alone is computed on first use
    and shared by every encode of the batch.
    """

    indices: np.ndarray  # (B, T) int64, zero-padded
    weights: np.ndarray  # (B, T) float64, rows sum to 1 (or 0 if empty)
    lengths: np.ndarray  # (B,) int64
    recency: float

    def at(self, recency: float) -> PaddedBatch:
        """This batch at ``recency``: itself, or its indices and lengths with fresh weights."""
        if recency == self.recency:
            return self
        weights, _ = _recency_weights(self.lengths, self.indices.shape[1], recency)
        return PaddedBatch(self.indices, weights, self.lengths, recency)

    @cached_property
    def item_range(self) -> tuple[int, int]:
        """The smallest and largest index, 0 (the padding) included."""
        return int(self.indices.min(initial=0)), int(self.indices.max(initial=0))

    @cached_property
    def groups(self) -> list[tuple]:
        """``(rows, width)`` pairs that cover every row once (_row_groups)."""
        return _row_groups(self.lengths, self.indices.shape[1])


@dataclass
class EncodeCache:
    """Forward intermediates needed by the backward pass."""

    batch: PaddedBatch
    pool: np.ndarray  # (B, d)
    state: np.ndarray  # (B, d)


# A batch whose widest context is at least twice this is pooled in groups
_MIN_GROUP_WIDTH = 8


def _row_groups(lengths: np.ndarray, width: int) -> list[tuple]:
    """Rows grouped by length, each group with the width that holds its rows.

    Rows are sorted by length (stably). The first group holds the rows longer
    than half of ``width`` (the batch's), each next group halves the width,
    and the last, the first narrower than twice _MIN_GROUP_WIDTH, holds every
    shorter row, empty ones included. One row, or a batch narrower than that,
    is one group, ``(slice(None), width)``.
    """
    if lengths.size < 2 or width < 2 * _MIN_GROUP_WIDTH:
        return [(slice(None), width)]
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    groups, stop = [], lengths.size
    while stop:
        half = width // 2
        start = np.searchsorted(ordered, half, side="right") if half >= _MIN_GROUP_WIDTH else 0
        if start < stop:
            groups.append((order[start:stop], width))
        stop, width = start, half
    return groups


def _recency_weights(lengths: np.ndarray, width: int, recency: float) -> tuple:
    """Normalized recency weights and the filled-cell mask, one row per length.

    With more rows than lengths (0 to ``width``), each length's row is formed once and gathered.
    """
    if lengths.size > width + 1:
        weights, mask = _recency_weights(np.arange(width + 1), width, recency)
        return weights.take(lengths, axis=0), mask.take(lengths, axis=0)
    positions = np.arange(width)
    column = lengths[:, None]
    mask = positions < column
    exponent = np.where(mask, column - 1 - positions, 0)
    weights = np.where(mask, (float(recency) ** positions)[exponent], 0.0)
    norm = weights.sum(axis=1, keepdims=True)
    np.divide(weights, norm, out=weights, where=norm > 0)
    return weights, mask


def pad_contexts(contexts, recency: float) -> PaddedBatch:
    """Pad ragged contexts and attach normalized recency weights (_recency_weights).

    ``contexts`` is a list of item sequences or a RaggedContexts view; a
    view is gathered in one step.
    """
    ragged = isinstance(contexts, RaggedContexts)
    if ragged:
        lengths = contexts.lengths
    else:
        lengths = np.array([len(c) for c in contexts], dtype=np.int64)
    t_max = max(1, int(lengths.max(initial=0)))
    weights, mask = _recency_weights(lengths, t_max, recency)
    if ragged:
        indices = contexts.items.take(contexts.starts[:, None] + np.arange(t_max), mode="clip")
        indices *= mask
    else:
        indices = np.zeros((len(contexts), t_max), dtype=np.int64)
        for i, ctx in enumerate(contexts):
            if len(ctx):
                indices[i, : len(ctx)] = ctx
    return PaddedBatch(indices=indices, weights=weights, lengths=lengths, recency=recency)


def init_params(config: EncoderConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform[-1/sqrt(d), 1/sqrt(d)] init for matrices, zeros for biases."""
    rng = np.random.default_rng(seed)
    d, c = config.dim, config.catalog_size
    scale = 1.0 / np.sqrt(d)
    params = {
        "item_embeddings": rng.uniform(-scale, scale, size=(c, d)),
        "W": rng.uniform(-scale, scale, size=(d, d)),
        "b": np.zeros(d),
        "head_b": np.zeros(c),
        "q_W": rng.uniform(-scale, scale, size=(c, d)),
        "q_b": np.zeros(c),
    }
    if not config.tie_weights:
        params["head_W"] = rng.uniform(-scale, scale, size=(c, d))
    return params


def _pool(table: np.ndarray, indices: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.einsum("btd,bt->bd", table.take(indices, axis=0), weights)


def encode(params: dict, batch: PaddedBatch) -> EncodeCache:
    """Forward pass over a padded batch.

    Each of ``batch.groups`` is pooled at its own width. ``einsum`` sums
    a row over its cells in order and a padded cell adds an exact zero, so
    the pool equals one pass over the whole rectangle bit for bit.
    """
    table = params["item_embeddings"]
    low, high = batch.item_range
    if low < 0 or high >= table.shape[0]:
        raise ValueError(f"context item out of range [0, {table.shape[0]})")
    if len(batch.groups) == 1:
        pool = _pool(table, batch.indices, batch.weights)
    else:
        pool = np.empty((batch.lengths.size, table.shape[1]))
        for rows, width in batch.groups:
            pool[rows] = _pool(table, batch.indices[rows, :width], batch.weights[rows, :width])
    pre = pool @ params["W"].T + params["b"]
    state = np.tanh(pre)
    return EncodeCache(batch=batch, pool=pool, state=state)


def encode_backward(params: dict, cache: EncodeCache, dstate: np.ndarray, grads: dict) -> None:
    """Accumulate encoder gradients into ``grads`` given dLoss/dstate.

    The embedding gradient is one ``np.bincount`` over the filled cells only,
    whose rows are each row's upstream gradient repeated over its length.
    The gradient already in ``grads`` (the head's, with tied weights) is put
    first in every bin and the cells follow in row-major order, so each entry
    is summed in the order ``np.add.at`` would use, bit for bit.
    """
    dpre = dstate * (1.0 - cache.state**2)
    grads["b"] = grads.get("b", 0.0) + dpre.sum(axis=0)
    grads["W"] = grads.get("W", 0.0) + dpre.T @ cache.pool
    dpool = dpre @ params["W"]  # (B, d)
    batch = cache.batch
    filled = np.arange(batch.indices.shape[1]) < batch.lengths[:, None]
    catalog, d = params["item_embeddings"].shape
    terms = np.empty((catalog + int(batch.lengths.sum()), d))
    terms[:catalog] = grads.get("item_embeddings", 0.0)
    np.einsum(
        "nd,n->nd", np.repeat(dpool, batch.lengths, axis=0), batch.weights[filled], out=terms[catalog:]
    )
    bins = np.concatenate([np.arange(catalog), batch.indices[filled]])
    flat = (bins[:, None] * d + np.arange(d)).ravel()
    grads["item_embeddings"] = np.bincount(
        flat, weights=terms.ravel(), minlength=catalog * d
    ).reshape(catalog, d)


class Adam:
    """Adam with bias correction; operates in-place on a param dict.

    Each parameter keeps its two moments and one scratch array of two slots,
    in which the step's terms and its bias-corrected update are formed, so a
    step allocates no parameter-sized array.
    """

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._scratch: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict) -> None:
        for g in grads.values():
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError("non-finite gradient")
        self.t += 1
        for name, g in grads.items():
            if name not in self._m:
                self._m[name] = np.zeros_like(params[name])
                self._v[name] = np.zeros_like(params[name])
                self._scratch[name] = np.empty((2,) + params[name].shape)
            m, v, (update, root) = self._m[name], self._v[name], self._scratch[name]
            m *= self.beta1
            m += np.multiply(g, 1 - self.beta1, out=update)
            v *= self.beta2
            v += np.multiply(np.square(g, out=update), 1 - self.beta2, out=update)
            # lr * m_hat / (sqrt(v_hat) + eps), each operation as written
            np.divide(m, 1 - self.beta1**self.t, out=update)
            update *= self.lr
            np.divide(v, 1 - self.beta2**self.t, out=root)
            np.sqrt(root, out=root)
            root += self.eps
            params[name] -= np.divide(update, root, out=update)
