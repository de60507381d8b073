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
    """Contexts padded to a rectangle; weights are pre-normalized per row."""

    indices: np.ndarray  # (B, T) int64, zero-padded
    weights: np.ndarray  # (B, T) float64, rows sum to 1 (or 0 if empty)
    lengths: np.ndarray  # (B,) int64


@dataclass
class EncodeCache:
    """Forward intermediates needed by the backward pass."""

    batch: PaddedBatch
    pool: np.ndarray  # (B, d)
    state: np.ndarray  # (B, d)


def pad_contexts(contexts, recency: float) -> PaddedBatch:
    """Pad ragged contexts and attach normalized recency weights.

    ``contexts`` is a list of item sequences or a RaggedContexts view; a
    view is gathered in one step.
    """
    ragged = isinstance(contexts, RaggedContexts)
    if ragged:
        lengths = contexts.lengths
    else:
        lengths = np.array([len(c) for c in contexts], dtype=np.int64)
    t_max = max(1, int(lengths.max(initial=0)))
    positions = np.arange(t_max)
    column = lengths[:, None]
    mask = positions < column
    exponent = np.where(mask, column - 1 - positions, 0)
    weights = np.where(mask, (float(recency) ** positions)[exponent], 0.0)
    norm = weights.sum(axis=1, keepdims=True)
    np.divide(weights, norm, out=weights, where=norm > 0)
    if ragged:
        cells = contexts.starts[:, None] + positions
        indices = np.where(mask, contexts.items.take(cells, mode="clip"), 0)
    else:
        indices = np.zeros((len(contexts), t_max), dtype=np.int64)
        for i, ctx in enumerate(contexts):
            if len(ctx):
                indices[i, : len(ctx)] = ctx
    return PaddedBatch(indices=indices, weights=weights, lengths=lengths)


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


def encode(params: dict, batch: PaddedBatch) -> EncodeCache:
    """Forward pass over a padded batch."""
    catalog = params["item_embeddings"].shape[0]
    if batch.indices.size and (
        batch.indices.min() < 0 or batch.indices.max() >= catalog
    ):
        raise ValueError(f"context item out of range [0, {catalog})")
    emb = params["item_embeddings"][batch.indices]  # (B, T, d)
    pool = np.einsum("btd,bt->bd", emb, batch.weights)
    pre = pool @ params["W"].T + params["b"]
    state = np.tanh(pre)
    return EncodeCache(batch=batch, pool=pool, state=state)


def encode_backward(params: dict, cache: EncodeCache, dstate: np.ndarray, grads: dict) -> None:
    """Accumulate encoder gradients into ``grads`` given dLoss/dstate.

    The embedding gradient is one ``np.bincount`` over the filled cells only.
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
    rows = np.nonzero(filled)[0]
    catalog, d = params["item_embeddings"].shape
    terms = np.empty((catalog + rows.size, d))
    terms[:catalog] = grads.get("item_embeddings", 0.0)
    np.multiply(dpool[rows], batch.weights[filled][:, None], out=terms[catalog:])
    bins = np.concatenate([np.arange(catalog), batch.indices[filled]])
    flat = (bins[:, None] * d + np.arange(d)).ravel()
    grads["item_embeddings"] = np.bincount(
        flat, weights=terms.ravel(), minlength=catalog * d
    ).reshape(catalog, d)


class Adam:
    """Adam with bias correction; operates in-place on a param dict."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict) -> None:
        for g in grads.values():
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError("non-finite gradient")
        self.t += 1
        for name, g in grads.items():
            if name not in self._m:
                self._m[name] = np.zeros_like(params[name])
                self._v[name] = np.zeros_like(params[name])
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g**2
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def adam_step(
    params: dict,
    gradients: dict,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    optimizer: Adam | None = None,
) -> dict:
    """One bias-corrected Adam update in place; returns the params.

    Pass the same ``optimizer`` across calls to carry moment state; omitting
    it performs a cold single step with the given hyperparameters.
    """
    if optimizer is None:
        optimizer = Adam(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    optimizer.step(params, gradients)
    return params
