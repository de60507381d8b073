"""Sequence policy model, closed-form tabular policies, and checkpoint IO.

The model shares one encoder between two linear heads: a policy head scoring
every catalog item (optionally weight-tied to the embedding table) and an
action-value head used by temporal-difference objectives.
"""

from __future__ import annotations

import copy
import struct

import numpy as np

from .encoder import (
    EncodeCache,
    EncoderConfig,
    PaddedBatch,
    encode,
    encode_backward,
    init_params,
    pad_contexts,
)

CHECKPOINT_MAGIC = b"LPIREC"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """File is not a model checkpoint."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint has an unsupported format version."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint arrays do not match the declared configuration."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint ends before all declared bytes."""


def log_softmax(logits: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """logits - max - log(sum(exp(logits - max))) per row.

    Formed in ``out`` (default: a new array), which may be ``logits`` itself;
    the exps go to ``scratch`` (default: a new array) of the same shape.
    """
    logits = np.asarray(logits, dtype=float)
    shifted = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    shifted -= np.log(np.exp(shifted, out=scratch).sum(axis=-1, keepdims=True))
    return shifted


def softmax(logits: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """exp(log_softmax(logits)), formed in ``out`` as :func:`log_softmax` forms it."""
    out = log_softmax(logits, out, scratch)
    return np.exp(out, out=out)


class Workspace:
    """One float64 block that (rows, catalog) scoring arrays are carved from.

    A fit, an evaluation call or a lone training step holds one and takes
    its arrays from it instead of allocating them, so its speed does not depend
    on what the allocator did before. The block grows to the largest request;
    every take reuses it, so an array is read only until the next take.
    """

    def __init__(self, catalog: int):
        self.catalog = catalog
        self._block = np.empty(0)

    def take(self, rows: int, count: int) -> list[np.ndarray]:
        """``count`` contiguous (rows, catalog) arrays with undefined contents."""
        size = rows * self.catalog
        if self._block.size < count * size:
            self._block = np.empty(count * size)
        return [
            self._block[i * size : (i + 1) * size].reshape(rows, self.catalog)
            for i in range(count)
        ]


class SequenceModel:
    """Encoder plus policy and action-value heads over a shared state."""

    def __init__(self, config: EncoderConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: EncoderConfig, seed: int) -> "SequenceModel":
        return cls(config, init_params(config, seed))

    def copy(self) -> "SequenceModel":
        return SequenceModel(self.config, copy.deepcopy(self.params))

    # -- forward -----------------------------------------------------------

    def head_matrix(self) -> np.ndarray:
        if self.config.tie_weights:
            return self.params["item_embeddings"]
        return self.params["head_W"]

    def encode(self, contexts) -> EncodeCache:
        batch = self.as_batch(contexts)
        return encode(self.params, batch)

    def as_batch(self, contexts) -> PaddedBatch:
        """``contexts`` padded at this model's recency; a padded batch is re-weighted."""
        if isinstance(contexts, PaddedBatch):
            return contexts.at(self.config.recency)
        return pad_contexts(contexts, self.config.recency)

    def policy_logits_from(self, cache: EncodeCache, out=None) -> np.ndarray:
        """(rows, catalog) policy logits, formed in ``out`` when it is given."""
        logits = np.matmul(cache.state, self.head_matrix().T, out=out)
        logits += self.params["head_b"]
        return logits

    def q_values_from(self, cache: EncodeCache, out=None) -> np.ndarray:
        """(rows, catalog) action values, formed in ``out`` when it is given."""
        q = np.matmul(cache.state, self.params["q_W"].T, out=out)
        q += self.params["q_b"]
        return q

    def q_values_at(self, cache: EncodeCache, actions: np.ndarray) -> np.ndarray:
        """Q(x_i, a_i) per row: one column of ``q_values_from`` each, gathered."""
        q_W, q_b = self.params["q_W"], self.params["q_b"]
        return np.einsum("bd,bd->b", cache.state, q_W[actions]) + q_b[actions]

    def policy_logits(self, contexts) -> np.ndarray:
        return self.policy_logits_from(self.encode(contexts))

    def log_probs(self, contexts) -> np.ndarray:
        return log_softmax(self.policy_logits(contexts))

    def probs(self, contexts) -> np.ndarray:
        return softmax(self.policy_logits(contexts))

    def q_values(self, contexts) -> np.ndarray:
        return self.q_values_from(self.encode(contexts))

    # -- backward ----------------------------------------------------------

    def backward(
        self,
        cache: EncodeCache,
        dlogits: np.ndarray | None = None,
        dq_at: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss given its derivative w.r.t. the heads.

        ``dq_at`` is (actions, values): dLoss/dQ(x_i, a_i) at the one Q column
        per row the loss read (``q_values_at``), scattered with ``np.bincount``.
        Both heads share the encoder state, so their upstream gradients are
        summed before the encoder backward pass.
        """
        grads: dict[str, np.ndarray] = {}
        dstate = np.zeros_like(cache.state)
        if dlogits is not None:
            head = self.head_matrix()
            grads["head_b"] = dlogits.sum(axis=0)
            key = "item_embeddings" if self.config.tie_weights else "head_W"
            grads[key] = dlogits.T @ cache.state
            dstate += dlogits @ head
        if dq_at is not None:
            actions, values = dq_at
            q_W = self.params["q_W"]
            catalog, d = q_W.shape
            grads["q_b"] = np.bincount(actions, weights=values, minlength=catalog)
            flat = (actions[:, None] * d + np.arange(d)).ravel()
            terms = (values[:, None] * cache.state).ravel()
            grads["q_W"] = np.bincount(
                flat, weights=terms, minlength=catalog * d
            ).reshape(catalog, d)
            dstate += values[:, None] * q_W[actions]
        encode_backward(self.params, cache, dstate, grads)
        return grads


# -- checkpoint format -----------------------------------------------------


def _expected_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    d, c = config.dim, config.catalog_size
    shapes = {
        "item_embeddings": (c, d),
        "W": (d, d),
        "b": (d,),
        "head_b": (c,),
        "q_W": (c, d),
        "q_b": (c,),
    }
    if not config.tie_weights:
        shapes["head_W"] = (c, d)
    return shapes


def save_checkpoint(model: SequenceModel, path) -> None:
    """Serialize a model: magic, version, config block, named float32 arrays.

    Arrays are written in sorted-name order so identical models produce
    byte-identical files.
    """
    cfg = model.config
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<H", CHECKPOINT_VERSION))
        fh.write(struct.pack("<IIdB", cfg.dim, cfg.catalog_size, cfg.recency, int(cfg.tie_weights)))
        names = sorted(model.params)
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            data = np.ascontiguousarray(model.params[name], dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes())


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointTruncatedError(
            f"checkpoint ended early: wanted {n} bytes, got {len(data)}"
        )
    return data


def load_checkpoint(path) -> SequenceModel:
    """Read a checkpoint back into a model (parameters promoted to float64, all finite)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}; not a model checkpoint")
        (version,) = struct.unpack("<H", _read_exact(fh, 2))
        if version != CHECKPOINT_VERSION:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )
        dim, catalog, recency, tied = struct.unpack("<IIdB", _read_exact(fh, 17))
        config = EncoderConfig(
            catalog_size=catalog, dim=dim, recency=recency, tie_weights=bool(tied)
        )
        (count,) = struct.unpack("<I", _read_exact(fh, 4))
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(ndim)
            )
            n_items = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = _read_exact(fh, 4 * n_items)
            params[name] = (
                np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
            )
        trailing = fh.read(1)
        if trailing:
            raise CheckpointError("trailing bytes after declared arrays")

    expected = _expected_shapes(config)
    if set(params) != set(expected):
        raise CheckpointShapeError(
            f"parameter names {sorted(params)} do not match expected {sorted(expected)}"
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise CheckpointShapeError(
                f"array {name!r} has shape {params[name].shape}, expected {shape}"
            )
        if not np.all(np.isfinite(params[name])):
            raise CheckpointError(f"array {name!r} holds non-finite values")
    return SequenceModel(config, params)
