"""Training objectives: weighted next-item cross-entropy plus optional TD term.

Every objective minimizes

    L = -(1/B) * sum_i w_i * log pi(a_i | x_i)  +  lambda * L_TD

where the per-example weights w_i are recomputed from the current model
before each gradient step and then treated as constants under
differentiation (a one-step stop-gradient), and L_TD is a squared
temporal-difference error on the action-value head with a double estimator
(online argmax, target network value).

Weight choices by kind:
  ce         1
  reward_ce  r_i                               (lambda fixed at 0)
  pg         discounted reward-to-go G_i
  ips_ce     min(pi(a_i|x_i)/mu(a_i|x_i), clip) * r_i
  ips_pg     min(pi(a_i|x_i)/mu(a_i|x_i), clip) * G_i
  sqn        1                                  (signal arrives via the TD term)
  sac        Q(x_i, a_i) from the value head
  lpi        exp(A(x_i, a_i) / beta) clamped to [0, max_policy_weight], with
             A(x, a) = Q(x, a) - sum_a' mu(a'|x) Q(x, a')

The two-phase API (prepare_step / evaluate_prepared) exposes the stop
gradient explicitly; composite_loss runs both for any kind in one call, and
td_q_loss the TD term alone.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .data import ExampleColumns, RaggedContexts, TrainingExample, discounted_returns
from .encoder import EncodeCache, pad_contexts
from .estimators import SupportViolationError
from .policy import SequenceModel, Workspace, log_softmax, softmax

OBJECTIVE_KINDS = ("ce", "reward_ce", "lpi", "ips_ce", "pg", "ips_pg", "sqn", "sac")
TD_KINDS = frozenset({"sqn", "sac", "lpi"})
RATIO_KINDS = frozenset({"ips_ce", "ips_pg"})
BEHAVIOR_KINDS = frozenset({"lpi", "ips_ce", "ips_pg"})

DEFAULT_WEIGHT_CAP = 1e4
DEFAULT_CLIP = 30.0


@dataclass(frozen=True)
class ObjectiveConfig:
    """Objective kind and its constants.

    td_weight (lambda) scales the TD term and must be zero for kinds without
    one; discount (gamma) drives both TD targets and reward-to-go.
    """

    kind: str
    beta: float = 1.0
    td_weight: float = 0.0
    discount: float = 0.0
    clip: float = DEFAULT_CLIP
    max_policy_weight: float = DEFAULT_WEIGHT_CAP
    target_refresh: int = 500

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        if self.kind not in TD_KINDS and self.td_weight != 0.0:
            raise ValueError(f"objective {self.kind!r} has no TD term; td_weight must be 0")
        if self.td_weight < 0:
            raise ValueError("td_weight must be non-negative")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if self.kind == "lpi" and self.beta <= 0:
            raise ValueError("lpi requires beta > 0")
        if self.clip <= 0 or self.max_policy_weight <= 0:
            raise ValueError("clip and max_policy_weight must be positive")
        if self.target_refresh < 1:
            raise ValueError("target_refresh must be >= 1")


def _check_consecutive(examples: list[TrainingExample]) -> None:
    positions = [ex.position for ex in examples]
    if any(b != a + 1 for a, b in zip(positions, positions[1:])):
        raise ValueError(
            f"sequence {examples[0].sequence_id!r}: example positions {positions} must be "
            "ordered and consecutive, one example per position"
        )


def reward_to_go(examples: list[TrainingExample], discount: float) -> np.ndarray:
    """G_t = sum_{s >= t} discount^(s-t) r_s for one sequence's examples, by position.

    The examples must be ordered by position, one per position, with no gap.
    """
    _check_consecutive(examples)
    return discounted_returns([ex.reward for ex in examples], [len(examples)], discount)


def attach_reward_to_go(examples: list[TrainingExample], discount: float) -> np.ndarray:
    """Per-example reward-to-go computed within each source sequence.

    Each sequence's examples must cover consecutive positions, one example
    per position, as the expansion output does before any loss-window
    filtering; a gap or a repeated position is rejected. The run need not
    reach the sequence's end.
    """
    by_sequence: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        by_sequence.setdefault(ex.sequence_id, []).append(i)
    groups = [sorted(ix, key=lambda i: examples[i].position) for ix in by_sequence.values()]
    for group in groups:
        _check_consecutive([examples[i] for i in group])
    order = [i for group in groups for i in group]
    out = np.zeros(len(examples))
    out[order] = discounted_returns(
        [examples[i].reward for i in order], [len(g) for g in groups], discount
    )
    return out


def build_batch(
    examples: Iterable[TrainingExample] | ExampleColumns,
    reward_to_go: np.ndarray | None = None,
    recency: float | None = None,
    rows: np.ndarray | None = None,
) -> ExampleColumns:
    """The batch ``examples[rows]`` as ExampleColumns (default: every row).

    ``examples`` is an ExampleColumns, or an iterable of TrainingExample
    turned into one first; the batch's contexts are views into the columns'
    items. ``reward_to_go`` must align with the batch; it defaults to the
    columns' own reward-to-go, which for a list is each example's reward.
    ``recency`` is accepted and not read: a step pads what it reads itself.
    """
    examples = ExampleColumns.of(examples)
    rows = np.arange(len(examples)) if rows is None else np.asarray(rows, dtype=np.int64)
    if not len(rows):
        raise ValueError("batch must be non-empty")
    batch = examples[rows]
    if reward_to_go is not None:
        if len(reward_to_go) != len(rows):
            raise ValueError(
                f"reward_to_go has {len(reward_to_go)} entries for a batch of {len(rows)}"
            )
        batch = replace(batch, reward_to_go=np.array(reward_to_go, dtype=float))
    return batch


def _behavior_probs(
    logging_policy, contexts: RaggedContexts, padded, catalog: int, out=None, scratch=None
) -> np.ndarray:
    """(n, catalog) action probabilities of ``contexts`` under mu_hat: its one reader.

    ``logging_policy`` is a SequenceModel, scored on ``padded`` (the contexts
    padded at any recency) and formed in ``out``, or a callable mapping a
    sequence of contexts to that array, returned as it is. Another shape is
    rejected, a model's before it is scored.
    """
    n = len(contexts)
    if isinstance(logging_policy, SequenceModel):
        probs, shape = None, (n, logging_policy.config.catalog_size)
    else:
        probs = np.asarray(logging_policy(contexts), dtype=float)
        shape = probs.shape
    if shape != (n, catalog):
        raise ValueError(
            f"behavior estimate gives probabilities of shape {shape} for "
            f"{n} contexts over a catalog of {catalog}"
        )
    if probs is None:
        logits = logging_policy.policy_logits_from(logging_policy.encode(padded), out=out)
        probs = softmax(logits, out=logits, scratch=scratch)
    return probs


# -- per-step constants (the stop-gradient side) --------------------------------


def _forward(
    model: SequenceModel, padded, out=None, scratch=None
) -> tuple[EncodeCache, np.ndarray]:
    """The model's encode of padded contexts and its policy log-probabilities.

    The log-probabilities are formed in ``out``, their exps in ``scratch``
    (default: new arrays).
    """
    cache = model.encode(padded)
    logits = model.policy_logits_from(cache, out=out)
    return cache, log_softmax(logits, out=logits, scratch=scratch)


@dataclass
class PreparedWeights:
    """Constants for one gradient step: policy weights and TD targets.

    ``forward`` is the model's forward on the contexts, run for every kind
    (see _forward); it is valid only for the parameters prepare_step saw.
    Its log-probabilities and ``scratch``, the step's exps array, which
    evaluate_prepared fills with the logit gradient, live in the step's
    workspace and stay valid only until its next use (the next prepare_step).
    """

    policy_weights: np.ndarray
    td_targets: np.ndarray | None = None
    forward: tuple[EncodeCache, np.ndarray] | None = None
    scratch: np.ndarray | None = None


def _advantages(
    model: SequenceModel, cache: EncodeCache, behavior: np.ndarray, actions: np.ndarray, out=None
) -> np.ndarray:
    """Per row, A(x, a) = Q(x, a) - sum_a' mu_hat(a'|x) Q(x, a') from the encoded contexts.

    The baseline's product is formed in the Q array, ``out`` or one allocated
    here; ``behavior`` may be a caller's array and is only read.
    """
    q = model.q_values_from(cache, out=out)
    taken = q[np.arange(len(actions)), actions]
    q *= behavior
    return taken - q.sum(axis=-1)


def advantage_from_q(model: SequenceModel, logging_policy, context, action: int) -> float:
    """A(x, a) = Q(x, a) - sum_a' mu_hat(a'|x) Q(x, a') from the value head.

    The Q head is read, not trained, through this quantity: callers treat the
    result as a constant during differentiation.
    """
    catalog = model.config.catalog_size
    if not 0 <= action < catalog:
        raise ValueError(f"action {action} outside [0, {catalog})")
    contexts = RaggedContexts.of([tuple(context)])
    padded = model.as_batch(contexts)
    mu = _behavior_probs(logging_policy, contexts, padded, catalog)
    return float(_advantages(model, model.encode(padded), mu, np.array([action]))[0])


def lpi_weight(advantage, beta: float, cap: float = DEFAULT_WEIGHT_CAP):
    """exp(advantage / beta) clamped to [0, cap]; elementwise over an array of advantages."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    with np.errstate(over="ignore"):
        weights = np.clip(np.exp(np.asarray(advantage, dtype=float) / beta), 0.0, cap)
    return weights if weights.ndim else float(weights)


def prepare_step(
    model: SequenceModel,
    batch: ExampleColumns,
    config: ObjectiveConfig,
    logging_policy=None,
    target_model: SequenceModel | None = None,
    workspace: Workspace | None = None,
) -> PreparedWeights:
    """Compute the step's constants from the current model state.

    ``logging_policy`` is the estimated logging policy, a SequenceModel or a
    callable mapping a sequence of contexts to an (n, catalog) action
    probability array. Kinds in BEHAVIOR_KINDS require it and score it on
    this batch; the others never read it. ``target_model`` supplies TD target
    values when td_weight > 0. The contexts are padded once at the model's
    recency, and the next contexts once for the TD targets; mu_hat and the
    target read the same batches, re-weighted at their own recency.
    An action outside the model's catalog is rejected, naming its row.

    The step's (n, catalog) arrays are taken from ``workspace`` (default:
    one held for this step): mu_hat's probabilities, the model's
    log-probabilities, Q (for the contexts, then for the next contexts) and
    the exps' scratch, which evaluate_prepared later fills with the logit
    gradient.
    """
    n, catalog, recency = len(batch), model.config.catalog_size, model.config.recency
    bad = np.flatnonzero((batch.actions < 0) | (batch.actions >= catalog))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"batch row {i}: action {batch.actions[i]} outside [0, {catalog})")
    rows = np.arange(n)
    mu_out, log_probs_out, q_out, scratch = (workspace or Workspace(catalog)).take(n, 4)
    padded = pad_contexts(batch.contexts, recency)

    if config.kind in BEHAVIOR_KINDS:
        if logging_policy is None:
            raise ValueError(f"objective {config.kind!r} needs a behavior policy estimate")
        behavior = _behavior_probs(logging_policy, batch.contexts, padded, catalog, mu_out, scratch)
    else:
        behavior = None

    cache, log_probs = _forward(model, padded, log_probs_out, scratch)

    if config.kind in ("ce", "sqn"):
        weights = np.ones(n)
    elif config.kind == "reward_ce":
        if np.any(batch.rewards < 0):
            raise ValueError("reward-weighted cross-entropy requires non-negative rewards")
        weights = batch.rewards.copy()
    elif config.kind == "pg":
        weights = batch.reward_to_go.copy()
    elif config.kind in RATIO_KINDS:
        mu = behavior[rows, batch.actions]
        bad = np.flatnonzero(mu <= 0)
        if bad.size:
            i = int(bad[0])
            raise SupportViolationError(
                "behavior estimate assigns zero probability to logged action "
                f"{int(batch.actions[i])} (batch row {i})"
            )
        ratios = np.minimum(np.exp(log_probs[rows, batch.actions]) / mu, config.clip)
        base = batch.rewards if config.kind == "ips_ce" else batch.reward_to_go
        weights = ratios * base
    elif config.kind == "sac":
        weights = model.q_values_at(cache, batch.actions)
    elif config.kind == "lpi":
        advantages = _advantages(model, cache, behavior, batch.actions, q_out)
        weights = lpi_weight(advantages, config.beta, config.max_policy_weight)
    else:  # pragma: no cover - guarded by ObjectiveConfig
        raise AssertionError(config.kind)

    td_targets = None
    if config.td_weight > 0:
        if target_model is None:
            raise ValueError("td_weight > 0 requires a target model")
        following = pad_contexts(batch.next_contexts, recency)
        best_next = model.q_values_from(model.encode(following), out=q_out).argmax(axis=-1)
        bootstrap = target_model.q_values_at(target_model.encode(following), best_next)
        td_targets = batch.rewards + np.where(
            batch.terminals, 0.0, config.discount * bootstrap
        )
    return PreparedWeights(weights, td_targets, (cache, log_probs), scratch)


# -- the differentiable side -----------------------------------------------------


@dataclass
class LossBatch:
    """A loss evaluation: scalar value, its terms, weights, and gradients."""

    loss: float
    policy_term: float
    td_term: float
    weights: np.ndarray
    gradients: dict[str, np.ndarray]


def evaluate_prepared(
    model: SequenceModel,
    batch: ExampleColumns,
    config: ObjectiveConfig,
    prepared: PreparedWeights,
    compute_grads: bool = True,
    forward: tuple[EncodeCache, np.ndarray] | None = None,
) -> LossBatch:
    """Evaluate L = -(1/B) sum w_i log pi(a_i|x_i) + lambda * L_TD.

    ``prepared`` holds the step constants; they are not differentiated, so
    this function is an ordinary differentiable loss of the model parameters
    (finite differences against its gradients agree).

    ``forward`` is the model's forward on the batch's contexts, reused
    instead of running it again; pass ``prepared.forward`` only while the
    parameters are the ones prepare_step saw. Without it the forward runs
    fresh, so the loss follows the current parameters. The logit gradient
    is formed in ``prepared.scratch``, which the step no longer reads.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("batch must be non-empty")
    rows = np.arange(n)
    if forward is None:
        forward = _forward(model, pad_contexts(batch.contexts, model.config.recency))
    cache, log_probs = forward
    weights = prepared.policy_weights
    policy_term = float(-(weights * log_probs[rows, batch.actions]).mean())

    dlogits = None
    dq_at = None
    if compute_grads:
        dlogits = np.exp(log_probs, out=prepared.scratch)
        dlogits *= weights[:, None]
        dlogits[rows, batch.actions] -= weights
        dlogits /= n

    td_term = 0.0
    if config.td_weight > 0:
        if prepared.td_targets is None:
            raise ValueError("prepared step lacks TD targets")
        residual = model.q_values_at(cache, batch.actions) - prepared.td_targets
        td_term = float((residual**2).mean())
        if compute_grads:
            dq_at = (batch.actions, config.td_weight * 2.0 * residual / n)

    loss = policy_term + config.td_weight * td_term
    grads = model.backward(cache, dlogits, dq_at) if compute_grads else {}
    return LossBatch(
        loss=loss,
        policy_term=policy_term,
        td_term=td_term,
        weights=weights,
        gradients=grads,
    )


def composite_loss(
    model: SequenceModel,
    batch: ExampleColumns,
    config: ObjectiveConfig,
    logging_policy=None,
    target_model: SequenceModel | None = None,
    compute_grads: bool = True,
) -> LossBatch:
    """One gradient step's loss for any objective kind: the package's one-shot loss.

    Recomputes the stop-gradient constants (weights, TD targets) from the
    current model, then evaluates the differentiable composite.
    """
    prepared = prepare_step(model, batch, config, logging_policy, target_model)
    return evaluate_prepared(
        model, batch, config, prepared, compute_grads, forward=prepared.forward
    )


def td_q_loss(
    model: SequenceModel,
    target_model: SequenceModel,
    batch: ExampleColumns,
    discount: float,
    compute_grads: bool = True,
) -> LossBatch:
    """Squared one-step TD error of the Q head with double action selection.

    Bootstrap actions come from the online model, their values from the
    frozen target model; targets are constants under differentiation. The
    returned weights are identically zero (no cross-entropy term).
    """
    config = ObjectiveConfig(kind="sqn", td_weight=1.0, discount=discount)
    prepared = prepare_step(model, batch, config, target_model=target_model)
    prepared.policy_weights = np.zeros(len(batch))
    return evaluate_prepared(
        model, batch, config, prepared, compute_grads, forward=prepared.forward
    )
