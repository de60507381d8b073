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
gradient explicitly; the named losses below are one-shot wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import TrainingExample
from .encoder import PaddedBatch, pad_contexts
from .estimators import SupportViolationError
from .policy import SequenceModel, log_softmax, softmax

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


@dataclass
class ExampleBatch:
    """Vectorized view of training examples with cached padding."""

    contexts: list[tuple[int, ...]]
    actions: np.ndarray
    rewards: np.ndarray
    next_contexts: list[tuple[int, ...]]
    terminals: np.ndarray
    reward_to_go: np.ndarray
    _padding: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.actions)

    def pad(self, recency: float) -> tuple[PaddedBatch, PaddedBatch]:
        """(contexts, next contexts) padded with ``recency``; built once per recency."""
        if recency not in self._padding:
            self._padding[recency] = (
                pad_contexts(self.contexts, recency),
                pad_contexts(self.next_contexts, recency),
            )
        return self._padding[recency]


def discounted_reward_to_go(rewards: np.ndarray, discount: float) -> np.ndarray:
    """G_t = sum_{s >= t} discount^(s-t) r_s over one sequence's rewards."""
    out = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + discount * acc
        out[t] = acc
    return out


def reward_to_go(examples: list[TrainingExample], discount: float) -> np.ndarray:
    """Reward-to-go for one sequence's examples, ordered by position."""
    positions = [ex.position for ex in examples]
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError("examples must be ordered by position within one sequence")
    return discounted_reward_to_go(np.array([ex.reward for ex in examples]), discount)


def attach_reward_to_go(examples: list[TrainingExample], discount: float) -> np.ndarray:
    """Per-example reward-to-go computed within each source sequence.

    Examples must include every position of each sequence they mention (the
    expansion output, before any loss-window filtering).
    """
    by_sequence: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        by_sequence.setdefault(ex.sequence_id, []).append(i)
    out = np.zeros(len(examples))
    for indices in by_sequence.values():
        indices.sort(key=lambda i: examples[i].position)
        rewards = np.array([examples[i].reward for i in indices])
        out[indices] = discounted_reward_to_go(rewards, discount)
    return out


def build_batch(
    examples: list[TrainingExample],
    reward_to_go: np.ndarray | None = None,
    recency: float | None = None,
) -> ExampleBatch:
    """Collate examples; pass reward_to_go aligned with ``examples`` if known."""
    if not examples:
        raise ValueError("batch must be non-empty")
    if reward_to_go is None:
        reward_to_go = np.array([ex.reward for ex in examples])
    batch = ExampleBatch(
        contexts=[ex.context for ex in examples],
        actions=np.array([ex.action for ex in examples], dtype=np.int64),
        rewards=np.array([ex.reward for ex in examples]),
        next_contexts=[ex.next_context for ex in examples],
        terminals=np.array([ex.terminal for ex in examples], dtype=bool),
        reward_to_go=np.asarray(reward_to_go, dtype=float),
    )
    if recency is not None:
        batch.pad(recency)
    return batch


def _as_batch(batch, discount: float = 0.0, need_rtg: bool = False) -> ExampleBatch:
    if isinstance(batch, ExampleBatch):
        return batch
    examples = list(batch)
    rtg = attach_reward_to_go(examples, discount) if need_rtg else None
    return build_batch(examples, reward_to_go=rtg)


def _behavior_probs(logging_policy, batch: ExampleBatch) -> np.ndarray:
    """(n, catalog) action probabilities of the batch's contexts under mu_hat.

    ``logging_policy`` is a SequenceModel, scored on the batch padded with its
    own recency (cached on the batch), or a callable mapping a list of
    contexts to that array.
    """
    if isinstance(logging_policy, SequenceModel):
        return logging_policy.probs(batch.pad(logging_policy.config.recency)[0])
    return np.asarray(logging_policy(batch.contexts), dtype=float)


# -- per-step constants (the stop-gradient side) --------------------------------


@dataclass
class PreparedWeights:
    """Constants for one gradient step: policy weights and TD targets."""

    policy_weights: np.ndarray
    td_targets: np.ndarray | None = None


def advantage_from_q(model: SequenceModel, logging_policy, context, action: int) -> float:
    """A(x, a) = Q(x, a) - sum_a' mu_hat(a'|x) Q(x, a') from the value head.

    The Q head is read, not trained, through this quantity: callers treat the
    result as a constant during differentiation.
    """
    context = tuple(context)
    example = TrainingExample(
        context=context, action=action, reward=0.0, next_context=context + (action,),
        terminal=True, in_loss_window=True, event="", sequence_id="", position=0,
    )
    q = np.asarray(model.q_values([context])[0])
    mu = _behavior_probs(logging_policy, build_batch([example]))[0]
    return float(q[action] - mu @ q)


def lpi_weight(advantage: float, beta: float, cap: float = DEFAULT_WEIGHT_CAP) -> float:
    """exp(advantage / beta) clamped to [0, cap]."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    with np.errstate(over="ignore"):
        raw = np.exp(advantage / beta)
    return float(np.clip(raw, 0.0, cap))


def prepare_step(
    model: SequenceModel,
    batch: ExampleBatch,
    config: ObjectiveConfig,
    logging_policy=None,
    target_model: SequenceModel | None = None,
) -> PreparedWeights:
    """Compute the step's constants from the current model state.

    ``logging_policy`` is the estimated logging policy, a SequenceModel or a
    callable mapping a list of contexts to an (n, catalog) action probability
    array. Kinds in BEHAVIOR_KINDS require it and score it on this batch;
    the others never read it. ``target_model`` supplies TD target values
    when td_weight > 0.
    """
    padded, next_padded = batch.pad(model.config.recency)
    n = len(batch)
    rows = np.arange(n)

    if config.kind in BEHAVIOR_KINDS:
        if logging_policy is None:
            raise ValueError(f"objective {config.kind!r} needs a behavior policy estimate")
        behavior = _behavior_probs(logging_policy, batch)
    else:
        behavior = None

    if config.kind in ("ce", "sqn"):
        weights = np.ones(n)
    elif config.kind == "reward_ce":
        if np.any(batch.rewards < 0):
            raise ValueError("reward-weighted cross-entropy requires non-negative rewards")
        weights = batch.rewards.copy()
    elif config.kind == "pg":
        weights = batch.reward_to_go.copy()
    elif config.kind in RATIO_KINDS:
        probs = softmax(model.policy_logits_from(model.encode(padded)))
        mu = behavior[rows, batch.actions]
        bad = np.flatnonzero(mu <= 0)
        if bad.size:
            i = int(bad[0])
            raise SupportViolationError(
                "behavior estimate assigns zero probability to logged action "
                f"{int(batch.actions[i])} (batch row {i})"
            )
        ratios = np.minimum(probs[rows, batch.actions] / mu, config.clip)
        base = batch.rewards if config.kind == "ips_ce" else batch.reward_to_go
        weights = ratios * base
    elif config.kind == "sac":
        q = model.q_values_from(model.encode(padded))
        weights = q[rows, batch.actions]
    elif config.kind == "lpi":
        q = model.q_values_from(model.encode(padded))
        baseline = (behavior * q).sum(axis=-1)
        advantage = q[rows, batch.actions] - baseline
        with np.errstate(over="ignore"):
            weights = np.clip(
                np.exp(advantage / config.beta), 0.0, config.max_policy_weight
            )
    else:  # pragma: no cover - guarded by ObjectiveConfig
        raise AssertionError(config.kind)

    td_targets = None
    if config.td_weight > 0:
        if target_model is None:
            raise ValueError("td_weight > 0 requires a target model")
        q_next_online = model.q_values_from(model.encode(next_padded))
        best_next = q_next_online.argmax(axis=-1)
        q_next_target = target_model.q_values_from(
            target_model.encode(batch.pad(target_model.config.recency)[1])
        )
        bootstrap = q_next_target[rows, best_next]
        td_targets = batch.rewards + np.where(
            batch.terminals, 0.0, config.discount * bootstrap
        )
    return PreparedWeights(policy_weights=weights, td_targets=td_targets)


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
    batch: ExampleBatch,
    config: ObjectiveConfig,
    prepared: PreparedWeights,
    compute_grads: bool = True,
) -> LossBatch:
    """Evaluate L = -(1/B) sum w_i log pi(a_i|x_i) + lambda * L_TD.

    ``prepared`` holds the step constants; they are not differentiated, so
    this function is an ordinary differentiable loss of the model parameters
    (finite differences against its gradients agree).
    """
    n = len(batch)
    if n == 0:
        raise ValueError("batch must be non-empty")
    rows = np.arange(n)
    cache = model.encode(batch.pad(model.config.recency)[0])
    logits = model.policy_logits_from(cache)
    log_probs = log_softmax(logits)
    weights = prepared.policy_weights
    policy_term = float(-(weights * log_probs[rows, batch.actions]).mean())

    dlogits = None
    dq = None
    if compute_grads:
        probs = np.exp(log_probs)
        dlogits = probs * weights[:, None]
        dlogits[rows, batch.actions] -= weights
        dlogits /= n

    td_term = 0.0
    if config.td_weight > 0:
        if prepared.td_targets is None:
            raise ValueError("prepared step lacks TD targets")
        q = model.q_values_from(cache)
        residual = q[rows, batch.actions] - prepared.td_targets
        td_term = float((residual**2).mean())
        if compute_grads:
            dq = np.zeros_like(q)
            dq[rows, batch.actions] = config.td_weight * 2.0 * residual / n

    loss = policy_term + config.td_weight * td_term
    grads = model.backward(cache, dlogits, dq) if compute_grads else {}
    return LossBatch(
        loss=loss,
        policy_term=policy_term,
        td_term=td_term,
        weights=weights,
        gradients=grads,
    )


def composite_loss(
    model: SequenceModel,
    batch,
    config: ObjectiveConfig,
    logging_policy=None,
    target_model: SequenceModel | None = None,
    compute_grads: bool = True,
) -> LossBatch:
    """One gradient step's loss for any objective kind.

    Recomputes the stop-gradient constants (weights, TD targets) from the
    current model, then evaluates the differentiable composite. ``batch`` may
    be an ExampleBatch or a list of examples.
    """
    batch = _as_batch(batch, config.discount, need_rtg=config.kind in ("pg", "ips_pg"))
    prepared = prepare_step(model, batch, config, logging_policy, target_model)
    return evaluate_prepared(model, batch, config, prepared, compute_grads)


# -- named losses ----------------------------------------------------------------


def ce_loss(model: SequenceModel, batch, compute_grads: bool = True) -> LossBatch:
    """Unweighted next-item cross-entropy: -(1/n) sum log pi(a_i|x_i)."""
    return composite_loss(
        model, batch, ObjectiveConfig(kind="ce"), compute_grads=compute_grads
    )


def reward_weighted_ce(model: SequenceModel, batch, compute_grads: bool = True) -> LossBatch:
    """Reward-weighted cross-entropy: -(1/n) sum r_i log pi(a_i|x_i); r >= 0."""
    return composite_loss(
        model, batch, ObjectiveConfig(kind="reward_ce"), compute_grads=compute_grads
    )


def lpi_loss(
    model: SequenceModel,
    logging_policy,
    batch,
    beta: float,
    cap: float = DEFAULT_WEIGHT_CAP,
    compute_grads: bool = True,
) -> LossBatch:
    """Exponentiated-advantage-weighted cross-entropy with stop-gradient weights."""
    config = ObjectiveConfig(kind="lpi", beta=beta, max_policy_weight=cap)
    return composite_loss(
        model, batch, config, logging_policy=logging_policy, compute_grads=compute_grads
    )


def ips_ce_loss(
    model: SequenceModel,
    logging_policy,
    batch,
    clip: float = DEFAULT_CLIP,
    compute_grads: bool = True,
) -> LossBatch:
    """Importance-weighted reward cross-entropy with one-step ratio correction."""
    config = ObjectiveConfig(kind="ips_ce", clip=clip)
    return composite_loss(
        model, batch, config, logging_policy=logging_policy, compute_grads=compute_grads
    )


def td_q_loss(
    model: SequenceModel,
    target_model: SequenceModel,
    batch,
    discount: float,
    compute_grads: bool = True,
) -> LossBatch:
    """Squared one-step TD error of the Q head with double action selection.

    Bootstrap actions come from the online model, their values from the
    frozen target model; targets are constants under differentiation. The
    returned weights are identically zero (no cross-entropy term).
    """
    config = ObjectiveConfig(kind="sqn", td_weight=1.0, discount=discount)
    batch = _as_batch(batch)
    prepared = prepare_step(model, batch, config, target_model=target_model)
    prepared.policy_weights = np.zeros(len(batch))
    return evaluate_prepared(model, batch, config, prepared, compute_grads)
