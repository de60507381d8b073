"""Synthetic environments and reward imputation.

Two verification aids live here: (1) small tabular bandit/MDP instances with
everything computable exactly, plus a session simulator built on one whose
hidden state is the last context item modulo the instance's context count —
so sequence policies stay exactly evaluable after projection; and (2) a
weighted matrix-factorization reward imputer for greedy-reward evaluation on
rating data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Interaction, SessionSequence, TrainingExample

EVENT_SYNTH = "synthetic"
MAX_WORLD_STATES = 64


def _check_rows_simplex(name: str, arr: np.ndarray) -> None:
    if np.any(arr < 0) or not np.allclose(arr.sum(axis=-1), 1.0, atol=1e-9):
        raise ValueError(f"{name} rows must be probability distributions")


def _check_reward_noise(reward_noise: str, rewards: np.ndarray) -> None:
    if reward_noise not in ("none", "bernoulli"):
        raise ValueError(f"unknown reward_noise {reward_noise!r}")
    if reward_noise == "bernoulli" and np.any(rewards > 1):  # instances reject rewards < 0
        raise ValueError("bernoulli noise requires rewards in [0, 1]")


def _sample_actions(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: per row, the count of cdf entries <= its draw.

    Equals ``searchsorted(side="right")``. A draw at or past a row's rounded
    total gives the last action.
    """
    return np.minimum((cdf <= draws[:, None]).sum(axis=-1), cdf.shape[-1] - 1)


@dataclass
class TabularInstance:
    """A finite contextual bandit, optionally with transitions (an MDP).

    context_probs d(x) is the context/start distribution, behavior mu(a|x)
    the logging policy, rewards r(x, a) >= 0 the expected reward. With
    ``transitions`` P(x'|x, a) present and discount in [0, 1) the instance is
    a discounted MDP.
    """

    context_probs: np.ndarray
    behavior: np.ndarray
    rewards: np.ndarray
    transitions: np.ndarray | None = None
    discount: float = 0.0

    def __post_init__(self):
        self.context_probs = np.asarray(self.context_probs, dtype=float)
        self.behavior = np.asarray(self.behavior, dtype=float)
        self.rewards = np.asarray(self.rewards, dtype=float)
        n, c = self.behavior.shape
        if self.context_probs.shape != (n,) or self.rewards.shape != (n, c):
            raise ValueError("inconsistent instance shapes")
        _check_rows_simplex("behavior", self.behavior)
        _check_rows_simplex("context_probs", self.context_probs[None, :])
        if np.any(self.rewards < 0):
            raise ValueError("rewards must be non-negative")
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if self.transitions is not None:
            self.transitions = np.asarray(self.transitions, dtype=float)
            if self.transitions.shape != (n, c, n):
                raise ValueError("transitions must have shape (n, catalog, n)")
            _check_rows_simplex("transitions", self.transitions)

    @property
    def n_contexts(self) -> int:
        return self.behavior.shape[0]

    @property
    def catalog_size(self) -> int:
        return self.behavior.shape[1]

    def to_json_dict(self) -> dict:
        out = {
            "context_probs": self.context_probs.tolist(),
            "behavior": self.behavior.tolist(),
            "rewards": self.rewards.tolist(),
            "discount": self.discount,
        }
        if self.transitions is not None:
            out["transitions"] = self.transitions.tolist()
        return out

    @classmethod
    def from_json_dict(cls, payload: dict) -> "TabularInstance":
        return cls(
            context_probs=np.array(payload["context_probs"], dtype=float),
            behavior=np.array(payload["behavior"], dtype=float),
            rewards=np.array(payload["rewards"], dtype=float),
            transitions=(
                np.array(payload["transitions"], dtype=float)
                if "transitions" in payload
                else None
            ),
            discount=float(payload.get("discount", 0.0)),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "TabularInstance":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def random_instance(
    rng: np.random.Generator,
    n_contexts: int,
    catalog_size: int,
    with_transitions: bool = False,
    discount: float = 0.0,
    concentration: float = 1.0,
) -> TabularInstance:
    """Draw a random instance: Dirichlet rows, uniform[0, 1] rewards."""
    alpha = np.full(catalog_size, concentration)
    behavior = rng.dirichlet(alpha, size=n_contexts)
    context_probs = rng.dirichlet(np.full(n_contexts, concentration))
    rewards = rng.uniform(0.0, 1.0, size=(n_contexts, catalog_size))
    transitions = None
    if with_transitions:
        transitions = rng.dirichlet(
            np.full(n_contexts, concentration), size=(n_contexts, catalog_size)
        )
    return TabularInstance(context_probs, behavior, rewards, transitions, discount)


def sample_bandit_logs(
    instance: TabularInstance,
    n: int,
    rng: np.random.Generator,
    reward_noise: str = "none",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample n logged (context, action, reward) triplets under the behavior.

    reward_noise "none" logs the expected reward; "bernoulli" logs a 0/1 draw
    with that mean (rewards must then lie in [0, 1]).
    """
    _check_reward_noise(reward_noise, instance.rewards)
    contexts = rng.choice(instance.n_contexts, size=n, p=instance.context_probs)
    cdf = np.cumsum(instance.behavior, axis=-1)
    actions = _sample_actions(cdf[contexts], rng.random(n))
    means = instance.rewards[contexts, actions]
    if reward_noise == "bernoulli":
        rewards = (rng.random(n) < means).astype(float)
    else:
        rewards = means.copy()
    return contexts, actions, rewards


# -- sequential world ---------------------------------------------------------


@dataclass
class SyntheticWorld:
    """Session simulator over a tabular instance with known ground truth.

    The instance's contexts act as latent states; a session's state is its
    last item modulo n_contexts, so item ids 0..n_contexts-1 pin their own
    state and exact evaluation of any per-state policy stays available.
    ``seed`` is the default generation seed.
    """

    instance: TabularInstance
    seed: int = 0

    def __post_init__(self):
        if self.instance.n_contexts > MAX_WORLD_STATES:
            raise ValueError(f"worlds support at most {MAX_WORLD_STATES} states")
        if self.instance.catalog_size < self.instance.n_contexts:
            raise ValueError("catalog must cover every state (catalog >= n_states)")

    @property
    def n_states(self) -> int:
        return self.instance.n_contexts

    @property
    def catalog_size(self) -> int:
        return self.instance.catalog_size

    def state_of_context(self, context) -> int:
        if not len(context):
            raise ValueError("world contexts always contain the seed item")
        return int(context[-1]) % self.n_states

    def state_transition_matrix(self, policy_matrix: np.ndarray) -> np.ndarray:
        """T[x, x'] = P(next state = x' | state x) under a tabular policy."""
        n = self.n_states
        t = np.zeros((n, n))
        for a in range(self.catalog_size):
            t[:, a % n] += policy_matrix[:, a]
        return t

    def to_json_dict(self) -> dict:
        return {"instance": self.instance.to_json_dict(), "seed": self.seed}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "SyntheticWorld":
        return cls(TabularInstance.from_json_dict(payload["instance"]), int(payload["seed"]))


def make_random_world(
    seed: int,
    n_states: int,
    catalog_size: int,
    behavior_sharpness: float = 1.0,
) -> SyntheticWorld:
    """Random world: softmax-of-Gaussian behavior rows, uniform[0, 1] rewards."""
    rng = np.random.default_rng(seed)
    logits = behavior_sharpness * rng.standard_normal((n_states, catalog_size))
    logits -= logits.max(axis=-1, keepdims=True)
    behavior = np.exp(logits)
    behavior /= behavior.sum(axis=-1, keepdims=True)
    rewards = rng.uniform(0.0, 1.0, size=(n_states, catalog_size))
    init = rng.dirichlet(np.full(n_states, 5.0))
    return SyntheticWorld(TabularInstance(init, behavior, rewards), seed=seed)


def generate_sessions(
    world: SyntheticWorld,
    n_sessions: int,
    horizon: int,
    seed: int | None = None,
    reward_noise: str = "none",
) -> Dataset:
    """Roll out sessions under the world's behavior policy into a Dataset.

    Each session opens with a seed interaction (item = start state, reward 0)
    that only establishes the state, followed by ``horizon`` sampled actions.
    Item ids are already dense, so no preprocessing is needed.
    """
    if n_sessions < 1:
        raise ValueError("n_sessions must be >= 1")
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    instance = world.instance
    _check_reward_noise(reward_noise, instance.rewards)
    rng = np.random.default_rng(world.seed if seed is None else seed)
    start_states = rng.choice(world.n_states, size=n_sessions, p=instance.context_probs)
    cdf = np.cumsum(instance.behavior, axis=-1)
    sessions = []
    width = len(str(max(n_sessions - 1, 1)))
    for i in range(n_sessions):
        state = int(start_states[i])
        inters = [Interaction(item=state, event=EVENT_SYNTH, reward=0.0, timestamp=0)]
        for t in range(horizon):
            action = int(np.searchsorted(cdf[state], rng.random(), side="right"))
            action = min(action, world.catalog_size - 1)
            mean = instance.rewards[state, action]
            reward = float(rng.random() < mean) if reward_noise == "bernoulli" else float(mean)
            inters.append(
                Interaction(item=action, event=EVENT_SYNTH, reward=reward, timestamp=t + 1)
            )
            state = action % world.n_states
        sessions.append(SessionSequence(id=f"w{i:0{width}d}", interactions=inters))
    return Dataset(sequences=sessions, catalog_size=world.catalog_size)


# -- exact evaluation of tabular policies in the world ------------------------


def exact_state_visitation(
    world: SyntheticWorld, policy_matrix: np.ndarray, horizon: int
) -> np.ndarray:
    """Average distribution of the state at which actions are taken.

    Averages the state marginals at decision times t = 0..horizon-1 starting
    from the instance's start distribution.
    """
    t_mat = world.state_transition_matrix(policy_matrix)
    dist = world.instance.context_probs.copy()
    total = np.zeros_like(dist)
    for _ in range(horizon):
        total += dist
        dist = dist @ t_mat
    return total / horizon


def world_policy_value(
    world: SyntheticWorld,
    policy_matrix: np.ndarray,
    horizon: int,
    visitation: np.ndarray | None = None,
) -> float:
    """Exact per-action expected reward of a tabular policy in the world.

    Projects the rollout onto a bandit instance whose context distribution is
    the (policy's own, unless given) exact state visitation, then evaluates it
    with the tabular value oracle.
    """
    from .estimators import tabular_value

    policy_matrix = np.asarray(policy_matrix, dtype=float)
    _check_rows_simplex("policy", policy_matrix)
    if visitation is None:
        visitation = exact_state_visitation(world, policy_matrix, horizon)
    projected = TabularInstance(
        visitation, world.instance.behavior, world.instance.rewards
    )
    return tabular_value(projected, policy_matrix)


def simulate_policy_value(
    world: SyntheticWorld,
    policy_matrix: np.ndarray,
    horizon: int,
    n_sessions: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo per-action reward of a tabular policy: (mean, stderr).

    The standard error is over per-session mean rewards.
    """
    rng = np.random.default_rng(seed)
    states = rng.choice(world.n_states, size=n_sessions, p=world.instance.context_probs)
    cdf = np.cumsum(policy_matrix, axis=-1)
    totals = np.zeros(n_sessions)
    for _ in range(horizon):
        actions = _sample_actions(cdf[states], rng.random(n_sessions))
        totals += world.instance.rewards[states, actions]
        states = actions % world.n_states
    per_session = totals / horizon
    stderr = float(per_session.std(ddof=1) / np.sqrt(n_sessions)) if n_sessions > 1 else 0.0
    return float(per_session.mean()), stderr


def bucket_contexts_by_state(
    world: SyntheticWorld, examples: list[TrainingExample]
) -> dict[int, list[tuple[int, ...]]]:
    """Group example contexts by their underlying world state."""
    buckets: dict[int, list[tuple[int, ...]]] = {s: [] for s in range(world.n_states)}
    for ex in examples:
        buckets[world.state_of_context(ex.context)].append(ex.context)
    return buckets


def project_policy_to_tabular(
    probs_fn,
    world: SyntheticWorld,
    contexts_by_state: dict[int, list[tuple[int, ...]]],
) -> np.ndarray:
    """Average a sequence policy's action distribution within each state.

    ``probs_fn`` maps a list of contexts to an (n, catalog) probability
    array. States with no observed contexts are probed with the canonical
    single-item context (state,).
    """
    rows = np.zeros((world.n_states, world.catalog_size))
    for state in range(world.n_states):
        contexts = contexts_by_state.get(state) or [(state,)]
        probs = np.asarray(probs_fn(contexts))
        rows[state] = probs.mean(axis=0)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


# -- weighted matrix-factorization reward imputation --------------------------


@dataclass
class ImputationModel:
    """Low-rank reward imputer fit by weighted alternating least squares."""

    user_factors: np.ndarray  # (n_users, f)
    item_factors: np.ndarray  # (n_items, f)
    global_bias: float
    l2: float
    missing_target: float
    missing_weight: float


def _imputation_arrays(ratings, n_users: int | None, n_items: int | None):
    triples = list(ratings)
    if not triples:
        raise ValueError("ratings must be non-empty")
    users = np.array([t[0] for t in triples], dtype=np.int64)
    items = np.array([t[1] for t in triples], dtype=np.int64)
    values = np.array([t[2] for t in triples], dtype=float)
    if users.min() < 0 or items.min() < 0:
        raise ValueError("user/item indices must be non-negative")
    n_users = n_users if n_users is not None else int(users.max()) + 1
    n_items = n_items if n_items is not None else int(items.max()) + 1
    sums = np.zeros((n_users, n_items))
    counts = np.zeros((n_users, n_items))
    np.add.at(sums, (users, items), values)
    np.add.at(counts, (users, items), 1.0)
    observed = counts > 0
    means = np.where(observed, sums / np.where(observed, counts, 1.0), 0.0)
    return means, observed


def weighted_mf_objective(model: ImputationModel, means: np.ndarray, observed: np.ndarray) -> float:
    """The ALS objective: weighted squared error plus L2 on both factor sets."""
    predictions = model.user_factors @ model.item_factors.T + model.global_bias
    targets = np.where(observed, means, model.missing_target)
    weights = np.where(observed, 1.0, model.missing_weight)
    reg = model.l2 * (
        float((model.user_factors**2).sum()) + float((model.item_factors**2).sum())
    )
    return float((weights * (predictions - targets) ** 2).sum()) + reg


def _ridge_rows(factors, weights, weighted_targets, eye) -> np.ndarray:
    """Row r: the x minimizing sum_c weights[r, c] (targets[r, c] - factors[c] @ x)^2
    + x @ eye @ x, with weighted_targets = weights * targets; all rows in one solve.
    """
    f = factors.shape[1]
    outer = (factors[:, :, None] * factors[:, None, :]).reshape(len(factors), f * f)
    grams = (weights @ outer).reshape(len(weights), f, f) + eye
    rhs = weighted_targets @ factors
    return np.linalg.solve(grams, rhs[:, :, None])[:, :, 0]


def fit_weighted_mf(
    ratings,
    f: int = 4,
    l2: float = 0.05,
    missing_target: float = 0.25,
    missing_weight: float = 0.05,
    epochs: int = 30,
    seed: int = 0,
    n_users: int | None = None,
    n_items: int | None = None,
) -> ImputationModel:
    """Fit a weighted low-rank imputer on (user, item, reward) triples.

    Observed cells carry weight 1 and their mean reward; every missing cell is
    pulled toward ``missing_target`` with weight ``missing_weight``. Fitting
    alternates exact ridge solves over user then item factors, which makes the
    objective non-increasing per epoch. Duplicated (user, item) pairs are
    averaged.
    """
    if not 0.0 < missing_weight <= 1.0:
        raise ValueError("missing_weight must lie in (0, 1]")
    if f < 1:
        raise ValueError("factor rank must be >= 1")
    means, observed = _imputation_arrays(ratings, n_users, n_items)
    bias = float(means[observed].mean())
    weights = np.where(observed, 1.0, missing_weight)
    weighted_targets = weights * (np.where(observed, means, missing_target) - bias)

    rng = np.random.default_rng(seed)
    u = rng.standard_normal((means.shape[0], f)) * 0.1
    v = rng.standard_normal((means.shape[1], f)) * 0.1
    eye = l2 * np.eye(f)
    for _ in range(epochs):
        u = _ridge_rows(v, weights, weighted_targets, eye)
        v = _ridge_rows(u, weights.T, weighted_targets.T, eye)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise RuntimeError("imputation factorization diverged to non-finite factors")
    return ImputationModel(
        user_factors=u,
        item_factors=v,
        global_bias=bias,
        l2=l2,
        missing_target=missing_target,
        missing_weight=missing_weight,
    )


def impute_reward(model: ImputationModel, user: int, item: int) -> float:
    """Predicted reward for a (user, item) cell, clamped to [0, 1]."""
    n_users, n_items = len(model.user_factors), len(model.item_factors)
    if not (0 <= user < n_users and 0 <= item < n_items):
        raise ValueError(
            f"(user={user}, item={item}) outside the fitted ({n_users}, {n_items}) matrix"
        )
    raw = float(model.user_factors[user] @ model.item_factors[item]) + model.global_bias
    return float(min(1.0, max(0.0, raw)))


def imputed_matrix(model: ImputationModel) -> np.ndarray:
    """Full clamped prediction matrix of an imputation model."""
    raw = model.user_factors @ model.item_factors.T + model.global_bias
    return np.clip(raw, 0.0, 1.0)
