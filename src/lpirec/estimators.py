"""Off-policy value estimators and brute-force tabular oracles.

Everything here is exact or independently convergent so it can verify the
closed forms and bounds used by the trainers: Bellman solves for tabular
values, value iteration, a projected-gradient simplex optimizer, the two
closed-form optimal policies, the clipped importance-sampling estimator, and
a tabular mirror of the double-Q TD loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .synth import TabularInstance

_TINY = 1e-300


class DegenerateContextError(ValueError):
    """A context whose behavior policy earns zero reward everywhere."""


class SupportViolationError(ValueError):
    """An observed action has zero estimated logging probability."""


class IpsEstimate(NamedTuple):
    estimate: float
    standard_error: float


@dataclass(frozen=True)
class ImprovementCheck:
    improved_value: float
    logging_value: float
    kl_term: float


def _check_policy_matrix(instance: TabularInstance, policy: np.ndarray) -> np.ndarray:
    policy = np.asarray(policy, dtype=float)
    expected = (instance.n_contexts, instance.catalog_size)
    if policy.shape != expected:
        raise ValueError(f"policy must have shape {expected}, got {policy.shape}")
    if np.any(policy < -1e-12) or not np.allclose(policy.sum(axis=-1), 1.0, atol=1e-9):
        raise ValueError("policy rows must be probability distributions")
    return np.clip(policy, 0.0, None)


# -- exact tabular evaluation --------------------------------------------------


def tabular_state_values(instance: TabularInstance, policy: np.ndarray) -> np.ndarray:
    """V_pi(x). Immediate expected reward for bandits; Bellman solve for MDPs."""
    policy = _check_policy_matrix(instance, policy)
    reward_under = (policy * instance.rewards).sum(axis=-1)
    if instance.transitions is None or instance.discount == 0.0:
        return reward_under
    # P_pi[x, x'] = sum_a pi(a|x) P(x'|x, a); V = (I - gamma P_pi)^{-1} r_pi
    p_pi = np.einsum("xa,xay->xy", policy, instance.transitions)
    n = instance.n_contexts
    return np.linalg.solve(np.eye(n) - instance.discount * p_pi, reward_under)


def tabular_q_values(instance: TabularInstance, policy: np.ndarray) -> np.ndarray:
    """Q_pi(x, a) = r(x, a) + gamma * E_{x'}[V_pi(x')]."""
    if instance.transitions is None or instance.discount == 0.0:
        _check_policy_matrix(instance, policy)
        return instance.rewards.copy()
    values = tabular_state_values(instance, policy)
    return instance.rewards + instance.discount * instance.transitions @ values


def tabular_value(instance: TabularInstance, policy: np.ndarray) -> float:
    """J(pi): start-distribution-weighted (discounted) policy value."""
    return float(instance.context_probs @ tabular_state_values(instance, policy))


def tabular_advantages(instance: TabularInstance, q: np.ndarray | None = None) -> np.ndarray:
    """A(x, a) = q(x, a) - E_{a' ~ behavior}[q(x, a')], default q = rewards."""
    q = instance.rewards if q is None else np.asarray(q, dtype=float)
    return q - (instance.behavior * q).sum(axis=-1, keepdims=True)


def empirical_behavior_tabular(
    contexts: np.ndarray,
    actions: np.ndarray,
    n_contexts: int,
    catalog_size: int,
    smoothing: float = 0.0,
) -> np.ndarray:
    """Row-normalized action counts; unvisited contexts fall back to uniform."""
    counts = np.zeros((n_contexts, catalog_size)) + smoothing
    np.add.at(counts, (np.asarray(contexts), np.asarray(actions)), 1.0)
    totals = counts.sum(axis=-1, keepdims=True)
    uniform = np.full(catalog_size, 1.0 / catalog_size)
    return np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), uniform)


# -- off-policy value estimators -----------------------------------------------


def ips_value_estimate(
    triplets: tuple[np.ndarray, np.ndarray, np.ndarray],
    target_policy: np.ndarray,
    logging_estimate: np.ndarray,
    clip: float | None = 30.0,
) -> IpsEstimate:
    """Clipped importance-sampling value: mean of min(pi/mu, clip) * reward.

    ``triplets`` is (contexts, actions, rewards) with integer contexts/actions
    indexing the policy matrices. ``clip=None`` (or infinity) disables
    clipping. Returns the estimate with its sample standard error.
    """
    contexts = np.asarray(triplets[0], dtype=np.int64)
    actions = np.asarray(triplets[1], dtype=np.int64)
    rewards = np.asarray(triplets[2], dtype=float)
    if not (len(contexts) == len(actions) == len(rewards)):
        raise ValueError("triplet arrays must have equal length")
    if len(contexts) == 0:
        raise ValueError("triplets must be non-empty")
    target_policy = np.asarray(target_policy, dtype=float)
    logging_estimate = np.asarray(logging_estimate, dtype=float)
    logged = logging_estimate[contexts, actions]
    bad = np.flatnonzero(logged <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise SupportViolationError(
            "logging estimate assigns zero probability to observed "
            f"(context={int(contexts[i])}, action={int(actions[i])})"
        )
    ratios = target_policy[contexts, actions] / logged
    if clip is not None and np.isfinite(clip):
        if clip <= 0:
            raise ValueError("clip must be positive")
        ratios = np.minimum(ratios, clip)
    samples = ratios * rewards
    n = len(samples)
    stderr = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return IpsEstimate(estimate=float(samples.mean()), standard_error=stderr)


def direct_method_value(
    triplets: tuple[np.ndarray, np.ndarray, np.ndarray],
    target_policy: np.ndarray,
    reward_model: np.ndarray,
) -> float:
    """Reward-model value: mean over observed contexts of sum_a pi(a|x) rhat(x, a)."""
    contexts = np.asarray(triplets[0], dtype=np.int64)
    if len(contexts) == 0:
        raise ValueError("triplets must be non-empty")
    target_policy = np.asarray(target_policy, dtype=float)
    reward_model = np.asarray(reward_model, dtype=float)
    per_context = (target_policy * reward_model).sum(axis=-1)
    return float(per_context[contexts].mean())


# -- closed-form optimal policies ----------------------------------------------


def tabular_optimal_lmu(instance: TabularInstance) -> np.ndarray:
    """Maximizer of the log surrogate bound: pi*(a|x) = mu(a|x) r(x, a) / normalizer."""
    weighted = instance.behavior * instance.rewards
    totals = weighted.sum(axis=-1)
    dead = np.flatnonzero(totals <= 0.0)
    if dead.size:
        raise DegenerateContextError(
            f"context {int(dead[0])} has zero expected reward under the behavior policy"
        )
    return weighted / totals[:, None]


def _resolve_baseline(instance: TabularInstance, baseline) -> np.ndarray:
    if isinstance(baseline, str):
        if baseline == "zero":
            return np.zeros(instance.n_contexts)
        if baseline == "max":
            return instance.rewards.max(axis=-1)
        if baseline == "mean":
            return (instance.behavior * instance.rewards).sum(axis=-1)
        raise ValueError(f"unknown baseline {baseline!r}; use zero, max, mean, or an array")
    arr = np.asarray(baseline, dtype=float)
    if arr.shape != (instance.n_contexts,):
        raise ValueError("baseline array must have one entry per context")
    return arr


def tabular_optimal_lpi(
    instance: TabularInstance, beta: float, baseline="zero"
) -> np.ndarray:
    """Maximizer of the KL-penalized objective: pi* proportional to mu * exp((r - g)/beta).

    ``baseline`` is "zero", "max" (per-context max reward), "mean" (behavior
    expected reward), or an explicit per-context array; normalization cancels
    it, so every choice yields the same policy.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    g = _resolve_baseline(instance, baseline)
    with np.errstate(divide="ignore"):
        logits = np.where(
            instance.behavior > 0, np.log(np.maximum(instance.behavior, _TINY)), -np.inf
        )
    logits = logits + (instance.rewards - g[:, None]) / beta
    logits -= logits.max(axis=-1, keepdims=True)
    policy = np.exp(logits)
    policy[~np.isfinite(policy)] = 0.0
    return policy / policy.sum(axis=-1, keepdims=True)


def lpi_objective_value(instance: TabularInstance, policy: np.ndarray, beta: float) -> float:
    """KL-penalized improvement objective: J(pi) - beta * E_d[KL(pi | mu)].

    Returns -inf when the policy puts mass outside the behavior support.
    """
    policy = _check_policy_matrix(instance, policy)
    if np.any((policy > 0) & (instance.behavior <= 0)):
        return float("-inf")
    ratio_term = np.where(
        policy > 0,
        policy * np.log(np.maximum(policy, _TINY) / np.maximum(instance.behavior, _TINY)),
        0.0,
    )
    per_context = (policy * instance.rewards).sum(axis=-1) - beta * ratio_term.sum(axis=-1)
    return float(instance.context_probs @ per_context)


def lmu_objective_value(instance: TabularInstance, policy: np.ndarray) -> float:
    """Log surrogate bound: E_d E_mu[r * (1 + log(pi / mu))].

    Returns -inf when the policy puts zero mass where mu * r > 0.
    """
    policy = _check_policy_matrix(instance, policy)
    coef = instance.behavior * instance.rewards
    if np.any((coef > 0) & (policy <= 0)):
        return float("-inf")
    log_ratio = np.where(
        coef > 0,
        np.log(np.maximum(policy, _TINY)) - np.log(np.maximum(instance.behavior, _TINY)),
        0.0,
    )
    per_context = (coef * (1.0 + log_ratio)).sum(axis=-1)
    return float(instance.context_probs @ per_context)


def policy_improvement_check(instance: TabularInstance, beta: float) -> ImprovementCheck:
    """Evaluate the improvement guarantee of the KL-penalized optimum.

    Computes J(pi*), J(mu), and E_d[KL(pi* | mu)], then verifies
    J(pi*) >= J(mu) and J(pi*) - J(mu) >= beta * KL_term - 1e-12, raising if
    either inequality fails.
    """
    optimal = tabular_optimal_lpi(instance, beta)
    j_opt = tabular_value(instance, optimal)
    j_mu = tabular_value(instance, instance.behavior)
    kl_rows = np.where(
        optimal > 0,
        optimal
        * np.log(np.maximum(optimal, _TINY) / np.maximum(instance.behavior, _TINY)),
        0.0,
    ).sum(axis=-1)
    kl_term = float(instance.context_probs @ kl_rows)
    if j_opt < j_mu - 1e-12:
        raise AssertionError(f"improvement violated: J(pi*)={j_opt} < J(mu)={j_mu}")
    if j_opt - j_mu < beta * kl_term - 1e-12:
        raise AssertionError(
            f"improvement bound violated: gap {j_opt - j_mu} < beta*KL {beta * kl_term}"
        )
    return ImprovementCheck(improved_value=j_opt, logging_value=j_mu, kl_term=kl_term)


# -- value iteration and tabular TD --------------------------------------------


def value_iteration(
    instance: TabularInstance,
    tol: float = 1e-10,
    max_iterations: int = 1_000_000,
    gamma: float | None = None,
) -> np.ndarray:
    """Q* by iterating the Bellman optimality operator to max-abs residual < tol."""
    if instance.transitions is None:
        raise ValueError("value iteration requires an instance with transitions")
    gamma = instance.discount if gamma is None else float(gamma)
    if not 0.0 <= gamma < 1.0:
        raise ValueError("discount must lie in [0, 1)")
    q = np.zeros_like(instance.rewards)
    for _ in range(max_iterations):
        nxt = instance.rewards + gamma * instance.transitions @ q.max(axis=-1)
        residual = np.abs(nxt - q).max()
        q = nxt
        if residual < tol:
            return q
    raise RuntimeError("value iteration failed to reach tolerance")


def tabular_td_learning(
    instance: TabularInstance,
    n_updates: int = 400_000,
    seed: int = 0,
    target_refresh: int = 500,
    step_count: float = 20.0,
) -> np.ndarray:
    """Tabular double-Q TD learning from sampled transitions.

    Mirrors the neural TD loop: bootstrap actions are chosen by the online
    table, evaluated by a frozen target table that is copied from the online
    table every ``target_refresh`` updates. (state, action) pairs are swept
    uniformly; per-pair step sizes decay harmonically from ``step_count``.
    Returns the online Q table.
    """
    if instance.transitions is None:
        raise ValueError("TD learning requires an instance with transitions")
    rng = np.random.default_rng(seed)
    n, k = instance.rewards.shape
    q = np.zeros((n, k))
    target = q.copy()
    visits = np.zeros((n, k))
    pair_states = rng.integers(0, n, size=n_updates)
    pair_actions = rng.integers(0, k, size=n_updates)
    next_draws = rng.random(n_updates)
    transition_cdf = np.cumsum(instance.transitions, axis=-1)
    for t in range(n_updates):
        x, a = int(pair_states[t]), int(pair_actions[t])
        nx = int(np.searchsorted(transition_cdf[x, a], next_draws[t], side="right"))
        nx = min(nx, n - 1)
        best = int(np.argmax(q[nx]))
        y = instance.rewards[x, a] + instance.discount * target[nx, best]
        visits[x, a] += 1.0
        alpha = step_count / (step_count + visits[x, a])
        q[x, a] += alpha * (y - q[x, a])
        if (t + 1) % target_refresh == 0:
            target = q.copy()
    return q


# -- projected-gradient simplex oracle ------------------------------------------


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (rows if 2-D)."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 1:
        return _project_rows(v[None, :])[0]
    return _project_rows(v)


def _project_rows(v: np.ndarray) -> np.ndarray:
    n, k = v.shape
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    j = np.arange(1, k + 1)
    cond = u > css / j
    rho = k - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(n), rho] / (rho + 1)
    return np.maximum(v - theta[:, None], 0.0)


def _project_rows_masked(v: np.ndarray, support: np.ndarray) -> np.ndarray:
    sentinel = np.where(support, v, -1e30)
    out = _project_rows(sentinel)
    out[~support] = 0.0
    return out


def projected_gradient_policy(
    instance: TabularInstance,
    objective: str = "penalized_improvement",
    beta: float = 1.0,
    iterations: int = 10_000,
    step: float = 1e-2,
) -> np.ndarray:
    """Maximize a per-context simplex objective by projected gradient ascent.

    ``objective`` is "penalized_improvement" (reward minus beta-scaled KL to
    the behavior policy) or "log_surrogate" (behavior-and-reward-weighted log
    policy). Rows are optimized jointly with per-row monotone backtracking:
    each row's step starts at ``step``, halves until the row's objective
    improves, and regrows toward ``step`` after acceptance. Off-support
    entries (behavior zero, or zero surrogate coefficient) are pinned to 0.
    Rows are independent problems, so a row for which no step improves has
    reached its optimum to working precision and takes no part in later
    iterations. Stops once every row has, or once no row improves measurably.
    """
    mu = instance.behavior
    r = instance.rewards
    if objective == "penalized_improvement":
        if beta <= 0:
            raise ValueError("beta must be positive")
        support = mu > 0

        def row_objective(p):
            ratio = np.where(
                p > 0, p * (np.log(np.maximum(p, _TINY)) - np.log(np.maximum(mu, _TINY))), 0.0
            )
            return (p * r).sum(axis=1) - beta * ratio.sum(axis=1)

        def row_gradient(p):
            grad = r - beta * (
                np.log(np.maximum(p, 1e-12)) - np.log(np.maximum(mu, _TINY)) + 1.0
            )
            return np.where(support, grad, 0.0)

    elif objective == "log_surrogate":
        coef = mu * r
        if np.any(coef.sum(axis=1) <= 0):
            raise DegenerateContextError(
                "log surrogate objective is constant on a zero-reward context"
            )
        support = coef > 0

        def row_objective(p):
            return np.where(support, coef * np.log(np.maximum(p, _TINY)), 0.0).sum(axis=1)

        def row_gradient(p):
            return np.where(support, coef / np.maximum(p, 1e-12), 0.0)

    else:
        raise ValueError(f"unknown objective {objective!r}")

    if not np.all(support.sum(axis=1) >= 1):
        raise DegenerateContextError("a context has empty support")

    policy = np.where(support, 1.0, 0.0)
    policy /= policy.sum(axis=1, keepdims=True)
    row_steps = np.full(policy.shape[0], step)
    current = row_objective(policy)
    active = np.ones(policy.shape[0], dtype=bool)
    stall = 0
    for _ in range(iterations):
        grad = row_gradient(policy)
        trial = row_steps.copy()
        accepted = ~active
        best_gain = 0.0
        for _ in range(60):
            pending = ~accepted
            if not pending.any():
                break
            proposal = _project_rows_masked(
                policy + trial[:, None] * grad, support
            )
            values = row_objective(proposal)
            improved = pending & (values > current)
            if improved.any():
                best_gain = max(best_gain, float((values - current)[improved].max()))
                policy[improved] = proposal[improved]
                current[improved] = values[improved]
                row_steps[improved] = np.minimum(trial[improved] * 2.0, step)
                accepted |= improved
            trial = np.where(accepted, trial, trial / 2.0)
            if trial[~accepted].size and trial[~accepted].max() < 1e-18:
                break
        active &= accepted
        if not active.any():
            break
        stall = stall + 1 if best_gain < 1e-13 else 0
        if stall >= 10:
            break
    return policy

