"""Ranking metrics, the evaluation's greedy-reward metrics, divergences, and report plumbing."""

import json
import tracemalloc

import numpy as np
import pytest

from lpirec.config import RunConfig
from lpirec.data import ExampleColumns, TrainingExample
from lpirec.encoder import EncodeCache, EncoderConfig
from lpirec.estimators import SupportViolationError, empirical_behavior_tabular
from lpirec.metrics import (
    _DIVERGENCE_CHUNK,
    _divergences,
    MetricsReport,
    breakdown_report,
    bucket_label,
    divergence_rows,
    hit_rate_samples,
    hr_at_k,
    js_divergence,
    kl_divergence,
    mean_divergence,
    model_selection_score,
    ndcg_at_k,
    ndcg_samples,
    rank_from_scores,
    ranks_from_scores,
    summarize,
)
from lpirec.policy import SequenceModel
from lpirec.synth import ImputationModel
from lpirec.training import evaluate_examples


class TableModel(SequenceModel):
    """Fixed per-context score rows standing in for a trained model."""

    def __init__(self, table):
        self.table = {tuple(k): np.asarray(v, dtype=float) for k, v in table.items()}
        catalog = len(next(iter(self.table.values())))
        super().__init__(EncoderConfig(catalog_size=catalog, dim=1), params={})

    def encode(self, contexts):
        return EncodeCache(batch=self.as_batch(contexts), pool=None, state=None)

    def policy_logits_from(self, cache, out=None):
        batch = cache.batch
        rows = zip(batch.indices.tolist(), batch.lengths.tolist())
        return np.stack([self.table[tuple(row[:n])] for row, n in rows], out=out)


def columns(contexts, actions, rewards=None, users=None):
    """Examples as columns; user u logs as sequence id str(u) (default: one user)."""
    rewards = np.zeros(len(actions)) if rewards is None else rewards
    users = [0] * len(actions) if users is None else users
    return ExampleColumns.of(
        TrainingExample(tuple(c), int(a), float(r), (*c, int(a)), False, True, "click", str(u), 0)
        for c, a, r, u in zip(contexts, actions, rewards, users)
    )


def greedy_reward(model, examples, imputer=None):
    """The evaluation's AR@1, or its iAR@1 under ``imputer`` (user u at row u)."""
    if imputer is None:
        return evaluate_examples(model, examples, RunConfig()).metrics["ar_at_1"].value
    user_index = {sid: int(sid) for sid in examples.owner_ids}
    report = evaluate_examples(model, examples, RunConfig(), imputation=(imputer, user_index))
    return report.metrics["iar_at_1"].value


class RowPolicy:
    """Returns one fixed distribution for every context."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def probs(self, contexts):
        return np.tile(self.row, (len(contexts), 1))

    __call__ = probs


class IndexedPolicy:
    """Returns row ``c[0]`` of a fixed matrix for context ``c``."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def probs(self, contexts):
        return self.rows[[c[0] for c in contexts]]

    __call__ = probs


# -- hit rate and nDCG -------------------------------------------------------------


def test_hit_rate_boundaries():
    assert hr_at_k(1, 5) == 1
    assert hr_at_k(6, 5) == 0
    assert hr_at_k(20, 20) == 1
    assert hr_at_k(21, 20) == 0


def test_ndcg_fixed_points():
    assert ndcg_at_k(1, 20) == 1.0
    assert ndcg_at_k(3, 20) == pytest.approx(0.5, abs=1e-15)  # 1/log2(4)
    assert ndcg_at_k(21, 20) == 0.0
    assert ndcg_at_k(20, 20) == pytest.approx(1.0 / np.log2(21.0), abs=1e-15)


def test_rank_and_k_must_be_positive():
    for fn in (hr_at_k, ndcg_at_k):
        with pytest.raises(ValueError):
            fn(0, 5)
        with pytest.raises(ValueError):
            fn(3, 0)


def test_ndcg_decreases_with_rank_and_agrees_with_hit_rate():
    for k in (1, 5, 20):
        values = [ndcg_at_k(r, k) for r in range(1, 30)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for r in range(1, 30):
            assert (hr_at_k(r, k) == 1) == (ndcg_at_k(r, k) > 0)


# -- ranks -------------------------------------------------------------------------


def test_top_scored_target_ranks_first():
    assert rank_from_scores(np.array([0.1, 0.9, 0.3]), 1) == 1


def test_all_equal_scores_rank_by_index():
    scores = np.zeros(4)
    assert [rank_from_scores(scores, t) for t in range(4)] == [1, 2, 3, 4]


def test_rank_matches_full_sort_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        scores = np.round(rng.standard_normal(12), 2)  # rounding forces ties
        target = int(rng.integers(0, 12))
        order = sorted(range(12), key=lambda i: (-scores[i], i))
        assert rank_from_scores(scores, target) == order.index(target) + 1


def test_vectorized_ranks_match_scalar_ranks():
    rng = np.random.default_rng(1)
    for catalog in (1, 9, 60, 400):
        scores = np.round(rng.standard_normal((40, catalog)), 1)  # rounding forces ties
        targets = rng.integers(0, catalog, size=40)
        vec = ranks_from_scores(scores, targets)
        for k in (1, 5, 20, 400):
            hits, gains = hit_rate_samples(vec, k), ndcg_samples(vec, k)
            for i in range(40):
                rank = rank_from_scores(scores[i], int(targets[i]))
                assert vec[i] == rank
                assert hr_at_k(rank, k) == hits[i]
                assert ndcg_at_k(rank, k) == gains[i]  # bit for bit


def test_array_rank_functions_reject_ranks_and_k_below_one():
    for fn in (hit_rate_samples, ndcg_samples):
        with pytest.raises(ValueError, match=">= 1"):
            fn(np.array([1, 0, 3]), 5)
        with pytest.raises(ValueError, match=">= 1"):
            fn(np.array([1, 2]), 0)


def test_ranks_of_many_rows_take_less_memory_than_their_scores():
    # a (rows x catalog) int64 running count of ties alone would be the scores' size
    rng = np.random.default_rng(2)
    scores = np.round(rng.standard_normal((6000, 300)), 1)  # rounding forces ties
    targets = rng.integers(0, 300, size=6000)
    tracemalloc.start()
    try:
        ranks = ranks_from_scores(scores, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < scores.nbytes
    order = np.argsort(-scores, axis=1, kind="stable")  # ties keep index order
    assert np.array_equal(ranks, np.argmax(order == targets[:, None], axis=1) + 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_target_score_is_rejected_naming_its_row(bad):
    scores = np.zeros((3, 4))
    scores[2, 1] = bad
    with pytest.raises(ValueError, match="row 2: target score"):
        ranks_from_scores(scores, [0, 1, 1])
    with pytest.raises(ValueError, match="not finite"):
        rank_from_scores(scores[2], 1)
    assert len(ranks_from_scores(scores, [0, 1, 0])) == 3  # only target scores are checked


@pytest.mark.parametrize("target", [-1, 3])
def test_a_target_outside_the_scores_is_rejected_naming_its_row(target):
    scores = [[0.2, 0.1, 0.4], [0.1, 0.5, 0.3]]
    with pytest.raises(ValueError, match=rf"row 1: target {target} outside \[0, 3\)"):
        ranks_from_scores(scores, [0, target])
    with pytest.raises(ValueError, match="outside"):
        rank_from_scores(scores[1], target)


def test_evaluation_ranks_read_model_scores():
    model = TableModel({(0,): [0.5, 2.0, 1.0]})
    for target, rank in ((1, 1), (2, 2), (0, 3)):
        report = evaluate_examples(model, columns([(0,)], [target]), RunConfig(eval_ks="1,2,3"))
        hits = [report.metrics[f"hr_at_{k}"].value for k in (1, 2, 3)]
        assert hits == [float(rank <= k) for k in (1, 2, 3)]


# -- greedy reward ----------------------------------------------------------------


def test_always_matching_greedy_with_unit_rewards_scores_one():
    model = TableModel({(0,): [0, 0, 9], (1,): [9, 0, 0]})
    assert greedy_reward(model, columns([(0,), (1,)], [2, 0], [1.0, 1.0])) == 1.0


def test_never_matching_greedy_scores_zero():
    model = TableModel({(0,): [9, 0, 0]})
    assert greedy_reward(model, columns([(0,), (0,)], [1, 2], [1.0, 1.0])) == 0.0


def test_mixed_case_matches_hand_count():
    model = TableModel({(0,): [9, 0, 0], (1,): [0, 9, 0]})
    contexts = [(0,), (0,), (1,), (1,)]
    actions = np.array([0, 1, 1, 2])
    rewards = np.array([0.2, 1.0, 1.0, 0.2])
    # matches at rows 0 and 2 -> (0.2 + 1.0) / 4
    assert greedy_reward(model, columns(contexts, actions, rewards)) == pytest.approx(
        0.3, abs=1e-15
    )


def test_empty_heldout_rejected():
    model = TableModel({(0,): [0.0, 0.0]})
    with pytest.raises(ValueError, match="empty example set"):
        evaluate_examples(model, columns([], []), RunConfig())


def test_logging_policy_claims_more_reward_than_uniform_on_its_own_logs():
    rng_master = np.random.default_rng(2)
    logging_wins = 0
    for trial in range(50):
        rng = np.random.default_rng(int(rng_master.integers(1 << 31)))
        k = 5
        table = {(x,): rng.standard_normal(k) for x in range(6)}
        logging_model = TableModel(table)
        contexts, actions, rewards = [], [], []
        reward_table = rng.uniform(0, 1, size=(6, k))
        for _ in range(200):
            x = int(rng.integers(0, 6))
            row = np.exp(table[(x,)])
            a = int(rng.choice(k, p=row / row.sum()))
            contexts.append((x,))
            actions.append(a)
            rewards.append(reward_table[x, a])
        logs = columns(contexts, actions, rewards)
        uniform_model = TableModel({(x,): np.zeros(k) for x in range(6)})
        if greedy_reward(logging_model, logs) >= greedy_reward(uniform_model, logs):
            logging_wins += 1
    assert logging_wins >= 40  # expectation strongly favors the logging policy


# -- imputed greedy reward -----------------------------------------------------------


def imputer(user_factors, item_factors, bias=0.0):
    return ImputationModel(
        user_factors=np.asarray(user_factors, dtype=float),
        item_factors=np.asarray(item_factors, dtype=float),
        global_bias=bias,
        l2=0.0,
        missing_target=0.0,
        missing_weight=1.0,
    )


def constant_imputer(value, n_users=2, n_items=2):
    """Zero factors: every cell predicts the bias."""
    return imputer(np.zeros((n_users, 1)), np.zeros((n_items, 1)), bias=value)


def test_constant_imputation_returns_the_constant():
    model = TableModel({(0,): [1.0, 0.0]})
    examples = columns([(0,), (0,)], [0, 0], users=[0, 1])
    value = greedy_reward(model, examples, constant_imputer(0.7))
    assert value == pytest.approx(0.7, abs=1e-15)


def test_indicator_imputation_reduces_to_greedy_match_rate():
    observed = {0: 1, 1: 0}  # user -> item they actually took
    # one-hot user factors against identity item factors: 1 on the observed cell
    indicator = imputer(np.eye(2)[[observed[0], observed[1]]], np.eye(2))
    model = TableModel({(0,): [0.0, 9.0], (1,): [0.0, 9.0]})
    # greedy picks item 1 for both users; only user 0 observed item 1
    value = greedy_reward(model, columns([(0,), (1,)], [0, 0], users=[0, 1]), indicator)
    assert value == pytest.approx(0.5, abs=1e-15)


def test_imputed_reward_matches_enumeration_oracle():
    from lpirec.synth import fit_weighted_mf, impute_reward

    ratings = [(0, 0, 1.0), (0, 1, 0.0), (1, 0, 0.2), (2, 1, 1.0), (2, 2, 0.4)]
    mf = fit_weighted_mf(ratings, f=2, seed=0, n_users=3, n_items=3)
    model = TableModel(
        {(0,): [3.0, 0.0, 0.0], (1,): [0.0, 3.0, 0.0], (2,): [0.0, 0.0, 3.0]}
    )
    pairs = [(0, (0,)), (1, (1,)), (2, (2,)), (0, (1,)), (1, (2,))]
    expected = np.mean(
        [impute_reward(mf, u, int(np.argmax(model.table[c]))) for u, c in pairs]
    )
    examples = columns([c for _, c in pairs], [0] * len(pairs), users=[u for u, _ in pairs])
    assert greedy_reward(model, examples, mf) == pytest.approx(float(expected), abs=1e-12)



def test_empty_imputation_heldout_rejected():
    model = TableModel({(0,): [0.0, 0.0]})
    with pytest.raises(ValueError, match="empty example set"):
        evaluate_examples(
            model, columns([], []), RunConfig(), imputation=(constant_imputer(0.0), {})
        )

# -- divergences ---------------------------------------------------------------------


def test_identical_distributions_have_zero_divergence():
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(6))
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
    assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-12)


def test_point_mass_against_uniform_is_log_two():
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(
        np.log(2.0), abs=1e-15
    )


def test_kl_matches_summation_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        expected = sum(p[i] * (np.log(p[i]) - np.log(q[i])) for i in range(5))
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)


def test_kl_requires_support_coverage():
    with pytest.raises(SupportViolationError, match="index 1"):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


def test_zero_mass_entries_contribute_nothing():
    p = np.array([0.0, 1.0])
    q = np.array([0.25, 0.75])
    assert kl_divergence(p, q) == pytest.approx(-np.log(0.75), abs=1e-15)


def test_disjoint_supports_reach_the_js_bound():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    assert js_divergence(p, q) == pytest.approx(np.log(2.0), abs=1e-12)


def test_js_is_symmetric_bounded_and_never_errors():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3))
        q = rng.dirichlet(np.ones(k) * rng.uniform(0.2, 3))
        if rng.random() < 0.3:
            p[rng.integers(0, k)] = 0.0
            p /= p.sum()
        v = js_divergence(p, q)
        assert 0.0 <= v <= np.log(2.0) + 1e-12
        assert v == pytest.approx(js_divergence(q, p), abs=1e-12)


def test_js_stays_at_zero_when_the_midpoint_underflows():
    # 0.5 * 5e-324 rounds to 0: the midpoint has no mass inside p's support
    assert abs(js_divergence([5e-324, 1.0], [0.0, 1.0])) < 1e-300
    assert abs(js_divergence([0.0, 1.0], [5e-324, 1.0])) < 1e-300


def test_divergences_of_distributions_of_different_shapes_are_rejected_by_shape():
    for divergence in (kl_divergence, js_divergence):
        with pytest.raises(ValueError, match=r"shapes \(1, 2\) and \(1, 3\)"):
            divergence([0.5, 0.5], [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match=r"shape \(2, 3\) for 2 contexts over a catalog of 2"):
        mean_divergence(RowPolicy([0.5, 0.5]), RowPolicy([0.2, 0.3, 0.5]), [(0,), (1,)])


def test_a_callable_logging_estimate_gives_its_models_divergences():
    encoder = EncoderConfig(catalog_size=5, dim=4)
    model, behavior = (SequenceModel.initialize(encoder, seed) for seed in (1, 2))
    contexts = [(0,), (1, 2), (4, 3, 1), (2,)] * 90
    for cap in (None, 100):
        from_model = divergence_rows(model, behavior, contexts, cap=cap, seed=3)
        from_callable = divergence_rows(model, behavior.probs, contexts, cap=cap, seed=3)
        assert all(np.array_equal(from_model[k], from_callable[k]) for k in ("js", "kl"))


def test_a_logging_estimate_over_another_catalog_is_rejected_naming_it():
    model = SequenceModel.initialize(EncoderConfig(catalog_size=5, dim=4), seed=1)
    estimates = {
        6: SequenceModel.initialize(EncoderConfig(catalog_size=6, dim=4), seed=2),
        4: lambda contexts: np.full((len(contexts), 4), 0.25),
    }
    for catalog, estimate in estimates.items():
        with pytest.raises(
            ValueError, match=rf"shape \(2, {catalog}\) for 2 contexts over a catalog of 5"
        ):
            mean_divergence(model, estimate, [(0,), (1, 2)])


def test_mean_divergence_of_identical_policies_is_zero():
    row = np.array([0.2, 0.3, 0.5])
    mean, stderr = mean_divergence(RowPolicy(row), RowPolicy(row), [(0,), (1,)])
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def test_mean_divergence_one_hot_vs_uniform_hand_value():
    one_hot = RowPolicy([1.0, 0.0])
    uniform = RowPolicy([0.5, 0.5])
    expected = 0.5 * kl_divergence(np.array([1.0, 0.0]), np.array([0.75, 0.25])) + (
        0.5 * kl_divergence(np.array([0.5, 0.5]), np.array([0.75, 0.25]))
    )
    mean, _ = mean_divergence(one_hot, uniform, [(0,)], kind="js")
    assert mean == pytest.approx(expected, abs=1e-12)


def test_mean_divergence_subsample_is_seeded_and_capped():
    rng = np.random.default_rng(6)
    rows = rng.dirichlet(np.ones(4), size=2)

    class TwoRow:
        def __init__(self, i):
            self.i = i

        def probs(self, contexts):
            return np.tile(rows[self.i], (len(contexts), 1))

        __call__ = probs

    contexts = [(i,) for i in range(500)]
    a = mean_divergence(TwoRow(0), TwoRow(1), contexts, cap=50, seed=9)
    b = mean_divergence(TwoRow(0), TwoRow(1), contexts, cap=50, seed=9)
    assert a == b


def test_mean_divergence_kl_support_violation_names_the_context():
    with pytest.raises(SupportViolationError, match="context 0"):
        mean_divergence(
            RowPolicy([0.5, 0.5]), RowPolicy([1.0, 0.0]), [(0,)], kind="kl"
        )
    with pytest.raises(ValueError, match="kind"):
        mean_divergence(RowPolicy([1.0]), RowPolicy([1.0]), [(0,)], kind="tv")
    with pytest.raises(ValueError, match="non-empty"):
        mean_divergence(RowPolicy([1.0]), RowPolicy([1.0]), [])


@pytest.mark.parametrize("cap", [0, -1])
def test_a_divergence_cap_below_one_is_rejected(cap):
    contexts = [(0,), (1,)]
    with pytest.raises(ValueError, match=rf"cap must be >= 1, got {cap}"):
        mean_divergence(RowPolicy([0.5, 0.5]), RowPolicy([0.5, 0.5]), contexts, cap=cap)


def sparse_distributions(rng, n, k):
    """n distributions over k items with about a third of the entries zero."""
    rows = rng.dirichlet(np.ones(k), size=n)
    rows[rng.random((n, k)) < 0.35] = 0.0
    rows[np.arange(n), rng.integers(0, k, size=n)] += 0.1
    return rows / rows.sum(axis=1, keepdims=True)


def test_divergence_rows_hold_about_five_chunk_arrays_at_their_peak():
    # p, q, log p, log q and one temporary; the JS terms reuse the logs in place
    rng = np.random.default_rng(14)
    n, k = 6000, 300
    p = sparse_distributions(rng, n, k)
    q = rng.dirichlet(np.ones(k), size=n)
    contexts = [(i,) for i in range(n)]
    tracemalloc.start()
    try:
        rows = divergence_rows(IndexedPolicy(p), IndexedPolicy(q), contexts, cap=None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.6 * _DIVERGENCE_CHUNK * k * 8
    assert rows["kl"][0] == kl_divergence(p[0], q[0])
    assert rows["js"][0] == js_divergence(p[0], q[0])


@pytest.mark.parametrize("kind", ["js", "kl"])
def test_mean_divergence_is_the_mean_of_the_scalar_divergences(kind):
    rng = np.random.default_rng(12)
    n, k = 2 * _DIVERGENCE_CHUNK + 300, 7
    p = sparse_distributions(rng, n, k)
    q = sparse_distributions(rng, n, k)
    if kind == "kl":  # q keeps zeros only outside p's support
        q = np.where(p > 0, q + 0.05, q)
        q /= q.sum(axis=1, keepdims=True)
    assert (p == 0).any() and (q == 0).any()
    scalar = js_divergence if kind == "js" else kl_divergence
    per_row = np.array([scalar(p[i], q[i]) for i in range(n)])
    contexts = [(i,) for i in range(n)]

    mean, stderr = mean_divergence(IndexedPolicy(p), IndexedPolicy(q), contexts, kind=kind)
    assert mean == pytest.approx(per_row.mean(), abs=1e-12)
    assert stderr == pytest.approx(per_row.std(ddof=1) / np.sqrt(n), abs=1e-12)

    cap = _DIVERGENCE_CHUNK + 500
    keep = np.sort(np.random.default_rng(3).choice(n, size=cap, replace=False))
    mean, stderr = mean_divergence(
        IndexedPolicy(p), IndexedPolicy(q), contexts, kind=kind, cap=cap, seed=3
    )
    assert mean == pytest.approx(per_row[keep].mean(), abs=1e-12)
    assert stderr == pytest.approx(per_row[keep].std(ddof=1) / np.sqrt(cap), abs=1e-12)


def test_a_chunk_holding_one_zero_gives_each_row_its_own_scalar_divergences():
    # the first chunk holds a zero and takes the masked logs, the second takes plain ones
    rng = np.random.default_rng(15)
    n, k = _DIVERGENCE_CHUNK + 40, 300
    p, q = rng.dirichlet(np.ones(k), size=n), rng.dirichlet(np.ones(k), size=n)
    p[7, 3] = 0.0
    p[7] /= p[7].sum()
    assert p.min() == 0.0 and p[_DIVERGENCE_CHUNK:].min() > 0 and q.min() > 0
    contexts = [(i,) for i in range(n)]
    rows = divergence_rows(IndexedPolicy(p), IndexedPolicy(q), contexts, cap=None)
    for kind, scalar in (("kl", kl_divergence), ("js", js_divergence)):
        per_row = np.array([scalar(p[i], q[i]) for i in range(n)])
        assert np.array_equal(rows[kind], per_row)


def test_divergences_in_handed_buffers_equal_fresh_ones_whatever_the_buffers_held():
    rng = np.random.default_rng(16)
    n, k = 20, 9
    plain = rng.dirichlet(np.ones(k), size=n), rng.dirichlet(np.ones(k), size=n)
    sparse = sparse_distributions(rng, n, k), sparse_distributions(rng, n, k)
    inside = np.where(sparse[0] > 0, sparse[1] + 0.05, sparse[1])
    covering = sparse[0], inside / inside.sum(axis=1, keepdims=True)
    # stale NaNs, as np.empty may hold, must not reach the zero entries' terms
    buffers = tuple(np.full((n, k), np.nan) for _ in range(3))
    for (p, q), kinds in ((sparse, ("js",)), (covering, ("kl", "js")), (plain, ("js", "kl"))):
        held = p.copy(), q.copy()
        filled = _divergences(p, q, kinds, out=buffers)
        fresh = _divergences(p, q, kinds)
        assert all(np.array_equal(filled[kind], fresh[kind]) for kind in kinds)
        assert np.array_equal(p, held[0]) and np.array_equal(q, held[1])


def test_kl_support_violation_past_the_first_chunk_names_the_global_context():
    n = 2 * _DIVERGENCE_CHUNK + 10
    p = np.full((n, 3), 1.0 / 3.0)
    q = p.copy()
    bad = _DIVERGENCE_CHUNK + 37
    q[bad] = [0.5, 0.5, 0.0]
    q[bad + 5] = [0.0, 0.5, 0.5]
    contexts = [(i,) for i in range(n)]
    with pytest.raises(SupportViolationError, match=rf"^context {bad}: .* index 2 "):
        mean_divergence(IndexedPolicy(p), IndexedPolicy(q), contexts, kind="kl")
    mean, _ = mean_divergence(IndexedPolicy(p), IndexedPolicy(q), contexts, kind="js")
    assert mean > 0.0


# -- model selection -----------------------------------------------------------------


def test_selection_score_hand_value():
    assert model_selection_score(0.5, 0.4, 1.0, 0.2) == pytest.approx(0.58, abs=1e-15)


def test_selection_score_edge_cases():
    assert model_selection_score(0.0, 0.0, 1.0, 0.2) == 0.0
    assert model_selection_score(0.37, 0.9, 1.0, 0.0) == pytest.approx(0.37, abs=1e-15)
    assert model_selection_score(0.5, 0.4) == pytest.approx(0.58, abs=1e-15)


# -- breakdown buckets ----------------------------------------------------------------


def test_bucket_labels_partition_the_count_range():
    assert bucket_label(1) == "1-5"
    assert bucket_label(5) == "1-5"
    assert bucket_label(6) == "6-10"
    assert bucket_label(15) == "11-15"
    assert bucket_label(16) == "16-20"
    assert bucket_label(99) == "16-20"  # overflow clamps to the last bucket
    with pytest.raises(ValueError):
        bucket_label(0)


def test_single_bucket_mean_equals_global_mean():
    values = [0.2, 0.4, 0.9]
    report = breakdown_report(values, [2, 3, 5])
    assert report.breakdown["1-5"].value == pytest.approx(np.mean(values), abs=1e-15)
    assert report.breakdown["1-5"].count == 3
    assert report.metrics["ndcg_overall"].value == pytest.approx(np.mean(values), abs=1e-15)


def test_separate_buckets_keep_their_own_values():
    report = breakdown_report([0.3, 0.8], [4, 12])
    assert report.breakdown["1-5"].value == pytest.approx(0.3)
    assert report.breakdown["11-15"].value == pytest.approx(0.8)
    empty = report.breakdown["6-10"]
    assert empty.count == 0 and empty.value is None and empty.stderr is None


def test_bucket_weighted_mean_reassembles_global_mean():
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 1, size=200)
    counts = rng.integers(1, 21, size=200)
    report = breakdown_report(values, counts)
    total = 0.0
    for summary in report.breakdown.values():
        if summary.count:
            total += summary.value * summary.count
    assert total / 200 == pytest.approx(float(values.mean()), abs=1e-12)


@pytest.mark.parametrize("edges", [(), (3,), (5, 10, 15), (20,)])
def test_breakdown_buckets_agree_with_bucket_label(edges):
    counts = list(range(1, 31))
    report = breakdown_report([float(c) for c in counts], counts, edges=edges)
    labels = [bucket_label(c, edges) for c in counts]
    assert list(report.breakdown) == list(dict.fromkeys(labels))
    for label, summary in report.breakdown.items():
        assert summary.count == labels.count(label)


def test_breakdown_requires_aligned_inputs():
    with pytest.raises(ValueError, match="align"):
        breakdown_report([0.5], [1, 2])


# -- summaries and serialization ------------------------------------------------------


def test_summary_carries_mean_count_and_stderr():
    s = summarize(np.array([1.0, 2.0, 3.0]))
    assert s.value == pytest.approx(2.0)
    assert s.count == 3
    assert s.stderr == pytest.approx(np.std([1, 2, 3], ddof=1) / np.sqrt(3))
    single = summarize(np.array([5.0]))
    assert single.stderr == 0.0
    empty = summarize(np.array([]))
    assert empty.value is None and empty.count == 0


def test_report_round_trips_through_json():
    report = breakdown_report([0.3, 0.8, 0.5], [2, 12, 3])
    report.metadata = {"split": "validation"}
    payload = json.loads(report.to_json())
    back = MetricsReport.from_json_dict(payload)
    assert back.metadata == {"split": "validation"}
    assert back.metrics["ndcg_overall"].value == pytest.approx(
        report.metrics["ndcg_overall"].value
    )
    assert set(back.breakdown) == set(report.breakdown)
    assert back.breakdown["6-10"].count == report.breakdown["6-10"].count


def test_empirical_behavior_feeds_divergence_pipeline():
    # a smoothed empirical estimate always has full support, so KL is finite
    mu = empirical_behavior_tabular(
        np.array([0, 0, 1]), np.array([1, 1, 0]), 2, 3, smoothing=0.5
    )
    assert np.all(mu > 0)
    v = kl_divergence(np.array([0.2, 0.5, 0.3]), mu[0])
    assert np.isfinite(v) and v >= 0
