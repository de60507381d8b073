"""Ranking metrics, greedy-reward metrics, divergences, and report plumbing."""

import json

import numpy as np
import pytest

from lpirec.estimators import SupportViolationError, empirical_behavior_tabular
from lpirec.metrics import (
    _DIVERGENCE_CHUNK,
    MetricsReport,
    ar_at_1,
    breakdown_report,
    bucket_label,
    hr_at_k,
    iar_at_1,
    js_divergence,
    kl_divergence,
    mean_divergence,
    model_selection_score,
    ndcg_at_k,
    rank_from_scores,
    rank_of,
    ranks_from_scores,
    summarize,
)


class TableModel:
    """Fixed per-context score rows standing in for a trained model."""

    def __init__(self, table):
        self.table = {tuple(k): np.asarray(v, dtype=float) for k, v in table.items()}

    def policy_logits(self, contexts):
        return np.stack([self.table[tuple(c)] for c in contexts])

    def probs(self, contexts):
        logits = self.policy_logits(contexts)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def greedy_actions(self, contexts):
        return np.argmax(self.policy_logits(contexts), axis=-1)


class RowPolicy:
    """Returns one fixed distribution for every context."""

    def __init__(self, row):
        self.row = np.asarray(row, dtype=float)

    def probs(self, contexts):
        return np.tile(self.row, (len(contexts), 1))


class IndexedPolicy:
    """Returns row ``c[0]`` of a fixed matrix for context ``c``."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)

    def probs(self, contexts):
        return self.rows[[c[0] for c in contexts]]


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
    scores = np.round(rng.standard_normal((40, 9)), 1)
    targets = rng.integers(0, 9, size=40)
    vec = ranks_from_scores(scores, targets)
    for i in range(40):
        assert vec[i] == rank_from_scores(scores[i], int(targets[i]))


def test_rank_of_reads_model_scores():
    model = TableModel({(0,): [0.5, 2.0, 1.0]})
    assert rank_of(model, (0,), 1) == 1
    assert rank_of(model, (0,), 2) == 2
    assert rank_of(model, (0,), 0) == 3


# -- greedy reward ----------------------------------------------------------------


def test_always_matching_greedy_with_unit_rewards_scores_one():
    model = TableModel({(0,): [0, 0, 9], (1,): [9, 0, 0]})
    triplets = ([(0,), (1,)], np.array([2, 0]), np.array([1.0, 1.0]))
    assert ar_at_1(model, triplets) == 1.0


def test_never_matching_greedy_scores_zero():
    model = TableModel({(0,): [9, 0, 0]})
    triplets = ([(0,), (0,)], np.array([1, 2]), np.array([1.0, 1.0]))
    assert ar_at_1(model, triplets) == 0.0


def test_mixed_case_matches_hand_count():
    model = TableModel({(0,): [9, 0, 0], (1,): [0, 9, 0]})
    contexts = [(0,), (0,), (1,), (1,)]
    actions = np.array([0, 1, 1, 2])
    rewards = np.array([0.2, 1.0, 1.0, 0.2])
    # matches at rows 0 and 2 -> (0.2 + 1.0) / 4
    assert ar_at_1(model, (contexts, actions, rewards)) == pytest.approx(0.3, abs=1e-15)


def test_empty_heldout_rejected():
    model = TableModel({})
    with pytest.raises(ValueError, match="non-empty"):
        ar_at_1(model, ([], np.array([]), np.array([])))


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
        triplets = (contexts, np.array(actions), np.array(rewards))
        uniform_model = TableModel({(x,): np.zeros(k) for x in range(6)})
        if ar_at_1(logging_model, triplets) >= ar_at_1(uniform_model, triplets):
            logging_wins += 1
    assert logging_wins >= 40  # expectation strongly favors the logging policy


# -- imputed greedy reward -----------------------------------------------------------


class ConstantImputer:
    def __init__(self, value):
        self.value = value

    def predict(self, user, item):
        return self.value


def test_constant_imputation_returns_the_constant(monkeypatch):
    import lpirec.metrics as metrics_mod
    import lpirec.synth as synth_mod

    monkeypatch.setattr(
        synth_mod, "impute_reward", lambda model, user, item: model.predict(user, item)
    )
    model = TableModel({(0,): [1.0, 0.0]})
    value = iar_at_1(model, [(0, (0,)), (1, (0,))], ConstantImputer(0.7))
    assert value == pytest.approx(0.7, abs=1e-15)


def test_indicator_imputation_reduces_to_greedy_match_rate(monkeypatch):
    import lpirec.synth as synth_mod

    observed = {0: 1, 1: 0}  # user -> item they actually took

    monkeypatch.setattr(
        synth_mod,
        "impute_reward",
        lambda model, user, item: 1.0 if observed[user] == item else 0.0,
    )
    model = TableModel({(0,): [0.0, 9.0], (1,): [0.0, 9.0]})
    # greedy picks item 1 for both users; only user 0 observed item 1
    value = iar_at_1(model, [(0, (0,)), (1, (1,))], imputation=None)
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
    assert iar_at_1(model, pairs, mf) == pytest.approx(float(expected), abs=1e-12)


def test_empty_imputation_heldout_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        iar_at_1(TableModel({}), [], ConstantImputer(0.0))


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


def sparse_distributions(rng, n, k):
    """n distributions over k items with about a third of the entries zero."""
    rows = rng.dirichlet(np.ones(k), size=n)
    rows[rng.random((n, k)) < 0.35] = 0.0
    rows[np.arange(n), rng.integers(0, k, size=n)] += 0.1
    return rows / rows.sum(axis=1, keepdims=True)


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
