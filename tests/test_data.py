"""Reward maps, CSV ingestion, preprocessing, splitting, and example expansion."""

from dataclasses import replace

import numpy as np
import pytest

from lpirec.data import (
    Dataset,
    EmptyDatasetError,
    ExampleColumns,
    Interaction,
    PreprocessRules,
    SessionSequence,
    expand_examples,
    load_interactions_csv,
    map_event_to_reward,
    map_rating_to_reward,
    preprocess,
    split,
)


def clicks(sid, items, start_ts=0):
    return SessionSequence(
        sid,
        [
            Interaction(item=i, event="click", reward=0.2, timestamp=start_ts + t)
            for t, i in enumerate(items)
        ],
    )


# -- reward maps ---------------------------------------------------------------


def test_rating_map_collapses_to_three_reward_levels():
    assert map_rating_to_reward(1) == 0.0
    assert map_rating_to_reward(2) == 0.0
    assert map_rating_to_reward(3) == 0.5
    assert map_rating_to_reward(4) == 1.0
    assert map_rating_to_reward(5) == 1.0


@pytest.mark.parametrize("bad", [0, 6, -3, 100])
def test_rating_map_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        map_rating_to_reward(bad)


def test_event_map_defaults():
    assert map_event_to_reward("purchase") == 1.0
    assert map_event_to_reward("click") == 0.2


def test_event_map_accepts_overrides():
    assert map_event_to_reward("click", reward_click=0.5) == 0.5
    assert map_event_to_reward("purchase", reward_purchase=2.0) == 2.0


def test_event_map_rejects_unknown_event():
    with pytest.raises(ValueError):
        map_event_to_reward("install")


# -- CSV ingestion ---------------------------------------------------------------


def test_csv_rows_grouped_by_session_and_sorted_by_timestamp(tmp_path):
    path = tmp_path / "logs.csv"
    path.write_text(
        "session_id,timestamp,item_id,event_type,rating\n"
        "s1,3,itemC,purchase,\n"
        "s2,1,itemA,click,\n"
        "s1,1,itemA,click,\n"
        "s1,2,itemB,click,\n"
    )
    seqs = load_interactions_csv(path)
    assert [s.id for s in seqs] == ["s1", "s2"]
    s1 = seqs[0]
    assert [it.item for it in s1.interactions] == ["itemA", "itemB", "itemC"]
    assert [it.timestamp for it in s1.interactions] == [1, 2, 3]
    assert [it.reward for it in s1.interactions] == [0.2, 0.2, 1.0]


def test_csv_rating_rows_use_rating_map(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text(
        "session_id,timestamp,item_id,event_type,rating\n"
        "u1,0,m1,rating,5\n"
        "u1,1,m2,rating,3\n"
        "u1,2,m3,rating,1\n"
    )
    (seq,) = load_interactions_csv(path)
    assert [it.reward for it in seq.interactions] == [1.0, 0.5, 0.0]


def test_csv_missing_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("session_id,timestamp,item_id\na,0,b\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_interactions_csv(path)


def test_csv_rating_row_without_value_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "session_id,timestamp,item_id,event_type,rating\nu1,0,m1,rating,\n"
    )
    with pytest.raises(ValueError, match="rating"):
        load_interactions_csv(path)


def test_csv_custom_event_rewards_flow_through(tmp_path):
    path = tmp_path / "logs.csv"
    path.write_text(
        "session_id,timestamp,item_id,event_type,rating\ns,0,i,click,\n"
    )
    (seq,) = load_interactions_csv(path, reward_click=0.7)
    assert seq.interactions[0].reward == 0.7


# -- preprocessing ---------------------------------------------------------------


def test_short_sequences_dropped():
    raw = [clicks("a", ["x", "y"]), clicks("b", ["x", "y", "z"])]
    ds = preprocess(raw, PreprocessRules(min_interactions=3, min_item_support=1))
    assert [s.id for s in ds.sequences] == ["b"]


def test_long_sequences_keep_most_recent_interactions():
    raw = [clicks("a", [f"i{t}" for t in range(25)]), clicks("b", [f"i{t}" for t in range(25)])]
    ds = preprocess(raw, PreprocessRules(min_interactions=3, min_item_support=1, max_length=20))
    assert all(len(s) == 20 for s in ds.sequences)
    # the survivors are the last 20 raw items, i5..i24
    raw_kept = {f"i{t}" for t in range(5, 25)}
    assert ds.catalog_size == len(raw_kept)


def test_low_support_items_removed():
    # "rare" appears in 2 sequences; support threshold 3 removes it everywhere
    raw = [
        clicks("a", ["rare", "c1", "c2", "c3"]),
        clicks("b", ["rare", "c1", "c2", "c3"]),
        clicks("c", ["c1", "c2", "c3"]),
    ]
    ds = preprocess(raw, PreprocessRules(min_interactions=3, min_item_support=3))
    assert ds.catalog_size == 3
    assert all(len(s) == 3 for s in ds.sequences)


def test_item_removal_can_cascade_into_sequence_removal():
    # removing the rare item leaves "a" with 2 interactions -> dropped
    raw = [
        clicks("a", ["rare", "c1", "c2"]),
        clicks("b", ["c1", "c2", "c3"]),
        clicks("c", ["c1", "c2", "c3"]),
        clicks("d", ["c1", "c2", "c3"]),
    ]
    ds = preprocess(raw, PreprocessRules(min_interactions=3, min_item_support=3))
    assert sorted(s.id for s in ds.sequences) == ["b", "c", "d"]


def test_sequence_removal_can_cascade_into_item_removal():
    # dropping short sequences erodes "x"'s support below the threshold,
    # which in turn shortens "a"; the filters iterate to a fixpoint
    raw = [
        clicks("a", ["x", "c1", "c2", "c3"]),
        clicks("b", ["x", "c1"]),
        clicks("c", ["x", "c2"]),
        clicks("d", ["c1", "c2", "c3"]),
        clicks("e", ["c1", "c2", "c3"]),
    ]
    ds = preprocess(raw, PreprocessRules(min_interactions=3, min_item_support=3))
    assert sorted(s.id for s in ds.sequences) == ["a", "d", "e"]
    assert ds.catalog_size == 3  # c1, c2, c3 only


def test_item_indices_remapped_densely():
    raw = [clicks(f"s{k}", ["zz", "aa", "mm"]) for k in range(3)]
    ds = preprocess(raw, PreprocessRules(min_interactions=3, min_item_support=1))
    seen = {it.item for s in ds.sequences for it in s.interactions}
    assert seen == set(range(ds.catalog_size))
    assert ds.catalog_size == 3


def test_empty_result_raises_empty_dataset_error():
    raw = [clicks("a", ["x"]), clicks("b", ["y"])]
    with pytest.raises(EmptyDatasetError):
        preprocess(raw, PreprocessRules(min_interactions=3, min_item_support=1))


def test_min_count_event_restricts_which_events_count():
    seq = SessionSequence(
        "s",
        [
            Interaction("i1", "click", 0.2, 0),
            Interaction("i2", "purchase", 1.0, 1),
            Interaction("i3", "purchase", 1.0, 2),
        ],
    )
    rules_all = PreprocessRules(min_interactions=3, min_item_support=1)
    assert len(preprocess([seq], rules_all).sequences) == 1
    rules_clicks = PreprocessRules(
        min_interactions=3, min_item_support=1, min_count_event="click"
    )
    with pytest.raises(EmptyDatasetError):
        preprocess([seq], rules_clicks)


def test_preprocess_is_idempotent_on_random_inputs():
    rng = np.random.default_rng(0)
    rules = PreprocessRules(min_interactions=3, min_item_support=3, max_length=10)
    for trial in range(20):
        raw = [
            clicks(
                f"s{k}",
                [int(i) for i in rng.integers(0, 15, size=rng.integers(1, 15))],
            )
            for k in range(30)
        ]
        try:
            once = preprocess(raw, rules)
        except EmptyDatasetError:
            continue
        twice = preprocess(once.sequences, rules)
        assert twice.catalog_size == once.catalog_size
        assert [s.id for s in twice.sequences] == [s.id for s in once.sequences]
        for s1, s2 in zip(once.sequences, twice.sequences):
            assert [it.item for it in s1.interactions] == [
                it.item for it in s2.interactions
            ]


def test_preprocess_rejects_nonpositive_rules():
    with pytest.raises(ValueError):
        PreprocessRules(min_interactions=0)
    with pytest.raises(ValueError):
        PreprocessRules(max_length=0)


# -- splitting ---------------------------------------------------------------


def make_dataset(n):
    seqs = [clicks(f"s{k:03d}", [0, 1, 2]) for k in range(n)]
    return Dataset(sequences=seqs, catalog_size=3)


def test_split_counts_match_fractions_exactly():
    ds = split(make_dataset(100), (0.8, 0.1, 0.1), seed=7)
    counts = {name: len(ds.sequences_in(name)) for name in ("train", "validation", "test")}
    assert counts == {"train": 80, "validation": 10, "test": 10}


def test_split_is_deterministic_per_seed():
    a = split(make_dataset(50), (0.8, 0.1, 0.1), seed=3)
    b = split(make_dataset(50), (0.8, 0.1, 0.1), seed=3)
    assert a.splits == b.splits
    c = split(make_dataset(50), (0.8, 0.1, 0.1), seed=4)
    assert a.splits != c.splits  # overwhelmingly likely with 50 sequences


def test_split_covers_every_sequence_exactly_once():
    ds = split(make_dataset(37), (0.6, 0.2, 0.2), seed=1)
    assert set(ds.splits) == {s.id for s in ds.sequences}
    total = sum(len(ds.sequences_in(name)) for name in ("train", "validation", "test"))
    assert total == 37


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        split(make_dataset(10), (0.5, 0.5, 0.1), seed=0)
    with pytest.raises(ValueError):
        split(make_dataset(10), (1.2, -0.1, -0.1), seed=0)


def test_sequences_in_requires_assigned_splits():
    with pytest.raises(ValueError):
        make_dataset(3).sequences_in("train")


# -- example expansion ---------------------------------------------------------


def test_three_item_sequence_expands_to_two_examples():
    exs = expand_examples(clicks("s", [10, 11, 12]), loss_window=50)
    assert len(exs) == 2
    assert all(ex.in_loss_window for ex in exs)
    assert [ex.terminal for ex in exs] == [False, True]
    assert exs[0].context == (10,) and exs[0].action == 11
    assert exs[1].context == (10, 11) and exs[1].action == 12


def test_long_sequence_windows_only_recent_examples():
    exs = expand_examples(clicks("s", list(range(200))), loss_window=50)
    assert len(exs) == 199
    assert sum(ex.in_loss_window for ex in exs) == 50
    # the window is the trailing block
    assert all(ex.in_loss_window for ex in exs[-50:])
    assert not any(ex.in_loss_window for ex in exs[:-50])


def test_pair_sequence_single_terminal_example():
    exs = expand_examples(clicks("s", [4, 9]), loss_window=1)
    assert len(exs) == 1
    assert exs[0].in_loss_window and exs[0].terminal


def test_short_sequences_yield_no_examples():
    assert expand_examples(clicks("s", [5]), loss_window=3) == []
    assert expand_examples(SessionSequence("s", []), loss_window=3) == []


def test_next_context_appends_the_action():
    for ex in expand_examples(clicks("s", [3, 1, 4, 1, 5]), loss_window=2):
        assert ex.next_context == ex.context + (ex.action,)


def test_columns_reject_a_next_context_that_is_not_context_then_action():
    good = expand_examples(clicks("s", [3, 1, 4]), loss_window=2)
    assert ExampleColumns.of(good).contexts[1] == (3, 1)
    bad = replace(good[0], context=(0,), action=1, next_context=(5, 2))
    with pytest.raises(ValueError, match="not its context .* followed by its action"):
        ExampleColumns.of([good[1], bad])


def test_example_counts_and_window_sizes_on_random_lengths():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 40))
        exs = expand_examples(clicks("s", list(range(n))), loss_window=m)
        assert len(exs) == n - 1
        assert sum(ex.in_loss_window for ex in exs) == min(m, n - 1)
        assert sum(ex.terminal for ex in exs) == 1 and exs[-1].terminal


def test_expand_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        expand_examples(clicks("s", [1, 2, 3]), loss_window=0)
