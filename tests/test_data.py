"""Reward maps, CSV ingestion, preprocessing, splitting, and example expansion."""

import csv
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from lpirec import synth
from lpirec.data import (
    Dataset,
    EmptyDatasetError,
    ExampleColumns,
    Interaction,
    PreprocessRules,
    SequenceTable,
    SessionSequence,
    expand_columns,
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


def test_csv_short_row_rejected_naming_its_line(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(
        "session_id,timestamp,item_id,event_type,rating\ns1,1,a,click,\ns1,2\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"line 3: .*'item_id', 'event_type'"):
        load_interactions_csv(path)


def test_csv_rating_row_without_value_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "session_id,timestamp,item_id,event_type,rating\nu1,0,m1,rating,\n"
    )
    with pytest.raises(ValueError, match="^line 2: rating row without rating value$"):
        load_interactions_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("s1,x2,b,click,", "line 3: column 'timestamp' holds 'x2', not an integer"),
        ("s1,2,b,rating,4.5", "line 3: column 'rating' holds '4.5', not an integer"),
    ],
)
def test_csv_bad_numbers_rejected_naming_line_and_column(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"session_id,timestamp,item_id,event_type,rating\ns1,1,a,rating,4\n{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as raised:
        load_interactions_csv(path)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "row, message",
    [
        ("s1,2,b,view,", "line 3: unknown event type 'view'"),
        ("s1,2,b,rating,7", "line 3: rating must be in 1..5, got 7"),
    ],
)
def test_csv_bad_event_or_rating_rejected_naming_its_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"session_id,timestamp,item_id,event_type,rating\ns1,1,a,click,\n{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as raised:
        load_interactions_csv(path)
    assert str(raised.value) == message


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


def test_a_count_event_the_data_does_not_hold_is_rejected_naming_it():
    raw = [clicks("a", ["x", "y"]), clicks("b", ["y", "x"])]
    with pytest.raises(
        EmptyDatasetError, match=r"min_count_event 'clicks' is not among the events \('click',\)"
    ):
        preprocess(raw, PreprocessRules(min_count_event="clicks"))


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


def test_a_row_selection_selects_every_column():
    def session(sid, items, events):
        return SessionSequence(
            sid,
            [
                Interaction(item=i, event=e, reward=0.1 * (t + 1), timestamp=t)
                for t, (i, e) in enumerate(zip(items, events))
            ],
        )

    columns = expand_columns(
        [
            session("a", [3, 1, 4, 1, 5], ["click", "purchase", "click", "click", "purchase"]),
            session("b", [9, 2, 6], ["click", "click", "purchase"]),
            session("c", [5, 3], ["click", "purchase"]),
        ],
        loss_window=3,
        discount=0.5,
    )
    names = ("actions", "rewards", "terminals", "reward_to_go", "events", "sequence_ids")
    rows = np.array([4, 0, 2, 2, 5])
    picked = columns[rows]
    assert isinstance(picked, ExampleColumns) and len(picked) == len(rows)
    assert list(picked.contexts) == [columns.contexts[i] for i in rows]
    for name in names:
        np.testing.assert_array_equal(getattr(picked, name), getattr(columns, name)[rows])
    assert set(picked.events) == {"click", "purchase"}
    assert set(picked.sequence_ids) == {"a", "b", "c"}

    inner = np.array([3, 0, 4])
    twice, once = picked[inner], columns[rows[inner]]
    assert list(twice.contexts) == list(once.contexts)
    for name in names:
        np.testing.assert_array_equal(getattr(twice, name), getattr(once, name))

    for selection in (columns, picked):
        following = selection.next_contexts
        assert following is selection.next_contexts
        assert list(following) == [
            (*context, action)
            for context, action in zip(selection.contexts, selection.actions)
        ]


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


# -- the sequence table --------------------------------------------------------


def reference_preprocess(raw, rules):
    """(sequences, catalog size) of preprocessing SessionSequence objects rule by rule."""
    seqs = [(s.id, list(s.interactions[-rules.max_length :])) for s in raw]
    while True:
        support = Counter(item for _, inters in seqs for item in {it.item for it in inters})
        kept = [
            (sid, [it for it in inters if support[it.item] >= rules.min_item_support])
            for sid, inters in seqs
        ]
        kept = [
            (sid, inters)
            for sid, inters in kept
            if sum(rules.min_count_event in (None, it.event) for it in inters)
            >= rules.min_interactions
        ]
        if kept == seqs:
            break
        seqs = kept
    raw_items = {it.item for _, inters in seqs for it in inters}
    index = {
        item: i
        for i, item in enumerate(sorted(raw_items, key=lambda x: (isinstance(x, str), x)))
    }
    sequences = [
        SessionSequence(sid, [replace(it, item=index[it.item]) for it in inters])
        for sid, inters in seqs
    ]
    return sequences, len(index)


def reference_examples(sequences, loss_window, discount):
    """The loss-window examples of SessionSequence objects, one position at a time."""
    rows = []
    for seq in sequences:
        items = [it.item for it in seq.interactions]
        n = len(items)
        for t in range(max(1, n - loss_window), n):
            reward_to_go = 0.0
            for it in reversed(seq.interactions[t:]):
                reward_to_go = it.reward + discount * reward_to_go
            inter = seq.interactions[t]
            rows.append(
                (tuple(items[:t]), items[t], inter.reward, t == n - 1, reward_to_go,
                 inter.event, seq.id)
            )
    return rows


def rows_of(columns):
    return list(zip(
        list(columns.contexts), columns.actions.tolist(), columns.rewards.tolist(),
        columns.terminals.tolist(), columns.reward_to_go.tolist(), columns.events.tolist(),
        columns.sequence_ids.tolist(),
    ))


def assert_splits_expand_like_the_reference(dataset, sequences, seed):
    dataset = split(dataset, (0.5, 0.25, 0.25), seed=seed)
    assert list(dataset.sequences) == sequences
    for name in ("train", "validation", "test"):
        expected = [s for s in sequences if dataset.splits[s.id] == name]
        assert list(dataset.sequences_in(name)) == expected
        for loss_window, discount in ((1, 0.0), (3, 0.5), (50, 0.9)):
            columns = expand_columns(dataset.sequences_in(name), loss_window, discount)
            assert rows_of(columns) == reference_examples(expected, loss_window, discount)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_generated_world_expands_like_its_rollout(seed):
    world = synth.make_random_world(seed, n_states=8, catalog_size=20)
    dataset = synth.generate_sessions(world, 120, 5, seed=seed + 1)
    items, rewards = synth._rollout(
        world.instance, world.instance.behavior, 120, 5, np.random.default_rng(seed + 1), "none"
    )
    sequences = [
        SessionSequence(f"w{i:03d}", [
            Interaction(int(item), "synthetic", reward, t)
            for t, (item, reward) in enumerate(zip(items[i], [0.0, *rewards[i]]))
        ])
        for i in range(120)
    ]
    assert_splits_expand_like_the_reference(dataset, sequences, seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_rating_csv_loads_preprocesses_and_expands_like_the_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    lines = [
        (f"u{rng.integers(0, 40)}", int(rng.integers(0, 30)), f"m{rng.integers(0, 25)}",
         "rating", int(rng.integers(1, 6)))
        for _ in range(600)
    ]
    path = tmp_path / "ratings.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("session_id", "timestamp", "item_id", "event_type", "rating"),
                                  *lines])
    groups = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            reward = {1: 0.0, 2: 0.0, 3: 0.5, 4: 1.0, 5: 1.0}[int(row["rating"])]
            groups.setdefault(row["session_id"], []).append(
                Interaction(row["item_id"], "rating", reward, int(row["timestamp"]))
            )
    # sessions in first-seen order, each stably sorted by timestamp
    raw = [SessionSequence(sid, sorted(g, key=lambda it: it.timestamp))
           for sid, g in groups.items()]
    table = load_interactions_csv(path)
    assert list(table) == raw
    with pytest.raises(ValueError, match="raw item ids; preprocess them first"):
        expand_columns(table, loss_window=2, discount=0.0)
    rules = PreprocessRules(min_interactions=3, min_item_support=2, max_length=6)
    sequences, catalog_size = reference_preprocess(raw, rules)
    dataset = preprocess(table, rules)
    assert dataset.catalog_size == catalog_size
    assert_splits_expand_like_the_reference(dataset, sequences, seed)


@pytest.mark.parametrize("seed", range(16))
def test_random_sequences_preprocess_and_expand_like_the_reference(seed):
    rng = np.random.default_rng(seed)
    pool = [*range(-3, 9), *(f"s{k}" for k in range(6)), "7", "10"]  # mixed str/int ids
    raw = [
        SessionSequence(f"q{k}", [
            Interaction(pool[rng.integers(len(pool))], ("click", "purchase")[rng.integers(2)],
                        float(rng.integers(0, 3)) / 2, int(t))
            for t in range(rng.integers(0, 12))
        ])
        for k in range(rng.integers(1, 25))
    ]
    rules = PreprocessRules(
        min_interactions=int(rng.integers(1, 4)),
        min_item_support=int(rng.integers(1, 4)),
        max_length=int(rng.integers(1, 9)),
        min_count_event=(None, "click", "purchase", "view")[seed % 4],
    )
    sequences, catalog_size = reference_preprocess(raw, rules)
    if not sequences:
        with pytest.raises(EmptyDatasetError):
            preprocess(raw, rules)
        return
    dataset = preprocess(raw, rules)
    assert dataset.catalog_size == catalog_size
    assert_splits_expand_like_the_reference(dataset, sequences, seed)


def test_duplicate_sequence_ids_are_rejected():
    # three sequences a, a, b would split (0.34, 0.33, 0.33) into [0, 2, 1] sequences
    raw = [clicks("a", [0, 1]), clicks("a", [1, 2]), clicks("b", [2, 0])]
    with pytest.raises(ValueError, match="duplicate sequence id 'a'"):
        Dataset(sequences=raw, catalog_size=3)
    with pytest.raises(ValueError, match="duplicate sequence id 'a'"):
        preprocess(raw, PreprocessRules())
    with pytest.raises(ValueError, match="duplicate sequence id 'a'"):
        expand_columns(raw, loss_window=2, discount=0.0)


@pytest.mark.parametrize(
    "row, message",
    [
        ("s1,2, ,click,", "line 3: column 'item_id' is blank"),
        (",2,z,click,", "line 3: column 'session_id' is blank"),
        (" ,2,z,click,", "line 3: column 'session_id' is blank"),
        ("s1,9223372036854775808,z,click,",
         "line 3: column 'timestamp' holds '9223372036854775808', outside int64"),
        ("s1,-9223372036854775809,z,click,",
         "line 3: column 'timestamp' holds '-9223372036854775809', outside int64"),
    ],
)
def test_csv_blank_ids_and_out_of_range_timestamps_rejected_naming_their_line(
    tmp_path, row, message
):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"session_id,timestamp,item_id,event_type,rating\ns1,1,a,click,\n{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as raised:
        load_interactions_csv(path)
    assert str(raised.value) == message


def test_the_int64_bounds_are_valid_timestamps(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text(
        "session_id,timestamp,item_id,event_type,rating\n"
        "s,9223372036854775807,b,click,\ns,-9223372036854775808,a,click,\n",
        encoding="utf-8",
    )
    (seq,) = load_interactions_csv(path)
    assert [(it.item, it.timestamp) for it in seq.interactions] == [
        ("a", -(2**63)), ("b", 2**63 - 1)
    ]


def test_a_dataset_reads_its_sequences_back_as_views():
    raw = [clicks("a", [0, 1, 2]), clicks("b", [2, 1]), clicks("c", [1])]
    dataset = Dataset(sequences=raw, catalog_size=3, splits={"a": "train", "c": "test"})
    assert isinstance(dataset.sequences, SequenceTable) and len(dataset.sequences) == 3
    assert list(dataset.sequences) == raw and dataset.sequences[-1] == raw[2]
    assert list(dataset.sequences[1:]) == raw[1:]
    assert dataset.splits == {"a": "train", "c": "test"}
    assert list(dataset.sequences_in("train")) == raw[:1]
    assert list(dataset.sequences_in("validation")) == []
    with pytest.raises(ValueError, match="unknown split 'tset'"):
        dataset.sequences_in("tset")
    with pytest.raises(ValueError, match="unknown split 'dev'"):
        Dataset(sequences=raw, catalog_size=3, splits={"a": "dev"})


def test_a_batch_selection_copies_no_object_column():
    columns = expand_columns([clicks("a", [0, 1, 2]), clicks("b", [2, 1])], 2, 0.0)
    picked = columns[np.array([2, 0])]
    shared = ("contexts", "event_names", "owner_ids")
    per_example = [f.name for f in fields(picked) if f.name not in shared]
    assert all(getattr(picked, name).dtype != object for name in per_example)
    assert picked.event_names is columns.event_names and picked.owner_ids is columns.owner_ids
    assert picked.sequence_ids.tolist() == ["b", "a"] and picked.events.tolist() == ["click"] * 2
