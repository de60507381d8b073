"""Interaction data model: rewards, preprocessing, splitting, example expansion.

Raw logs are ordered per-session interactions, held as one flat
SequenceTable. Preprocessing filters and truncates sessions, densely
re-indexes the surviving items, and the result is expanded into (context
prefix, action, reward) training examples. SessionSequence and Interaction
objects exist only at the edge: as input, or as views built on demand.
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

EVENT_CLICK = "click"
EVENT_PURCHASE = "purchase"
EVENT_RATING = "rating"
EVENT_SYNTHETIC = "synthetic"

DEFAULT_REWARD_CLICK = 0.2
DEFAULT_REWARD_PURCHASE = 1.0

_CSV_COLUMNS = ("session_id", "timestamp", "item_id", "event_type", "rating")

SPLITS = ("train", "validation", "test")


class EmptyDatasetError(ValueError):
    """Preprocessing removed every sequence."""


def map_rating_to_reward(rating: int) -> float:
    """Collapse a 1..5 rating to a reward: {1,2} -> 0.0, {3} -> 0.5, {4,5} -> 1.0."""
    if rating in (1, 2):
        return 0.0
    if rating == 3:
        return 0.5
    if rating in (4, 5):
        return 1.0
    raise ValueError(f"rating must be in 1..5, got {rating!r}")


def map_event_to_reward(
    event: str,
    reward_click: float = DEFAULT_REWARD_CLICK,
    reward_purchase: float = DEFAULT_REWARD_PURCHASE,
) -> float:
    """Reward for a click/purchase event; the constants are configurable."""
    if event == EVENT_CLICK:
        return reward_click
    if event == EVENT_PURCHASE:
        return reward_purchase
    raise ValueError(f"unknown event type {event!r}")


@dataclass(frozen=True)
class Interaction:
    """One logged (item, event, reward) at a timestamp.

    ``item`` is a raw id (str or int) before preprocessing and a dense index
    in [0, catalog_size) afterwards.
    """

    item: int | str
    event: str
    reward: float
    timestamp: int


@dataclass
class SessionSequence:
    """Ordered interactions of one session/user."""

    id: str
    interactions: list[Interaction]

    def __len__(self) -> int:
        return len(self.interactions)

    def items(self) -> list:
        return [it.item for it in self.interactions]


@dataclass(frozen=True)
class TrainingExample:
    """One next-item transition: predict ``action`` from ``context``.

    ``next_context`` is context ++ [action]; ``terminal`` marks the last
    interaction of the source sequence; ``in_loss_window`` marks the most
    recent ``m`` positions, the only ones losses are computed over.
    """

    context: tuple[int, ...]
    action: int
    reward: float
    next_context: tuple[int, ...]
    terminal: bool
    in_loss_window: bool
    event: str
    sequence_id: str
    position: int


def _codes(values) -> tuple[np.ndarray, list]:
    """(each value's index among the distinct values, the distinct values in first-seen order)."""
    index: dict = {}
    codes = np.array([index.setdefault(v, len(index)) for v in values], dtype=np.int64)
    return codes, list(index)


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the ranges starts[i] : starts[i] + lengths[i], one after another."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def _split_code(name: str) -> int:
    if name not in SPLITS:
        raise ValueError(f"unknown split {name!r}; splits are {SPLITS}")
    return SPLITS.index(name)


@dataclass(frozen=True, eq=False)
class SequenceTable:
    """Sequences as flat columns, read as a list of SessionSequence views.

    Sequence s holds rows ``offsets[s] : offsets[s + 1]`` of ``items``,
    ``rewards``, ``events`` (indices into ``event_names``) and
    ``timestamps``. ``items`` are the item ids themselves, or indices into
    ``item_ids`` when that holds raw ids. ``splits`` holds each sequence's
    index into SPLITS, or -1. An int index builds that sequence's
    SessionSequence; any other index selects sequences into a new table.
    """

    ids: np.ndarray
    offsets: np.ndarray
    items: np.ndarray
    rewards: np.ndarray
    events: np.ndarray
    event_names: tuple[str, ...]
    timestamps: np.ndarray
    splits: np.ndarray
    item_ids: np.ndarray | None = None

    @classmethod
    def from_columns(
        cls, ids, lengths, items, rewards, events, event_names, timestamps, item_ids=None
    ) -> SequenceTable:
        """Sequence s is the next lengths[s] rows of the columns; no split is assigned."""
        return cls(
            ids=np.array(ids, dtype=object),
            offsets=np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))),
            items=np.asarray(items, dtype=np.int64),
            rewards=np.asarray(rewards, dtype=float),
            events=np.asarray(events, dtype=np.int64),
            event_names=tuple(event_names),
            timestamps=np.asarray(timestamps, dtype=np.int64),
            splits=np.full(len(ids), -1, dtype=np.int8),
            item_ids=None if item_ids is None else np.array(item_ids, dtype=object),
        )

    @classmethod
    def of(cls, sequences: Iterable[SessionSequence] | SequenceTable) -> SequenceTable:
        """SessionSequences as one table, with unique ids; a table passes as is."""
        if isinstance(sequences, cls):
            return sequences
        sequences = list(sequences)
        ids = [s.id for s in sequences]
        repeated = [sid for sid, n in Counter(ids).items() if n > 1]
        if repeated:
            raise ValueError(f"duplicate sequence id {repeated[0]!r}")
        rows = [it for s in sequences for it in s.interactions]
        items, item_ids = [it.item for it in rows], None
        if not all(isinstance(item, (int, np.integer)) for item in items):
            items, item_ids = _codes(items)
        events, event_names = _codes(it.event for it in rows)
        return cls.from_columns(
            ids,
            [len(s) for s in sequences],
            items,
            [it.reward for it in rows],
            events,
            event_names,
            [it.timestamp for it in rows],
            item_ids,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SequenceTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            s = range(len(self))[index]
            rows = slice(self.offsets[s], self.offsets[s + 1])
            items = self.items[rows] if self.item_ids is None else self.item_ids[self.items[rows]]
            columns = (items, self.events[rows], self.rewards[rows], self.timestamps[rows])
            interactions = [
                Interaction(item, self.event_names[event], reward, timestamp)
                for item, event, reward, timestamp in zip(*(c.tolist() for c in columns))
            ]
            return SessionSequence(self.ids[s], interactions)
        picked = np.arange(len(self))[index]
        lengths = np.diff(self.offsets)[picked]
        rows = _segments(self.offsets[picked], lengths)
        return replace(
            self,
            ids=self.ids[picked],
            offsets=np.concatenate(([0], np.cumsum(lengths))),
            items=self.items[rows],
            rewards=self.rewards[rows],
            events=self.events[rows],
            timestamps=self.timestamps[rows],
            splits=self.splits[picked],
        )

    def __iter__(self):
        return (self[s] for s in range(len(self)))


@dataclass(init=False)
class Dataset:
    """Preprocessed sequences with a dense item index and per-sequence splits.

    The sequences live in one SequenceTable. ``Dataset(sequences=...,
    catalog_size=..., splits=...)`` builds it from SessionSequences and an
    id -> split name map; ``sequences`` and ``sequences_in`` read it back as
    tables of SessionSequence views, built on demand and not kept.
    """

    table: SequenceTable
    catalog_size: int
    # results derived from this dataset alone, e.g. the reward imputer fit;
    # split() builds a new Dataset, so a re-split starts empty
    _memo: dict = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        sequences: Iterable[SessionSequence] = (),
        catalog_size: int = 0,
        splits: dict[str, str] | None = None,
        table: SequenceTable | None = None,
    ):
        table = SequenceTable.of(sequences) if table is None else table
        if splits is not None:
            codes = [_split_code(splits[sid]) if sid in splits else -1 for sid in table.ids]
            table = replace(table, splits=np.array(codes, dtype=np.int8))
        self.table = table
        self.catalog_size = catalog_size
        self._memo = {}

    @property
    def sequences(self) -> SequenceTable:
        """Every sequence; iterating or an int index builds SessionSequence views."""
        return self.table

    @property
    def splits(self) -> dict[str, str]:
        """Sequence id -> split name, for every sequence assigned one."""
        pairs = zip(self.table.ids.tolist(), self.table.splits.tolist())
        return {sid: SPLITS[code] for sid, code in pairs if code >= 0}

    def sequences_in(self, split: str) -> SequenceTable:
        if not np.any(self.table.splits >= 0):
            raise ValueError("dataset has no split assignment; call split() first")
        return self.table[self.table.splits == _split_code(split)]


@dataclass(frozen=True)
class PreprocessRules:
    """Filtering thresholds applied by :func:`preprocess`.

    ``min_count_event`` restricts which events count toward
    ``min_interactions`` (e.g. "click" to count clicks only); None counts all.
    :func:`preprocess` rejects an event that its data does not hold.
    """

    min_interactions: int = 2
    min_item_support: int = 1
    max_length: int = 20
    min_count_event: str | None = None

    def __post_init__(self):
        if self.min_interactions < 1 or self.min_item_support < 1 or self.max_length < 1:
            raise ValueError("preprocessing rules must be positive integers")


def _item_sort_key(item):
    # ints before strings, each group in natural order; keeps a second
    # preprocessing pass an identity re-index (idempotence)
    return (1, str(item)) if isinstance(item, str) else (0, item)


def preprocess(
    raw_sequences: Iterable[SessionSequence] | SequenceTable, rules: PreprocessRules
) -> Dataset:
    """Truncate, filter, and densely re-index raw sequences.

    Each sequence is first truncated to its most recent ``max_length``
    interactions; then items with support (number of sequences they appear in)
    below ``min_item_support`` are removed and the ``min_interactions`` length
    filter re-applied, iterating until stable. The surviving raw item ids are
    re-indexed to a dense [0, catalog_size).
    """
    table = SequenceTable.of(raw_sequences)
    if rules.min_count_event not in (None, *table.event_names):
        raise EmptyDatasetError(
            f"min_count_event {rules.min_count_event!r} is not among the events {table.event_names}"
        )
    if table.item_ids is None:
        raw_ids, items = np.unique(table.items, return_inverse=True)
    else:
        raw_ids, items = table.item_ids, table.items
    n, n_items = len(table), len(raw_ids)
    owner = np.repeat(np.arange(n), np.diff(table.offsets))
    rows = np.flatnonzero(table.offsets[1:][owner] - np.arange(len(owner)) <= rules.max_length)
    counted = np.array([rules.min_count_event in (None, e) for e in table.event_names], dtype=bool)
    live = np.ones(n, dtype=bool)
    while True:
        support = np.bincount(np.unique(owner[rows] * n_items + items[rows]) % n_items)
        dropped = support[items[rows]] < rules.min_item_support
        rows = rows[~dropped]
        lengths = np.bincount(owner[rows[counted[table.events[rows]]]], minlength=n)
        short = live & (lengths < rules.min_interactions)
        live &= ~short
        rows = rows[live[owner[rows]]]
        if not (dropped.any() or short.any()):
            break
    if not live.any():
        raise EmptyDatasetError("no sequences survive preprocessing")

    kept = sorted(np.unique(items[rows]).tolist(), key=lambda i: _item_sort_key(raw_ids[i]))
    dense = np.zeros(n_items, dtype=np.int64)
    dense[kept] = np.arange(len(kept))
    out = SequenceTable.from_columns(
        table.ids[live],
        np.bincount(owner[rows], minlength=n)[live],
        dense[items[rows]],
        table.rewards[rows],
        table.events[rows],
        table.event_names,
        table.timestamps[rows],
    )
    return Dataset(table=out, catalog_size=len(kept))


def split(
    dataset: Dataset, fractions: tuple[float, float, float], seed: int
) -> Dataset:
    """Assign every sequence to train/validation/test by a seeded hash shuffle.

    Counts follow the fractions exactly via largest remainders, so (0.8, 0.1,
    0.1) on 100 sequences gives (80, 10, 10).
    """
    if any(f < 0 for f in fractions):
        raise ValueError("split fractions must be non-negative")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must sum to 1, got {fractions}")

    ids = dataset.table.ids.tolist()
    n = len(ids)
    floors = [int(f * n) for f in fractions]
    remainders = [f * n - c for f, c in zip(fractions, floors)]
    for _ in range(n - sum(floors)):
        i = max(range(3), key=lambda j: (remainders[j], -j))
        floors[i] += 1
        remainders[i] = -1.0

    digests = [hashlib.sha256(f"{seed}:{sid}".encode()).hexdigest() for sid in ids]
    codes = np.empty(n, dtype=np.int8)
    codes[sorted(range(n), key=digests.__getitem__)] = np.repeat(np.arange(3), floors)
    table = replace(dataset.table, splits=codes)
    return Dataset(table=table, catalog_size=dataset.catalog_size)


def expand_examples(sequence: SessionSequence, loss_window: int) -> list[TrainingExample]:
    """Expand a sequence into one example per position t >= 1.

    The example at position t has context = items before t and action = the
    item at t. Exactly min(loss_window, len - 1) trailing examples are marked
    in_loss_window; the final one is terminal. Sequences shorter than 2 yield
    no examples.
    """
    if loss_window < 1:
        raise ValueError("loss window must be >= 1")
    n = len(sequence)
    if n < 2:
        return []
    items = sequence.items()
    window_start = (n - 1) - min(loss_window, n - 1)
    out = []
    for t in range(1, n):
        inter = sequence.interactions[t]
        out.append(
            TrainingExample(
                context=tuple(items[:t]),
                action=items[t],
                reward=inter.reward,
                next_context=tuple(items[: t + 1]),
                terminal=t == n - 1,
                in_loss_window=(t - 1) >= window_start,
                event=inter.event,
                sequence_id=sequence.id,
                position=t,
            )
        )
    return out


@dataclass(frozen=True)
class RaggedContexts:
    """Contexts as slices of one flat item array, read as a sequence of tuples.

    Context i is ``items[starts[i] : starts[i] + lengths[i]]``.
    """

    items: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, contexts) -> RaggedContexts:
        """Item sequences gathered into one flat array; a view is returned as is."""
        if isinstance(contexts, cls):
            return contexts
        contexts = list(contexts)
        lengths = np.array([len(c) for c in contexts], dtype=np.int64)
        items = np.array([item for c in contexts for item in c], dtype=np.int64)
        return cls(items, np.cumsum(lengths) - lengths, lengths)

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            start = self.starts[i]
            return tuple(self.items[start : start + self.lengths[i]].tolist())
        return RaggedContexts(self.items, self.starts[i], self.lengths[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@dataclass(frozen=True)
class ExampleColumns:
    """Examples as flat arrays, one entry per example.

    ``contexts`` views the concatenated items. An example's action is the
    item right after its context, so its next context is the same slice, one
    item longer. ``event_codes`` index ``event_names`` and ``owners`` index
    ``owner_ids``, the ids of the source sequences; ``events`` and
    ``sequence_ids`` read them back per example. Indexing with an index array
    selects those examples from every per-example column; a training step's
    batch is such a selection.
    """

    contexts: RaggedContexts
    actions: np.ndarray
    rewards: np.ndarray
    terminals: np.ndarray
    reward_to_go: np.ndarray
    event_codes: np.ndarray
    event_names: tuple[str, ...]
    owners: np.ndarray
    owner_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)

    def __getitem__(self, rows) -> ExampleColumns:
        return ExampleColumns(
            contexts=self.contexts[rows],
            actions=self.actions[rows],
            rewards=self.rewards[rows],
            terminals=self.terminals[rows],
            reward_to_go=self.reward_to_go[rows],
            event_codes=self.event_codes[rows],
            event_names=self.event_names,
            owners=self.owners[rows],
            owner_ids=self.owner_ids,
        )

    @property
    def events(self) -> np.ndarray:
        """Each example's event name, as an object array built on demand."""
        return np.array(self.event_names, dtype=object)[self.event_codes]

    @property
    def sequence_ids(self) -> np.ndarray:
        """Each example's source sequence id, as an object array built on demand."""
        return self.owner_ids[self.owners]

    @cached_property
    def next_contexts(self) -> RaggedContexts:
        """The contexts' view one item longer, built once per object."""
        contexts = self.contexts
        return RaggedContexts(contexts.items, contexts.starts, contexts.lengths + 1)

    @classmethod
    def of(cls, examples: Iterable[TrainingExample] | ExampleColumns) -> ExampleColumns:
        """TrainingExamples as columns, reward-to-go = reward; columns pass as is.

        ``examples`` is any iterable of TrainingExample, read once. Each next
        context must be its context followed by its action.
        """
        if isinstance(examples, cls):
            return examples
        examples = list(examples)
        for i, ex in enumerate(examples):
            if tuple(ex.next_context) != (*ex.context, ex.action):
                raise ValueError(
                    f"example {i}: next context {tuple(ex.next_context)} is not its "
                    f"context {tuple(ex.context)} followed by its action {ex.action}"
                )
        following = RaggedContexts.of(ex.next_context for ex in examples)
        rewards = np.array([ex.reward for ex in examples], dtype=float)
        event_codes, event_names = _codes(ex.event for ex in examples)
        owners, owner_ids = _codes(ex.sequence_id for ex in examples)
        return cls(
            contexts=RaggedContexts(following.items, following.starts, following.lengths - 1),
            actions=np.array([ex.action for ex in examples], dtype=np.int64),
            rewards=rewards,
            terminals=np.array([ex.terminal for ex in examples], dtype=bool),
            reward_to_go=rewards,
            event_codes=event_codes,
            event_names=tuple(event_names),
            owners=owners,
            owner_ids=np.array(owner_ids, dtype=object),
        )


def discounted_returns(rewards, segment_lengths, discount: float) -> np.ndarray:
    """G_t = r_t + discount * G_(t+1) within each consecutive segment of ``rewards``.

    The recurrence runs backward from every segment's end at once, one
    position per step, in the same floating-point order as a scalar loop.
    """
    rewards = np.asarray(rewards, dtype=float)
    segment_lengths = np.asarray(segment_lengths, dtype=np.int64)
    ends = np.cumsum(segment_lengths)
    out = np.zeros(len(rewards))
    acc = np.zeros(len(segment_lengths))
    for back in range(1, int(segment_lengths.max(initial=0)) + 1):
        live = np.flatnonzero(segment_lengths >= back)
        rows = ends[live] - back
        acc[live] = rewards[rows] + discount * acc[live]
        out[rows] = acc[live]
    return out


def expand_columns(
    sequences: Iterable[SessionSequence] | SequenceTable, loss_window: int, discount: float
) -> ExampleColumns:
    """The loss-window examples of ``sequences`` as flat arrays.

    Gives the examples of :func:`expand_examples` that are in_loss_window, in
    the same order, without building them. Reward-to-go sums each example's
    own tail of its sequence, which lies inside the window. A SequenceTable
    is sliced as it is; other sequences are gathered into one first.
    """
    if loss_window < 1:
        raise ValueError("loss window must be >= 1")
    table = SequenceTable.of(sequences)
    if table.item_ids is not None:
        raise ValueError("sequences hold raw item ids; preprocess them first")
    items = table.items
    seq_lengths = np.diff(table.offsets)
    window = np.minimum(loss_window, np.maximum(seq_lengths - 1, 0))
    owner = np.repeat(np.arange(len(table)), window)
    actions_at = _segments(table.offsets[1:] - window, window)
    starts = table.offsets[owner]
    lengths = actions_at - starts
    example_rewards = table.rewards[actions_at]
    return ExampleColumns(
        contexts=RaggedContexts(items, starts, lengths),
        actions=items[actions_at],
        rewards=example_rewards,
        terminals=lengths == seq_lengths[owner] - 1,
        reward_to_go=discounted_returns(example_rewards, window, discount),
        event_codes=table.events[actions_at],
        event_names=table.event_names,
        owners=owner,
        owner_ids=table.ids,
    )


def _csv_int(raw: str, column: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"column {column!r} holds {raw!r}, not an integer") from None


def _event_reward(event: str, rating: str | None, reward_click, reward_purchase):
    """(event name, reward) of a row's event_type and rating fields."""
    event = event.strip()
    if event != EVENT_RATING:
        return event, map_event_to_reward(event, reward_click, reward_purchase)
    raw = (rating or "").strip()
    if not raw:
        raise ValueError("rating row without rating value")
    return event, map_rating_to_reward(_csv_int(raw, "rating"))


def load_interactions_csv(
    path,
    reward_click: float = DEFAULT_REWARD_CLICK,
    reward_purchase: float = DEFAULT_REWARD_PURCHASE,
) -> SequenceTable:
    """Parse the interaction CSV (session_id,timestamp,item_id,event_type,rating).

    Rewards are assigned here: click/purchase rows through the event map,
    rating rows through the rating map. The rating column may be empty for
    event rows. Sessions keep the order of their first rows, and each
    session's rows are stably sorted by timestamp. Items stay raw ids
    (the table's ``item_ids``) until :func:`preprocess`.
    """
    records = []
    parsed: dict = {}  # (event_type, rating) field pair -> (event, reward)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        at = {name: j for j, name in enumerate(header)}
        missing = [c for c in _CSV_COLUMNS[:4] if c not in at]
        if missing:
            raise ValueError(f"interaction CSV missing columns: {missing}")
        if "rating" not in at:
            at["rating"] = len(header)
            header = [*header, "rating"]
        sid_at, ts_at, item_at, event_at, rating_at = (at[c] for c in _CSV_COLUMNS)
        for row in reader:
            if not row:
                continue  # a blank line holds no row
            try:
                if len(row) < len(header):
                    row += [None] * (len(header) - len(row))
                    short = [c for c in _CSV_COLUMNS[:4] if row[at[c]] is None]
                    if short:
                        raise ValueError(f"row has no value for {short}")
                key = (row[event_at], row[rating_at])
                if key not in parsed:
                    parsed[key] = _event_reward(*key, reward_click, reward_purchase)
                event, reward = parsed[key]
                timestamp = _csv_int(row[ts_at], "timestamp")
                if not -(2**63) <= timestamp < 2**63:
                    raise ValueError(f"column 'timestamp' holds {row[ts_at]!r}, outside int64")
                sid, item = row[sid_at].strip(), row[item_at].strip()
                if not (sid and item):
                    raise ValueError(f"column {'item_id' if sid else 'session_id'!r} is blank")
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            records.append((sid, item, event, reward, timestamp))
    sessions, items, events, rewards, timestamps = zip(*records) if records else [()] * 5
    owner, session_ids = _codes(sessions)
    item_codes, item_ids = _codes(items)
    event_codes, event_names = _codes(events)
    timestamps = np.array(timestamps, dtype=np.int64)
    order = np.lexsort((timestamps, owner))  # stable: ties keep file order
    return SequenceTable.from_columns(
        session_ids,
        np.bincount(owner, minlength=len(session_ids)),
        item_codes[order],
        np.array(rewards, dtype=float)[order],
        event_codes[order],
        event_names,
        timestamps[order],
        item_ids,
    )
