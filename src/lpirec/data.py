"""Interaction data model: rewards, preprocessing, splitting, example expansion.

Raw logs are ordered per-session interaction lists. Preprocessing filters and
truncates sessions, densely re-indexes the surviving items, and the result is
expanded into (context prefix, action, reward) training examples.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field

import numpy as np

EVENT_CLICK = "click"
EVENT_PURCHASE = "purchase"
EVENT_RATING = "rating"
EVENT_SYNTHETIC = "synthetic"

DEFAULT_REWARD_CLICK = 0.2
DEFAULT_REWARD_PURCHASE = 1.0

_CSV_COLUMNS = ("session_id", "timestamp", "item_id", "event_type", "rating")


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


@dataclass
class Dataset:
    """Preprocessed sequences with a dense item index and per-sequence splits."""

    sequences: list[SessionSequence]
    catalog_size: int
    splits: dict[str, str] = field(default_factory=dict)

    def sequences_in(self, split: str) -> list[SessionSequence]:
        if not self.splits:
            raise ValueError("dataset has no split assignment; call split() first")
        return [s for s in self.sequences if self.splits[s.id] == split]


@dataclass(frozen=True)
class PreprocessRules:
    """Filtering thresholds applied by :func:`preprocess`.

    ``min_count_event`` restricts which events count toward
    ``min_interactions`` (e.g. "click" to count clicks only); None counts all.
    """

    min_interactions: int = 2
    min_item_support: int = 1
    max_length: int = 20
    min_count_event: str | None = None

    def __post_init__(self):
        if self.min_interactions < 1 or self.min_item_support < 1 or self.max_length < 1:
            raise ValueError("preprocessing rules must be positive integers")


def _countable_length(seq: SessionSequence, rules: PreprocessRules) -> int:
    if rules.min_count_event is None:
        return len(seq)
    return sum(1 for it in seq.interactions if it.event == rules.min_count_event)


def _item_sort_key(item):
    # ints before strings, each group in natural order; keeps a second
    # preprocessing pass an identity re-index (idempotence)
    return (1, str(item)) if isinstance(item, str) else (0, item)


def preprocess(raw_sequences: list[SessionSequence], rules: PreprocessRules) -> Dataset:
    """Truncate, filter, and densely re-index raw sequences.

    Each sequence is first truncated to its most recent ``max_length``
    interactions; then items with support (number of sequences they appear in)
    below ``min_item_support`` are removed and the ``min_interactions`` length
    filter re-applied, iterating until stable. The surviving raw item ids are
    re-indexed to a dense [0, catalog_size).
    """
    seqs = [
        SessionSequence(s.id, list(s.interactions[-rules.max_length :]))
        for s in raw_sequences
    ]
    while True:
        changed = False
        support: dict = {}
        for s in seqs:
            for item in set(s.items()):
                support[item] = support.get(item, 0) + 1
        dropped = {item for item, n in support.items() if n < rules.min_item_support}
        if dropped:
            changed = True
            seqs = [
                SessionSequence(s.id, [it for it in s.interactions if it.item not in dropped])
                for s in seqs
            ]
        kept = [s for s in seqs if _countable_length(s, rules) >= rules.min_interactions]
        if len(kept) != len(seqs):
            changed = True
        seqs = kept
        if not changed:
            break
    if not seqs:
        raise EmptyDatasetError("no sequences survive preprocessing")

    kept = sorted({item for s in seqs for item in s.items()}, key=_item_sort_key)
    index = {item: i for i, item in enumerate(kept)}
    remapped = [
        SessionSequence(
            s.id,
            [
                Interaction(index[it.item], it.event, it.reward, it.timestamp)
                for it in s.interactions
            ],
        )
        for s in seqs
    ]
    return Dataset(sequences=remapped, catalog_size=len(kept))


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

    n = len(dataset.sequences)
    floors = [int(f * n) for f in fractions]
    remainders = [f * n - c for f, c in zip(fractions, floors)]
    for _ in range(n - sum(floors)):
        i = max(range(3), key=lambda j: (remainders[j], -j))
        floors[i] += 1
        remainders[i] = -1.0

    def order_key(seq: SessionSequence) -> tuple:
        digest = hashlib.sha256(f"{seed}:{seq.id}".encode()).hexdigest()
        return (digest, seq.id)

    ordered = sorted(dataset.sequences, key=order_key)
    splits = {}
    bounds = (floors[0], floors[0] + floors[1])
    for i, seq in enumerate(ordered):
        if i < bounds[0]:
            splits[seq.id] = "train"
        elif i < bounds[1]:
            splits[seq.id] = "validation"
        else:
            splits[seq.id] = "test"
    return Dataset(dataset.sequences, dataset.catalog_size, splits)


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
    item longer.
    """

    contexts: RaggedContexts
    actions: np.ndarray
    rewards: np.ndarray
    terminals: np.ndarray
    reward_to_go: np.ndarray
    events: np.ndarray
    sequence_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.actions)

    @classmethod
    def of(cls, examples: list[TrainingExample] | ExampleColumns) -> ExampleColumns:
        """Listed TrainingExamples as columns, reward-to-go = reward; columns pass as is.

        Each next context must be its context followed by its action.
        """
        if isinstance(examples, cls):
            return examples
        for i, ex in enumerate(examples):
            if tuple(ex.next_context) != (*ex.context, ex.action):
                raise ValueError(
                    f"example {i}: next context {tuple(ex.next_context)} is not its "
                    f"context {tuple(ex.context)} followed by its action {ex.action}"
                )
        following = RaggedContexts.of(ex.next_context for ex in examples)
        rewards = np.array([ex.reward for ex in examples], dtype=float)
        return cls(
            contexts=RaggedContexts(following.items, following.starts, following.lengths - 1),
            actions=np.array([ex.action for ex in examples], dtype=np.int64),
            rewards=rewards,
            terminals=np.array([ex.terminal for ex in examples], dtype=bool),
            reward_to_go=rewards,
            events=np.array([ex.event for ex in examples], dtype=object),
            sequence_ids=np.array([ex.sequence_id for ex in examples], dtype=object),
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
    sequences: list[SessionSequence], loss_window: int, discount: float
) -> ExampleColumns:
    """The loss-window examples of ``sequences`` as flat arrays.

    Gives the examples of :func:`expand_examples` that are in_loss_window, in
    the same order, without building them. Reward-to-go sums each example's
    own tail of its sequence, which lies inside the window.
    """
    if loss_window < 1:
        raise ValueError("loss window must be >= 1")
    seq_lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    items = np.array([it.item for s in sequences for it in s.interactions], dtype=np.int64)
    rewards = np.array([it.reward for s in sequences for it in s.interactions], dtype=float)
    events = np.array([it.event for s in sequences for it in s.interactions], dtype=object)
    offsets = np.cumsum(seq_lengths) - seq_lengths
    window = np.minimum(loss_window, np.maximum(seq_lengths - 1, 0))
    owner = np.repeat(np.arange(len(sequences)), window)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(window) - window, window)
    lengths = (seq_lengths - window)[owner] + rank
    starts = offsets[owner]
    actions_at = starts + lengths
    example_rewards = rewards[actions_at]
    return ExampleColumns(
        contexts=RaggedContexts(items, starts, lengths),
        actions=items[actions_at],
        rewards=example_rewards,
        terminals=lengths == seq_lengths[owner] - 1,
        reward_to_go=discounted_returns(example_rewards, window, discount),
        events=events[actions_at],
        sequence_ids=np.array([s.id for s in sequences], dtype=object)[owner],
    )


def load_interactions_csv(
    path,
    reward_click: float = DEFAULT_REWARD_CLICK,
    reward_purchase: float = DEFAULT_REWARD_PURCHASE,
) -> list[SessionSequence]:
    """Parse the interaction CSV (session_id,timestamp,item_id,event_type,rating).

    Rewards are assigned here: click/purchase rows through the event map,
    rating rows through the rating map. The rating column may be empty for
    event rows.
    """
    groups: dict[str, list[Interaction]] = {}
    order: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in _CSV_COLUMNS[:4] if c not in header]
        if missing:
            raise ValueError(f"interaction CSV missing columns: {missing}")
        for row in reader:
            event = row["event_type"].strip()
            if event == EVENT_RATING:
                raw = (row.get("rating") or "").strip()
                if not raw:
                    raise ValueError(f"rating row without rating value: {row}")
                reward = map_rating_to_reward(int(raw))
            else:
                reward = map_event_to_reward(event, reward_click, reward_purchase)
            sid = row["session_id"].strip()
            inter = Interaction(
                item=row["item_id"].strip(),
                event=event,
                reward=reward,
                timestamp=int(row["timestamp"]),
            )
            if sid not in groups:
                groups[sid] = []
                order.append(sid)
            groups[sid].append(inter)
    sequences = []
    for sid in order:
        inters = sorted(groups[sid], key=lambda it: it.timestamp)
        sequences.append(SessionSequence(sid, inters))
    return sequences
