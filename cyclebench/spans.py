"""In-memory span tracing around the package's public calls.

The package imports functions by name (``from .objectives import
prepare_step`` in ``training``, ``from .encoder import encode`` in
``policy``), so a span has to replace the name where it is looked up at the
call site, not where it is defined. ``Tracer.install`` does that for every
layer boundary in ``BOUNDARIES`` and ``Tracer.uninstall`` puts the original
objects back, so an untraced run executes the package unchanged.

Each span is ``[name, start_ns, end_ns, parent, phase]``; ``parent`` is the
index of the enclosing span (-1 at the top) and ``phase`` the id of the cycle
phase it ran in. Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns


def _pad_counts(counts, args, kwargs, result):
    counts["encoder.pad_filled"] += int(result.lengths.sum())
    counts["encoder.pad_cells"] += int(result.indices.size)


def _encode_counts(counts, args, kwargs, result):
    counts["encoder.encode_rows"] += int(result.state.shape[0])


def _adam_counts(counts, args, kwargs, result):
    grads = args[2] if len(args) > 2 else kwargs["grads"]
    counts["encoder.adam_params"] += sum(int(g.size) for g in grads.values())
    counts["training.gradient_steps"] += 1


def _head_counts(counts, args, kwargs, result):
    counts["policy.head_cells"] += int(result.size)


def _expand_counts(counts, args, kwargs, result):
    counts["data.examples_expanded"] += len(result)


def _rank_counts(counts, args, kwargs, result):
    counts["metrics.ranked_cells"] += int(args[0].size)


def _divergence_counts(counts, args, kwargs, result):
    contexts = args[2] if len(args) > 2 else kwargs["contexts"]
    cap = args[4] if len(args) > 4 else kwargs.get("cap")
    counts["metrics.divergence_contexts"] += len(contexts) if cap is None else min(len(contexts), cap)


# (module, attribute, span name, count function). A module entry names the
# module whose global binding the call site reads; a class entry replaces the
# method on the class, which every instance looks up.
BOUNDARIES = (
    ("lpirec.training", "load_interactions_csv", "data.load_interactions_csv", None),
    ("lpirec.training", "preprocess", "data.preprocess", None),
    ("lpirec.training", "split", "data.split", None),
    ("lpirec.training", "expand_examples", "data.expand_examples", _expand_counts),
    ("lpirec.synth", "generate_sessions", "synth.generate_sessions", None),
    ("lpirec.training", "fit_weighted_mf", "synth.fit_weighted_mf", None),
    ("lpirec.policy", "pad_contexts", "encoder.pad_contexts", _pad_counts),
    ("lpirec.objectives", "pad_contexts", "encoder.pad_contexts", _pad_counts),
    ("lpirec.policy", "encode", "encoder.encode", _encode_counts),
    ("lpirec.policy", "encode_backward", "encoder.encode_backward", None),
    ("lpirec.encoder:Adam", "step", "encoder.adam_step", _adam_counts),
    ("lpirec.policy:SequenceModel", "policy_logits_from", "policy.head", _head_counts),
    ("lpirec.policy:SequenceModel", "q_values_from", "policy.head", _head_counts),
    ("lpirec.policy:SequenceModel", "backward", "policy.backward", None),
    ("lpirec.policy:SequenceModel", "copy", "policy.copy", None),
    ("lpirec.training", "prepare_step", "objectives.prepare_step", None),
    ("lpirec.training", "evaluate_prepared", "objectives.evaluate_prepared", None),
    ("lpirec.training", "build_batch", "objectives.build_batch", None),
    ("lpirec.training", "ranks_from_scores", "metrics.ranks_from_scores", _rank_counts),
    ("lpirec.training", "mean_divergence", "metrics.mean_divergence", _divergence_counts),
    ("lpirec.training", "evaluate_examples", "training.evaluate_examples", None),
    ("lpirec.training", "batched_policy_scores", "training.batched_policy_scores", None),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Collects spans and counts while installed; idle otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.phase = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.phase])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, original, name: str, count):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for target, attr, name, count in BOUNDARIES:
            owner = _resolve(target)
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_table(self) -> dict[str, dict]:
        """name -> {calls, total_s, self_s} over every recorded span."""
        table: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (span[2] - span[1]) / 1e9
            row["self_s"] += own / 1e9
        return table

    def count_under(self, name: str, ancestors: set[str], phase: int) -> int:
        """Spans called ``name`` in ``phase`` that run inside one of ``ancestors``."""
        hits = 0
        for span in self.spans:
            if span[0] != name or span[4] != phase:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] not in ancestors:
                parent = self.spans[parent][3]
            hits += parent >= 0
        return hits

    def write(self, path: str, phases: dict[int, str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "phase"],
                    "phases": {str(k): v for k, v in phases.items()},
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
            )
