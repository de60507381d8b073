"""Run configuration: a flat key=value text format with typed validation.

Lines look like ``key = value``; ``#`` starts a comment; blank lines are
ignored. Every key has a declared type and default, unknown keys are
rejected, and values are validated on load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .data import EVENT_CLICK, EVENT_PURCHASE, EVENT_RATING
from .encoder import EncoderConfig
from .objectives import OBJECTIVE_KINDS, ObjectiveConfig
from .synth import MAX_WORLD_STATES


class ConfigError(ValueError):
    """Malformed, unknown, or invalid configuration entry."""


@dataclass(frozen=True)
class RunConfig:
    """All knobs of a training/evaluation run, with usable defaults."""

    # data
    data_source: str = "csv"  # "csv" reads data_path; "synthetic" simulates
    data_path: str = ""
    reward_click: float = 0.2
    reward_purchase: float = 1.0
    min_interactions: int = 3
    min_item_support: int = 3
    max_length: int = 20
    min_count_event: str = ""  # empty: every event counts toward min_interactions
    split_train: float = 0.8
    split_validation: float = 0.1
    split_test: float = 0.1
    loss_window: int = 50
    seed: int = 0
    # synthetic data source
    synthetic_states: int = 8
    synthetic_catalog: int = 20
    synthetic_sessions: int = 2000
    synthetic_horizon: int = 8
    synthetic_seed: int = 0
    # model
    dim: int = 64
    recency: float = 0.8
    tie_weights: bool = True
    # objective
    objective: str = "ce"
    beta: float = 1.0
    td_weight: float = 0.0
    discount: float = 0.0
    clip: float = 30.0
    max_policy_weight: float = 1e4
    target_refresh: int = 500
    # optimization
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 256
    epochs: int = 20
    behavior_epochs: int = 5
    behavior_learning_rate: float = 1e-3
    # evaluation
    eval_ks: str = "5,10,20"
    divergence_cap: int = 50000
    imputation_rank: int = 0  # 0 disables reward imputation
    imputation_missing_target: float = 0.25
    imputation_missing_weight: float = 0.05
    # output
    output_dir: str = "runs/exp"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.data_source not in ("csv", "synthetic"):
            raise ConfigError(f"data_source must be csv or synthetic, got {self.data_source!r}")
        events = ("", EVENT_CLICK, EVENT_PURCHASE, EVENT_RATING)
        if self.min_count_event not in events:
            raise ConfigError(f"min_count_event must be one of {events}, got {self.min_count_event!r}")
        if self.objective not in OBJECTIVE_KINDS:
            raise ConfigError(
                f"objective must be one of {', '.join(OBJECTIVE_KINDS)}; got {self.objective!r}"
            )
        positive = (
            "min_interactions",
            "min_item_support",
            "max_length",
            "loss_window",
            "dim",
            "batch_size",
            "learning_rate",
            "behavior_learning_rate",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("seed", "synthetic_seed", "epochs", "behavior_epochs", "imputation_rank"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ConfigError("adam_beta1 and adam_beta2 must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be positive")
        if self.divergence_cap <= 0:
            raise ConfigError("divergence_cap must be positive")
        if not self.eval_ks_list():
            raise ConfigError("eval_ks must list at least one positive integer")
        total = self.split_train + self.split_validation + self.split_test
        if abs(total - 1.0) > 1e-9 or min(
            self.split_train, self.split_validation, self.split_test
        ) < 0:
            raise ConfigError("split fractions must be non-negative and sum to 1")
        if not 0.0 < self.recency <= 1.0:
            raise ConfigError("recency must lie in (0, 1]")
        if not 1 <= self.synthetic_states <= MAX_WORLD_STATES:
            raise ConfigError(f"synthetic_states must lie in [1, {MAX_WORLD_STATES}]")
        if self.synthetic_catalog < self.synthetic_states:
            raise ConfigError("synthetic_catalog must be >= synthetic_states")
        if self.synthetic_sessions < 1:
            raise ConfigError("synthetic_sessions must be positive")
        if self.synthetic_horizon < 2:
            raise ConfigError("synthetic_horizon must be >= 2")
        if not 0.0 < self.imputation_missing_weight <= 1.0:
            raise ConfigError("imputation_missing_weight must lie in (0, 1]")
        self.objective_config()  # the objective's own rules, checked at load

    # -- conversions --------------------------------------------------------

    def eval_ks_list(self) -> list[int]:
        out = []
        for chunk in self.eval_ks.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            try:
                k = int(chunk)
            except ValueError as exc:
                raise ConfigError(f"eval_ks entries must be integers, got {chunk!r}") from exc
            if k < 1:
                raise ConfigError("eval_ks entries must be >= 1")
            out.append(k)
        return out

    def objective_config(self) -> ObjectiveConfig:
        try:
            return ObjectiveConfig(
                kind=self.objective,
                beta=self.beta,
                td_weight=self.td_weight,
                discount=self.discount,
                clip=self.clip,
                max_policy_weight=self.max_policy_weight,
                target_refresh=self.target_refresh,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def encoder_config(self, catalog_size: int) -> EncoderConfig:
        return EncoderConfig(
            catalog_size=catalog_size,
            dim=self.dim,
            recency=self.recency,
            tie_weights=self.tie_weights,
        )

    def to_text(self) -> str:
        """Render back to the key=value format (defaults included)."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key} expects a boolean, got {raw!r}")
    if kind == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} expects an integer, got {raw!r}") from exc
    if kind == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key} expects a number, got {raw!r}") from exc
    return raw


def parse_config_text(text: str) -> RunConfig:
    """Parse the key=value format; unknown or repeated keys are errors."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())
