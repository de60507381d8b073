"""Seeded input generators for the cycle benchmark.

Each generator takes the workload seed and a work directory, writes the
files the program reads (an interaction CSV and a run config, or only the
config for the simulated world) and returns the config path together with a
short description of what it wrote. The same seed always produces
byte-identical files. Generation is not part of any timed phase.

    python3 cyclebench/inputs.py --workload ratings-imputed --seed 3 --out cyclebench/work
"""

from __future__ import annotations

import argparse
import csv
import os

import numpy as np

# -- world-lpi ---------------------------------------------------------------

WORLD = dict(states=64, catalog=300, sessions=12_000, horizon=5)

# -- ratings-imputed -----------------------------------------------------------

RATINGS = dict(
    users=700,
    catalog=400,
    factors=4,
    min_history=40,
    max_history=120,
    popularity_exponent=0.8,
)

# Training constants shared by every workload; the per-workload sections below
# override what makes each workload stress its own layer.
_COMMON = dict(
    objective="lpi",
    td_weight=1.0,
    beta=0.5,
    batch_size=256,
    eval_ks="5,10,20",
    tie_weights="true",
)

WORKLOAD_CONFIGS = {
    "world-lpi": dict(
        _COMMON,
        data_source="synthetic",
        synthetic_states=WORLD["states"],
        synthetic_catalog=WORLD["catalog"],
        synthetic_sessions=WORLD["sessions"],
        synthetic_horizon=WORLD["horizon"],
        dim=32,
        discount=0.5,
        learning_rate=0.02,
        behavior_learning_rate=0.05,
        epochs=3,
        behavior_epochs=2,
    ),
    "ratings-imputed": dict(
        _COMMON,
        data_source="csv",
        min_interactions=3,
        min_item_support=3,
        max_length=50,
        loss_window=50,
        dim=32,
        beta=1.0,
        discount=0.5,
        learning_rate=0.02,
        behavior_learning_rate=0.01,
        epochs=2,
        behavior_epochs=1,
        imputation_rank=4,
    ),
}

WORKLOADS = tuple(WORKLOAD_CONFIGS)


def _zipf_probs(n: int, exponent: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def _item_ids(rng: np.random.Generator, n: int) -> list[str]:
    """Distinct raw string ids that do not sort in popularity order."""
    codes = rng.choice(16**7, size=n, replace=False)
    return [f"sku-{c:07x}" for c in codes]


def _write_config(path: str, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


def _write_rows(path: str, rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("session_id", "timestamp", "item_id", "event_type", "rating"))
        writer.writerows(rows)


def write_world(seed: int, out: str) -> dict:
    """The world needs no data file: its parameters go into the run config."""
    return {"synthetic_seed": seed, "seed": seed}


def write_ratings(seed: int, out: str) -> dict:
    """Long rating histories: items drawn without replacement per user.

    A user's next item follows popularity tilted by a latent affinity, and
    the 1-5 rating is the quantized affinity plus noise, so ratings carry
    signal the imputer can recover.
    """
    p = RATINGS
    rng = np.random.default_rng([seed, 2])
    n_users, n_items, f = p["users"], p["catalog"], p["factors"]
    ids = _item_ids(rng, n_items)
    log_pop = np.log(_zipf_probs(n_items, p["popularity_exponent"]))[rng.permutation(n_items)]
    users = rng.standard_normal((n_users, f))
    items = rng.standard_normal((n_items, f))
    affinity = users @ items.T / np.sqrt(f)
    lengths = rng.integers(p["min_history"], p["max_history"] + 1, size=n_users)
    starts = rng.integers(900_000_000, 1_000_000_000, size=n_users)

    rows = []
    for u in range(n_users):
        # Gumbel top-k: a popularity- and affinity-weighted order without replacement
        keys = log_pop + affinity[u] + rng.gumbel(size=n_items)
        order = np.argsort(-keys, kind="stable")[: lengths[u]]
        noisy = affinity[u, order] + 0.5 * rng.standard_normal(len(order))
        ratings = np.clip(np.round(3.0 + 1.2 * noisy), 1, 5).astype(int)
        times = starts[u] + np.cumsum(rng.integers(60, 86_400, size=len(order)))
        for item, rating, t in zip(order, ratings, times):
            rows.append((f"u{u:05d}", int(t), ids[item], "rating", int(rating)))
    path = os.path.join(out, "ratings.csv")
    _write_rows(path, rows)
    return {"data_path": path, "seed": seed, "raw_rows": len(rows)}


_WRITERS = {
    "world-lpi": write_world,
    "ratings-imputed": write_ratings,
}


def generate(workload: str, seed: int, out: str) -> tuple[str, dict]:
    """Write the workload's inputs under ``out``; return (config path, facts)."""
    if workload not in _WRITERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(out, exist_ok=True)
    facts = _WRITERS[workload](seed, out)
    values = dict(WORKLOAD_CONFIGS[workload])
    values.update({k: v for k, v in facts.items() if k in ("data_path", "seed", "synthetic_seed")})
    config_path = os.path.join(out, f"{workload}.cfg")
    _write_config(config_path, values)
    return config_path, facts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    config_path, facts = generate(args.workload, args.seed, args.out)
    print(config_path, facts)


if __name__ == "__main__":
    main()
