"""Flat key=value configuration: parsing, validation, and round trips."""

from dataclasses import fields

import pytest

from lpirec.config import ConfigError, RunConfig, load_config, parse_config_text


def test_defaults_carry_the_documented_constants():
    cfg = RunConfig()
    assert cfg.reward_click == 0.2
    assert cfg.reward_purchase == 1.0
    assert cfg.min_interactions == 3
    assert cfg.min_item_support == 3
    assert cfg.max_length == 20
    assert (cfg.split_train, cfg.split_validation, cfg.split_test) == (0.8, 0.1, 0.1)
    assert cfg.dim == 64
    assert cfg.clip == 30.0
    assert cfg.max_policy_weight == 1e4
    assert cfg.target_refresh == 500
    assert cfg.eval_ks_list() == [5, 10, 20]
    assert cfg.divergence_cap == 50_000


def test_parse_reads_comments_blanks_and_types():
    cfg = parse_config_text(
        """
        # experiment settings
        objective = lpi   # trailing comment
        beta = 0.5
        td_weight = 1.0
        discount = 0.9

        tie_weights = false
        epochs = 3
        data_source = synthetic
        """
    )
    assert cfg.objective == "lpi"
    assert cfg.beta == 0.5
    assert cfg.td_weight == 1.0
    assert cfg.tie_weights is False
    assert cfg.epochs == 3
    assert cfg.data_source == "synthetic"


@pytest.mark.parametrize("raw,expected", [("true", True), ("1", True), ("yes", True),
                                          ("false", False), ("0", False), ("no", False)])
def test_boolean_spellings(raw, expected):
    cfg = parse_config_text(f"tie_weights = {raw}\n")
    assert cfg.tie_weights is expected


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'learningrate'"):
        parse_config_text("epochs = 1\nlearningrate = 0.1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate key 'beta'"):
        parse_config_text("beta = 1.0\nbeta = 2.0\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="expected key = value"):
        parse_config_text("objective lpi\n")


@pytest.mark.parametrize(
    "line,message",
    [
        ("epochs = three", "integer"),
        ("beta = fast", "number"),
        ("tie_weights = maybe", "boolean"),
    ],
)
def test_type_errors_name_the_key(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(line + "\n")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"data_source": "parquet"},
        {"objective": "dqn"},
        {"dim": 0},
        {"batch_size": -1},
        {"learning_rate": 0.0},
        {"epochs": -1},
        {"adam_beta1": 1.0},
        {"adam_eps": 0.0},
        {"divergence_cap": 0},
        {"eval_ks": ""},
        {"eval_ks": "5,0"},
        {"eval_ks": "5,a"},
        {"split_train": 0.9, "split_validation": 0.2, "split_test": 0.1},
        {"split_train": 1.1, "split_validation": -0.05, "split_test": -0.05},
        {"recency": 0.0},
        {"recency": 1.5},
    ],
)
def test_field_validation(kwargs):
    with pytest.raises(ConfigError):
        RunConfig(**kwargs)


@pytest.mark.parametrize(
    "key,value",
    [
        ("synthetic_states", 0),
        ("synthetic_states", 65),
        ("synthetic_catalog", 0),
        ("synthetic_catalog", 7),
        ("synthetic_sessions", 0),
        ("synthetic_horizon", 1),
        ("imputation_missing_weight", 0.0),
        ("imputation_missing_weight", -0.5),
        ("imputation_missing_weight", 1.5),
        ("seed", -1),
        ("synthetic_seed", -1),
        ("min_count_event", "clicks"),
    ],
)
def test_world_sizes_and_imputer_weight_are_rejected_by_name(key, value):
    with pytest.raises(ConfigError, match=rf"^{key} must"):
        parse_config_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"^{key} must"):
        RunConfig(**{key: value})


def test_world_and_imputer_limits_are_accepted():
    RunConfig(synthetic_states=64, synthetic_catalog=64, synthetic_sessions=1, synthetic_horizon=2)
    RunConfig(synthetic_states=1, synthetic_catalog=1, imputation_missing_weight=1.0)


FLOAT_KEYS = [f.name for f in fields(RunConfig) if f.type == "float"]


def test_float_keys_cover_the_training_constants():
    assert {"learning_rate", "split_train", "beta", "td_weight", "adam_eps"} <= set(FLOAT_KEYS)


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_floats_are_rejected_by_name(key):
    for raw in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
            parse_config_text(f"{key} = {raw}\n")
    with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
        RunConfig(**{key: float("nan")})


def test_objective_validation_happens_at_config_level():
    with pytest.raises(ConfigError, match="td_weight"):
        RunConfig(objective="ce", td_weight=0.5).objective_config()
    with pytest.raises(ConfigError, match="lpi requires beta > 0"):
        RunConfig(objective="lpi", beta=0.0)
    with pytest.raises(ConfigError, match="td_weight must be 0"):
        parse_config_text("objective = ce\ntd_weight = 1\n")
    cfg = RunConfig(objective="lpi", beta=0.5, td_weight=1.0, discount=0.9)
    obj = cfg.objective_config()
    assert obj.kind == "lpi" and obj.beta == 0.5 and obj.discount == 0.9


def test_encoder_config_inherits_model_fields():
    cfg = RunConfig(dim=16, recency=0.5, tie_weights=False)
    enc = cfg.encoder_config(catalog_size=42)
    assert enc.catalog_size == 42
    assert enc.dim == 16
    assert enc.recency == 0.5
    assert enc.tie_weights is False


def test_eval_ks_parsing_tolerates_spacing():
    cfg = RunConfig(eval_ks=" 5, 10 ,20 ")
    assert cfg.eval_ks_list() == [5, 10, 20]


def test_text_round_trip_preserves_every_field():
    cfg = RunConfig(
        objective="lpi",
        beta=0.25,
        td_weight=1.0,
        discount=0.9,
        tie_weights=False,
        data_source="synthetic",
        eval_ks="10,20",
        output_dir="runs/sweep",
    )
    back = parse_config_text(cfg.to_text())
    assert back == cfg


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("objective = sqn\ntd_weight = 1.0\ndiscount = 0.5\n")
    cfg = load_config(path)
    assert cfg.objective == "sqn"
    assert cfg.discount == 0.5
