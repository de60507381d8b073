"""Tests for the command-line interface: subcommands, outputs, exit codes."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from lpirec.cli import main
from lpirec.config import RunConfig


def write_config(path, **overrides):
    fields = dict(
        data_source="synthetic",
        synthetic_states=4,
        synthetic_catalog=8,
        synthetic_sessions=300,
        synthetic_horizon=3,
        synthetic_seed=1,
        dim=8,
        batch_size=128,
        learning_rate=0.05,
        behavior_learning_rate=0.05,
        epochs=1,
        behavior_epochs=1,
        objective="lpi",
        beta=0.5,
        td_weight=1.0,
        discount=0.0,
        seed=0,
    )
    fields.update(overrides)
    cfg = RunConfig(**fields)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_text())
    return cfg


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained run shared by the eval/diagnose command tests."""
    root = tmp_path_factory.mktemp("cli_run")
    config_path = str(root / "config.txt")
    write_config(config_path, output_dir=str(root / "out"))
    assert main(["train", "--config", config_path]) == 0
    return {
        "config": config_path,
        "checkpoint": str(root / "out" / "model.ckpt"),
        "meta": str(root / "out" / "model.ckpt.meta.json"),
        "behavior": str(root / "out" / "behavior.ckpt"),
    }


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("train", "eval", "diagnose"):
        assert command in out
    assert main(["train", "--help"]) == 0


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["train"]) == 1  # --config is required
    assert main(["eval", "--config", "x"]) == 1  # checkpoint and split are required
    capsys.readouterr()


def test_bad_split_choice_is_a_usage_error(trained, capsys):
    code = main([
        "eval", "--config", trained["config"],
        "--checkpoint", trained["checkpoint"], "--split", "dev",
    ])
    assert code == 1
    capsys.readouterr()


def test_train_writes_artifacts_and_prints_their_paths(tmp_path, capsys):
    config_path = str(tmp_path / "config.txt")
    write_config(config_path, output_dir=str(tmp_path / "out"))
    assert main(["train", "--config", config_path]) == 0
    out = capsys.readouterr().out
    printed = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert sorted(printed) == ["behavior", "checkpoint", "config", "log", "meta"]
    for path in printed.values():
        assert os.path.exists(path)
    with open(printed["log"]) as fh:
        log = json.load(fh)
    assert len(log["entries"]) >= 1


def test_eval_prints_and_writes_the_report(trained, tmp_path, capsys):
    output = str(tmp_path / "report.json")
    code = main([
        "eval", "--config", trained["config"],
        "--checkpoint", trained["checkpoint"], "--split", "test",
        "--output", output,
    ])
    assert code == 0
    printed = capsys.readouterr().out
    with open(output, encoding="utf-8") as fh:
        assert fh.read() == printed
    report = json.loads(printed)
    assert "hr_at_5" in report and "ndcg_at_20" in report
    assert "js_vs_behavior" in report  # behavior checkpoint sits next to the model


def test_eval_with_a_missing_checkpoint_fails_validation(trained, tmp_path, capsys):
    code = main([
        "eval", "--config", trained["config"],
        "--checkpoint", str(tmp_path / "nope.ckpt"), "--split", "test",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_eval_with_a_non_finite_checkpoint_fails_validation(trained, tmp_path, capsys):
    from lpirec.policy import load_checkpoint, save_checkpoint

    model = load_checkpoint(trained["checkpoint"])
    model.params["W"][0, 0] = float("nan")
    path = str(tmp_path / "nan.ckpt")
    save_checkpoint(model, path)
    code = main(["eval", "--config", trained["config"], "--checkpoint", path, "--split", "test"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'W'" in err and "non-finite" in err


def test_train_on_a_csv_with_a_short_row_fails_validation(tmp_path, capsys):
    data_path = tmp_path / "log.csv"
    data_path.write_text(
        "session_id,timestamp,item_id,event_type,rating\n"
        "s1,1,a,click,\n"
        "s1,2\n",
        encoding="utf-8",
    )
    config_path = str(tmp_path / "config.txt")
    write_config(
        config_path, data_source="csv", data_path=str(data_path), output_dir=str(tmp_path / "out")
    )
    assert main(["train", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3" in err


def test_train_on_a_csv_with_a_non_integer_timestamp_fails_validation(tmp_path, capsys):
    data_path = tmp_path / "log.csv"
    data_path.write_text(
        "session_id,timestamp,item_id,event_type,rating\n"
        "s1,1,a,click,\n"
        "s1,x2,b,click,\n",
        encoding="utf-8",
    )
    config_path = str(tmp_path / "config.txt")
    write_config(
        config_path, data_source="csv", data_path=str(data_path), output_dir=str(tmp_path / "out")
    )
    assert main(["train", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 3: column 'timestamp' holds 'x2'" in err


def test_bad_config_fails_validation(tmp_path, capsys):
    config_path = tmp_path / "config.txt"
    config_path.write_text("not_a_real_key=3\n")
    assert main(["train", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown key" in err


@pytest.mark.parametrize(
    "objective", ["objective = lpi\nbeta = 0", "td_weight = 1"], ids=["lpi-beta-0", "ce-td"]
)
def test_train_with_an_objective_its_rules_reject_creates_no_output(tmp_path, capsys, objective):
    config_path = tmp_path / "config.txt"
    out = tmp_path / "out"
    config_path.write_text(f"data_source = synthetic\n{objective}\noutput_dir = {out}\n")
    assert main(["train", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_missing_config_file_fails_validation(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "absent.txt")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_runtime_failures_exit_two(tmp_path, capsys, monkeypatch):
    config_path = str(tmp_path / "config.txt")
    write_config(config_path, output_dir=str(tmp_path / "out"))

    import lpirec.cli

    def explode(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(lpirec.cli, "run_train", explode)
    assert main(["train", "--config", config_path]) == 2
    assert capsys.readouterr().err == "runtime error: RuntimeError: boom\n"


def test_diagnose_prints_and_writes_the_table(trained, tmp_path, capsys):
    ckpts = []
    shutil.copyfile(trained["behavior"], tmp_path / "behavior.ckpt")
    for i, beta in enumerate((0.1, 10.0)):
        ckpt = str(tmp_path / f"model_{i}.ckpt")
        shutil.copyfile(trained["checkpoint"], ckpt)
        with open(trained["meta"]) as fh:
            meta = json.load(fh)
        meta["beta"] = beta
        with open(ckpt + ".meta.json", "w") as fh:
            json.dump(meta, fh)
        ckpts.append(ckpt)

    output = str(tmp_path / "sweep.csv")
    code = main([
        "diagnose", "--config", trained["config"],
        "--checkpoints", ckpts[0], ckpts[1], "--output", output,
    ])
    assert code == 0
    printed = capsys.readouterr().out
    with open(output, encoding="utf-8") as fh:
        assert fh.read() == printed
    header = printed.splitlines()[0]
    assert header == "checkpoint,hyperparameter,value,ndcg_click_at_20,ndcg_purchase_at_20,js_mean"
    assert len(printed.strip().splitlines()) == 3


def test_diagnose_with_one_checkpoint_fails_validation(trained, capsys):
    code = main([
        "diagnose", "--config", trained["config"], "--checkpoints", trained["checkpoint"],
    ])
    assert code == 1
    assert "at least two" in capsys.readouterr().err


def test_installed_command_responds_to_help():
    result = subprocess.run(
        [sys.executable, "-m", "lpirec.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "train" in result.stdout
