"""Command line driver tests: schemas, determinism, exit codes, artifacts."""

import argparse
import json
import os
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from qccnn import cli
from qccnn.cli import (
    ED_TABLE_KEYS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    build_config,
    main,
    read_config_file,
    read_metrics_csv,
)

SMALL_DATA = "synthetic:seed=0,train_n=24,val_n=8"


def _train(tmp_path, name, *extra):
    out = tmp_path / name
    code = main([
        "train", "--ansatz", "classical", "--data", SMALL_DATA,
        "--epochs", "3", "--seeds", "0,1", "--out", str(out), *extra,
    ])
    assert code == EXIT_OK
    return out


def test_train_artifacts_and_schema(tmp_path):
    out = _train(tmp_path, "run")
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,seed,train_acc,train_loss,val_acc,val_loss"
    body = [line.split(",") for line in metrics[1:]]
    seeds = {row[1] for row in body}
    assert seeds == {"0", "1", "agg"}
    assert sum(row[1] == "0" for row in body) == 3  # one row per epoch
    assert sum(row[1] == "agg" for row in body) == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["epochs"] == 3
    assert summary["config"]["lr"] == 0.001  # defaults echoed
    assert summary["dataset"]["train_n"] == 24
    assert (out / "checkpoint_seed0.json").is_file()
    assert (out / "checkpoint_seed1.json").is_file()


def test_train_rerun_byte_identical(tmp_path):
    first = _train(tmp_path, "a") / "metrics.csv"
    second = _train(tmp_path, "b") / "metrics.csv"
    assert first.read_bytes() == second.read_bytes()


def test_summary_reproducible_from_metrics(tmp_path):
    out = _train(tmp_path, "run")
    summary = json.loads((out / "summary.json").read_text())
    per_seed = read_metrics_csv(out / "metrics.csv")
    max_val = [max(v[2] for v in rec.values()) for rec in per_seed.values()]
    assert summary["max_val_acc"]["mean"] == pytest.approx(float(np.mean(max_val)))
    assert summary["max_val_acc"]["std"] == pytest.approx(float(np.std(max_val)))


def test_train_quantum_ansatz_same_schema(tmp_path):
    out = tmp_path / "q"
    code = main([
        "train", "--ansatz", "select-tanh", "--data", SMALL_DATA,
        "--epochs", "1", "--seeds", "0", "--out", str(out),
    ])
    assert code == EXIT_OK
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,seed,train_acc,train_loss,val_acc,val_loss"


def test_invalid_ansatz_is_config_error(tmp_path):
    code = main(["train", "--ansatz", "bogus", "--data", SMALL_DATA, "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_unreadable_dataset_is_data_error(tmp_path):
    code = main([
        "train", "--ansatz", "classical", "--data", str(tmp_path / "none.npz"),
        "--out", str(tmp_path / "x"),
    ])
    assert code == EXIT_DATA


def test_invalid_gamma_rejected(tmp_path):
    code = main(["ed", "--ansatz", "select-tanh", "--gamma", "0", "--out", str(tmp_path / "ed")])
    assert code == EXIT_CONFIG


def test_ed_outputs_rows_and_summary(tmp_path):
    out = tmp_path / "ed"
    code = main([
        "ed", "--ansatz", "select-sign,select-tanh", "--theta-samples", "4",
        "--data-samples", "10", "--seeds", "0,1", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = (out / "ed_results.csv").read_text().splitlines()
    assert rows[0].startswith("ansatz,seed,gamma,n,")
    assert len(rows) == 1 + 4  # 2 ansatz keys x 2 seeds
    summary = json.loads((out / "ed_summary.json").read_text())
    assert set(summary["normalized_ed"]) == {"select-sign", "select-tanh"}
    # each summary mean is the mean of that key's rows
    for key, stats in summary["normalized_ed"].items():
        values = [float(r.split(",")[-1]) for r in rows[1:] if r.startswith(key + ",")]
        assert stats["mean"] == pytest.approx(float(np.mean(values)), abs=1e-12)


def test_ed_default_key_set_matches_comparison_table():
    from qccnn.cli import ED_TABLE_KEYS

    assert len(ED_TABLE_KEYS) == 9
    assert ED_TABLE_KEYS[0] == "conv"
    assert sum(k.startswith("mod-") for k in ED_TABLE_KEYS) == 3


def test_ed_with_dataset_patch_inputs(tmp_path):
    out = tmp_path / "ed"
    code = main([
        "ed", "--ansatz", "select-tanh", "--theta-samples", "3", "--data-samples", "8",
        "--seeds", "0", "--ed-inputs", SMALL_DATA, "--out", str(out),
    ])
    assert code == EXIT_OK
    assert (out / "ed_results.csv").read_text().count("select-tanh") == 1


def test_ed_rerun_replaces_its_own_rows(tmp_path):
    args = ["ed", "--ansatz", "select-sign,select-tanh", "--theta-samples", "3",
            "--data-samples", "8", "--out", str(tmp_path / "ed")]
    table = tmp_path / "ed" / "ed_results.csv"
    assert main(args + ["--seeds", "0"]) == EXIT_OK
    first = table.read_text()
    assert main(args + ["--seeds", "0"]) == EXIT_OK
    assert table.read_text() == first  # one row per key and seed, in order
    assert main(args + ["--seeds", "1"]) == EXIT_OK
    rows = table.read_text().splitlines()
    assert [r.split(",")[:2] for r in rows[1:]] == [
        ["select-sign", "0"], ["select-tanh", "0"], ["select-sign", "1"], ["select-tanh", "1"],
    ]
    assert table.read_text().startswith(first)


def test_ed_deterministic_rows(tmp_path):
    args = ["ed", "--ansatz", "select-tanh", "--theta-samples", "3",
            "--data-samples", "8", "--seeds", "2"]
    assert main(args + ["--out", str(tmp_path / "e1")]) == EXIT_OK
    assert main(args + ["--out", str(tmp_path / "e2")]) == EXIT_OK
    a = (tmp_path / "e1" / "ed_results.csv").read_bytes()
    b = (tmp_path / "e2" / "ed_results.csv").read_bytes()
    assert a == b


def test_curves_csv_and_svg(tmp_path):
    run_a = _train(tmp_path, "conv_run")
    run_b = _train(tmp_path, "classical_run")
    csv_path = tmp_path / "combined.csv"
    svg_path = tmp_path / "curves.svg"
    code = main(["curves", str(run_a), str(run_b), "--out", str(csv_path), "--svg", str(svg_path)])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "label,metric,epoch,mean,std,min,max"
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"conv_run", "classical_run"}
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "Training accuracy" in svg and "Validation accuracy" in svg
    assert "polyline" in svg and "polygon" in svg


def test_curves_missing_metrics_is_data_error(tmp_path):
    missing = tmp_path / "nothing"
    missing.mkdir()
    code = main(["curves", str(missing), "--out", str(tmp_path / "c.csv")])
    assert code == EXIT_DATA


def test_eval_checkpoint(tmp_path, capsys):
    out = _train(tmp_path, "run")
    code = main(["eval", str(out / "checkpoint_seed0.json"), "--data", SMALL_DATA])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "val: accuracy=" in printed


def _eval_argv(tmp_path, edit, *train_args):
    """eval on a copy of a fresh checkpoint whose text is `edit(state)`."""
    state = json.loads((_train(tmp_path, "run", *train_args) / "checkpoint_seed0.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(edit(state))
    return ["eval", str(bad), "--data", SMALL_DATA]


def _curves_argv(tmp_path, row):
    run = tmp_path / "run"
    run.mkdir()
    header = "epoch,seed,train_acc,train_loss,val_acc,val_loss"
    (run / "metrics.csv").write_bytes(f"{header}\n{row}\n".encode("latin-1"))
    return ["curves", str(run), "--out", str(tmp_path / "c.csv")]


def _train_argv(tmp_path, data):
    return ["train", "--ansatz", "classical", "--data", data, "--out", str(tmp_path / "x")]


def _ed_inputs_argv(tmp_path, data):
    return ["ed", "--ansatz", "select-tanh", "--ed-inputs", data, "--out", str(tmp_path / "ed")]


def _ed_prior_table_argv(tmp_path, make_table):
    """A small ed run into a directory whose ed_results.csv is made by `make_table(path)`."""
    out = tmp_path / "ed"
    out.mkdir()
    make_table(out / "ed_results.csv")
    return ["ed", "--ansatz", "select-tanh", "--theta-samples", "1", "--data-samples", "2",
            "--out", str(out)]


def _archive_argv(tmp_path, val_n, val_size):
    """train on an archive of four 8x8 train images and `val_n` val images."""
    path = tmp_path / "archive.npz"
    np.savez(
        path,
        train_images=np.zeros((4, 8, 8), dtype=np.uint8),
        train_labels=np.array([0, 1, 0, 1], dtype=np.uint8),
        val_images=np.zeros((val_n, val_size, val_size), dtype=np.uint8),
        val_labels=(np.arange(val_n) % 2).astype(np.uint8),
    )
    return _train_argv(tmp_path, str(path))


def _eval_other_size_argv(tmp_path):
    """eval of a 12x12 checkpoint on 8x8 data."""
    out = tmp_path / "run12"
    assert main([
        "train", "--ansatz", "classical", "--data", "synthetic:size=12,train_n=4,val_n=2",
        "--epochs", "1", "--seeds", "0", "--out", str(out),
    ]) == EXIT_OK
    return ["eval", str(out / "checkpoint_seed0.json"), "--data", SMALL_DATA]


MALFORMED_INPUTS = {
    "checkpoint-not-json": lambda tmp: _eval_argv(tmp, lambda s: "{not json"),
    "checkpoint-missing-front": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({k: v for k, v in s.items() if k != "front"})
    ),
    "checkpoint-wrong-version": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "version": 2})
    ),
    "checkpoint-shape-mismatch": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "params": {**s["params"], "head_bias": [0.0]}})
    ),
    "checkpoint-nan-param": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "params": {**s["params"], "head_bias": [float("nan"), 0.0]}})
    ),
    "checkpoint-infinite-param": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "params": {**s["params"], "conv_bias": [float("-inf")] * 4}})
    ),
    "checkpoint-image-shape-one-dim": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "image_shape": [8]})
    ),
    "checkpoint-image-shape-below-window": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "image_shape": [1, 8]})
    ),
    "checkpoint-stride-true": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "stride": True})
    ),
    "checkpoint-relu-not-bool": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "relu": "yes"})
    ),
    "checkpoint-relu-on-quantum-front": lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({**s, "relu": True}), "--ansatz", "select-tanh"
    ),
    "synthetic-seed-not-int": lambda tmp: _train_argv(tmp, "synthetic:seed=abc"),
    "synthetic-size-below-window": lambda tmp: _train_argv(tmp, "synthetic:size=1"),
    "synthetic-no-train-images": lambda tmp: _train_argv(tmp, "synthetic:train_n=0"),
    "synthetic-negative-val-n": lambda tmp: _train_argv(tmp, "synthetic:val_n=-3"),
    # 74.5 GiB and 47.7 GiB of images: refused before anything is allocated.
    "synthetic-size-too-large": lambda tmp: _train_argv(tmp, "synthetic:size=100000"),
    "synthetic-train-n-too-large": lambda tmp: _train_argv(tmp, "synthetic:train_n=100000000"),
    "archive-empty-val-split": lambda tmp: _archive_argv(tmp, 0, 8),
    "archive-split-shapes-differ": lambda tmp: _archive_argv(tmp, 2, 6),
    "ed-inputs-size-below-window": lambda tmp: _ed_inputs_argv(tmp, "synthetic:size=1"),
    "ed-inputs-no-train-images": lambda tmp: _ed_inputs_argv(tmp, "synthetic:train_n=0"),
    "eval-image-size-mismatch": _eval_other_size_argv,
    "metrics-short-row": lambda tmp: _curves_argv(tmp, "0,0,abc"),
    "metrics-non-numeric": lambda tmp: _curves_argv(tmp, "0,0,abc,0.5,0.5,0.7"),
    "metrics-not-utf8": lambda tmp: _curves_argv(tmp, "0,0,caf\xe9,0.5,0.5,0.7"),
    "ed-results-not-utf8": lambda tmp: _ed_prior_table_argv(
        tmp, lambda path: path.write_bytes(b"ansatz,seed\ncaf\xe9,0\n")
    ),
    "ed-results-is-directory": lambda tmp: _ed_prior_table_argv(tmp, Path.mkdir),
}


# What the message must name, where the exit code alone would not show it.
MALFORMED_MESSAGES = {
    "checkpoint-image-shape-one-dim": "'image_shape'",
    "checkpoint-image-shape-below-window": "'image_shape'",
    "checkpoint-stride-true": "'stride'",
    "checkpoint-relu-not-bool": "'relu'",
    "checkpoint-relu-on-quantum-front": "'relu'",
    "archive-split-shapes-differ": "train images are (8, 8), val images are (6, 6)",
    "metrics-short-row": "metrics.csv:2: ",  # path and line number of the bad row
    "metrics-non-numeric": "metrics.csv:2: ",
    "metrics-not-utf8": "metrics.csv as UTF-8 text",
    "ed-results-not-utf8": "ed_results.csv as UTF-8 text",
    "ed-results-is-directory": "ed_results.csv as UTF-8 text",
    "synthetic-size-too-large": "GiB limit",
    "synthetic-train-n-too-large": "GiB limit",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_data_error(tmp_path, capsys, case):
    assert main(MALFORMED_INPUTS[case](tmp_path)) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert MALFORMED_MESSAGES.get(case, "") in err
    assert "Traceback" not in err


def _regular_file(tmp_path):
    path = tmp_path / "file"
    path.write_text("")
    return path


def _non_utf8_config_argv(tmp_path):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"epochs = 1  # caf\xe9\n")
    return ["train", "--ansatz", "classical", "--data", SMALL_DATA, "--config", str(config),
            "--out", str(tmp_path / "x")]


CONFIG_ERRORS = {
    "config-not-utf8": _non_utf8_config_argv,
    "train-out-under-file": lambda tmp: [
        "train", "--ansatz", "classical", "--data", SMALL_DATA, "--epochs", "1",
        "--out", str(_regular_file(tmp) / "run"),
    ],
    "ed-out-under-file": lambda tmp: [
        "ed", "--ansatz", "select-tanh", "--theta-samples", "1", "--data-samples", "2",
        "--out", str(_regular_file(tmp) / "ed"),
    ],
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_unreadable_config_or_out_is_config_error(tmp_path, capsys, case):
    assert main(CONFIG_ERRORS[case](tmp_path)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


def _curves_run(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    (run / "metrics.csv").write_text(
        "epoch,seed,train_acc,train_loss,val_acc,val_loss\n0,0,0.5,0.7,0.5,0.7\n"
    )
    return ["curves", str(run)]


UNWRITABLE_CURVES = {
    "out-under-file": lambda tmp: ["--out", str(_regular_file(tmp) / "c.csv")],
    "out-is-directory": lambda tmp: ["--out", str(tmp / "run")],
    "svg-under-file": lambda tmp: [
        "--out", str(tmp / "c.csv"), "--svg", str(_regular_file(tmp) / "c.svg"),
    ],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_CURVES))
def test_unwritable_curves_output_is_config_error(tmp_path, capsys, case):
    argv = _curves_run(tmp_path) + UNWRITABLE_CURVES[case](tmp_path)
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: cannot write ")
    assert "Traceback" not in captured.err
    # Every path is checked before any is written: no output, not even the CSV.
    assert captured.out == ""
    assert not (tmp_path / "c.csv").exists()
    assert not list(tmp_path.rglob("*.tmp"))


# Each case: a small run whose output directory already holds a directory
# where the run writes the named file.
SMALL_RUNS = {
    "train": ["train", "--ansatz", "classical", "--data", SMALL_DATA, "--epochs", "1",
              "--seeds", "0"],
    "ed": ["ed", "--ansatz", "select-tanh", "--theta-samples", "1", "--data-samples", "2",
           "--seeds", "0"],
}
UNWRITABLE_RUN_OUTPUTS = {
    "train-checkpoint": ("train", "checkpoint_seed0.json"),
    "train-metrics": ("train", "metrics.csv"),
    "train-summary": ("train", "summary.json"),
    "ed-summary": ("ed", "ed_summary.json"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_RUN_OUTPUTS))
def test_unwritable_run_output_is_config_error(tmp_path, capsys, case):
    command, name = UNWRITABLE_RUN_OUTPUTS[case]
    (tmp_path / name).mkdir()
    assert main([*SMALL_RUNS[command], "--out", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: cannot write {tmp_path / name}: ")
    assert "Traceback" not in captured.err
    # Every output path is checked before the first seed or key is computed.
    assert captured.out == ""
    assert not (tmp_path / "checkpoint_seed0.json").is_file()
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("argv", [
    ["eval", "checkpoint_seed0.json", "--data", SMALL_DATA, "--stride", "7"],
    # `--data` is also a prefix of `--data-samples`, which must not take it.
    ["ed", "--ansatz", "select-tanh", "--theta-samples", "1", "--data", "2"],
], ids=["eval-stride", "ed-data"])
def test_flags_a_command_never_reads_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[-2]}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_non_finite_training_is_numeric_failure(tmp_path, capsys):
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main([
            "train", "--ansatz", "classical", "--data", SMALL_DATA, "--lr", "1e308",
            "--epochs", "3", "--seeds", "0", "--out", str(out),
        ])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "at epoch 0" in err and "head_weights" in err
    assert not (out / "metrics.csv").exists()


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
def test_non_finite_learning_rate_is_config_error(tmp_path, lr):
    code = main([
        "train", "--ansatz", "classical", "--data", SMALL_DATA, f"--lr={lr}",
        "--epochs", "1", "--seeds", "0", "--out", str(tmp_path / "x"),
    ])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["train", "ed"])
def test_duplicate_seeds_are_config_error(tmp_path, command):
    # A repeated seed would train or score the same run twice under one key.
    front = ["--ansatz", "classical", "--data", SMALL_DATA, "--epochs", "1"]
    if command == "ed":
        front = ["--ansatz", "select-tanh", "--theta-samples", "1", "--data-samples", "2"]
    code = main([command, *front, "--seeds", "0,0", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


def test_duplicate_ed_keys_are_config_error(tmp_path, capsys):
    # A repeated key would score the same rows twice, the second replacing the first.
    code = main(["ed", "--ansatz", "select-tanh,select-tanh", "--theta-samples", "1",
                 "--data-samples", "2", "--seeds", "0", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ansatz keys must be distinct")
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


NEGATIVE_SEEDS = {
    "train": (["train", "--ansatz", "classical", "--data", SMALL_DATA, "--epochs", "1",
               "--seeds", "-1"], {}),
    "eval": (["eval", "CHECKPOINT", "--data", SMALL_DATA, "--seeds", "-1"], {}),
    # A valid seed first: nothing may be written before the bad one is seen.
    "ed": (["ed", "--ansatz", "select-tanh", "--theta-samples", "1", "--data-samples", "2",
            "--seeds", "0,-3"], {}),
    "ed-env": (["ed", "--ansatz", "select-tanh", "--theta-samples", "1",
                "--data-samples", "2"], {"QCCNN_SEEDS": "-2"}),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_SEEDS))
def test_negative_seed_is_config_error(tmp_path, capsys, monkeypatch, case):
    # numpy's default_rng takes no negative seed; the CLI says so before any work.
    argv, env = NEGATIVE_SEEDS[case]
    if case == "eval":
        checkpoint = str(_train(tmp_path, "run") / "checkpoint_seed0.json")
        argv = [checkpoint if arg == "CHECKPOINT" else arg for arg in argv]
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    if case != "eval":  # eval writes no file
        argv = [*argv, "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "non-negative" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "x").exists()


def test_parser_reuse_leaks_no_option_between_calls(tmp_path, monkeypatch):
    # One process, three commands: each call sees its own options over the
    # defaults, whatever the previous call set.
    configs = []

    def recording_build_config(args):
        configs.append(build_config(args))
        return configs[-1]

    monkeypatch.setattr(cli, "build_config", recording_build_config)
    run, ed = tmp_path / "run", tmp_path / "ed"
    assert main([
        "train", "--ansatz", "mod-a", "--data", SMALL_DATA, "--epochs", "1",
        "--batch-size", "4", "--stride", "3", "--seeds", "0", "--out", str(run),
    ]) == EXIT_OK
    assert main([
        "ed", "--theta-samples", "1", "--data-samples", "2", "--seeds", "0", "--out", str(ed),
    ]) == EXIT_OK
    assert main(["eval", str(run / "checkpoint_seed0.json"), "--data", SMALL_DATA]) == EXIT_OK
    rows = (ed / "ed_results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == list(ED_TABLE_KEYS)
    defaults = RunConfig()
    assert configs[1] == replace(
        defaults, theta_samples=1, data_samples=2, seeds=(0,), out=str(ed)
    )
    assert configs[2] == replace(defaults, data=SMALL_DATA)


@pytest.mark.parametrize("stop", ["nan", "inf", "-0.1", "1.5"])
def test_stop_at_train_acc_outside_unit_interval_is_config_error(tmp_path, stop):
    code = main([
        "train", "--ansatz", "classical", "--data", SMALL_DATA, f"--stop-at-train-acc={stop}",
        "--epochs", "1", "--seeds", "0", "--out", str(tmp_path / "x"),
    ])
    assert code == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


def test_config_file_and_env_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("epochs = 7\nbatch-size = 4  # comment\n")
    parsed = read_config_file(cfg_file)
    assert parsed == {"epochs": "7", "batch_size": "4"}

    args = argparse.Namespace(config=str(cfg_file), epochs=None, batch_size=2)
    monkeypatch.setenv("QCCNN_LR", "0.01")
    cfg = build_config(args)
    assert cfg.epochs == 7  # config file beats default
    assert cfg.batch_size == 2  # CLI beats config file
    assert cfg.lr == 0.01  # environment beats default


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("optimizer = sgd\n")
    code = main([
        "train", "--config", str(cfg_file), "--ansatz", "classical",
        "--data", SMALL_DATA, "--out", str(tmp_path / "x"),
    ])
    assert code == EXIT_CONFIG


# Each RunConfig field: (text from any source, the value it resolves to, a
# wrong-typed text, or None where every text is a valid value).
CASTS = {
    "ansatz": ("mod-c", "mod-c", None),
    "data": (SMALL_DATA, SMALL_DATA, None),
    "epochs": ("3", 3, "abc"),
    "batch_size": ("4", 4, "1.5"),
    "lr": ("0.01", 0.01, "fast"),
    "stride": ("1", 1, "two"),
    "seeds": ("3,1", (3, 1), "0;1"),
    "out": ("runs/x", "runs/x", None),
    "stop_at_train_acc": ("0.9", 0.9, "high"),
    "classical_relu": ("yes", True, "maybe"),
    "gamma": ("0.5", 0.5, "half"),
    "n": ("100", 100, "1e2"),
    "theta_samples": ("7", 7, "x"),
    "data_samples": ("9", 9, "many"),
    "ed_inputs": (SMALL_DATA, SMALL_DATA, None),
}


def test_cast_table_covers_every_field():
    assert set(CASTS) == {f.name for f in fields(RunConfig)}


def _option_sources(tmp_path, name, text):
    """(source, argv, environment) giving option `name` the text `text`, one per source."""
    command = "train" if name in cli._COMMANDS["train"][1] else "ed"
    config = tmp_path / f"{name}.cfg"
    config.write_text(f"{name} = {text}\n")
    sources = [("config", [command, "--config", str(config)], {}),
               ("env", [command], {"QCCNN_" + name.upper(): text})]
    flag = "--" + name.replace("_", "-")
    if name == "classical_relu":  # a switch: the flag takes no text and is always true
        return sources + [("flag", [command, flag], {})] if text == "yes" else sources
    return sources + [("flag", [command, flag, text], {})]


@pytest.mark.parametrize("name", sorted(CASTS))
def test_every_source_casts_an_option_alike(tmp_path, capsys, monkeypatch, name):
    # A config line, a QCCNN_ variable and a flag go through one cast: the
    # same value, or the same configuration error for a wrong-typed text.
    monkeypatch.chdir(tmp_path)
    text, value, wrong = CASTS[name]
    for source, argv, env in _option_sources(tmp_path, name, text):
        with monkeypatch.context() as patch:
            for var, raw in env.items():
                patch.setenv(var, raw)
            cfg = build_config(cli._make_parser().parse_args(argv))
        assert getattr(cfg, name) == value, source
    if wrong is None:
        return
    errors = {}
    for source, argv, env in _option_sources(tmp_path, name, wrong):
        with monkeypatch.context() as patch:
            for var, raw in env.items():
                patch.setenv(var, raw)
            assert main(argv) == EXIT_CONFIG, source
        errors[source] = capsys.readouterr().err
    assert len(set(errors.values())) == 1, errors
    err = errors["config"]
    assert err.startswith(f"configuration error: {name}: expected ")
    assert err.endswith(f"got {wrong!r}\n")
    assert "Traceback" not in err


def _readme_flags() -> dict[str, set[str]]:
    """Each command's flags as README's "Flags per command" list gives them."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Flags per command", 1)[1].split("\n\n", 1)[0]
    return {
        item.split("`")[1].split()[0]: set(re.findall(r"--[a-z-]+", item))
        for item in block.split("\n- ")[1:]
    }


def test_readme_lists_the_flags_each_command_takes():
    (commands,) = [a for a in cli._make_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    taken = {
        command: {flag for action in p._actions for flag in action.option_strings}
        for command, p in commands.choices.items()
    }
    documented = {command: {"-h", "--help", *flags} for command, flags in _readme_flags().items()}
    assert taken == documented
