"""Command line driver tests: schemas, determinism, exit codes, artifacts."""

import argparse
import functools
import json
import math
import os
import re
import subprocess
import sys
import xml.dom.minidom
import zipfile
from dataclasses import fields, replace
from pathlib import Path
from urllib.parse import unquote

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
from qccnn.nn import make_model

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


def test_ed_rows_keyed_by_their_inputs(tmp_path):
    # The same settings on other inputs, or on the same source at another
    # stride, add rows; the uniform row stays as it was.
    args = ["ed", "--ansatz", "conv", "--theta-samples", "3", "--data-samples", "8",
            "--seeds", "0", "--out", str(tmp_path / "ed")]
    table = tmp_path / "ed" / "ed_results.csv"
    assert main(args) == EXIT_OK
    uniform = table.read_text().splitlines()[1]
    assert main(args + ["--ed-inputs", SMALL_DATA]) == EXIT_OK
    assert main(args + ["--ed-inputs", SMALL_DATA, "--stride", "3"]) == EXIT_OK
    rows = table.read_text().splitlines()
    source = SMALL_DATA.replace(",", "%2C")
    assert [r.split(",")[6] for r in rows[1:]] == [
        "uniform", f"{source};stride=2", f"{source};stride=3"]
    assert rows[1] == uniform
    assert main(args) == EXIT_OK  # a rerun replaces its own row only
    assert table.read_text().splitlines() == rows


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


def test_curves_escape_run_labels(tmp_path):
    # A comma would split the CSV row, and `&` and `<` would end the SVG's markup.
    name = "a,b&<c>"
    run = _train(tmp_path, name)
    csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
    assert main(["curves", str(run), "--out", str(csv_path), "--svg", str(svg_path)]) == EXIT_OK
    rows = [line.split(",") for line in csv_path.read_text().splitlines()]
    assert len(rows) == 1 + 2 * 3  # two metrics over three epochs
    assert {len(cells) for cells in rows} == {7}
    assert {unquote(cells[0]) for cells in rows[1:]} == {name}
    texts = xml.dom.minidom.parse(str(svg_path)).getElementsByTagName("text")
    assert name in [node.firstChild.data for node in texts]


def test_curves_label_a_run_whose_name_is_not_utf8(tmp_path):
    # Its CSV label keeps the byte as %E9; the SVG, UTF-8 text, shows U+FFFD.
    run = Path(os.fsdecode(os.fsencode(tmp_path) + b"/caf\xe9"))
    run.mkdir()
    (run / "metrics.csv").write_text(f"{cli._METRICS_HEADER}\n0,0,0.5,0.6,0.5,0.7\n")
    csv_path, svg_path = tmp_path / "c.csv", tmp_path / "c.svg"
    assert main(["curves", str(run), "--out", str(csv_path), "--svg", str(svg_path)]) == EXIT_OK
    assert {line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]} == {"caf%E9"}
    texts = xml.dom.minidom.parse(str(svg_path)).getElementsByTagName("text")
    assert "caf\ufffd" in [node.firstChild.data for node in texts]


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


def _csv_directory_argv(tmp_path):
    """train on a directory of well-formed train.csv and val.csv files of 2x2 images."""
    table = b"label,p0,p1,p2,p3\n0,0,0,255,255\n1,255,255,0,0\n"
    folder = _made(tmp_path / "csv")
    _file(folder / "train.csv", table)
    _file(folder / "val.csv", table)
    return _train_argv(tmp_path, str(folder))


def _bad_record_archive_argv(tmp_path):
    """train on an archive whose train_images.npy record is not an array record."""
    path = tmp_path / "archive.npz"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("train_images.npy", b"label,p0\n0,0\n")
    return _train_argv(tmp_path, str(path))


def _header_only_archive_argv(tmp_path, train_images, train_labels):
    """train on an archive of array headers alone, declaring the train shapes given.

    The val split declares 2 images of the train image size and 2 labels.
    The archive is about 1 KB and holds no pixel or label, so only a loader
    that reads data before it checks the headers gets further than them.
    """
    path = tmp_path / "archive.npz"
    val_images = (2, *train_images[1:])
    with zipfile.ZipFile(path, "w") as zf:
        for split, images, labels in (("train", train_images, train_labels),
                                      ("val", val_images, (2,))):
            for key, shape in ((f"{split}_images", images), (f"{split}_labels", labels)):
                with zf.open(key + ".npy", "w") as f:
                    np.lib.format.write_array_header_1_0(
                        f, {"descr": "|u1", "fortran_order": False, "shape": shape})
    return _train_argv(tmp_path, str(path))


def _eval_other_size_argv(tmp_path):
    """eval of a 12x12 checkpoint on 8x8 data."""
    out = tmp_path / "run12"
    assert main([
        "train", "--ansatz", "classical", "--data", "synthetic:size=12,train_n=4,val_n=2",
        "--epochs", "1", "--seeds", "0", "--out", str(out),
    ]) == EXIT_OK
    return ["eval", str(out / "checkpoint_seed0.json"), "--data", SMALL_DATA]


def _file(path, data=b""):
    path.write_bytes(data)
    return path


def _made(path):
    path.mkdir()
    return path


def _curves_run(tmp_path):
    run = _made(tmp_path / "run")
    (run / "metrics.csv").write_text(
        "epoch,seed,train_acc,train_loss,val_acc,val_loss\n0,0,0.5,0.7,0.5,0.7\n"
    )
    return ["curves", str(run)]


def _blocked_argv(tmp_path, argv, name):
    """`argv` writing into tmp_path, where a directory stands in for output file `name`."""
    _made(tmp_path / name)
    return [*argv, "--out", str(tmp_path)]


def _overflowing_head(state):
    """An `_eval_argv` edit: head weights of 1e308, so every logit overflows."""
    weights = np.full(np.shape(state["params"]["head_weights"]), 1e308)
    return _params(head_weights=weights.tolist())(state)


def _checkpoint(**changes):
    """An `_eval_argv` edit: the checkpoint with `changes` over its fields."""
    return lambda state: json.dumps({**state, **changes})


def _params(**changes):
    """An `_eval_argv` edit: the checkpoint with `changes` over its parameter arrays."""
    return lambda state: json.dumps({**state, "params": {**state["params"], **changes}})


# JSON arrays nested 200,000 deep: the decoder recurses once per level and
# stops at Python's recursion limit.
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def _with_text(state: dict, group: str, field: str, text) -> str:
    """`state` as JSON, `field` of `group` (``record`` or ``params``) as `text`; None deletes it."""
    state = {**state, "params": dict(state["params"])}
    target = state if group == "record" else state["params"]
    if text is None:
        del target[field]
        return json.dumps(state)
    target[field] = "\0"  # a placeholder no checkpoint holds
    return json.dumps(state).replace(json.dumps("\0"), text)


TRAIN = ["train", "--ansatz", "classical", "--data", SMALL_DATA]
SMALL_ED = ["ed", "--ansatz", "select-tanh", "--theta-samples", "1", "--data-samples", "2"]
ED_HEADER = "ansatz,seed,gamma,n,theta_samples,data_samples,inputs,d,ed,normalized_ed"

# One row per documented failure: (case, argv builder, environment, exit
# code, *stderr fragments). A fragment may name `{tmp}`, the case's tmp_path.
FAILURES = [
    # 2: configuration errors, checked before any directory is made
    ("invalid-ansatz", lambda tmp: ["train", "--ansatz", "bogus", "--data", SMALL_DATA,
                                    "--out", str(tmp / "x")], {}, EXIT_CONFIG,
     "unknown ansatz 'bogus'"),
    ("invalid-gamma", lambda tmp: ["ed", "--ansatz", "select-tanh", "--gamma", "0",
                                   "--out", str(tmp / "ed")], {}, EXIT_CONFIG,
     "gamma must lie in (0, 1]"),
    *[(f"lr={lr}", lambda tmp, lr=lr: [*TRAIN, f"--lr={lr}", "--epochs", "1", "--seeds", "0",
                                       "--out", str(tmp / "x")], {}, EXIT_CONFIG,
       "learning rate must be positive and finite") for lr in ("nan", "inf", "-inf")],
    *[(f"stop-at-train-acc={stop}", lambda tmp, stop=stop: [
        *TRAIN, f"--stop-at-train-acc={stop}", "--epochs", "1", "--seeds", "0",
        "--out", str(tmp / "x")], {}, EXIT_CONFIG, "stop_at_train_acc must lie in [0, 1]")
      for stop in ("nan", "inf", "-0.1", "1.5")],
    # A repeated seed or key would train or score the same run twice under one key.
    ("duplicate-seeds-train", lambda tmp: [*TRAIN, "--epochs", "1", "--seeds", "0,0",
                                           "--out", str(tmp / "x")], {}, EXIT_CONFIG,
     "seeds must be distinct"),
    ("duplicate-seeds-ed", lambda tmp: [*SMALL_ED, "--seeds", "0,0", "--out", str(tmp / "x")],
     {}, EXIT_CONFIG, "seeds must be distinct"),
    ("duplicate-ed-keys", lambda tmp: ["ed", "--ansatz", "select-tanh,select-tanh",
                                       "--theta-samples", "1", "--data-samples", "2",
                                       "--seeds", "0", "--out", str(tmp / "x")], {},
     EXIT_CONFIG, "configuration error: ansatz keys must be distinct"),
    # numpy's default_rng takes no negative seed; the CLI says so before any work.
    ("negative-seed-train", lambda tmp: [*TRAIN, "--epochs", "1", "--seeds", "-1",
                                         "--out", str(tmp / "x")], {}, EXIT_CONFIG,
     "non-negative"),
    ("negative-seed-eval", lambda tmp: ["eval", str(_train(tmp, "run") / "checkpoint_seed0.json"),
                                        "--data", SMALL_DATA, "--seeds", "-1"], {},
     EXIT_CONFIG, "non-negative"),
    # A valid seed first: nothing may be written before the bad one is seen.
    ("negative-seed-ed", lambda tmp: [*SMALL_ED, "--seeds", "0,-3", "--out", str(tmp / "x")],
     {}, EXIT_CONFIG, "non-negative"),
    ("negative-seed-ed-env", lambda tmp: [*SMALL_ED, "--out", str(tmp / "x")],
     {"QCCNN_SEEDS": "-2"}, EXIT_CONFIG, "non-negative"),
    ("config-missing", lambda tmp: [*TRAIN, "--config", str(tmp / "none.cfg"),
                                    "--out", str(tmp / "x")], {}, EXIT_CONFIG,
     "no such config file"),
    ("config-not-utf8", lambda tmp: [*TRAIN, "--config", str(_file(
        tmp / "latin1.cfg", b"epochs = 1  # caf\xe9\n")), "--out", str(tmp / "x")], {},
     EXIT_CONFIG, "latin1.cfg as UTF-8 text"),
    ("config-unknown-key", lambda tmp: [
        "train", "--config", str(_file(tmp / "bad.cfg", b"optimizer = sgd\n")),
        "--ansatz", "classical", "--data", SMALL_DATA, "--out", str(tmp / "x")], {},
     EXIT_CONFIG, "unknown option 'optimizer'"),
    ("train-out-under-file", lambda tmp: [*TRAIN, "--epochs", "1",
                                          "--out", str(_file(tmp / "file") / "run")], {},
     EXIT_CONFIG, "cannot make output directory"),
    ("ed-out-under-file", lambda tmp: [*SMALL_ED, "--out", str(_file(tmp / "file") / "ed")],
     {}, EXIT_CONFIG, "cannot make output directory"),
    # Refused before anything is allocated: one batch of one draw's
    # 100,000,000 or 5,000,000 rows on conv's 4 qubits, and 110,000 mod-c
    # FIMs of 36 x 36 with their spectra.
    ("ed-samples-huge", lambda tmp: [
        "ed", "--ansatz", "conv", "--seeds", "0", "--theta-samples", "2",
        "--data-samples", "100000000", "--out", str(tmp / "ed")], {}, EXIT_CONFIG,
     "the ED of conv (0.00 GiB of FIMs, 134.11 GiB a batch) would take 134.1 GiB,"
     " more than the 1 GiB limit"),
    ("ed-batch-state-huge", lambda tmp: [
        "ed", "--ansatz", "conv", "--seeds", "0", "--theta-samples", "1",
        "--data-samples", "5000000", "--out", str(tmp / "ed")], {}, EXIT_CONFIG,
     "the ED of conv (0.00 GiB of FIMs, 6.71 GiB a batch) would take 6.7 GiB"),
    ("ed-fim-stack-huge", lambda tmp: [
        "ed", "--ansatz", "mod-c", "--seeds", "0", "--theta-samples", "110000",
        "--data-samples", "1", "--out", str(tmp / "ed")], {}, EXIT_CONFIG,
     "the ED of mod-c (1.09 GiB of FIMs, 0.03 GiB a batch) would take 1.1 GiB"),
    # Every output path is checked before any is written, and before the
    # first seed or key is computed.
    *[(f"unwritable-{command}-{name}", lambda tmp, argv=argv, name=name: _blocked_argv(
        tmp, argv, name), {}, EXIT_CONFIG, f"configuration error: cannot write {{tmp}}/{name}: ")
      for command, argv, names in [
          ("train", [*TRAIN, "--epochs", "1", "--seeds", "0"],
           ("checkpoint_seed0.json", "metrics.csv", "summary.json")),
          ("ed", [*SMALL_ED, "--seeds", "0"], ("ed_summary.json",))]
      for name in names],
    ("curves-out-under-file", lambda tmp: [*_curves_run(tmp), "--out",
                                           str(_file(tmp / "file") / "c.csv")], {},
     EXIT_CONFIG, "configuration error: cannot write "),
    ("curves-out-is-directory", lambda tmp: [*_curves_run(tmp), "--out", str(tmp / "run")],
     {}, EXIT_CONFIG, "configuration error: cannot write "),
    ("curves-svg-under-file", lambda tmp: [*_curves_run(tmp), "--out", str(tmp / "c.csv"),
                                           "--svg", str(_file(tmp / "file") / "c.svg")], {},
     EXIT_CONFIG, "configuration error: cannot write "),
    # 2: argparse's usage errors
    ("unknown-command", lambda tmp: ["bogus"], {}, EXIT_CONFIG, "invalid choice: 'bogus'"),
    ("unread-flag-eval-stride", lambda tmp: [
        "eval", "checkpoint_seed0.json", "--data", SMALL_DATA, "--stride", "7",
        "--out", str(tmp / "x")], {}, EXIT_CONFIG, "unrecognized arguments: --stride"),
    # `--data` is also a prefix of `--data-samples`, which must not take it.
    ("unread-flag-ed-data", lambda tmp: [
        "ed", "--ansatz", "select-tanh", "--theta-samples", "1", "--data", "2",
        "--out", str(tmp / "x")], {}, EXIT_CONFIG, "unrecognized arguments: --data"),
    # 3: data errors
    ("unreadable-dataset", lambda tmp: _train_argv(tmp, str(tmp / "none.npz")), {}, EXIT_DATA,
     "no such archive"),
    ("checkpoint-not-json", lambda tmp: _eval_argv(tmp, lambda s: "{not json"), {}, EXIT_DATA,
     "JSONDecodeError"),
    ("checkpoint-deep-nesting", lambda tmp: _eval_argv(tmp, lambda s: DEEP_JSON), {}, EXIT_DATA,
     "RecursionError"),
    ("checkpoint-params-deep-nesting", lambda tmp: _eval_argv(
        tmp, lambda s: _with_text(s, "record", "params", DEEP_JSON)), {}, EXIT_DATA,
     "RecursionError"),
    ("checkpoint-missing-front", lambda tmp: _eval_argv(
        tmp, lambda s: json.dumps({k: v for k, v in s.items() if k != "front"})), {},
     EXIT_DATA, "KeyError('front')"),
    ("checkpoint-wrong-version", lambda tmp: _eval_argv(tmp, _checkpoint(version=2)), {},
     EXIT_DATA, "not a version-1 checkpoint"),
    # Both compare equal to 1, but neither is the integer 1.
    ("checkpoint-version-true", lambda tmp: _eval_argv(tmp, _checkpoint(version=True)), {},
     EXIT_DATA, "not a version-1 checkpoint"),
    ("checkpoint-version-float", lambda tmp: _eval_argv(tmp, _checkpoint(version=1.0)), {},
     EXIT_DATA, "not a version-1 checkpoint"),
    ("checkpoint-shape-mismatch", lambda tmp: _eval_argv(tmp, _params(head_bias=[0.0])), {},
     EXIT_DATA, "shape mismatch for 'head_bias'"),
    ("checkpoint-nan-param", lambda tmp: _eval_argv(
        tmp, _params(head_bias=[float("nan"), 0.0])), {}, EXIT_DATA,
     "non-finite values for 'head_bias'"),
    ("checkpoint-infinite-param", lambda tmp: _eval_argv(
        tmp, _params(conv_bias=[float("-inf")] * 4)), {}, EXIT_DATA,
     "non-finite values for 'conv_bias'"),
    ("checkpoint-image-shape-one-dim", lambda tmp: _eval_argv(
        tmp, _checkpoint(image_shape=[8])), {}, EXIT_DATA, "'image_shape'"),
    ("checkpoint-image-shape-below-window", lambda tmp: _eval_argv(
        tmp, _checkpoint(image_shape=[1, 8])), {}, EXIT_DATA, "'image_shape'"),
    ("checkpoint-stride-true", lambda tmp: _eval_argv(tmp, _checkpoint(stride=True)), {},
     EXIT_DATA, "'stride'"),
    ("checkpoint-relu-not-bool", lambda tmp: _eval_argv(tmp, _checkpoint(relu="yes")), {},
     EXIT_DATA, "'relu'"),
    ("checkpoint-relu-on-quantum-front", lambda tmp: _eval_argv(
        tmp, _checkpoint(relu=True), "--ansatz", "select-tanh"), {}, EXIT_DATA, "'relu'"),
    ("eval-image-size-mismatch", _eval_other_size_argv, {}, EXIT_DATA,
     "takes images of shape (12, 12)"),
    # Refused before the model is built: a head for these images would take 16 TB.
    ("eval-image-shape-huge", lambda tmp: _eval_argv(
        tmp, _checkpoint(image_shape=[1000000, 1000000])), {}, EXIT_DATA,
     "takes images of shape (1000000, 1000000)"),
    ("synthetic-seed-not-int", lambda tmp: _train_argv(tmp, "synthetic:seed=abc"), {},
     EXIT_DATA, "synthetic option 'seed' must be an integer"),
    ("synthetic-negative-seed", lambda tmp: _train_argv(tmp, "synthetic:seed=-1"), {},
     EXIT_DATA, "synthetic option 'seed' must be >= 0, got -1"),
    ("synthetic-size-below-window", lambda tmp: _train_argv(tmp, "synthetic:size=1"), {},
     EXIT_DATA, "synthetic option 'size' must be >= 2"),
    ("synthetic-no-train-images", lambda tmp: _train_argv(tmp, "synthetic:train_n=0"), {},
     EXIT_DATA, "synthetic option 'train_n' must be >= 1"),
    ("synthetic-negative-val-n", lambda tmp: _train_argv(tmp, "synthetic:val_n=-3"), {},
     EXIT_DATA, "synthetic option 'val_n' must be >= 1"),
    # 18626.5 GiB and 47.7 GiB of images: refused before anything is allocated.
    ("synthetic-size-too-large", lambda tmp: _train_argv(tmp, "synthetic:size=100000"), {},
     EXIT_DATA, "GiB limit"),
    ("synthetic-train-n-too-large", lambda tmp: _train_argv(
        tmp, "synthetic:train_n=100000000"), {}, EXIT_DATA, "GiB limit"),
    ("ed-inputs-size-below-window", lambda tmp: _ed_inputs_argv(tmp, "synthetic:size=1"), {},
     EXIT_DATA, "synthetic option 'size' must be >= 2"),
    ("ed-inputs-no-train-images", lambda tmp: _ed_inputs_argv(tmp, "synthetic:train_n=0"),
     {}, EXIT_DATA, "synthetic option 'train_n' must be >= 1"),
    ("ed-inputs-negative-seed", lambda tmp: _ed_inputs_argv(tmp, "synthetic:seed=-1"), {},
     EXIT_DATA, "synthetic option 'seed' must be >= 0, got -1"),
    ("archive-empty-val-split", lambda tmp: _archive_argv(tmp, 0, 8), {}, EXIT_DATA,
     "val split has no images"),
    ("archive-split-shapes-differ", lambda tmp: _archive_argv(tmp, 2, 6), {}, EXIT_DATA,
     "train images are (8, 8), val images are (6, 6)"),
    # Only archives and synthetic data are read: a directory is no source.
    ("data-directory", _csv_directory_argv, {}, EXIT_DATA, "unrecognized data source"),
    ("archive-not-zip", lambda tmp: _train_argv(tmp, str(_file(tmp / "x.npz", b"not a zip"))),
     {}, EXIT_DATA, "is not a ZIP archive"),
    ("archive-record-not-array", _bad_record_archive_argv, {}, EXIT_DATA, "bad magic bytes"),
    # Refused from the record headers, before any pixel is read or converted:
    # 330 images of 1000x1000 would take 2.46 GiB as float64.
    ("archive-images-huge",
     lambda tmp: _header_only_archive_argv(tmp, (330, 1000, 1000), (330,)), {},
     EXIT_DATA, "archive images would take 2.5 GiB, more than the 1 GiB limit"),
    ("archive-label-count", lambda tmp: _header_only_archive_argv(tmp, (330, 8, 8), (329,)), {},
     EXIT_DATA, "record 'train_labels': 329 labels for 330 images"),
    # A negative dimension would read a ZIP stream to its end, or pass the
    # count check as a product of two negatives.
    ("archive-images-negative", lambda tmp: _header_only_archive_argv(tmp, (-1, 8, 8), (-1,)),
     {}, EXIT_DATA, "record 'train_images': negative dimension in shape (-1, 8, 8)"),
    ("archive-labels-negative",
     lambda tmp: _header_only_archive_argv(tmp, (330, 8, 8), (-2, -165)), {}, EXIT_DATA,
     "record 'train_labels': negative dimension in shape (-2, -165)"),
    ("metrics-short-row", lambda tmp: _curves_argv(tmp, "0,0,abc"), {}, EXIT_DATA,
     "metrics.csv:2: expected 6 cells, got 3"),
    ("metrics-non-numeric", lambda tmp: _curves_argv(tmp, "0,0,abc,0.5,0.5,0.7"), {},
     EXIT_DATA, "metrics.csv:2: non-numeric cell"),
    ("metrics-not-utf8", lambda tmp: _curves_argv(tmp, "0,0,caf\xe9,0.5,0.5,0.7"), {},
     EXIT_DATA, "metrics.csv as UTF-8 text"),
    ("curves-missing-metrics", lambda tmp: ["curves", str(_made(tmp / "nothing")),
                                            "--out", str(tmp / "c.csv")], {}, EXIT_DATA,
     "missing metrics file"),
    ("ed-results-not-utf8", lambda tmp: _ed_prior_table_argv(
        tmp, lambda path: path.write_bytes(b"ansatz,seed\ncaf\xe9,0\n")), {}, EXIT_DATA,
     "ed_results.csv as UTF-8 text"),
    ("ed-results-is-directory", lambda tmp: _ed_prior_table_argv(tmp, Path.mkdir), {},
     EXIT_DATA, "ed_results.csv as UTF-8 text"),
    # A foreign table is refused before any compute, not merged as ED rows.
    ("ed-table-foreign-header", lambda tmp: _ed_prior_table_argv(tmp, lambda path: path.write_text(
        "epoch,seed,train_acc,train_loss,val_acc,val_loss\n0,0,0.5,0.6,0.5,0.7\n\n")), {},
     EXIT_DATA, "ed_results.csv: unexpected ED table header 'epoch,seed,"),
    ("ed-table-short-row", lambda tmp: _ed_prior_table_argv(tmp, lambda path: path.write_text(
        f"{ED_HEADER}\nconv,0,1.0\n")), {}, EXIT_DATA,
     "ed_results.csv:2: expected 10 cells, got 3"),
    ("ed-table-blank-line", lambda tmp: _ed_prior_table_argv(tmp, lambda path: path.write_text(
        f"{ED_HEADER}\nselect-tanh,0,1.0,546,1,2,uniform,4,0.5,0.125\n\n")), {}, EXIT_DATA,
     "ed_results.csv:3: expected 10 cells, got 1"),
    # A table from before rows recorded their inputs cannot say what it measured.
    ("ed-table-without-inputs-cell", lambda tmp: _ed_prior_table_argv(
        tmp, lambda path: path.write_text(
            "ansatz,seed,gamma,n,theta_samples,data_samples,d,ed,normalized_ed\n"
            "select-tanh,0,1.0,546,1,2,4,0.5,0.125\n")), {},
     EXIT_DATA, "ed_results.csv: unexpected ED table header 'ansatz,seed,gamma,n,theta_samples,"
                "data_samples,d,"),
    # 4: numeric failures
    ("non-finite-training", lambda tmp: [*TRAIN, "--lr", "1e308", "--epochs", "3",
                                         "--seeds", "0", "--out", str(tmp / "run")], {},
     EXIT_NUMERIC, "at epoch 0", "head_weights"),
    ("eval-non-finite-loss", lambda tmp: _eval_argv(tmp, _overflowing_head), {}, EXIT_NUMERIC,
     "non-finite train and val loss"),
    ("ed-kappa-at-most-one", lambda tmp: [*SMALL_ED, "--n", "2", "--out", str(tmp / "ed")],
     {}, EXIT_NUMERIC, "<= 1; effective dimension undefined"),
]

CLASS_PREFIX = {
    EXIT_CONFIG: ("configuration error: ", "usage: "),
    EXIT_DATA: "data error: ",
    EXIT_NUMERIC: "numeric failure: ",
}


def _run(capsys, argv):
    """`main(argv)` as (exit code, stdout, stderr); argparse's SystemExit gives the code too."""
    capsys.readouterr()  # drop what building the case printed
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def _tree(root, with_dirs):
    """Each path under `root`: a file's bytes, or None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes() for p in root.rglob("*")
            if with_dirs or not p.is_dir()}


def _assert_exits_with_its_class(tmp_path, capsys, monkeypatch, row):
    _, build, env, code, *fragments = row
    monkeypatch.chdir(tmp_path)  # a relative output path would land here too
    argv = build(tmp_path)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    # A configuration error makes no directory; the others may make --out.
    with_dirs = code == EXIT_CONFIG
    before = _tree(tmp_path, with_dirs)
    got, out, err = _run(capsys, argv)
    assert got == code, err
    assert err.startswith(CLASS_PREFIX[code]), err
    for fragment in fragments:
        assert fragment.format(tmp=tmp_path) in err, err
    assert "Traceback" not in err
    assert out == ""
    # No file is written, and no .tmp file is left behind.
    assert _tree(tmp_path, with_dirs) == before


def _failures(data):
    rows = [row for row in FAILURES if (row[3] == EXIT_DATA) == data]
    return pytest.mark.parametrize("row", rows, ids=[row[0] for row in rows])


# The FAILURES contract, run in two halves: malformed input (exit 3), and bad
# options, unwritable outputs and numeric failures (exits 2 and 4).
@_failures(data=True)
def test_malformed_input_is_data_error(tmp_path, capsys, monkeypatch, row):
    _assert_exits_with_its_class(tmp_path, capsys, monkeypatch, row)


@_failures(data=False)
def test_config_or_numeric_failure_exits_with_its_class(tmp_path, capsys, monkeypatch, row):
    _assert_exits_with_its_class(tmp_path, capsys, monkeypatch, row)


def test_ed_counts_its_patch_pool_against_the_limit(tmp_path, capsys, monkeypatch):
    # The images, 624 of 28x28, take 3.9 MB as float64 and pass an 8 MiB
    # limit; every stride-1 window of the 546 training images, copied as the
    # ED's patch pool, takes 12.7 MB and does not.
    monkeypatch.setattr("qccnn.data._SYNTHETIC_MAX_BYTES", 8 << 20)
    row = ("ed-inputs-pool-huge", lambda tmp: [
        *SMALL_ED, "--seeds", "0", "--ed-inputs", "synthetic:size=28,train_n=546,val_n=78",
        "--stride", "1", "--out", str(tmp / "ed")], {}, EXIT_CONFIG,
        "the ED of select-tanh (0.00 GiB of FIMs, 0.00 GiB a batch, 0.01 GiB of patches)")
    _assert_exits_with_its_class(tmp_path, capsys, monkeypatch, row)


def test_numeric_failure_prints_one_stderr_line(tmp_path):
    # In a process of its own: pytest's warning capture would hide numpy's
    # RuntimeWarnings from capsys.
    argv = ["train", "--data", "synthetic:train_n=1,val_n=1,size=4", "--epochs", "1",
            "--lr", "1e308", "--ansatz", "classical", "--seeds", "0", "--out", str(tmp_path / "x")]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "qccnn.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_NUMERIC
    assert done.stdout == ""
    assert done.stderr == "numeric failure: non-finite val_loss at epoch 0\n"


# One record header field of a valid archive set to an edge value: (field, value).
HEADER_EDGES = [
    *[("shape", v) for v in (0, -1, 2**40, 2.5)],
    *[("descr", v) for v in ("<f8", "|O", "<U3", "garbage")],
    *[("fortran_order", v) for v in (True, "yes")],
    *[("version", v) for v in (0, 4, 255)],
    ("header_len", "past the record"),
]
ARCHIVE_RECORDS = {
    "train_images": np.arange(4 * 8 * 8, dtype=np.uint8).reshape(4, 8, 8),
    "train_labels": np.array([0, 1, 0, 1], dtype=np.uint8),
    "val_images": np.arange(2 * 8 * 8, dtype=np.uint8).reshape(2, 8, 8)[:, ::-1],
    "val_labels": np.array([1, 0], dtype=np.uint8),
}


def _header_mutations(count: int, seed: int) -> list:
    """`count` distinct cases (record, field, value, shape index), each edge in turn.

    The record, and the shape entry a shape edge replaces, are drawn.
    """
    rng = np.random.default_rng(seed)
    cases = {}
    while len(cases) < count:
        field, value = HEADER_EDGES[len(cases) % len(HEADER_EDGES)]
        key = list(ARCHIVE_RECORDS)[rng.integers(len(ARCHIVE_RECORDS))]
        index = int(rng.integers(ARCHIVE_RECORDS[key].ndim))
        name = f"{key}-{field}{f'[{index}]' if field == 'shape' else ''}={value}"
        cases.setdefault(name, pytest.param(key, field, value, index, id=name))
    return list(cases.values())


def _npy_record(array, field, value, index) -> bytes:
    """`array` as a version 1.0 array record, its header's `field` set to `value`."""
    header = {"descr": array.dtype.str, "fortran_order": False, "shape": array.shape}
    if field == "shape":
        header["shape"] = tuple(value if i == index else n for i, n in enumerate(array.shape))
    elif field in header:
        header[field] = value
    text = repr(header).encode("latin-1")
    text += b" " * (-(len(text) + 11) % 64) + b"\n"  # the data starts 64-byte aligned
    data = np.ascontiguousarray(array).tobytes()
    size = len(text) + len(data) + 7 if field == "header_len" else len(text)
    version = value if field == "version" else 1
    return b"\x93NUMPY" + bytes([version, 0]) + size.to_bytes(2, "little") + text + data


@pytest.mark.parametrize("key,field,value,index", _header_mutations(30, seed=29))
def test_archive_header_edges_exit_cleanly(tmp_path, capsys, key, field, value, index):
    # A seeded sweep over one record header of a small valid archive: each
    # case trains or is refused as a data error, and never tracebacks.
    archive = tmp_path / "data.npz"
    with zipfile.ZipFile(archive, "w") as zf:
        for name, array in ARCHIVE_RECORDS.items():
            edit = (field, value, index) if name == key else (None, None, None)
            zf.writestr(name + ".npy", _npy_record(array, *edit))
    before = _tree(tmp_path, with_dirs=False)
    code, out, err = _run(capsys, ["train", "--data", str(archive), "--ansatz", "classical",
                                   "--epochs", "1", "--seeds", "0", "--out", str(tmp_path / "x")])
    assert code in (EXIT_OK, EXIT_DATA), err
    assert "Traceback" not in err
    if code == EXIT_DATA:
        assert err.startswith(CLASS_PREFIX[EXIT_DATA]) and out == ""
        assert _tree(tmp_path, with_dirs=False) == before


# The JSON text one checkpoint field or parameter group is set to, by its
# case id; None deletes the field.
CHECKPOINT_EDGES = {
    "deleted": None,
    **{json.dumps(v): json.dumps(v) for v in (
        None, 0, -1, 2**63, 1.5, math.nan, math.inf, "", [], {}, True, [2**40, 2**40])},
    "deep": DEEP_JSON,
}
CHECKPOINT_FIELDS = {  # front -> (group, field) of its checkpoint
    front: [("record", f) for f in ("format", "version", "front", "relu", "stride",
                                    "image_shape", "params")] + [("params", g) for g in groups]
    for front, groups in (("classical", ("head_weights", "head_bias", "filters", "conv_bias")),
                          ("mod-a", ("head_weights", "head_bias", "kernels")))
}


def _checkpoint_mutations(count: int, seed: int) -> list:
    """`count` distinct cases (front, group, field, edge), each edge in turn; the rest drawn."""
    rng = np.random.default_rng(seed)
    cases = {}
    while len(cases) < count:
        edge = list(CHECKPOINT_EDGES)[len(cases) % len(CHECKPOINT_EDGES)]
        front = list(CHECKPOINT_FIELDS)[rng.integers(len(CHECKPOINT_FIELDS))]
        group, field = CHECKPOINT_FIELDS[front][rng.integers(len(CHECKPOINT_FIELDS[front]))]
        name = f"{front}-{group}.{field}={edge}"
        cases.setdefault(name, pytest.param(front, group, field, edge, id=name))
    return list(cases.values())


@functools.lru_cache(maxsize=None)
def _checkpoint_state(front: str) -> dict:
    """A valid checkpoint of `front` for `SMALL_DATA`'s 8x8 images; `_with_text` copies it."""
    return make_model(front, (8, 8), seed=0).state_dict()


@pytest.mark.parametrize("front,group,field,edge", _checkpoint_mutations(40, seed=30))
def test_checkpoint_field_edges_exit_cleanly(tmp_path, capsys, front, group, field, edge):
    # A seeded sweep over one field of a small valid checkpoint: each case
    # evaluates, or exits as a data or numeric failure, and never tracebacks.
    path = tmp_path / "ck.json"
    path.write_text(_with_text(_checkpoint_state(front), group, field, CHECKPOINT_EDGES[edge]))
    code, out, err = _run(capsys, ["eval", str(path), "--data", SMALL_DATA])
    assert code in (EXIT_OK, EXIT_DATA, EXIT_NUMERIC), err
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.startswith(CLASS_PREFIX[code]) and out == ""


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
