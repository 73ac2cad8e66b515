"""Command line driver: training campaigns, evaluation, ED tables, curves.

Subcommands: ``train``, ``eval``, ``ed``, ``curves``.  Options resolve in
order defaults < config file (``--config``, ``key = value`` lines) <
environment (``QCCNN_<NAME>``) < command line.  Exit codes: 0 success,
2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from urllib.parse import quote

import numpy as np

from .capacity import (
    NumericError,
    dataset_input_sampler,
    effective_dimension,
    effective_dimension_from_fims,  # noqa: F401  (a perfbench span target)
    held_bytes,
    uniform_input_sampler,
)
from .circuits import ANSATZ_KEYS, build_ansatz
from .data import PATCH_SIZE, DataError, _check_limit, load_dataset, patch_grid
from .nn import FitResult, evaluate, fit, make_model

def _fix_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds, so a call's cost does not depend on earlier calls.

    By default glibc raises both to the size of the largest mmapped block
    freed so far.  A work array under the mmap threshold comes from the
    heap, which keeps freed memory up to the trim threshold for the next
    call; otherwise it goes back to the system, and the next call
    page-faults it in again.  So a call's cost depended on the largest
    array any earlier call had freed: in a loop of `qccnn ed` calls over
    the table's keys, the 4-qubit keys ran 10-15% slower when no key freed
    the larger arrays of a 5-qubit circuit.  At 4 MiB and 16 MiB, work
    arrays under 4 MiB (a (16, 12544) complex state is 3.2 MB) stay in the
    heap, and at most 16 MiB of free heap is kept.  Where the C library
    has no ``mallopt`` (it is not glibc), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD in glibc's <malloc.h>
    mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD


_fix_malloc_thresholds()

ENV_PREFIX = "QCCNN_"
EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_NUMERIC = 0, 2, 3, 4

# ED rows mirroring the reference comparison table (one row per circuit).
ED_TABLE_KEYS = (
    "conv",
    "midcircuit-rx",
    "midcircuit-ry",
    "ancilla-cy",
    "ancilla-cz",
    "mod-a",
    "mod-b",
    "mod-c",
    "select-sign",
)


class ConfigError(Exception):
    """Raised for invalid flags, config files or option values."""


@dataclass
class RunConfig:
    """Effective settings of one command, echoed verbatim into run metadata."""

    ansatz: str = ""
    data: str = "synthetic"
    epochs: int = 20
    batch_size: int = 8
    lr: float = 0.001
    stride: int = 2
    seeds: tuple = (0, 1, 2)
    out: str = ""
    stop_at_train_acc: float | None = None
    classical_relu: bool = False
    gamma: float = 1.0
    n: int = 546
    theta_samples: int = 100
    data_samples: int = 100
    ed_inputs: str = "uniform"


def _parse_seeds(text: str) -> tuple:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(f"seeds: expected comma-separated integers, got {text!r}") from None


def _coerce(name: str, value, target_type):
    if target_type is bool:
        if isinstance(value, bool):
            return value
        lowered = str(value).strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {value!r}")
    try:
        return target_type(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected {target_type.__name__}, got {value!r}") from None


def _read_utf8(path: Path, error: type[Exception]) -> str:
    """The text of `path`; a file that cannot be read as UTF-8 raises `error` naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path} as UTF-8 text: {exc}") from None


def read_config_file(path) -> dict:
    """Parse a ``key = value`` config file; ``#`` starts a comment."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such config file: {path}")
    values = {}
    for lineno, raw in enumerate(_read_utf8(path, ConfigError).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _cast(name: str, value):
    """`value` of option `name`, from a flag, a config line or a variable alike."""
    if name == "seeds":  # this and stop_at_train_acc (default None) need more than type(default)
        return _parse_seeds(value)
    caster = float if name == "stop_at_train_acc" else type(getattr(RunConfig, name))
    return _coerce(name, value, caster)


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, environment and explicit CLI flags."""
    merged = asdict(RunConfig())
    layers = [read_config_file(args.config)] if getattr(args, "config", None) else []
    layers.append({k: v for k in merged if (v := os.getenv(ENV_PREFIX + k.upper())) is not None})
    layers.append({k: v for k, v in vars(args).items() if k in merged and v is not None})
    for layer in layers:
        for key, value in layer.items():
            if key not in merged:
                raise ConfigError(f"unknown option {key!r}")
            merged[key] = _cast(key, value)
    cfg = RunConfig(**merged)
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: RunConfig):
    if cfg.epochs < 1:
        raise ConfigError("epochs must be >= 1")
    if cfg.batch_size < 1:
        raise ConfigError("batch size must be >= 1")
    if cfg.stride < 1:
        raise ConfigError("stride must be >= 1")
    if not (cfg.lr > 0 and np.isfinite(cfg.lr)):
        raise ConfigError("learning rate must be positive and finite")
    if not cfg.seeds:
        raise ConfigError("at least one seed is required")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError(f"seeds must be distinct, got {list(cfg.seeds)}")
    if min(cfg.seeds) < 0:
        raise ConfigError(f"seeds must be non-negative, got {list(cfg.seeds)}")
    stop = cfg.stop_at_train_acc
    if stop is not None and not 0.0 <= stop <= 1.0:
        raise ConfigError(f"stop_at_train_acc must lie in [0, 1], got {stop!r}")
    if not 0.0 < cfg.gamma <= 1.0:
        raise ConfigError("gamma must lie in (0, 1]")
    if cfg.n <= 1:
        raise ConfigError("n must be an integer > 1")
    if cfg.theta_samples < 1 or cfg.data_samples < 1:
        raise ConfigError("theta_samples and data_samples must be >= 1")


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------


def _make_out_dir(out: str) -> Path:
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a path under a regular file, for example
        raise ConfigError(f"cannot make output directory {path}: {exc}") from None
    return path


def _check_writable(paths):
    """Raise ConfigError before any write if a path is not a file in an existing directory."""
    for path in paths:
        if path.is_dir() or not path.parent.is_dir():
            raise ConfigError(f"cannot write {path}: not a file in an existing directory")


def _atomic_write(path: Path, text: str):
    """Write `text` to `path` through a ``.tmp`` sibling; an OSError becomes a ConfigError."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:  # `path` is a directory, or under a regular file
        if tmp.is_file():
            tmp.unlink()
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _fmt(value: float) -> str:
    return repr(float(value))


_METRICS_HEADER = "epoch,seed,train_acc,train_loss,val_acc,val_loss"


def _read_table(path: Path, header: str, name: str):
    """Yield (line number, cells) per row of the CSV table `name` at `path`, each line stripped.

    A first line other than `header`, or a row of another cell count, raises DataError.
    """
    first, *lines = _read_utf8(path, DataError).splitlines() or [""]
    if first.strip() != header:
        raise DataError(f"{path}: unexpected {name} header {first.strip()!r}")
    width = header.count(",") + 1
    for lineno, line in enumerate(lines, 2):
        cells = line.strip().split(",")
        if len(cells) != width:
            raise DataError(f"{path}:{lineno}: expected {width} cells, got {len(cells)}")
        yield lineno, cells


def write_metrics_csv(path: Path, per_seed: dict[int, FitResult]):
    """Per-seed epoch rows plus per-epoch mean rows keyed ``seed=agg``."""
    lines = [_METRICS_HEADER]
    for seed, res in per_seed.items():
        for e in range(res.epochs_run):
            lines.append(
                f"{e},{seed},{_fmt(res.train_acc[e])},{_fmt(res.train_loss[e])},"
                f"{_fmt(res.val_acc[e])},{_fmt(res.val_loss[e])}"
            )
    max_epochs = max(res.epochs_run for res in per_seed.values())
    for e in range(max_epochs):
        cols = []
        for metric in ("train_acc", "train_loss", "val_acc", "val_loss"):
            vals = [getattr(r, metric)[e] for r in per_seed.values() if e < r.epochs_run]
            cols.append(_fmt(float(np.mean(vals))))
        lines.append(f"{e},agg," + ",".join(cols))
    _atomic_write(path, "\n".join(lines) + "\n")


def read_metrics_csv(path: Path) -> dict[str, dict[int, list]]:
    """Per-seed metric traces from a metrics.csv (aggregate rows skipped)."""
    if not path.is_file():
        raise DataError(f"missing metrics file: {path}")
    per_seed: dict[str, dict[int, list]] = {}
    for lineno, cells in _read_table(path, _METRICS_HEADER, "metrics"):
        epoch, seed, *values = cells
        if seed == "agg":
            continue
        try:
            per_seed.setdefault(seed, {})[int(epoch)] = [float(v) for v in values]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric cell in {','.join(cells)!r}") from None
    return per_seed


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.ansatz:
        cfg.ansatz = "conv"
    known_fronts = ANSATZ_KEYS + ("classical",)
    if cfg.ansatz not in known_fronts:
        raise ConfigError(
            f"unknown ansatz {cfg.ansatz!r}; choose from {', '.join(known_fronts)}"
        )
    out_dir = _make_out_dir(cfg.out or f"runs/{cfg.ansatz}")
    train, val = load_dataset(cfg.data)
    checkpoints = {seed: out_dir / f"checkpoint_seed{seed}.json" for seed in cfg.seeds}
    _check_writable([*checkpoints.values(), out_dir / "metrics.csv", out_dir / "summary.json"])
    per_seed: dict[int, FitResult] = {}
    for seed in cfg.seeds:
        model = make_model(cfg.ansatz, train.image_shape, cfg.stride, seed, cfg.classical_relu)
        result = fit(
            model, train, val,
            epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr, seed=seed,
            stop_at_train_acc=cfg.stop_at_train_acc,
        )
        per_seed[seed] = result
        _atomic_write(checkpoints[seed], json.dumps(model.state_dict(), sort_keys=True) + "\n")
        print(
            f"[{cfg.ansatz} seed {seed}] epochs={result.epochs_run}"
            f" max_train_acc={result.max_train_acc:.4f} max_val_acc={result.max_val_acc:.4f}"
        )
    write_metrics_csv(out_dir / "metrics.csv", per_seed)
    max_train = [r.max_train_acc for r in per_seed.values()]
    max_val = [r.max_val_acc for r in per_seed.values()]
    summary = {
        "config": {**asdict(cfg), "seeds": list(cfg.seeds)},
        "dataset": {"train_n": len(train), "val_n": len(val), "image_shape": list(train.image_shape)},
        "per_seed": {
            str(s): {
                "epochs_run": r.epochs_run,
                "max_train_acc": r.max_train_acc,
                "max_val_acc": r.max_val_acc,
            }
            for s, r in per_seed.items()
        },
        "max_train_acc": {"mean": float(np.mean(max_train)), "std": float(np.std(max_train))},
        "max_val_acc": {"mean": float(np.mean(max_val)), "std": float(np.std(max_val))},
    }
    _atomic_write(out_dir / "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"{cfg.ansatz}: max train {summary['max_train_acc']['mean']:.4f}"
        f" +- {summary['max_train_acc']['std']:.4f},"
        f" max val {summary['max_val_acc']['mean']:.4f}"
        f" +- {summary['max_val_acc']['std']:.4f} -> {out_dir}"
    )
    return EXIT_OK


def _is_int(value, least: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def _check_checkpoint_meta(state: dict):
    """Reject model metadata that `make_model` would misread or fail on."""
    shape, stride, relu = state["image_shape"], state["stride"], state["relu"]
    if not (isinstance(shape, list) and len(shape) == 2 and all(_is_int(v, 2) for v in shape)):
        raise ValueError(f"'image_shape' must be two integers >= 2, got {shape!r}")
    if not _is_int(stride, 1):
        raise ValueError(f"'stride' must be a positive integer, got {stride!r}")
    if not isinstance(relu, bool):
        raise ValueError(f"'relu' must be a boolean, got {relu!r}")
    if relu and state["front"] != "classical":
        raise ValueError(f"'relu' must be false for the quantum front {state['front']!r}")


def cmd_eval(cfg: RunConfig, checkpoint: str) -> int:
    train, val = load_dataset(cfg.data)
    splits = (("train", train), ("val", val))
    try:
        state = json.loads(Path(checkpoint).read_text())
        _check_checkpoint_meta(state)
        # Compared before the model is built: its head is sized by the shape.
        shape = tuple(state["image_shape"])
        for name, dataset in splits:
            if dataset.image_shape != shape:
                raise DataError(
                    f"checkpoint {checkpoint} takes images of shape {shape};"
                    f" the {name} split of {cfg.data} has {dataset.image_shape}"
                )
        model = make_model(state["front"], shape, state["stride"], 0, state["relu"])
        model.load_state_dict(state)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint: {exc}") from exc
    # A parse error, a missing key or a bad record; JSON nested past Python's
    # recursion limit ends its decoding in a RecursionError.
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise DataError(f"malformed checkpoint {checkpoint}: {exc!r}") from exc
    # Both splits before any line, so a failure prints nothing to stdout.
    results = [(name, *evaluate(model, dataset), len(dataset)) for name, dataset in splits]
    bad = [name for name, _, loss, _ in results if not np.isfinite(loss)]
    if bad:
        raise FloatingPointError(f"non-finite {' and '.join(bad)} loss")
    for name, acc, loss, size in results:
        print(f"{name}: accuracy={acc:.4f} loss={loss:.6f} n={size}")
    return EXIT_OK


_ED_HEADER = "ansatz,seed,gamma,n,theta_samples,data_samples,inputs,d,ed,normalized_ed"


def _quoted(text: str) -> str:
    """`text` as a CSV cell: percent-encoded past letters, digits and ``_.-~/:=``, so no comma."""
    return quote(text, safe="/:=", errors="surrogateescape")


def _ed_inputs_cell(cfg: RunConfig) -> str:
    """An ED row's ``inputs`` cell: ``uniform``, or the quoted ``--ed-inputs`` source and stride.

    ``synthetic:train_n=32,val_n=16`` at stride 2 gives
    ``synthetic:train_n=32%2Cval_n=16;stride=2``.
    """
    if cfg.ed_inputs == "uniform":
        return "uniform"
    return f"{_quoted(cfg.ed_inputs)};stride={cfg.stride}"


def _read_ed_table(path: Path) -> dict:
    """The rows of an existing ED table, keyed by their settings, the first seven cells."""
    return {tuple(cells[:7]): ",".join(cells)
            for _, cells in _read_table(path, _ED_HEADER, "ED table")}


def cmd_ed(cfg: RunConfig) -> int:
    keys = cfg.ansatz.split(",") if cfg.ansatz else list(ED_TABLE_KEYS)
    for key in keys:
        if key not in ANSATZ_KEYS:
            raise ConfigError(f"unknown ansatz {key!r}; choose from {', '.join(ANSATZ_KEYS)}")
    if len(set(keys)) != len(keys):  # a repeated key would score the same rows twice
        raise ConfigError(f"ansatz keys must be distinct, got {keys}")
    # The --ed-inputs split is read first: its patch pool, every window of
    # every image at the stride, is held through every key's ED.
    train = None if cfg.ed_inputs == "uniform" else load_dataset(cfg.ed_inputs)[0]
    pool = 0 if train is None else (
        len(train) * math.prod(patch_grid(*train.image_shape, cfg.stride)) * PATCH_SIZE**2 * 8)
    pool_text = f", {pool / 2**30:.2f} GiB of patches" if pool else ""
    for key in keys:  # refused before any compute; the keys run one at a time
        stack, batch = held_bytes(build_ansatz(key).circuit, cfg.theta_samples, cfg.data_samples)
        _check_limit(f"the ED of {key} ({stack / 2**30:.2f} GiB of FIMs,"
                     f" {batch / 2**30:.2f} GiB a batch{pool_text})", stack + batch + pool,
                     ConfigError)
    out_dir = _make_out_dir(cfg.out or "runs/ed")
    table_path = out_dir / "ed_results.csv"
    # Rows are keyed by their settings, so a rerun replaces its own rows in
    # place and keeps every other row.
    table = _read_ed_table(table_path) if table_path.exists() else {}
    sampler = uniform_input_sampler if train is None else dataset_input_sampler(train, cfg.stride)
    inputs = _ed_inputs_cell(cfg)
    _check_writable([table_path, out_dir / "ed_summary.json"])
    summary = {}
    for key in keys:
        d = build_ansatz(key).num_params
        values = []
        for seed in cfg.seeds:
            ed, normalized = effective_dimension(
                key, gamma=cfg.gamma, n=cfg.n,
                theta_samples=cfg.theta_samples, data_samples=cfg.data_samples,
                seed=seed, input_sampler=sampler,
            )
            print(f"ansatz: {key}\nseed: {seed}\nd: {d}\ngamma: {cfg.gamma}\nn: {cfg.n}\n"
                  f"theta_samples: {cfg.theta_samples}\ndata_samples: {cfg.data_samples}\n"
                  f"log_param_volume: {d * math.log(2.0 * math.pi)!r}\n"
                  f"ed: {ed!r}\nnormalized_ed: {normalized!r}\n")
            settings = (key, seed, cfg.gamma, cfg.n, cfg.theta_samples, cfg.data_samples)
            cells = (*map(str, settings), inputs)
            table[cells] = ",".join([*cells, str(d), _fmt(ed), _fmt(normalized)])
            _atomic_write(table_path, "\n".join([_ED_HEADER, *table.values()]) + "\n")
            values.append(normalized)
        summary[key] = {"mean": float(np.mean(values)), "std": float(np.std(values))}
        print(f"== {key}: normalized ED {summary[key]['mean']:.3f} +- {summary[key]['std']:.3f}\n")
    _atomic_write(out_dir / "ed_summary.json", json.dumps(
        {"config": {**asdict(cfg), "seeds": list(cfg.seeds)}, "normalized_ed": summary},
        indent=2, sort_keys=True,
    ) + "\n")
    return EXIT_OK


def cmd_curves(run_dirs, out_csv: str | None, out_svg: str | None) -> int:
    if not run_dirs:
        raise ConfigError("curves needs at least one run directory")
    series = []
    for run_dir in run_dirs:
        run_path = Path(run_dir)
        per_seed = read_metrics_csv(run_path / "metrics.csv")
        label = run_path.name
        epochs = sorted({e for rec in per_seed.values() for e in rec})
        stats = {}
        for idx, metric in ((0, "train_acc"), (2, "val_acc")):  # read_metrics_csv value index
            rows = []
            for e in epochs:
                vals = [rec[e][idx] for rec in per_seed.values() if e in rec]
                rows.append(
                    (e, float(np.mean(vals)), float(np.std(vals)), min(vals), max(vals))
                )
            stats[metric] = rows
        series.append((label, stats))
    lines = ["label,metric,epoch,mean,std,min,max"]
    for label, stats in series:
        for metric in ("train_acc", "val_acc"):
            for e, mean, std, lo, hi in stats[metric]:
                lines.append(f"{_quoted(label)},{metric},{e},"
                             f"{_fmt(mean)},{_fmt(std)},{_fmt(lo)},{_fmt(hi)}")
    outputs = [(Path(out_csv or "curves.csv"), "\n".join(lines) + "\n")]
    if out_svg:
        outputs.append((Path(out_svg), render_curves_svg(series)))
    _check_writable([path for path, _ in outputs])
    for path, text in outputs:
        _atomic_write(path, text)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG rendering (no dependencies; static markup)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_PANEL_W, _PANEL_H, _MARGIN = 460, 320, 52


def _panel(series, metric: str, title: str, x0: int) -> list[str]:
    max_epoch = max(
        (row[0] for _, stats in series for row in stats[metric]), default=1
    )
    max_epoch = max(max_epoch, 1)

    def sx(e):
        return x0 + _MARGIN + (e / max_epoch) * (_PANEL_W - 2 * _MARGIN)

    def sy(v):
        return _MARGIN + (1.0 - v) * (_PANEL_H - 2 * _MARGIN)

    parts = [
        f'<rect x="{x0 + _MARGIN}" y="{_MARGIN}" width="{_PANEL_W - 2 * _MARGIN}"'
        f' height="{_PANEL_H - 2 * _MARGIN}" fill="none" stroke="#999"/>',
        f'<text x="{x0 + _PANEL_W / 2:.0f}" y="{_MARGIN - 16}" text-anchor="middle"'
        f' font-size="14">{title}</text>',
    ]
    for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{x0 + _MARGIN}" y1="{y:.1f}" x2="{x0 + _PANEL_W - _MARGIN}"'
            f' y2="{y:.1f}" stroke="#eee"/>'
        )
        parts.append(
            f'<text x="{x0 + _MARGIN - 6}" y="{y + 4:.1f}" text-anchor="end"'
            f' font-size="10">{frac:.1f}</text>'
        )
    step = max(1, max_epoch // 6)
    for e in range(0, max_epoch + 1, step):
        parts.append(
            f'<text x="{sx(e):.1f}" y="{_PANEL_H - _MARGIN + 16}" text-anchor="middle"'
            f' font-size="10">{e + 1}</text>'
        )
    for i, (label, stats) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        rows = stats[metric]
        band = [(sx(e), sy(min(1.0, m + s))) for e, m, s, _, _ in rows]
        band += [(sx(e), sy(max(0.0, m - s))) for e, m, s, _, _ in reversed(rows)]
        pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in band)
        parts.append(f'<polygon points="{pts}" fill="{color}" opacity="0.15"/>')
        pts = " ".join(f"{sx(e):.1f},{sy(m):.1f}" for e, m, _, _, _ in rows)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    return parts


def render_curves_svg(series) -> str:
    """Two-panel accuracy chart (train, validation) with +-std bands."""
    # Imported here: xml.sax.saxutils loads urllib.request, 6 MB of RSS that
    # every other command would carry.
    from xml.sax.saxutils import escape

    width = 2 * _PANEL_W + 40
    height = _PANEL_H + 24 * ((len(series) + 2) // 3) + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    parts += _panel(series, "train_acc", "Training accuracy", 0)
    parts += _panel(series, "val_acc", "Validation accuracy", _PANEL_W + 40)
    for i, (label, _) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        x = _MARGIN + (i % 3) * 300
        y = _PANEL_H + 18 + (i // 3) * 24
        parts.append(f'<rect x="{x}" y="{y - 10}" width="18" height="10" fill="{color}"/>')
        # A name that is not UTF-8 (its bytes held as surrogates) shows U+FFFD per bad byte.
        text = escape(label.encode(errors="surrogateescape").decode(errors="replace"))
        parts.append(f'<text x="{x + 24}" y="{y}" font-size="12">{text}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# Each command's help and the RunConfig fields it takes as flags (`batch_size` is
# `--batch-size`); eval writes no file but keeps `--out`, which perfbench passes.
_COMMANDS = {
    "train": ("multi-seed training campaign", (
        "config", "data", "stride", "seeds", "out", "ansatz", "epochs", "batch_size", "lr",
        "stop_at_train_acc", "classical_relu")),
    "eval": ("evaluate a checkpoint on a dataset", ("config", "data", "seeds", "out")),
    "ed": ("effective-dimension table", (
        "config", "stride", "seeds", "out", "ansatz", "gamma", "n", "theta_samples",
        "data_samples", "ed_inputs")),
}
_OPTION_HELP = {
    "config": "key = value config file",
    "data": "'synthetic[:k=v,...]' or an .npz/.zip archive",
    "stride": "convolution stride (default 2)",
    "seeds": "comma-separated seeds (default 0,1,2; eval reads none)",
    "out": "output directory (eval writes none)",
    "ansatz": "train: ansatz key or 'classical'; ed: comma-separated keys (default: table set)",
    "stop_at_train_acc": "stop once epoch train accuracy reaches this value",
    "classical_relu": "ReLU after the classical conv layer",
    "ed_inputs": "'uniform' or a dataset source to draw patches from",
}


@functools.cache  # built once per process; parse_args returns a fresh Namespace
def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qccnn",
        description="Hybrid quantum-classical CNN lab: train, evaluate, analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No prefix abbreviations: `ed --data 5` must not mean `--data-samples 5`.
    # Flags keep their text: build_config casts them as it casts config lines.
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, allow_abbrev=False)
        if command == "eval":
            p.add_argument("checkpoint", help="checkpoint_seedN.json path")
        for name in names:
            switch = {"action": "store_const", "const": True} if name == "classical_relu" else {}
            p.add_argument("--" + name.replace("_", "-"), help=_OPTION_HELP.get(name), **switch)

    p_curves = sub.add_parser("curves", help="combine run metrics into CSV/SVG curves",
                              allow_abbrev=False)
    p_curves.add_argument("run_dirs", nargs="+", help="train output directories")
    p_curves.add_argument("--out", help="combined CSV path (default curves.csv)")
    p_curves.add_argument("--svg", help="optional SVG chart path")
    return parser


# The exit-4 checks report non-finite values; numpy's warnings would only repeat them.
@np.errstate(all="ignore")
def main(argv=None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "curves":
            return cmd_curves(args.run_dirs, args.out, args.svg)
        cfg = build_config(args)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint)
        if args.command == "ed":
            return cmd_ed(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
