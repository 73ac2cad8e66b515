"""One benchmark process: set up a workload, run its closed loop, check outputs.

Started by ``run.py`` with BLAS threads pinned to 1.  Protocol on stdout:
``READY <monotonic clock>`` once set-up is done (inputs written, ansatz and models built, caches
warm), then one ``RESULT <json>`` line.  Every call goes through
``qccnn.cli.main`` with a fresh output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import qccnn  # noqa: E402
from qccnn import cli  # noqa: E402
from qccnn.capacity import effective_dimension, score_batch  # noqa: E402
from qccnn.circuits import build_ansatz  # noqa: E402
from qccnn.data import load_dataset  # noqa: E402
from qccnn.nn import make_model, softmax_cross_entropy  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402

IMAGE = 28
BATCH = 8
TRAIN_IMAGES = 1  # a short training call, so that a run holds many of them
ED_KEYS = spans.QUANTUM_FRONTS[:-1]  # the ED table: every ansatz but select-tanh
ED_THETA = 5
FD_STEP = 1e-5
FD_RTOL = 1e-6
ORACLE_ATOL = 1e-12

# name -> (fronts, train images, val images); ed-table uses no archive.
WORKLOADS = {
    "train-modc": (("mod-c",), TRAIN_IMAGES, BATCH),
    "train-sweep": (tuple(f for f in spans.FRONTS if f != "mod-c"), TRAIN_IMAGES, BATCH),
    "eval-sweep": (spans.FRONTS, BATCH, BATCH),
    "ed-table": (ED_KEYS, 0, 0),
}


def write_archive(path: Path, rng, train_n: int, val_n: int):
    """BreastMNIST-layout archive: uint8 28x28 grayscale images, binary labels."""
    arrays = {}
    for split, n in (("train", train_n), ("val", val_n)):
        arrays[f"{split}_images"] = rng.integers(0, 256, (n, IMAGE, IMAGE), dtype=np.uint8)
        arrays[f"{split}_labels"] = (np.arange(n) % 2).astype(np.uint8)
    np.savez(path, **arrays)


class Workload:
    """Inputs and calls of one workload, built from the seed in a fresh work dir."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.fronts, train_n, val_n = WORKLOADS[name]
        self.kind = name.split("-")[0]
        rng = np.random.default_rng(seed)
        self.archive = work / "archive.npz"
        self.train = self.val = None
        if train_n:
            write_archive(self.archive, rng, train_n, val_n)
            self.train, self.val = load_dataset(str(self.archive))
        self.checkpoints = {}
        for front in self.fronts if self.kind != "ed" else ():
            model = make_model(front, (IMAGE, IMAGE), 2, seed)
            model.forward(self.val.images[:1])  # warm the gate index caches
            if self.kind == "eval":
                path = work / f"checkpoint_{front}.json"
                path.write_text(json.dumps(model.state_dict(), sort_keys=True) + "\n")
                self.checkpoints[front] = path
        if self.kind == "ed":
            for key in self.fronts:
                effective_dimension(key, theta_samples=1, data_samples=4, seed=seed)
        self._calls = 0

    def calls(self):
        """(label, argv, items, output checker) for one round."""
        seed = str(self.seed)
        out = []
        for front in self.fronts:
            if self.kind == "ed":  # the default table, one key per call
                argv = ["ed", "--ansatz", front, "--seeds", seed,
                        "--theta-samples", str(ED_THETA)]
                out.append((front, argv, ED_THETA, functools.partial(self._check_ed, front)))
            elif self.kind == "train":
                argv = ["train", "--ansatz", front, "--data", str(self.archive), "--epochs", "1",
                        "--batch-size", str(BATCH), "--seeds", seed]
                out.append((front, argv, len(self.train), self._check_train))
            else:
                argv = ["eval", str(self.checkpoints[front]), "--data", str(self.archive),
                        "--seeds", seed]
                out.append((front, argv, len(self.train) + len(self.val), self._check_eval))
        return out

    def fresh_out(self) -> Path:
        self._calls += 1
        return self.work / f"call{self._calls}"

    # -- per-call output checks: return a list of problems --------------------

    def _check_train(self, out: Path, stdout: str):
        with (out / "metrics.csv").open() as f:
            rows = [r for r in csv.DictReader(f) if r["seed"] != "agg"]
        problems = [] if rows else ["metrics.csv has no epoch rows"]
        for r in rows:
            for key in ("train_loss", "val_loss"):
                if not math.isfinite(float(r[key])):
                    problems.append(f"epoch {r['epoch']}: {key}={r[key]}")
            for key in ("train_acc", "val_acc"):
                if not 0.0 <= float(r[key]) <= 1.0:
                    problems.append(f"epoch {r['epoch']}: {key}={r[key]}")
        return problems

    def _check_eval(self, out: Path, stdout: str):
        problems = []
        lines = [ln for ln in stdout.splitlines() if ln.startswith(("train:", "val:"))]
        if len(lines) != 2:
            return [f"expected train and val result lines, got {lines}"]
        for line in lines:
            fields = dict(item.split("=") for item in line.split()[1:])
            acc, loss = float(fields["accuracy"]), float(fields["loss"])
            if not (0.0 <= acc <= 1.0 and math.isfinite(loss)):
                problems.append(line)
        return problems

    def _check_ed(self, key: str, out: Path, stdout: str):
        with (out / "ed_results.csv").open() as f:
            rows = list(csv.DictReader(f))
        problems = []
        if [r["ansatz"] for r in rows] != [key]:
            problems.append(f"ed_results.csv rows {[r['ansatz'] for r in rows]}")
        for r in rows:
            value = float(r["normalized_ed"])
            if not (math.isfinite(value) and 0.0 < value <= 1.0):
                problems.append(f"{r['ansatz']}: normalized_ed={value}")
        return problems

    # -- run-level checks, outside the timed region ---------------------------

    def run_checks(self):
        """One (name, problems) entry per front or ansatz key."""
        check = {"train": self._gradient_check, "eval": self._oracle_check,
                 "ed": self._score_check}[self.kind]
        return [(f"{self.kind}:{front}", guarded(check, front)) for front in self.fronts]

    def _gradient_check(self, front: str):
        """First batch's gradient on a one-image sub-batch vs central differences."""
        model = make_model(front, (IMAGE, IMAGE), 2, self.seed)
        first = np.random.default_rng(self.seed).permutation(len(self.train))[:1]
        images, labels = self.train.images[first], self.train.labels[first]
        _, _, grads = model.loss_and_grads(images, labels)
        params = model.parameters()
        rng = np.random.default_rng(self.seed + 1)
        problems = []
        for name, grad in grads.items():
            if not np.all(np.isfinite(grad)):
                problems.append(f"{name}: non-finite gradient")
                continue
            if name == "kernels" and model.front.ansatz.postprocess == "sign":
                # Sign is flat almost everywhere: the gradient is exactly zero
                # and a difference quotient across a jump is no derivative.
                if np.any(grad):
                    problems.append("kernels: sign front has a nonzero kernel gradient")
                continue
            v = rng.standard_normal(grad.shape)
            v /= np.linalg.norm(v)
            base = params[name].copy()
            losses = []
            for sign in (1.0, -1.0):
                params[name][...] = base + sign * FD_STEP * v
                losses.append(float(softmax_cross_entropy(model.forward(images), labels)[0].mean()))
            params[name][...] = base
            fd = (losses[0] - losses[1]) / (2.0 * FD_STEP)
            an = float(np.sum(grad * v))
            if not abs(fd - an) <= FD_RTOL * max(abs(fd), abs(an)) + 1e-10:
                problems.append(f"{name}: analytic {an!r} vs central difference {fd!r}")
        return problems

    def _oracle_check(self, front: str):
        """Feature maps of a few patches vs the dense density-matrix reference."""
        state = json.loads(self.checkpoints[front].read_text())
        model = make_model(front, (IMAGE, IMAGE), 2, 0)
        model.load_state_dict(state)
        image = self.val.images[0]
        maps = model.front.forward(image[None])[0]  # (4, 14, 14)
        rng = np.random.default_rng(self.seed)
        problems = []
        for i, j in rng.integers(0, IMAGE // 2, (3, 2)):
            patch = image[2 * i: 2 * i + 2, 2 * j: 2 * j + 2].reshape(4)
            got = maps[:, i, j]
            if front == "classical":
                filters = np.asarray(state["params"]["filters"]).reshape(4, 4)
                want = filters @ patch + np.asarray(state["params"]["conv_bias"])
            else:
                ansatz = build_ansatz(front)
                z = np.concatenate([oracle.readouts(ansatz.circuit, k, patch)
                                    for k in np.asarray(state["params"]["kernels"])])
                post = ansatz.postprocess
                if post == "sign":
                    keep = np.abs(z) > 1e-9
                    got, z = got[keep], z[keep]
                want = {"identity": z, "tanh": np.tanh(z), "sign": np.sign(z)}[post]
            err = float(np.max(np.abs(got - want), initial=0.0))
            if not err <= ORACLE_ATOL:
                problems.append(f"patch ({i},{j}): max deviation {err:.3e}")
        return problems

    def _score_check(self, key: str):
        """Score rows at one theta vs central differences of the reference log p."""
        circuit = build_ansatz(key).circuit
        rng = np.random.default_rng(self.seed)
        theta = rng.uniform(-math.pi, math.pi, circuit.num_params)
        xs = rng.uniform(-1.0, 1.0, (3, 4))

        def log_probs(t, x):
            return oracle.class_log_probs(oracle.readouts(circuit, t, x))

        ys = np.array([rng.choice(len(p), p=np.exp(p)) for p in (log_probs(theta, x) for x in xs)])
        scores, skipped = score_batch(circuit, theta, xs, ys)
        if skipped or scores.shape != (len(ys), circuit.num_params):
            return [f"{skipped} samples skipped, scores shape {scores.shape}"]
        problems = []
        for _ in range(2):
            v = rng.standard_normal(circuit.num_params)
            v /= np.linalg.norm(v)
            for r, (x, y) in enumerate(zip(xs, ys)):
                up = log_probs(theta + FD_STEP * v, x)[y]
                down = log_probs(theta - FD_STEP * v, x)[y]
                fd = (up - down) / (2.0 * FD_STEP)
                an = float(scores[r] @ v)
                if not abs(fd - an) <= FD_RTOL * max(abs(fd), abs(an)) + 1e-10:
                    problems.append(f"row {r}: score {an!r} vs central difference {fd!r}")
        return problems


def guarded(check, *args):
    """Problems found by `check`; a check that raises is one failed check."""
    try:
        return check(*args)
    except Exception:  # noqa: BLE001 - count it and keep measuring
        return [traceback.format_exc()]


def invoke(argv):
    """One public CLI call; returns (ok, stdout, error text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed call, not a crashed benchmark
        return False, buf.getvalue(), traceback.format_exc()
    except SystemExit as exc:  # argparse rejects its input this way
        return False, buf.getvalue(), f"SystemExit({exc.code})"
    return code == 0, buf.getvalue(), "" if code == 0 else f"exit code {code}"


def run_loop(workload: Workload, seconds: float, tracer):
    """Closed loop of rounds, one call per front, each waiting for the last.

    A round starts while the window, less half a typical round, is not used
    up; at least one round runs.  With a tracer, the first round only warms up
    and traced and untraced rounds then alternate, at least one of each, so
    that the tracing overhead compares warm rounds.
    """
    calls = workload.calls()
    walls = {False: {label: [] for label, *_ in calls}, True: {label: [] for label, *_ in calls}}
    round_walls = []
    attempted = failed = 0
    start = perf_counter()
    min_rounds = 3 if tracer else 1
    while len(round_walls) < min_rounds or (
        perf_counter() - start + statistics.median(round_walls) / 2 <= seconds
    ):
        warm_up = tracer is not None and not round_walls
        traced = tracer is not None and len(round_walls) % 2 == 1
        round_start = perf_counter()
        for label, argv, _, check in calls:
            out = workload.fresh_out()
            with tracer if traced else contextlib.nullcontext():
                t0 = perf_counter()
                ok, stdout, error = invoke(argv + ["--out", str(out)])
                wall = perf_counter() - t0
            attempted += 1
            problems = [error] if not ok else guarded(check, out, stdout)
            if problems:
                failed += 1
                print(f"[{workload.name}] {label} call failed: {problems}", file=sys.stderr)
            if not warm_up:
                walls[traced][label].append(wall)
            shutil.rmtree(out, ignore_errors=True)
        round_walls.append(perf_counter() - round_start)
    return calls, walls, attempted, failed


def environment() -> dict:
    """Interpreter, numpy, BLAS, CPU and source revision of this run."""
    blas = {}
    with contextlib.suppress(TypeError, KeyError):  # older numpy: no dict mode
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        if (ROOT / ".git").exists():  # never ask a repository above the checkout
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qccnn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in threads},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="fresh directory for inputs and outputs")
    parser.add_argument("--record", required=True, help="file for the run record and spans")
    parser.add_argument("--checks", action="store_true",
                        help="run the run-level output checks after the loop")
    args = parser.parse_args(argv)

    if Path(qccnn.__file__).resolve().parent != ROOT / "src" / "qccnn":
        print(f"imported qccnn from {qccnn.__file__}, not from this checkout", file=sys.stderr)
        return 1
    work = Path(args.work)
    work.mkdir(parents=True)
    workload = Workload(args.workload, args.seed, work)
    tracer = spans.Tracer() if args.trace else None
    print(f"READY {monotonic()!r}", flush=True)

    calls, walls, attempted, failed = run_loop(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for name, problems in workload.run_checks() if args.checks else ():
        attempted += 1
        if problems:
            failed += 1
            print(f"[{args.workload}] check {name} failed: {problems}", file=sys.stderr)

    untraced = walls[False]
    if tracer is None:
        # Best of the run per call: see "items_per_s" in the README.
        items = sum(n for _, _, n, _ in calls)
        wall = sum(min(untraced[label]) for label, *_ in calls)
        metrics = {"items_per_s": items / wall, "peak_rss_mb": peak_rss_mb}
    else:
        traced = walls[True]
        rounds = len(traced[calls[0][0]])
        metrics = spans.layer_metrics(
            tracer.spans, tracer.missing, rounds,
            traced_wall=sum(sum(traced[label]) for label, *_ in calls) / rounds,
            untraced_wall=sum(sum(untraced[label]) for label, *_ in calls)
            / len(untraced[calls[0][0]]),
        )
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "attempted": attempted, "failed": failed,
              "metrics": metrics, "call_walls_s": {"untraced": untraced, "traced": walls[True]}}
    if tracer is not None:
        record["missing_targets"] = tracer.missing
        record["spans"] = tracer.spans
    Path(args.record).write_text(json.dumps(record) + "\n")
    result = {k: record[k] for k in ("attempted", "failed", "metrics", "env")}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
