"""qccnn benchmark: one workload, end-to-end or traced, as one JSON line.

    python3 perfbench/run.py --workload train-modc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in child processes
(``worker.py``) with BLAS threads pinned to 1: a closed loop of
``qccnn.cli.main`` calls on inputs generated from ``--seed``, followed by
output checks.  ``--trace 0`` splits the window over several children and
reports the end-to-end metrics of ``BENCHMARK.json``: ``items_per_s`` of the
fastest child, the largest ``peak_rss_mb`` and the median ``setup_s``, the
time from process start to the end of set-up.  ``--trace 1`` runs one child
and reports the per-layer metrics from spans at the package's module
boundaries.  The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the environment.  Run records, with the spans of a traced
run, go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILDREN = 5  # measuring child processes of an untraced run
DEADLINE_S = 170.0
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def spawn(args, seconds: float, work: Path, record: Path, deadline: float, checks: bool):
    """Run one worker; returns (set-up seconds, result dict)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--work", str(work), "--record", str(record)]
    cmd += ["--checks"] if checks else []
    env = {**os.environ, **PINNED}
    start = monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the time limit") from None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    setup = float(lines[0].split()[1]) - start
    result = next((json.loads(ln[7:]) for ln in lines if ln.startswith("RESULT ")), None)
    if result is None:
        raise RuntimeError("worker printed no result")
    return setup, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "qccnn").is_dir():
        print("no src/qccnn package in this checkout", file=sys.stderr)
        return 1
    work_root = ROOT / ".perfbench_work" / str(os.getpid())
    records = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(records, ignore_errors=True)
    records.mkdir(parents=True)
    # An untraced run is split over several processes, as the host's speed
    # varies by process as well as over time; see "items_per_s" in the README.
    children = 1 if args.trace else CHILDREN
    try:
        runs = [spawn(args, args.seconds / children, work_root / f"child{i}",
                      records / f"child{i}.json", deadline, checks=i == children - 1)
                for i in range(children)]
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if work_root.parent.is_dir() and not any(work_root.parent.iterdir()):
            work_root.parent.rmdir()

    setups = [setup for setup, _ in runs]
    results = [result for _, result in runs]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = dict(results[0]["metrics"])
    else:
        values = {
            "items_per_s": max(r["metrics"]["items_per_s"] for r in results),
            "peak_rss_mb": max(r["metrics"]["peak_rss_mb"] for r in results),
            "setup_s": statistics.median(setups),
        }
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif args.trace:
            print(f"absent: {m['name']} (its wrap target is gone)", file=sys.stderr)
        else:
            print(f"benchmark failed: no value for {m['name']}", file=sys.stderr)
            return 1
    print(f"set-up (s): {[round(s, 4) for s in setups]}; items_per_s by child: "
          f"{[round(r['metrics'].get('items_per_s', 0.0), 4) for r in results]}; "
          f"records: {records}", file=sys.stderr)
    print(json.dumps({"env": results[-1]["env"]}))
    print(json.dumps({
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
