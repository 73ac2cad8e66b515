"""The benchmark's per-layer spans and output checks still fit the package."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load("spans")
    assert spans.Tracer().missing == []


@pytest.mark.parametrize("workload", ["train-modc", "train-sweep", "eval-sweep", "ed-table"])
def test_worker_run_checks_find_no_problem(workload, tmp_path, monkeypatch):
    # The run-level checks call the package as the benchmark does (gradients
    # vs central differences, eval vs the dense oracle, ED scores vs finite
    # differences), so they catch drift from the API the benchmark relies on.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # worker imports its siblings
    worker = _load("worker")
    results = worker.Workload(workload, 0, tmp_path).run_checks()
    assert len(results) == len(worker.WORKLOADS[workload][0])
    assert [(name, problems) for name, problems in results if problems] == []
