"""The benchmark's dense oracle still reads every circuit the package builds."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qccnn.circuits import ANSATZ_KEYS, build_ansatz
from qccnn.sim import encode, readouts, unitary

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("key", ANSATZ_KEYS)
def test_oracle_readouts_equal_the_simulator(key):
    # The oracle reads GateOp and MidMeasure fields off the circuit template
    # (perfbench/oracle.py); a field or gate kind it reads and the package no
    # longer provides fails here rather than in a benchmark run.
    oracle = _load("oracle")
    circuit = build_ansatz(key).circuit
    rng = np.random.default_rng(61)
    theta = rng.uniform(-np.pi, np.pi, circuit.num_params)
    patch = rng.uniform(-1.0, 1.0, circuit.num_inputs)
    state = unitary(circuit, theta[None])[0] @ encode(circuit, patch[None])
    np.testing.assert_allclose(oracle.readouts(circuit, theta, patch),
                               readouts(circuit, state[circuit.support])[0], rtol=0, atol=1e-12)
