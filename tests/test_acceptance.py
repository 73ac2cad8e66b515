"""Acceptance suite: one test per exit criterion, with pass/fail lines.

Each test prints ``[PASS]``/``[FAIL]`` with the measured numbers before
asserting, so a full ``pytest -rA`` run doubles as the verification report.
The full reference-comparison table (criterion 7) is printed regardless of
outcome.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from qccnn.autodiff import readout_gradient
from qccnn.capacity import (
    effective_dimension,
    effective_dimension_from_fims,
    uniform_input_sampler,
)
from qccnn.circuits import ANSATZ_KEYS, build_ansatz, higher_order_encoding_template
from qccnn.cli import main as cli_main
from qccnn.data import SyntheticSpec, generate_synthetic
from qccnn.nn import fit, make_model
from qccnn.sim import Circuit, encode, run_deferred_batch, unitary

from oracles import (
    deferred_circuit,
    finite_difference_gradient,
    fisher_information,
    jacobian_rank,
    param_shift_jacobian,
    random_circuit,
    sample_shots,
    z_expectations_oracle,
)

ED_SETTINGS = dict(gamma=1.0, n=546, theta_samples=100, data_samples=100)
ED_SEEDS = (0, 1, 2)
ED_KEYS = (
    "conv", "midcircuit-rx", "midcircuit-ry", "ancilla-cy", "ancilla-cz",
    "mod-a", "mod-b", "mod-c", "select-sign",
)

# Reference normalized effective dimensions for the reproduced architectures.
ED_TARGETS = {
    "conv": 0.933,
    "midcircuit-rx": 0.909,
    "midcircuit-ry": 0.906,
    "ancilla-cy": 0.772,
    "ancilla-cz": 0.801,
    "select-sign": 0.666,
    "select-tanh": 0.666,
}
ED_TOLERANCE = 0.12


def _report(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {label}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. simulator oracle equivalence
# ---------------------------------------------------------------------------


def test_acceptance_01_simulator_matches_dense_oracle():
    rng = np.random.default_rng(100)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        circuit = random_circuit(rng, num_qubits=4, depth=int(rng.integers(5, 40)))
        params = rng.uniform(-math.pi, math.pi, circuit.num_params)
        got = run_deferred_batch(circuit, params, np.zeros((1, 0)))[0]
        want = z_expectations_oracle(circuit, params)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.monotonic() - start
    _report(
        "1 simulator oracle equivalence",
        worst < 1e-12 and elapsed < 10.0,
        f"max |dZ| = {worst:.2e} over 200 circuits in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. deferred vs trajectory equivalence
# ---------------------------------------------------------------------------


def test_acceptance_02_deferred_vs_trajectory():
    circuit = build_ansatz("midcircuit-ry").circuit
    rng = np.random.default_rng(101)
    shots = 100_000
    start = time.monotonic()
    hits = 0
    for _ in range(20):
        x = rng.uniform(-1, 1, 4)
        theta = rng.uniform(-math.pi, math.pi, 6)
        exact = run_deferred_batch(circuit, theta, x[None])[0][0]
        estimates, shot_values, _ = sample_shots(circuit, theta, shots, int(rng.integers(2**31)), x)
        stderr = shot_values[:, 0].std(ddof=1) / math.sqrt(shots)
        if abs(estimates[0] - exact) <= 3 * stderr:
            hits += 1
    elapsed = time.monotonic() - start
    _report(
        "2 deferred vs trajectory equivalence",
        hits >= 19 and elapsed < 120.0,
        f"{hits}/20 draws within 3 standard errors at 1e5 shots in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. gradient suite
# ---------------------------------------------------------------------------


def test_acceptance_03_gradients_all_ansatz_keys():
    rng = np.random.default_rng(102)
    start = time.monotonic()
    worst_ratio = 0.0  # |adj - fd| / max(1e-4 * magnitude, 1e-7); must stay < 1
    for key in ANSATZ_KEYS:
        circuit = build_ansatz(key).circuit
        first_readout = np.eye(1, len(circuit.readout))
        for _ in range(10):
            x = rng.uniform(-1, 1, 4)
            theta = rng.uniform(-math.pi, math.pi, circuit.num_params)
            state = unitary(circuit, [theta])[0] @ encode(circuit, x[None])
            pair = np.stack((state, np.empty_like(state)))  # readout_gradient writes λ to [1]
            adj = readout_gradient(circuit, theta[None], first_readout, pair)[0]
            fd = finite_difference_gradient(
                lambda p: run_deferred_batch(circuit, p, x[None])[0][0], theta
            )
            tol = np.maximum(1e-4 * np.maximum(np.abs(adj), np.abs(fd)), 1e-7)
            worst_ratio = max(worst_ratio, float((np.abs(adj - fd) / tol).max()))
    elapsed = time.monotonic() - start
    _report(
        "3 adjoint vs finite differences",
        worst_ratio < 1.0 and elapsed < 60.0,
        f"worst error at {worst_ratio:.3f} of tolerance across 10 keys x 10 draws"
        f" in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. ancilla CY / CZ identity
# ---------------------------------------------------------------------------


def test_acceptance_04_ancilla_variant_identity():
    # Both variants compile to one 4-qubit parity readout, so each is checked
    # against the 5-qubit dense oracle, which runs its own CY or CZ gates.
    circuits = [build_ansatz(key).circuit for key in ("ancilla-cy", "ancilla-cz")]
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        x = rng.uniform(-1, 1, 4)
        theta = rng.uniform(-math.pi, math.pi, 4)
        for circuit in circuits:
            z = run_deferred_batch(circuit, theta, x[None])[0][0]
            worst = max(worst, abs(z - z_expectations_oracle(circuit, theta, x)[0]))
    _report("4 ancilla CY/CZ identity", worst < 1e-12,
            f"max |Z - dense 5-qubit oracle| = {worst:.2e} over 50 draws x 2 variants")


# ---------------------------------------------------------------------------
# 5. encoding null polarization
# ---------------------------------------------------------------------------


def test_acceptance_05_encoding_null_polarization():
    template = Circuit(
        4, tuple(higher_order_encoding_template()), num_inputs=4, readout=(0, 1, 2, 3)
    )
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1, 1, 4)
        worst = max(worst, float(np.abs(run_deferred_batch(template, [], x[None])[0]).max()))
    _report("5 encoding null polarization", worst < 1e-12, f"max |Z| = {worst:.2e} over 100 inputs")


# ---------------------------------------------------------------------------
# 6 + 7. effective dimension
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ed_table():
    """Normalized ED per ansatz, mean over three seeds at default settings."""
    table = {}
    start = time.monotonic()
    for key in ED_KEYS:
        values = [
            effective_dimension(key, seed=seed, **ED_SETTINGS)[1]
            for seed in ED_SEEDS
        ]
        table[key] = (float(np.mean(values)), float(np.std(values)))
    table["_elapsed"] = time.monotonic() - start
    return table


def test_acceptance_06_ed_bounds_and_closed_forms(ed_table):
    in_bounds = all(0.0 <= ed_table[k][0] <= 1.0 for k in ED_KEYS)

    zero_ed, zero_norm = effective_dimension_from_fims(
        [np.zeros((4, 4))] * 10, gamma=1.0, n=546
    )
    zero_exact = zero_ed == 0.0 and zero_norm == 0.0

    d, gamma, n = 4, 1.0, 546
    kappa = gamma * n / (2 * math.pi * math.log(n))
    identity_ed, _ = effective_dimension_from_fims([np.eye(d)] * 10, gamma, n)
    closed_form = d * math.log1p(kappa) / math.log(kappa)
    identity_ok = abs(identity_ed - closed_form) < 1e-9

    _report(
        "6 ED bounds and closed forms",
        in_bounds and zero_exact and identity_ok,
        f"bounds={in_bounds}, zero-FIM ed={zero_ed}, "
        f"identity-FIM |ed - d*log(1+k)/log(k)| = {abs(identity_ed - closed_form):.2e}",
    )


def _print_ed_table(ed_table):
    print(f"\nnormalized ED (mean +- std over seeds {ED_SEEDS}, "
          f"elapsed {ed_table['_elapsed']:.0f}s):")
    for key in ED_KEYS:
        mean, std = ed_table[key]
        target = ED_TARGETS.get(key)
        target_text = f" target {target:.3f}" if target else " (ordering check only)"
        print(f"  {key:15s} {mean:.3f} +- {std:.3f}{target_text}")


@functools.lru_cache(maxsize=None)
def _rank_of_d(key: str) -> str:
    """rank/d of the readout jacobian over 32 inputs at one theta, from the dense oracle.

    The Fisher information of the key's model has at most this rank.  It is
    printed next to the ED as context and checked nowhere here.
    """
    ansatz = build_ansatz(key)
    circuit = deferred_circuit(ansatz.circuit)
    rng = np.random.default_rng(70)
    theta = rng.uniform(-math.pi, math.pi, ansatz.num_params)
    jac = np.concatenate(
        [param_shift_jacobian(circuit, theta, x).T for x in uniform_input_sampler(rng, 32)]
    )
    return f"{jacobian_rank(jac)}/{ansatz.num_params}"


@functools.lru_cache(maxsize=None)
def _fisher_count(key: str) -> str:
    """Median count of normalized-Fisher eigenvalues above 1/kappa, over d, from the dense oracle.

    Five theta draws of 40 uniform inputs each (at least d for every key),
    normalized as the ED normalizes its Fisher stack, d F_s / mean_s tr F_s,
    at the default kappa.  The ED's log det(I + kappa F) gains little from an
    eigenvalue below 1/kappa, so this counts the directions the ED sees.  It
    is printed next to the ED as context and checked nowhere here.
    """
    ansatz = build_ansatz(key)
    circuit = deferred_circuit(ansatz.circuit)
    d = ansatz.num_params
    rng = np.random.default_rng(71)
    fims = np.array([
        fisher_information(circuit, rng.uniform(-math.pi, math.pi, d),
                           uniform_input_sampler(rng, 40))
        for _ in range(5)
    ])
    fims *= d / np.trace(fims, axis1=1, axis2=2).mean()
    n = ED_SETTINGS["n"]
    kappa = ED_SETTINGS["gamma"] * n / (2 * math.pi * math.log(n))
    counts = (np.linalg.eigvalsh(fims) > 1 / kappa).sum(axis=1)
    return f"{np.median(counts):g}/{d}"


@pytest.mark.parametrize("key", ["conv", "midcircuit-rx", "midcircuit-ry",
                                 "ancilla-cy", "ancilla-cz", "select-sign"])
def test_acceptance_07_ed_reproduction_band(ed_table, key):
    mean, _ = ed_table[key]
    target = ED_TARGETS[key]
    _report(
        f"7 ED band {key}",
        abs(mean - target) <= ED_TOLERANCE,
        f"measured {mean:.3f} (readout-jacobian rank/d {_rank_of_d(key)}),"
        f" target {target:.3f} +- {ED_TOLERANCE}",
    )


def test_acceptance_07_ed_family_ordering(ed_table):
    _print_ed_table(ed_table)
    mid = min(ed_table["midcircuit-rx"][0], ed_table["midcircuit-ry"][0])
    anc_lo = min(ed_table["ancilla-cy"][0], ed_table["ancilla-cz"][0])
    anc_hi = max(ed_table["ancilla-cy"][0], ed_table["ancilla-cz"][0])
    select = ed_table["select-sign"][0]
    _report(
        "7 ED ordering mid-circuit > ancilla > qubit-select",
        mid > anc_hi and anc_lo > select,
        f"mid >= {mid:.3f}, ancilla in [{anc_lo:.3f}, {anc_hi:.3f}], select = {select:.3f};"
        " readout-jacobian rank/d "
        + ", ".join(
            f"{k} {_rank_of_d(k)}"
            for k in ("midcircuit-rx", "midcircuit-ry", "ancilla-cy", "ancilla-cz", "select-sign")
        ),
    )


def test_acceptance_07_ed_modular_ordering(ed_table):
    a, b, c = ed_table["mod-a"][0], ed_table["mod-b"][0], ed_table["mod-c"][0]
    _report(
        "7 ED ordering mod-b < mod-c < mod-a",
        b < c < a,
        f"mod-a {a:.3f}, mod-b {b:.3f}, mod-c {c:.3f} (reconstructed blocks);"
        f" readout-jacobian rank/d mod-a {_rank_of_d('mod-a')}, mod-b {_rank_of_d('mod-b')},"
        f" mod-c {_rank_of_d('mod-c')}; normalized-Fisher eigenvalues above 1/kappa"
        f" (median count/d) mod-a {_fisher_count('mod-a')}, mod-b {_fisher_count('mod-b')},"
        f" mod-c {_fisher_count('mod-c')}",
    )


def test_acceptance_07_ed_runtime(ed_table):
    elapsed = ed_table["_elapsed"]
    _report("7 ED runtime budget", elapsed < 1800.0, f"{elapsed:.0f}s < 1800s")


# ---------------------------------------------------------------------------
# 8. desk-scale end-to-end training
# ---------------------------------------------------------------------------


def test_acceptance_08_desk_scale_training():
    train, val = generate_synthetic(SyntheticSpec(seed=0, train_n=200, val_n=50))
    start = time.monotonic()
    results = {}
    for key in ("classical",) + ANSATZ_KEYS:
        model = make_model(key, train.image_shape, stride=2, seed=0)
        outcome = fit(
            model, train, val, epochs=30, batch_size=8, lr=0.001, seed=0,
            stop_at_train_acc=0.95,
        )
        results[key] = outcome.max_train_acc
        print(f"  {key:15s} max train accuracy {outcome.max_train_acc:.3f}"
              f" in {outcome.epochs_run} epochs")
    elapsed = time.monotonic() - start
    required = [k for k in results if k != "select-sign"]
    failures = {k: results[k] for k in required if results[k] < 0.95}
    _report(
        "8 desk-scale training reaches 0.95 train accuracy",
        not failures and elapsed < 1200.0,
        f"failures={failures or 'none'}; select-sign (exempt) reached "
        f"{results['select-sign']:.3f}; total {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. determinism of emitted metrics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("front", ["classical", "select-tanh"])
def test_acceptance_10_rerun_byte_identical(front, tmp_path):
    args = [
        "train", "--ansatz", front, "--data", "synthetic:seed=1,train_n=16,val_n=8",
        "--epochs", "2", "--seeds", "0,1",
    ]
    assert cli_main(args + ["--out", str(tmp_path / "first")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first" / "metrics.csv").read_bytes()
    second = (tmp_path / "second" / "metrics.csv").read_bytes()
    checkpoints_equal = (
        (tmp_path / "first" / "checkpoint_seed0.json").read_bytes()
        == (tmp_path / "second" / "checkpoint_seed0.json").read_bytes()
    )
    _report(
        f"10 determinism ({front})",
        first == second and checkpoints_equal,
        "metrics.csv and checkpoints byte-identical across reruns",
    )
