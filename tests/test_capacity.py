"""Fisher information and effective dimension tests against closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from qccnn import capacity
from qccnn.capacity import (
    NumericError,
    class_probabilities,
    dataset_input_sampler,
    effective_dimension,
    effective_dimension_from_fims,
    sample_labels,
    score_batch,
    uniform_input_sampler,
)
from qccnn.circuits import build_ansatz
from qccnn.data import SyntheticSpec, generate_synthetic
from qccnn.sim import Circuit, GateOp, encode, readouts, run_deferred_batch

from blas import kernel_note
from oracles import (
    deferred_circuit,
    finite_difference_gradient,
    fisher_information,
    z_expectations_oracle,
)


def _rx_toy():
    """One-qubit circuit with z = cos(theta), for the Bernoulli oracle."""
    return Circuit(1, (GateOp("RX", (0,), param_slot=0),), num_params=1, readout=(0,))


def _toy_fisher(theta):
    """Closed-form Fisher of the toy: softmax over (z, -z) at z = cos(theta).

    d log p_y/dz is 1 - tanh z or -1 - tanh z, so the Fisher in z is
    1 - tanh^2 z = 1/cosh^2 z, and in theta sin^2(theta)/cosh^2(cos theta).
    """
    return math.sin(theta) ** 2 / math.cosh(math.cos(theta)) ** 2


# ---------------------------------------------------------------------------
# class probabilities and scores
# ---------------------------------------------------------------------------


def test_class_probabilities_single_readout():
    soft = class_probabilities(np.array([[0.0]]))
    np.testing.assert_allclose(soft, [[0.5, 0.5]], atol=1e-15)


def test_class_probabilities_four_readouts_sum_to_one():
    rng = np.random.default_rng(50)
    probs = class_probabilities(rng.uniform(-1, 1, (6, 4)))
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)


def test_softmax_class_probability_lower_bound():
    # Readouts lie in [-1, 1], so no class probability falls below
    # 1/(1+e^2) ~ 0.119 with one readout or 1/(1+3e^2) ~ 0.043 with four:
    # score_batch never has an underflowing row to skip.
    one, four = 1 / (1 + math.e**2), 1 / (1 + 3 * math.e**2)
    np.testing.assert_allclose(class_probabilities(np.array([[1.0]])).min(), one, rtol=1e-15)
    worst = class_probabilities(np.array([[-1.0, 1.0, 1.0, 1.0]]))
    np.testing.assert_allclose(worst[0, 0], four, rtol=1e-15)
    rng = np.random.default_rng(58)
    assert class_probabilities(rng.uniform(-1, 1, (1000, 1))).min() >= one
    assert class_probabilities(rng.uniform(-1, 1, (1000, 4))).min() >= four


def test_bernoulli_toy_fisher_is_one():
    # The exact Fisher sum_y p(y) s_y^2, divided by its closed form, is one
    # wherever sin(theta) != 0.
    circuit = _rx_toy()
    for theta in (0.8, 2.1, -1.3):
        scores, skipped = score_batch(circuit, [theta], np.zeros((2, 0)), [0, 1])
        assert skipped == 0
        s0, s1 = scores
        p0, p1 = class_probabilities(np.array([[math.cos(theta)]]))[0]
        fisher = p0 * s0[0] ** 2 + p1 * s1[0] ** 2
        assert abs(fisher / _toy_fisher(theta) - 1.0) < 1e-10


def test_fisher_oracle_matches_the_closed_form_and_the_scores():
    # The dense oracle's Fisher equals the toy's closed form and, on a
    # four-readout and a deferred circuit, the probability-weighted outer
    # products of the production scores of every label.
    for theta in (0.8, 2.1, -1.3):
        fisher = fisher_information(_rx_toy(), [theta], np.zeros((3, 0)))
        assert abs(fisher[0, 0] / _toy_fisher(theta) - 1.0) < 1e-10
    rng = np.random.default_rng(73)
    for key in ("conv", "midcircuit-rx"):
        circuit = build_ansatz(key).circuit
        deferred = deferred_circuit(circuit)
        theta = rng.uniform(-math.pi, math.pi, circuit.num_params)
        xs = uniform_input_sampler(rng, 5)
        probs = class_probabilities(np.array([z_expectations_oracle(deferred, theta, x)
                                              for x in xs]))
        want = np.zeros((circuit.num_params, circuit.num_params))
        for y in range(probs.shape[1]):
            scores, _ = score_batch(circuit, theta, xs, np.full(len(xs), y))
            want += (scores * probs[:, y, None]).T @ scores
        np.testing.assert_allclose(fisher_information(deferred, theta, xs), want / len(xs),
                                   rtol=0, atol=1e-12)


def test_empirical_fim_toy_converges_to_analytic():
    circuit = _rx_toy()
    rng = np.random.default_rng(52)
    theta = 1.1
    p1 = class_probabilities(np.array([[math.cos(theta)]]))[0, 1]
    ys = (rng.random(500) < p1).astype(int)
    xs = np.zeros((500, 0))
    scores, _ = score_batch(circuit, [theta], xs, ys)
    fim = scores.T @ scores / len(scores)
    assert fim.shape == (1, 1)
    assert abs(fim[0, 0] / _toy_fisher(theta) - 1.0) < 0.05


def test_score_expectation_is_zero():
    # sum_y p(y) dlogp(y)/dtheta = 0
    circuit = _rx_toy()
    theta = 0.9
    z = math.cos(theta)
    probs = class_probabilities(np.array([[z]]))[0]
    scores, _ = score_batch(circuit, [theta], np.zeros((2, 0)), [0, 1])
    total = probs[0] * scores[0, 0] + probs[1] * scores[1, 0]
    assert abs(total) < 1e-8


@pytest.mark.parametrize("key", ["conv", "midcircuit-rx", "ancilla-cz", "mod-c"])
def test_forward_matches_dense_oracle_per_draw(key):
    # Three draws of 4 rows each, every draw at its own θ: each row's readouts
    # off the batched forward equal the dense-matrix oracle at its draw's θ.
    circuit = build_ansatz(key).circuit
    rng = np.random.default_rng(59)
    thetas = rng.uniform(-math.pi, math.pi, (3, circuit.num_params))
    xs = rng.uniform(-1, 1, (12, 4))
    pair, probs = capacity._forward(circuit, thetas, xs)
    got = readouts(circuit, pair[0])
    deferred = deferred_circuit(circuit)
    want = [z_expectations_oracle(deferred, thetas[r // 4], x) for r, x in enumerate(xs)]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(probs, class_probabilities(np.array(want)), rtol=0, atol=1e-12)


def _log_prob_fd(circuit, theta, x, y):
    """Central-difference score of one sample, sharing no code with score_batch."""

    def logp(params):
        z = run_deferred_batch(circuit, params, x[None])[0]
        return math.log(class_probabilities(z[None, :])[0, y])

    return finite_difference_gradient(logp, theta, h=1e-5)


def test_score_batch_single_row_matches_finite_difference():
    ansatz = build_ansatz("select-tanh")
    rng = np.random.default_rng(53)
    x = rng.uniform(-1, 1, 4)
    theta = rng.uniform(-math.pi, math.pi, 4)
    for y in (0, 1):
        scores, skipped = score_batch(ansatz.circuit, theta, x[None, :], [y])
        assert skipped == 0 and scores.shape == (1, 4)
        np.testing.assert_allclose(scores[0], _log_prob_fd(ansatz.circuit, theta, x, y), atol=1e-5)


def test_single_sample_fim_is_rank_one_outer_product():
    ansatz = build_ansatz("select-tanh")
    rng = np.random.default_rng(54)
    x = rng.uniform(-1, 1, (1, 4))
    theta = rng.uniform(-math.pi, math.pi, 4)
    scores, _ = score_batch(ansatz.circuit, theta, x, np.array([1]))
    fim = scores.T @ scores / len(scores)
    score = _log_prob_fd(ansatz.circuit, theta, x[0], 1)
    np.testing.assert_allclose(fim, np.outer(score, score), atol=1e-8)
    assert np.linalg.matrix_rank(fim, tol=1e-10) == 1
    assert np.trace(fim) >= 0


# ---------------------------------------------------------------------------
# normalization and ED closed forms
# ---------------------------------------------------------------------------


def test_fim_stack_normalized_in_place_to_mean_trace_d():
    # Draws a*I and b*I have mean trace d(a + b)/2, so they normalize to
    # 2a/(a + b)*I and 2b/(a + b)*I: each det(I + kappa F) is a d-th power.
    d, a, b, n = 3, 0.7, 2.9, 546
    kappa = n / (2 * math.pi * math.log(n))
    stack = np.array([a * np.eye(d), b * np.eye(d)])
    ed, normalized = effective_dimension_from_fims(stack, 1.0, n)
    dets = [(1 + kappa * 2 * c / (a + b)) ** (d / 2) for c in (a, b)]
    expected = 2 * math.log(np.mean(dets)) / math.log(kappa)
    assert abs(ed - expected) < 1e-12
    assert abs(normalized - expected / d) < 1e-12
    assert abs(np.trace(stack, axis1=1, axis2=2).mean() - d) < 1e-12
    np.testing.assert_allclose(stack, [2 * a / (a + b) * np.eye(d), 2 * b / (a + b) * np.eye(d)],
                               rtol=0, atol=1e-15)


def test_single_fim_normalizes_to_trace_d():
    rng = np.random.default_rng(55)
    spectrum = rng.uniform(0.1, 2.0, 3)
    stack = np.diag(spectrum)[None]
    ed, _ = effective_dimension_from_fims(stack, 1.0, 546)
    assert abs(np.trace(stack[0]) - 3.0) < 1e-12
    kappa = 546 / (2 * math.pi * math.log(546))
    expected = np.log1p(kappa * 3 * spectrum / spectrum.sum()).sum() / math.log(kappa)
    assert abs(ed - expected) < 1e-12


def test_ed_is_scale_invariant():
    rng = np.random.default_rng(55)
    mats = [np.diag(rng.uniform(0.1, 2.0, 3)) for _ in range(5)]
    ed, normalized = effective_dimension_from_fims(mats, 1.0, 546)
    scaled, scaled_normalized = effective_dimension_from_fims([7.3 * m for m in mats], 1.0, 546)
    assert abs(ed - scaled) < 1e-12
    assert abs(normalized - scaled_normalized) < 1e-12


def test_ed_zero_fim_is_exactly_zero():
    fims = [np.zeros((4, 4)) for _ in range(10)]
    ed, normalized = effective_dimension_from_fims(fims, gamma=1.0, n=546)
    assert ed == 0.0
    assert normalized == 0.0


def test_ed_identity_fim_closed_form():
    d, gamma, n = 4, 1.0, 546
    kappa = gamma * n / (2 * math.pi * math.log(n))
    fims = [np.eye(d) for _ in range(7)]
    ed, normalized = effective_dimension_from_fims(fims, gamma, n)
    expected = d * math.log1p(kappa) / math.log(kappa)
    assert abs(ed - expected) < 1e-9
    assert abs(normalized - expected / d) < 1e-9


def test_ed_against_n_grid():
    # The determinant functional log(mean sqrt det(I + kappa Fhat)) grows with
    # n; the ratio against log(kappa) need not, so only boundedness holds for
    # the full quantity.
    rng = np.random.default_rng(56)
    scores = rng.normal(size=(40, 5), scale=0.3)
    fims = [np.outer(s, s) for s in scores]
    values = []
    for n in (100, 546, 5000):
        kappa = n / (2 * math.pi * math.log(n))
        ed, normalized = effective_dimension_from_fims(fims, 1.0, n)
        values.append(0.5 * ed * math.log(kappa))  # numerator of the definition
        assert 0.0 <= ed <= 5 * math.log1p(kappa) / math.log(kappa) + 1e-12
        assert 0.0 <= normalized <= 1.25
    assert values[0] <= values[1] <= values[2]


def test_ed_rejects_bad_settings():
    fims = [np.eye(2)]
    with pytest.raises(ValueError):
        effective_dimension_from_fims(fims, gamma=0.0, n=546)
    with pytest.raises(ValueError):
        effective_dimension_from_fims(fims, gamma=1.0, n=1)
    with pytest.raises(NumericError):
        effective_dimension_from_fims(fims, gamma=0.01, n=100)


def test_ed_rejects_non_psd():
    with pytest.raises(NumericError, match="PSD"):
        effective_dimension_from_fims([np.diag([1.0, -0.5])], 1.0, 546)
    # The message names the smallest eigenvalue over all draws, not the
    # first draw's: normalized, -0.002 * 2 / 1.9985.
    with pytest.raises(NumericError, match=r"FIM eigenvalue -2\.002e-03 below"):
        effective_dimension_from_fims([np.diag([1.0, -0.001]), np.diag([3.0, -0.002])], 1.0, 546)


def _ed_one_matrix_at_a_time(fims, gamma, n):
    """The ED from one eigvalsh call per normalized FIM: the stacked call's reference.

    It normalizes a list of matrices by itself, d * F / mean trace, each in
    the order of operations the stack keeps.
    """
    kappa = gamma * n / (2.0 * math.pi * math.log(n))
    d = len(fims[0])
    mean_trace = float(np.mean([np.trace(m) for m in fims]))
    normalized = [d * m / mean_trace for m in fims]
    half_logdets = np.array([
        0.5 * np.log1p(kappa * np.clip(np.linalg.eigvalsh((m + m.T) / 2.0), 0.0, None)).sum()
        for m in normalized
    ])
    peak = float(half_logdets.max())
    ed = 2.0 * (peak + math.log(np.mean(np.exp(half_logdets - peak)))) / math.log(kappa)
    return float(ed), float(ed / len(fims[0]))


@pytest.mark.parametrize("d", [1, 4, 12, 36])
def test_ed_stacked_spectra_equal_one_matrix_at_a_time(d):
    rng = np.random.default_rng(57)
    scores = rng.normal(size=(30, 50, d))
    fims = [b.T @ b / len(b) for b in scores]
    assert effective_dimension_from_fims(fims, 1.0, 546) == _ed_one_matrix_at_a_time(
        fims, 1.0, 546)


def test_psd_roundoff_clipped():
    m = np.eye(2)
    m[0, 0] = -2e-11  # within repair tolerance after trace normalization
    ed, _ = effective_dimension_from_fims([m], 1.0, 546)
    assert ed > 0


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_effective_dimension_deterministic_and_bounded():
    # `qccnn ed` prints d and log_param_volume; tests/test_golden.py pins that record.
    ed, normalized = effective_dimension("select-tanh", theta_samples=10, data_samples=20, seed=0)
    assert (ed, normalized) == effective_dimension(
        "select-tanh", theta_samples=10, data_samples=20, seed=0)
    assert 0.0 <= normalized <= 1.0
    assert normalized == ed / 4  # d = 4


_PINNED_ED = {
    "conv": "3.63984273748377",
    "mod-c": "19.54794896253888",
    "ancilla-cz": "2.3241109162080353",
}


@pytest.mark.parametrize("key, ed", list(_PINNED_ED.items()), ids=list(_PINNED_ED))
def test_effective_dimension_values_are_pinned(key, ed):
    # Values from simulating one θ draw per batch (_BATCH_ROWS = 10); one
    # batched simulation of all 5 draws must reproduce them to the last bit.
    got, _ = effective_dimension(key, theta_samples=5, data_samples=50, seed=2)
    assert repr(got) == ed, kernel_note()


def _count_encodes(monkeypatch) -> list:
    """Record the row count of every encode call the ED makes, one simulation each."""
    calls = []

    def counting_encode(circuit, inputs):
        calls.append(len(inputs))
        return encode(circuit, inputs)

    monkeypatch.setattr(capacity, "encode", counting_encode)
    return calls


@pytest.mark.parametrize("batch_rows, batches", [(10, [50] * 5), (50, [50] * 5),
                                                 (100, [100, 100, 50])])
@pytest.mark.parametrize("key", sorted(_PINNED_ED))
def test_effective_dimension_batch_boundaries_keep_pinned_values(
    monkeypatch, key, batch_rows, batches
):
    # At 50 inputs per draw: 10 and 50 rows give one draw per batch (a bound
    # below one draw still takes a whole draw); 100 gives batches of 2, 2, 1.
    monkeypatch.setattr(capacity, "_BATCH_ROWS", batch_rows)
    calls = _count_encodes(monkeypatch)
    ed, _ = effective_dimension(key, theta_samples=5, data_samples=50, seed=2)
    assert calls == batches
    assert repr(ed) == _PINNED_ED[key], kernel_note()


@pytest.mark.parametrize("theta_samples, data_samples", [(45, 100), (3, 3000), (1, 7)])
def test_effective_dimension_simulates_once_per_batch(monkeypatch, theta_samples, data_samples):
    # Each batch encodes once: ceil(draws / draws per batch) simulations, with
    # at least one draw per batch even when a draw exceeds the row bound.
    calls = _count_encodes(monkeypatch)
    effective_dimension("conv", theta_samples=theta_samples, data_samples=data_samples, seed=0)
    per_batch = max(1, capacity._BATCH_ROWS // data_samples)
    assert len(calls) == math.ceil(theta_samples / per_batch)
    assert sum(calls) == theta_samples * data_samples
    assert max(calls) <= max(capacity._BATCH_ROWS, data_samples)


def test_sample_labels_inverse_cdf_boundaries():
    # Class j is drawn for u in [cum_{j-1}, cum_j): a u exactly on a
    # cumulative boundary belongs to the next class.  These cumulative sums
    # are exact in binary.
    probs = np.array([[0.25, 0.5, 0.25]] * 6)
    u = np.array([0.0, 0.25, np.nextafter(0.75, 0.0), 0.75, np.nextafter(1.0, 0.0), 0.5])
    np.testing.assert_array_equal(sample_labels(probs, u), [0, 1, 1, 2, 2, 1])


def test_sample_labels_stay_in_range_when_the_cumulative_sum_rounds_below_one():
    # A softmax row of four classes whose cumulative sum ends at 1 - 2**-52.
    probs = np.array([[0.16831774394215032, 0.10257800337931564,
                       0.3204219868268881, 0.40868226585164585]])
    assert np.cumsum(probs)[-1] < 1.0
    u = np.array([np.nextafter(1.0, 0.0)])
    np.testing.assert_array_equal(sample_labels(probs, u), [3])


def test_effective_dimension_seed_changes_estimate():
    a, _ = effective_dimension("select-tanh", theta_samples=10, data_samples=20, seed=0)
    b, _ = effective_dimension("select-tanh", theta_samples=10, data_samples=20, seed=1)
    assert a != b


def test_dataset_sampler_draws_patches():
    train, _ = generate_synthetic(SyntheticSpec(train_n=6, val_n=2))
    sampler = dataset_input_sampler(train)
    rng = np.random.default_rng(57)
    xs = sampler(rng, 11)
    assert xs.shape == (11, 4)
    assert np.all(np.abs(xs) <= 1.0)


@pytest.mark.parametrize("key, theta_samples, data_samples",
                         [("mod-c", 20000, 1), ("ancilla-cz", 1, 100000)])
def test_effective_dimension_holds_no_more_than_it_counts(key, theta_samples, data_samples):
    # The FIM stack dominates 20,000 mod-c draws of one input; one batch of
    # 100,000 rows dominates the other.  `qccnn ed` refuses
    # settings by this count, so it must bound what the ED allocates.
    effective_dimension(key, theta_samples=1, data_samples=1)  # build and cache the circuit
    tracemalloc.start()
    try:
        effective_dimension(key, theta_samples=theta_samples, data_samples=data_samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack, batch = capacity.held_bytes(build_ansatz(key).circuit, theta_samples, data_samples)
    assert peak <= stack + batch
    assert peak >= max(stack, batch) / 2  # the count is of the right size, not just large


@pytest.mark.parametrize("theta_samples, data_samples", [(100, 100), (20000, 1), (1, 100000)])
def test_ancilla_ed_holds_what_a_four_qubit_front_holds(theta_samples, data_samples):
    # The ancilla's fifth qubit is folded into its readout signs, so its ED
    # holds 2**4-amplitude states and matrices, as conv's (also d = 4) does.
    assert capacity.held_bytes(build_ansatz("ancilla-cz").circuit, theta_samples, data_samples) \
        == capacity.held_bytes(build_ansatz("conv").circuit, theta_samples, data_samples)
