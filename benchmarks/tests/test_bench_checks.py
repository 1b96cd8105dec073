"""The benchmark's output checks must reject corrupted outputs.

Each test builds a valid output from the reference computations, confirms
the check accepts it, then corrupts it and requires the check to reject it.
A few tests also pin the reference to the program, so a disagreement is
caught here rather than as a failed benchmark run.

    python3 -m pytest benchmarks/tests -q
"""
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from tnqc.circuits import build_checkerboard, from_descriptor  # noqa: E402
from tnqc.gradients import batch_loss_grad, make_head  # noqa: E402
from tnqc.xxz import build_hamiltonian  # noqa: E402

SITES = 4


def _rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


@pytest.fixture
def ground_states():
    """Records of a 4-site chain at random checkerboard angles, as gen-xxz writes them."""
    rng = np.random.default_rng(7)
    circuit = ref.DenseCircuit(build_checkerboard(SITES, 2))
    records, states = [], []
    for delta in (-1.5, -0.2, 0.7, 1.8):
        params = rng.uniform(0, 2 * np.pi, circuit.n_params)
        psi = circuit.state(params, ref.vacuum(SITES))
        h = ref.xxz_hamiltonian(delta, SITES)
        records.append({
            "delta": delta,
            "params": params.tolist(),
            "vqe_energy": float(np.vdot(psi, h @ psi).real),
            "exact_energy": float(np.linalg.eigvalsh(h)[0]),
            "label": ref.phase_label(delta),
        })
        states.append(psi)
    checks.check_ground_states(records, states, len(records), SITES)
    return records, np.array(states)


def test_perturbed_vqe_energy_is_rejected(ground_states):
    records, states = ground_states
    records[1]["vqe_energy"] += 1e-6
    _rejects(checks.check_ground_states, records, states, len(records), SITES)


def test_vqe_energy_below_ground_energy_is_rejected(ground_states):
    records, states = ground_states
    records[2]["vqe_energy"] = records[2]["exact_energy"] - 0.5
    _rejects(checks.check_ground_states, records, states, len(records), SITES)


def test_perturbed_exact_energy_is_rejected(ground_states):
    records, states = ground_states
    records[0]["exact_energy"] -= 1e-6
    _rejects(checks.check_ground_states, records, states, len(records), SITES)


def test_swapped_phase_label_is_rejected(ground_states):
    records, states = ground_states
    records[0]["label"], records[3]["label"] = records[3]["label"], records[0]["label"]
    _rejects(checks.check_ground_states, records, states, len(records), SITES)


def test_missing_record_is_rejected(ground_states):
    records, states = ground_states
    _rejects(checks.check_ground_states, records[:-1], states[:-1], len(records), SITES)


def test_median_error_above_target_is_rejected(ground_states):
    records, _ = ground_states
    errors = [abs(r["vqe_energy"] - r["exact_energy"]) / abs(r["exact_energy"]) for r in records]
    checks.check_median_error(records, float(np.median(errors)) + 1e-9)
    _rejects(checks.check_median_error, records, float(np.median(errors)))


def test_denormalised_state_is_rejected():
    states = ref.encode(np.random.default_rng(3).uniform(0, 1, (6, 8)))
    checks.check_states(states.copy(), states)
    bad = states.copy()
    bad[2] *= 1 + 1e-6
    _rejects(checks.check_states, bad, states)


def test_wrong_state_is_rejected():
    states = ref.encode(np.random.default_rng(3).uniform(0, 1, (6, 8)))
    _rejects(checks.check_states, states[::-1].copy(), states)


def _predictions():
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1])
    preds = np.array([0, 1, 2, 3, 0, 1, 2, 0, 1, 1])  # 8 of 10 right
    return labels, preds, np.full(10, 0.1)


def test_wrong_accuracy_is_rejected():
    labels, preds, gaps = _predictions()
    checks.check_accuracy(0.8, labels, preds, gaps, 0.5)
    _rejects(checks.check_accuracy, 0.9, labels, preds, gaps, 0.5)
    _rejects(checks.check_accuracy, 0.8001, labels, preds, gaps, 0.5)


def test_accuracy_near_chance_is_rejected():
    labels, preds, gaps = _predictions()
    _rejects(checks.check_accuracy, 0.8, labels, preds, gaps, 0.85)


def test_confusion_matrix_with_swapped_label_is_rejected():
    labels, preds, gaps = _predictions()
    good = np.zeros((4, 4), dtype=int)
    np.add.at(good, (labels, preds), 1)
    checks.check_confusion(good, labels, preds, gaps, 4)
    moved = good.copy()
    moved[1, 1] -= 1
    moved[2, 1] += 1  # one class-1 example counted as class 2
    _rejects(checks.check_confusion, moved, labels, preds, gaps, 4)
    misread = good.copy()
    misread[3, 3] += 1
    misread[3, 0] -= 1  # row sums hold, the predictions do not
    _rejects(checks.check_confusion, misread, labels, preds, gaps, 4)


def test_swapped_feature_labels_are_rejected():
    features = np.random.default_rng(5).uniform(0, 1, (5, 8))
    labels = [0, 1, 2, 3, 1]
    checks.check_features(features, labels, labels)
    _rejects(checks.check_features, features, [1, 0, 2, 3, 1], labels)


def test_nan_or_out_of_range_features_are_rejected():
    features = np.random.default_rng(5).uniform(0, 1, (5, 8))
    labels = [0, 1, 2, 3, 1]
    nan = features.copy()
    nan[2, 4] = np.nan
    _rejects(checks.check_features, nan, labels, labels)
    _rejects(checks.check_features, features * 1.5, labels, labels)


def test_pca_components_must_be_orthonormal_and_dominant():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 12)) * np.linspace(3, 0.5, 12)
    cov = np.cov(x, rowvar=False)
    values, vectors = np.linalg.eigh(cov)
    top = vectors[:, -4:].T
    checks.check_pca(top, float(values[-4:].sum()), cov)
    _rejects(checks.check_pca, top * 1.01, float(values[-4:].sum()), cov)
    _rejects(checks.check_pca, vectors[:, :4].T, float(values[-4:].sum()), cov)


@pytest.mark.parametrize("descriptor, decoder", [("mera:su4", "binary"), ("ttn:so4", "amplitude")])
def test_program_gradient_matches_reference_and_corruption_is_rejected(descriptor, decoder):
    rng = np.random.default_rng(13)
    template = from_descriptor(descriptor)
    circuit = ref.DenseCircuit(template)
    params = rng.uniform(0, 2 * np.pi, template.n_params)
    psi = ref.encode(rng.uniform(0, 1, (1, 8)))
    loss = {"binary": "mse_binary", "amplitude": "ce_amplitude"}[decoder]
    _, grads, _ = batch_loss_grad(make_head(loss, template, 3), params, psi, [2])
    fd = ref.finite_difference_grad(circuit, params, psi[0], 2, decoder, 3)
    checks.check_gradient(grads[0], fd)
    bad = grads[0].copy()
    bad[5] += 1e-5
    _rejects(checks.check_gradient, bad, fd)


def test_reference_hamiltonian_matches_program():
    for delta in (-1.3, 0.0, 0.4, 2.0):
        assert np.allclose(ref.xxz_hamiltonian(delta, 6), build_hamiltonian(delta, 6), atol=1e-12)


def test_eval_output_parsing():
    text = "accuracy: 0.7500 over 4 examples\nconfusion matrix (rows = true class, columns = predicted):\n     1      0\n     1      2\n"
    accuracy, count, matrix = checks.parse_eval(text)
    assert (accuracy, count, matrix.tolist()) == (0.75, 4, [[1, 0], [1, 2]])
    _rejects(checks.parse_eval, "accuracy: nan over 4 examples\n")
