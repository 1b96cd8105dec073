import numpy as np
import pytest

from tnqc import statevector as sv
from tnqc.encoding import binary_code, encode_dataset, softmax
from tnqc.gates import ry
from tnqc.gradients import AmplitudeSoftmaxHead, QubitBinaryHead

from conftest import identity_template, random_state


def encode(x) -> np.ndarray:
    return encode_dataset(np.asarray(x, dtype=float)[None, :])[0]


def kron_encoding(x) -> np.ndarray:
    """Oracle: the product of RY(pi x_j)|0>, feature 0 on the most significant bit."""
    expected = np.array([1.0 + 0j])
    for xj in x:
        expected = np.kron(expected, ry(np.pi * xj) @ np.array([1, 0], dtype=complex))
    return expected


def binary_head(n_qubits, readout, n_classes=None):
    n_classes = n_classes or 1 << len(readout)
    return QubitBinaryHead(identity_template(n_qubits, readout), n_classes)


def amplitude_head(n_qubits, readout, n_classes):
    return AmplitudeSoftmaxHead(identity_template(n_qubits, readout), n_classes)


def binary_outputs(state, readout) -> np.ndarray:
    return binary_head(sv.num_qubits(state), readout).outputs(state[None, :])[0]


def amplitude_probs(state, readout, n_classes) -> np.ndarray:
    head = amplitude_head(sv.num_qubits(state), readout, n_classes)
    return head.class_probs(head.outputs(state[None, :]))[0]


def marginal(state, readout) -> np.ndarray:
    """Readout marginal, first-listed wire most significant, via the amplitude head."""
    head = amplitude_head(sv.num_qubits(state), readout, 1)
    return head.outputs(state[None, :])[0]


def predict_binary(outputs, n_classes) -> int:
    outputs = np.asarray(outputs, dtype=float)
    head = binary_head(outputs.size, tuple(range(outputs.size)), n_classes)
    return int(head.predict(outputs[None, :])[0])


def mse(outputs, label) -> float:
    outputs = np.asarray(outputs, dtype=float)
    return float(binary_head(outputs.size, tuple(range(outputs.size))).losses(outputs[None, :], [label])[0])


def cross_entropy(probs, label) -> float:
    """Amplitude-head loss on outputs whose softmax is ``probs``."""
    probs = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore"):
        outputs = np.log(probs)
    head = amplitude_head(2, (0, 1), probs.size)
    return float(head.losses(outputs[None, :], np.array([label]))[0])


class TestEncode:
    def test_all_zero_features_give_vacuum(self):
        assert np.allclose(encode(np.zeros(8)), sv.zero_state(8))

    def test_all_one_features_give_all_ones_state(self):
        state = encode(np.ones(8))
        expected = np.zeros(256)
        expected[255] = 1.0
        assert np.allclose(state, expected, atol=1e-15)

    def test_half_features_give_uniform_magnitudes(self):
        state = encode(np.full(8, 0.5))
        assert np.allclose(np.abs(state), 2.0**-4, atol=1e-12)

    def test_feature_order_maps_to_qubit_order(self):
        # feature 0 drives qubit 0, the most significant bit
        state = encode([1, 0, 0])
        assert np.argmax(np.abs(state)) == 0b100

    def test_matches_explicit_kron(self, rng):
        x = rng.uniform(0, 1, 5)
        assert np.allclose(encode(x), kron_encoding(x), atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode([0.2, 1.3, 0.0])
        with pytest.raises(ValueError):
            encode([-0.1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            encode([0.2, np.nan, 0.5])

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            encode_dataset([0.2, 0.5])

    def test_dataset_encoding_matches_per_example(self, rng):
        features = rng.uniform(0, 1, (6, 8))
        batch = encode_dataset(features)
        for row, x in zip(batch, features):
            assert np.allclose(row, kron_encoding(x), atol=1e-14)

    def test_product_state_marginals_factorize(self, rng):
        # every 2-qubit reduced state of a product state has rank 1
        x = rng.uniform(0, 1, 6)
        state = encode(x)
        for qa, qb in [(0, 1), (2, 5), (1, 4)]:
            joint = marginal(state, [qa, qb]).reshape(2, 2)
            pa = marginal(state, [qa])
            pb = marginal(state, [qb])
            assert np.allclose(joint, np.outer(pa, pb), atol=1e-12)


class TestBinaryDecoding:
    def test_both_readouts_in_zero_mean_class_three(self):
        # |0> on a readout wire reads as bit 1
        outputs = binary_outputs(sv.zero_state(4), (1, 3))
        assert np.allclose(outputs, [1.0, 1.0])
        assert predict_binary(outputs, 4) == 3

    def test_both_readouts_in_one_mean_class_zero(self):
        state = encode([0, 1, 0, 1])  # qubits 1 and 3 in |1>
        outputs = binary_outputs(state, (1, 3))
        assert np.allclose(outputs, [0.0, 0.0], atol=1e-15)
        assert predict_binary(outputs, 4) == 0

    def test_equal_superposition_is_maximally_ambiguous(self):
        state = encode([0.5, 0.5])
        assert np.allclose(binary_outputs(state, (0, 1)), [0.5, 0.5])

    def test_first_readout_is_most_significant(self):
        state = encode([1, 0])  # qubit 0 in |1> -> output 0
        assert predict_binary(binary_outputs(state, (0, 1)), 4) == 1
        assert predict_binary(binary_outputs(state, (1, 0)), 4) == 2


class TestAmplitudeDecoding:
    def test_peaked_marginal(self):
        probs = amplitude_probs(sv.zero_state(2), (0, 1), 4)  # marginal [1, 0, 0, 0]
        e = np.e
        assert np.allclose(probs, [e / (e + 3), 1 / (e + 3), 1 / (e + 3), 1 / (e + 3)])

    def test_uniform_marginal(self):
        state = np.full(4, 0.5, dtype=complex)
        assert np.allclose(amplitude_probs(state, (0, 1), 4), [0.25] * 4)

    def test_truncation_keeps_first_classes(self, rng):
        state = random_state(3, rng)
        probs = amplitude_probs(state, (0, 2), 3)
        # enumeration: sum out qubit 1, keep (qubit 0, qubit 2) in that order
        joint = (np.abs(state) ** 2).reshape(2, 2, 2).sum(axis=1).reshape(-1)
        assert np.allclose(probs, softmax(joint[:3]))

    def test_output_is_distribution(self, rng):
        for _ in range(100):
            probs = amplitude_probs(random_state(4, rng), (1, 3), 4)
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_too_many_classes_rejected(self):
        with pytest.raises(ValueError):
            amplitude_head(3, (0,), 3)

    def test_softmax_shift_invariance(self, rng):
        z = rng.normal(size=4)
        assert np.allclose(softmax(z), softmax(z + 7.3), atol=1e-12)


class TestClassFromOutputs:
    def test_rounding_case(self):
        assert predict_binary([0.9, 0.2], 4) == 2

    def test_tie_breaks_to_lower_class(self):
        # distances^2 to codes (0,0), (0,1), (1,0): 0.72, 0.52, 0.52
        assert predict_binary([0.6, 0.6], 3) == 1

    def test_origin_is_class_zero(self):
        assert predict_binary([0.0, 0.0], 4) == 0
        assert predict_binary([0.0, 0.0], 3) == 0

    def test_idempotent_under_clamping_near_codes(self, rng):
        for _ in range(50):
            label = int(rng.integers(4))
            code = binary_code(label, 2)
            noisy = np.clip(code + rng.uniform(-0.3, 0.3, 2), 0, 1)
            assert predict_binary(noisy, 4) == label
            assert predict_binary(np.round(noisy), 4) == label


class TestLosses:
    def test_mse_zero_at_exact_fit(self):
        assert mse([1.0, 0.0], 2) == 0.0

    def test_mse_examples(self):
        assert mse([0.5, 0.5], 2) == pytest.approx(0.25)
        assert mse([1.0, 1.0], 0) == pytest.approx(1.0)

    def test_mse_length_mismatch(self):
        # class codes must fit the readout register: class 2 needs two wires
        with pytest.raises(ValueError):
            binary_head(1, (0,), 3)

    def test_ce_zero_at_one_hot(self):
        assert cross_entropy([0.0, 1.0, 0.0], 1) == pytest.approx(0.0, abs=1e-9)

    def test_ce_uniform(self):
        assert cross_entropy([0.25] * 4, 2) == pytest.approx(np.log(4))

    def test_ce_example(self):
        assert cross_entropy([0.5, 0.3, 0.2], 1) == pytest.approx(-np.log(0.3))

    def test_ce_floors_tiny_probabilities(self):
        assert cross_entropy([1.0, 0.0], 1) == pytest.approx(-np.log(1e-12))


def test_binary_code_msb_first():
    assert np.array_equal(binary_code(2, 2), [1.0, 0.0])
    assert np.array_equal(binary_code(1, 3), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        binary_code(4, 2)
