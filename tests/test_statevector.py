import numpy as np
import pytest

from tnqc import statevector as sv
from tnqc.gates import ry
from tnqc.gradients import AmplitudeSoftmaxHead, QubitBinaryHead, diag_readout_projector

from conftest import identity_template, random_state, random_unitary

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
CNOT_01 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def basis(n, index):
    state = np.zeros(1 << n, dtype=complex)
    state[index] = 1.0
    return state


class TestZeroState:
    def test_single_qubit(self):
        assert np.array_equal(sv.zero_state(1), [1, 0])

    def test_three_qubits(self):
        state = sv.zero_state(3)
        assert state.shape == (8,)
        assert state[0] == 1 and not state[1:].any()

    def test_eight_qubits_normalized(self):
        state = sv.zero_state(8)
        assert state.shape == (256,)
        assert sv.norm_error(state) == 0

    @pytest.mark.parametrize("n", [0, -1, 25])
    def test_rejects_out_of_range(self, n):
        with pytest.raises(ValueError):
            sv.zero_state(n)


class TestApply1q:
    def test_ry_pi_flips_zero(self):
        out = sv.apply_1q(sv.zero_state(1), ry(np.pi), 0)
        assert np.allclose(out, [0, 1], atol=1e-15)

    def test_identity_leaves_state(self, rng):
        state = random_state(4, rng)
        assert np.allclose(sv.apply_1q(state, np.eye(2), 2), state)

    def test_half_ry_makes_equal_superposition(self):
        out = sv.apply_1q(sv.zero_state(1), ry(np.pi / 2), 0)
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_out_of_range_qubit(self):
        with pytest.raises(IndexError):
            sv.apply_1q(sv.zero_state(2), np.eye(2), 2)

    def test_linearity(self, rng):
        psi, phi = random_state(3, rng), random_state(3, rng)
        u = random_unitary(2, rng)
        a, b = 0.3 - 0.4j, 1.1 + 0.2j
        lhs = sv.apply_1q(a * psi + b * phi, u, 1)
        rhs = a * sv.apply_1q(psi, u, 1) + b * sv.apply_1q(phi, u, 1)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_disjoint_wires_commute(self, rng):
        state = random_state(5, rng)
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        ab = sv.apply_1q(sv.apply_1q(state, u, 0), v, 3)
        ba = sv.apply_1q(sv.apply_1q(state, v, 3), u, 0)
        assert np.allclose(ab, ba, atol=1e-12)


class TestApply2q:
    def test_cnot_truth_table(self):
        # control on qubit 0 (high bit): |10> -> |11>
        out = sv.apply_2q(basis(2, 0b10), CNOT_01, 0, 1)
        assert np.allclose(out, basis(2, 0b11))

    def test_swap(self):
        out = sv.apply_2q(basis(2, 0b01), SWAP, 0, 1)
        assert np.allclose(out, basis(2, 0b10))

    def test_reversed_bit_order(self):
        # with q_hi = 1, the matrix high bit addresses qubit 1
        out = sv.apply_2q(basis(2, 0b01), CNOT_01, 1, 0)
        assert np.allclose(out, basis(2, 0b11))

    def test_norm_preserved_on_random_unitaries(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            state = random_state(8, rng)
            u = random_unitary(4, rng)
            q_hi, q_lo = rng.choice(8, size=2, replace=False)
            out = sv.apply_2q(state, u, int(q_hi), int(q_lo))
            assert sv.norm_error(out) < 1e-10

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            sv.apply_2q(sv.zero_state(3), SWAP, 1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            sv.apply_2q(sv.zero_state(3), SWAP, 0, 3)

    def test_matches_kron_embedding(self, rng):
        # oracle: embed the 4x4 into the full space with explicit kron products
        state = random_state(4, rng)
        u = random_unitary(4, rng)
        out = sv.apply_2q(state, u, 1, 3)
        full = np.zeros((16, 16), dtype=complex)
        for hi in range(2):
            for lo in range(2):
                for hi2 in range(2):
                    for lo2 in range(2):
                        e_hi = np.zeros((2, 2)); e_hi[hi, hi2] = 1
                        e_lo = np.zeros((2, 2)); e_lo[lo, lo2] = 1
                        coeff = u[2 * hi + lo, 2 * hi2 + lo2]
                        full += coeff * np.kron(
                            np.kron(np.eye(2), e_hi), np.kron(np.eye(2), e_lo)
                        )
        assert np.allclose(out, full @ state, atol=1e-12)


def z_half(state, qubit) -> float:
    """|0>-probability of one wire, as the binary head reads it."""
    head = QubitBinaryHead(identity_template(sv.num_qubits(state), (qubit,)), 2)
    return float(head.outputs(state[None, :])[0, 0])


def marginal(state, readout) -> np.ndarray:
    """Joint readout distribution, as the amplitude head reads it."""
    head = AmplitudeSoftmaxHead(identity_template(sv.num_qubits(state), readout), 1)
    return head.outputs(state[None, :])[0]


class TestMeasurement:
    def test_zero_state_expectation(self):
        assert z_half(sv.zero_state(1), 0) == 1.0

    def test_one_state_expectation(self):
        assert z_half(basis(1, 1), 0) == 0.0

    def test_superposition_expectation(self):
        state = sv.apply_1q(sv.zero_state(1), ry(np.pi / 2), 0)
        assert z_half(state, 0) == pytest.approx(0.5)

    def test_marginal_of_basis_state(self):
        assert np.allclose(marginal(basis(2, 0), [0, 1]), [1, 0, 0, 0])

    def test_marginal_of_uniform_state(self):
        state = np.full(4, 0.5, dtype=complex)
        assert np.allclose(marginal(state, [0, 1]), [0.25] * 4)

    def test_marginal_matches_enumeration_oracle(self, rng):
        state = random_state(8, rng)
        got = marginal(state, [2, 5])
        expected = np.zeros(4)
        for index, amp in enumerate(state):
            bitstring = format(index, "08b")
            outcome = int(bitstring[2] + bitstring[5], 2)
            expected[outcome] += abs(amp) ** 2
        assert np.allclose(got, expected, atol=1e-12)
        assert got.sum() == pytest.approx(1.0, abs=1e-10)

    def test_marginal_over_all_qubits_is_permuted_probs(self, rng):
        state = random_state(4, rng)
        readout = [2, 0, 3, 1]
        expected = np.zeros(16)
        for index, amp in enumerate(state):
            bits = format(index, "04b")
            expected[int("".join(bits[q] for q in readout), 2)] += abs(amp) ** 2
        projectors = np.stack([diag_readout_projector(4, readout, j) for j in range(16)])
        assert np.allclose(projectors @ sv.probabilities(state), expected, atol=1e-12)
        assert np.allclose(marginal(state, readout), expected, atol=1e-12)

    def test_marginal_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            identity_template(3, [1, 1])


def test_norm_preserved_over_random_gate_sequences():
    # one register for the whole sequence, so the wire axes move between
    # gates as they do when a compiled circuit runs
    rng = np.random.default_rng(99)
    for _ in range(100):
        register = sv.Register(random_state(6, rng), 6)
        for _ in range(20):
            if rng.random() < 0.5:
                register.apply(random_unitary(2, rng), (int(rng.integers(6)),))
            else:
                q = rng.choice(6, size=2, replace=False)
                register.apply(random_unitary(4, rng), (int(q[0]), int(q[1])))
        assert sv.norm_error(register.states()) < 1e-10


class TestRegister:
    def test_sequence_matches_single_gate_entry_points(self, rng):
        state = random_state(5, rng)
        register = sv.Register(state, 5)
        for _ in range(12):
            q = [int(w) for w in rng.choice(5, size=2, replace=False)]
            u = random_unitary(4, rng)
            register.apply(u, tuple(q))
            state = sv.apply_2q(state, u, *q)
            v = random_unitary(2, rng)
            register.apply(v, (q[0],))
            state = sv.apply_1q(state, v, q[0])
        assert np.allclose(register.states(), state, atol=1e-12)

    def test_per_row_matrices(self, rng):
        states = np.stack([random_state(4, rng) for _ in range(3)])
        us = np.stack([random_unitary(4, rng) for _ in range(3)])
        out = sv.apply_2q(states, us, 3, 1)
        for row, state, u in zip(out, states, us):
            assert np.allclose(row, sv.apply_2q(state, u, 3, 1), atol=1e-12)

    def test_input_is_not_modified(self, rng):
        states = np.stack([random_state(3, rng) for _ in range(2)])
        before = states.copy()
        sv.apply_2q(states, random_unitary(4, rng), 0, 1)
        sv.apply_1q(states, random_unitary(2, rng), 0)
        assert np.array_equal(states, before)
