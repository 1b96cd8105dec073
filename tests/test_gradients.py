import numpy as np
import pytest

from tnqc.circuits import CircuitTemplate, build_mera, build_ttn, from_descriptor, run
from tnqc.encoding import encode_dataset
from tnqc.gates import BlockKind, Gate, GateOp
from tnqc.gradients import (
    batch_energy_and_grad,
    batch_loss_grad,
    diag_readout_projector,
    diag_z_half,
    make_head,
)
from tnqc.statevector import probabilities, zero_state
from tnqc.xxz import build_hamiltonian

from conftest import identity_template, random_state
from oracles import grad_finite_diff, grad_param_shift, loss_and_grad_fd, loss_and_grad_shift


def single_ry_template():
    return CircuitTemplate(1, (GateOp(Gate.RY, (0,), param_slot=0),), 1, (0,), "ry")


def adjoint_loss_grad(head, params, state, label):
    """One example's loss and gradient through the batched adjoint route."""
    losses, grads, _ = batch_loss_grad(head, params, state[None, :], [label])
    return float(losses[0]), grads[0]


def adjoint_expectation_grad(template, params, state, obs):
    """<M> and its adjoint gradient, with M passed as a dense one-row Hamiltonian stack."""
    obs = np.asarray(obs)
    dense = np.diag(obs) if obs.ndim == 1 else obs
    energies, grads = batch_energy_and_grad(template, np.asarray(params)[None, :], state, dense[None])
    return energies[0], grads[0]


def encoded(rng):
    return encode_dataset(rng.uniform(0, 1, (1, 8)))[0]


class TestObservables:
    def test_z_half_diag(self):
        assert np.array_equal(diag_z_half(2, 0), [1, 1, 0, 0])
        assert np.array_equal(diag_z_half(2, 1), [1, 0, 1, 0])

    def test_projector_diag(self):
        diag = diag_readout_projector(3, (0, 2), 0b10)
        # outcome: qubit0=1, qubit2=0 -> indices 1xx with last bit 0
        expected = [1 if (i >> 2) & 1 == 1 and i & 1 == 0 else 0 for i in range(8)]
        assert np.array_equal(diag, expected)

    def test_projectors_partition_unity(self):
        total = sum(diag_readout_projector(3, (0, 2), j) for j in range(4))
        assert np.array_equal(total, np.ones(8))

    def test_dense_expectation(self, rng):
        state = random_state(3, rng)
        h = rng.normal(size=(8, 8))
        h = h + h.T
        energies, _ = batch_energy_and_grad(identity_template(3), np.zeros((1, 0)), state, h[None])
        assert energies[0] == pytest.approx(np.vdot(state, h @ state).real, abs=1e-12)


class TestParameterShift:
    def test_matches_analytic_derivative_exactly(self):
        # <(I+Z)/2> of RY(t)|0> is cos^2(t/2); derivative -sin(t)/2
        template = single_ry_template()
        obs = diag_z_half(1, 0)
        for theta in (0.0, np.pi / 2, 1.234, -2.5):
            grad = grad_param_shift(template, [theta], zero_state(1), obs)
            assert grad[0] == pytest.approx(-np.sin(theta) / 2, abs=1e-14)

    def test_rz_exactness(self):
        # <(I+Z)/2> after RY(pi/2) then RZ(t), measured via X... use projector on Y?
        # simpler: observable (I+Z)/2 commutes with RZ, derivative must be 0
        ops = (
            GateOp(Gate.RY, (0,), angle=np.pi / 2),
            GateOp(Gate.RZ, (0,), param_slot=0),
        )
        template = CircuitTemplate(1, ops, 1, (0,), "rz-test")
        grad = grad_param_shift(template, [0.7], zero_state(1), diag_z_half(1, 0))
        assert grad[0] == pytest.approx(0.0, abs=1e-14)

    def test_gate_on_unmeasured_wire_has_zero_gradient(self):
        ops = (
            GateOp(Gate.RY, (0,), param_slot=0),
            GateOp(Gate.RY, (1,), param_slot=1),
        )
        template = CircuitTemplate(2, ops, 2, (0,), "two-wire")
        grad = grad_param_shift(template, [0.3, 1.1], zero_state(2), diag_z_half(2, 0))
        assert grad[1] == pytest.approx(0.0, abs=1e-14)

    def test_linearity_in_observable(self, rng):
        template = build_ttn(BlockKind.SIMPLE_SU2)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        state = random_state(8, rng)
        f = diag_z_half(8, 2)
        g = diag_readout_projector(8, (2, 5), 1)
        a, b = 0.7, -1.3
        combined = grad_param_shift(template, params, state, a * f + b * g)
        separate = a * grad_param_shift(template, params, state, f) + b * grad_param_shift(
            template, params, state, g
        )
        assert np.allclose(combined, separate, atol=1e-10)


class TestFiniteDifference:
    def test_convergence_order(self):
        template = single_ry_template()
        obs = diag_z_half(1, 0)
        exact = -np.sin(1.0) / 2
        err_coarse = abs(grad_finite_diff(template, [1.0], zero_state(1), obs, 1e-2)[0] - exact)
        err_fine = abs(grad_finite_diff(template, [1.0], zero_state(1), obs, 1e-4)[0] - exact)
        ratio = err_coarse / err_fine
        assert 1e3 < ratio < 1e5  # second-order central differences

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            grad_finite_diff(single_ry_template(), [0.1], zero_state(1), diag_z_half(1, 0), 0.0)


class TestAdjoint:
    def test_value_matches_forward_evaluation(self, rng):
        template = build_mera(BlockKind.GENERAL_SO4)
        head = make_head("mse_binary", template, 4)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        state = random_state(8, rng)
        _, _, outs = batch_loss_grad(head, params, state[None, :], [1])
        probs = probabilities(run(template, params, state))
        expected = [probs @ diag_z_half(8, q) for q in template.readout]
        assert np.allclose(outs[0], expected, atol=1e-12)

    def test_triple_agreement_expectation(self, rng):
        template = build_ttn(BlockKind.GENERAL_SU4)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        state = random_state(8, rng)
        obs = diag_readout_projector(8, (2, 5), 2)
        _, adj = adjoint_expectation_grad(template, params, state, obs)
        shift = grad_param_shift(template, params, state, obs)
        fd = grad_finite_diff(template, params, state, obs, 1e-4)
        assert np.abs(adj - shift).max() < 1e-12
        assert np.abs(adj - fd).max() < 1e-6

    def test_hamiltonian_energy_gradient(self, rng):
        template = from_descriptor("checkerboard:su4:L2")
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        h = build_hamiltonian(0.7)
        value, adj = adjoint_expectation_grad(template, params, zero_state(8), h)
        shift = grad_param_shift(template, params, zero_state(8), h)
        assert np.abs(adj - shift).max() < 1e-10
        assert value == pytest.approx(
            np.vdot(run(template, params, zero_state(8)), h @ run(template, params, zero_state(8))).real
        )

    def test_rejects_non_rotation_trainables(self):
        # the sweep differentiates Pauli rotations only; a CNOT cannot hold a slot
        with pytest.raises(ValueError):
            GateOp(Gate.CNOT, (0, 1), param_slot=0)
        for template in (build_mera(BlockKind.GENERAL_SU4), from_descriptor("checkerboard:su4:L2")):
            assert all(op.gate in (Gate.RY, Gate.RZ) for op in template.ops if op.trainable)


class TestLossHeads:
    @pytest.mark.parametrize("loss", ["mse_binary", "ce_amplitude"])
    def test_adjoint_shift_fd_agree_on_loss(self, loss, rng):
        template = build_mera(BlockKind.GENERAL_SU4)
        head = make_head(loss, template, 4)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        state = encoded(rng)
        label = 2
        l_adj, g_adj = adjoint_loss_grad(head, params, state, label)
        l_sh, g_sh = loss_and_grad_shift(head, params, state, label)
        l_fd, g_fd = loss_and_grad_fd(head, params, state, label)
        assert l_adj == pytest.approx(l_sh, abs=1e-12)
        assert l_adj == pytest.approx(l_fd, abs=1e-12)
        assert np.abs(g_adj - g_sh).max() < 1e-8
        assert np.abs(g_adj - g_fd).max() < 1e-6

    def test_zero_gradient_at_exact_mse_fit(self):
        # zero angles leave the vacuum fixed: outputs (1, 1) = code of class 3
        template = build_ttn(BlockKind.SIMPLE_REAL)
        head = make_head("mse_binary", template, 4)
        loss, grad = adjoint_loss_grad(head, np.zeros(16), zero_state(8), 3)
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(grad) < 1e-8

    def test_three_class_truncation_gradient(self, rng):
        # entries beyond n_classes must not leak into the gradient
        template = build_ttn(BlockKind.SIMPLE_SU2)
        head = make_head("ce_amplitude", template, 3)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        state = encoded(rng)
        _, g_adj = adjoint_loss_grad(head, params, state, 1)
        _, g_fd = loss_and_grad_fd(head, params, state, 1)
        assert np.abs(g_adj - g_fd).max() < 1e-6

    def test_batch_rows_match_single_examples(self, rng):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        head = make_head("mse_binary", template, 4)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        states = encode_dataset(rng.uniform(0, 1, (6, 8)))
        labels = rng.integers(0, 4, 6)
        losses, grads, outs = batch_loss_grad(head, params, states, labels)
        for i in range(6):
            loss_i, grad_i = adjoint_loss_grad(head, params, states[i], labels[i])
            assert losses[i] == pytest.approx(loss_i, abs=1e-12)
            assert np.abs(grads[i] - grad_i).max() < 1e-12
        assert outs.shape == (6, 2)

    def test_head_predictions(self, rng):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        binary = make_head("mse_binary", template, 4)
        assert binary.predict(np.array([[0.9, 0.1], [0.2, 0.8]])).tolist() == [2, 1]
        amplitude = make_head("ce_amplitude", template, 3)
        outs = np.array([[0.1, 0.2, 0.6, 0.1], [0.5, 0.2, 0.2, 0.1]])
        assert amplitude.predict(outs).tolist() == [2, 0]

    def test_checkerboard_has_no_head(self):
        with pytest.raises(ValueError):
            make_head("mse_binary", from_descriptor("checkerboard:su4:L1"), 3)
