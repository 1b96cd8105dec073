"""Differential tests of the block-compiled simulator against independent oracles.

The compiled block matrices are checked against ``block_matrix``, forward
states against a dense kron-product unitary of ``template.ops``, and the
block-level adjoint against the parameter-shift rule, on random block kinds,
angles and hand-made gate lists.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnqc import gates, training, xxz
from tnqc.circuits import CircuitTemplate, from_descriptor, run_many, run_states
from tnqc.gates import PARAM_COUNT, BlockKind, Gate, GateOp, block_matrix, compile_blocks, expand_block
from tnqc.gradients import batch_energy_and_grad, batch_loss_grad, make_head

from conftest import random_state
from oracles import dense_unitary, grad_param_shift, loss_and_grad_shift

seeds = st.integers(0, 2**32 - 1)


@st.composite
def templates(draw, widths=(1, 2, 8)):
    """Random gate lists: trainable and fixed RY/RZ, CNOTs, on 1, 2 or 8 wires; possibly empty."""
    n = draw(st.sampled_from(widths))
    ops, slot = [], 0
    for _ in range(draw(st.integers(0, 10))):
        gate = draw(st.sampled_from(list(Gate) if n > 1 else [Gate.RY, Gate.RZ]))
        if gate is Gate.CNOT:
            control, target = draw(st.permutations(range(n)))[:2]
            ops.append(GateOp(gate, (control, target)))
        elif draw(st.booleans()):
            ops.append(GateOp(gate, (draw(st.integers(0, n - 1)),), param_slot=slot))
            slot += 1
        else:
            angle = draw(st.floats(-2 * np.pi, 2 * np.pi))
            ops.append(GateOp(gate, (draw(st.integers(0, n - 1)),), angle=angle))
    readout = tuple(draw(st.permutations(range(n)))[: min(n, 2)])
    return CircuitTemplate(n, tuple(ops), slot, readout, "random")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(BlockKind)), st.sampled_from([None, 0, 1]), seeds)
def test_block_matrices_match_block_matrix(kind, cnot_target, seed):
    params = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi, PARAM_COUNT[kind])
    program = compile_blocks(expand_block(kind, 0, 1, range(len(params)), cnot_target=cnot_target))
    assert [block.wires for block in program.blocks] == [(0, 1)]
    [(u, derivs)] = program.matrices(params[None], derivatives=True)
    assert np.allclose(u[0, 0], block_matrix(kind, params, cnot_target), atol=1e-12)
    # E_k = (dU/dt_k) U^dagger, with dU/dt_k exactly (U(t + pi e_k) - U(t - pi e_k)) / 4
    for k in range(len(params)):
        shift = np.pi * np.eye(len(params))[k]
        du = (block_matrix(kind, params + shift, cnot_target) - block_matrix(kind, params - shift, cnot_target)) / 4
        assert np.allclose(derivs[0, 0, k], du @ u[0, 0].conj().T, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(templates(), seeds)
def test_run_states_and_run_many_match_dense_oracle(template, seed):
    rng = np.random.default_rng(seed)
    params = rng.uniform(-2 * np.pi, 2 * np.pi, template.n_params)
    states = np.stack([random_state(template.n_qubits, rng) for _ in range(3)])
    expected = states @ dense_unitary(template, params).T
    assert np.allclose(run_states(template, params, states), expected, atol=1e-12)

    rows = rng.uniform(-2 * np.pi, 2 * np.pi, (3, template.n_params))
    many = run_many(template, rows, states[0])
    for out, row in zip(many, rows):
        assert np.allclose(out, dense_unitary(template, row) @ states[0], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(templates(), seeds)
def test_block_adjoint_matches_shift_rule(template, seed):
    rng = np.random.default_rng(seed)
    dim = template.dim
    state = random_state(template.n_qubits, rng)
    rows = rng.uniform(-2 * np.pi, 2 * np.pi, (2, template.n_params))
    h = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    h = h + h.conj().transpose(0, 2, 1)
    _, grads = batch_energy_and_grad(template, rows, state, h)
    for row, obs, grad in zip(rows, h, grads):
        assert np.allclose(grad, grad_param_shift(template, row, state, obs), atol=1e-10)

    labels = rng.integers(0, 2, 2)
    for loss in ("mse_binary", "ce_amplitude"):
        head = make_head(loss, template, 2)
        states = np.stack([state, random_state(template.n_qubits, rng)])
        _, grads, _ = batch_loss_grad(head, rows[0], states, labels)
        for example, label, grad in zip(states, labels, grads):
            _, expected = loss_and_grad_shift(head, rows[0], example, label)
            assert np.allclose(grad, expected, atol=1e-10)


# block shapes per template: the Simple kinds' final node carries the readout rotations
GROUPS = {"ttn:simple-real": 3, "ttn:su4": 1, "mera:simple-su2": 3, "mera:so4": 1}


@pytest.mark.parametrize(
    "desc, blocks",
    [
        ("ttn:simple-real", 7), ("ttn:su4", 7), ("mera:simple-su2", 11), ("mera:so4", 11),
        ("checkerboard:su4:L1", 4), ("checkerboard:su4:L2", 8), ("checkerboard:su4:L3", 12),
        ("checkerboard:su4:L4", 16),
    ],
)
def test_block_counts(desc, blocks):
    program = from_descriptor(desc).program
    assert len(program.blocks) == blocks
    assert len(program.groups) == GROUPS.get(desc, 1)  # one node shape for the checkerboard
    assert all(len(block.wires) == 2 for block in program.blocks)


def test_node_units_keep_the_ops_and_their_unitary(rng):
    template = from_descriptor("checkerboard:su4:L4")
    ops_only = CircuitTemplate(8, template.ops, template.n_params, (), "ops only")
    assert len(ops_only.program.groups) == 3  # op-by-op fusion splits the wrap node's neighbour
    params = rng.uniform(-np.pi, np.pi, template.n_params)
    state = random_state(8, rng)
    assert np.allclose(run_states(template, params, state[None]), dense_unitary(template, params) @ state, atol=1e-12)
    with pytest.raises(ValueError):
        compile_blocks(template.ops, [1])


@pytest.mark.parametrize("desc", ["mera:su4", "ttn:simple-su2", "checkerboard:su4:L4"])
def test_gradient_entry_points_build_each_group_once(desc, monkeypatch, rng):
    calls = []
    matrices = gates.BlockGroup.matrices

    def recording(self, param_rows, derivatives=False):
        calls.append(derivatives)
        return matrices(self, param_rows, derivatives)

    monkeypatch.setattr(gates.BlockGroup, "matrices", recording)
    template = from_descriptor(desc)
    groups = len(template.program.groups)
    rows = rng.uniform(0, 2 * np.pi, (3, template.n_params))
    states = np.stack([random_state(8, rng) for _ in range(3)])
    h = np.stack([xxz.build_hamiltonian(d) for d in (-1.5, 0.0, 1.5)])
    batch_energy_and_grad(template, rows, states[0], h)
    assert calls == [True] * groups
    if template.readout:
        calls.clear()
        batch_loss_grad(make_head("mse_binary", template, 4), rows[0], states, np.array([0, 1, 2]))
        assert calls == [True] * groups


def test_forward_callers_build_no_derivatives(monkeypatch, rng):
    calls = []
    matrices = gates.BlockGroup.matrices

    def recording(self, param_rows, derivatives=False):
        calls.append(derivatives)
        return matrices(self, param_rows, derivatives)

    monkeypatch.setattr(gates.BlockGroup, "matrices", recording)
    template = from_descriptor("mera:su4")
    params = rng.uniform(0, 2 * np.pi, template.n_params)
    states = np.stack([random_state(8, rng) for _ in range(4)])
    run_states(template, params, states)
    run_many(template, np.stack([params, params]), states[0])
    dataset = training.LabeledStates(states, np.array([0, 1, 2, 3]), 4)
    training.evaluate(make_head("ce_amplitude", template, 4), params, dataset)
    record = xxz.GroundStateRecord(0.5, np.zeros(from_descriptor("checkerboard:su4:L2").n_params), 0.0, 0.0, 1, 2, 0)
    xxz.states_from_records([record])
    assert calls and not any(calls)
