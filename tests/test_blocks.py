"""Differential tests of the block-compiled simulator against independent oracles.

The compiled block matrices are checked against ``block_matrix``, forward
states against a dense kron-product unitary of ``template.ops``, each group's
Pauli-basis angle gradients against dense derivative matrices, and the
block-level adjoint against the parameter-shift rule, on random block kinds,
angles and hand-made gate lists.
"""
from functools import cached_property

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tnqc import gates, training, xxz
from tnqc.circuits import CircuitTemplate, from_descriptor, run_many, run_states
from tnqc.gates import PARAM_COUNT, BlockKind, Gate, GateOp, block_matrix, compile_blocks, expand_block
from tnqc.gradients import batch_energy_and_grad, batch_loss_grad, make_head

from conftest import random_state
from oracles import dense_unitary, grad_param_shift, ketbra_grads, loss_and_grad_shift

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
    [u] = program.matrices(params[None])
    assert np.allclose(u[0, 0], block_matrix(kind, params, cnot_target), atol=1e-12)


@st.composite
def block_groups(draw):
    """A one-group program and, per block, its matrix as a function of all angles.

    Either one node kind on wires (0, 1) and (2, 3), or a hand-made gate list
    (fixed angles included) on 1 or 2 wires, seen in its block's own basis.
    """
    if draw(st.booleans()):
        kind, target = draw(st.sampled_from(list(BlockKind))), draw(st.sampled_from([None, 0, 1]))
        width = PARAM_COUNT[kind]
        nodes = [
            expand_block(kind, 2 * b, 2 * b + 1, range(b * width, (b + 1) * width), None if target is None else 2 * b + target)
            for b in range(2)
        ]
        program = compile_blocks(nodes[0] + nodes[1], [len(node) for node in nodes])
        unitaries = [
            lambda p, b=b: block_matrix(kind, p[b * width : (b + 1) * width], target) for b in range(2)
        ]
        return program, unitaries, 2 * width
    template = draw(templates(widths=(1, 2)))
    program = compile_blocks(template.ops)
    assume(program.groups)
    [block] = program.blocks
    local = tuple(
        GateOp(op.gate, tuple(block.wires.index(q) for q in op.wires), op.param_slot, op.angle)
        for op in template.ops
    )
    local = CircuitTemplate(len(block.wires), local, template.n_params, (), "local")
    return program, [lambda p: dense_unitary(local, p)], template.n_params


@settings(max_examples=80, deadline=None)
@given(block_groups(), st.integers(1, 4), st.booleans(), seeds)
def test_angle_grads_match_derivative_matrices(case, n_rows, shared, seed):
    program, unitaries, n_params = case
    [group] = program.groups
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-2 * np.pi, 2 * np.pi, (1 if shared else n_rows, n_params))
    shape = (n_rows, len(unitaries), group.dim, group.dim)
    ketbras = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    grads = np.zeros((n_rows, n_params))
    grads[:, group.slots] = group.angle_grads(rows, ketbras)
    for r in range(n_rows):
        params = rows[0 if shared else r]
        expected = sum(ketbra_grads(u, params, k) for u, k in zip(unitaries, ketbras[r]))
        assert np.allclose(grads[r], expected, atol=1e-12)
    for t in group.pauli_tables.transfers if group.generators else ():
        assert t is None or np.allclose(t @ t.T, np.eye(group.dim**2), atol=1e-12)


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


def _record(monkeypatch):
    """Record each ``BlockGroup.matrices`` call and each Pauli-table build, by group."""
    calls, tables = [], []
    matrices = gates.BlockGroup.matrices
    build = gates.BlockGroup.pauli_tables.func

    def recording_matrices(self, param_rows):
        calls.append(self)
        return matrices(self, param_rows)

    def recording_tables(self):
        tables.append(self)
        return build(self)

    cached = cached_property(recording_tables)
    cached.__set_name__(gates.BlockGroup, "pauli_tables")
    monkeypatch.setattr(gates.BlockGroup, "matrices", recording_matrices)
    monkeypatch.setattr(gates.BlockGroup, "pauli_tables", cached)
    return calls, tables


@pytest.mark.parametrize("desc", ["mera:su4", "ttn:simple-su2", "checkerboard:su4:L4"])
def test_gradient_entry_points_build_each_group_once(desc, monkeypatch, rng):
    calls, tables = _record(monkeypatch)
    template = from_descriptor(desc)
    groups = list(template.program.groups)
    rows = rng.uniform(0, 2 * np.pi, (3, template.n_params))
    states = np.stack([random_state(8, rng) for _ in range(3)])
    h = np.stack([xxz.build_hamiltonian(d) for d in (-1.5, 0.0, 1.5)])
    batch_energy_and_grad(template, rows, states[0], h)
    assert calls == groups
    if template.readout:
        calls.clear()
        batch_loss_grad(make_head("mse_binary", template, 4), rows[0], states, np.array([0, 1, 2]))
        assert calls == groups
    assert tables == groups  # built on the first gradient call, then kept


def test_forward_callers_build_no_derivatives(monkeypatch, rng):
    calls, tables = _record(monkeypatch)
    template = from_descriptor("mera:su4")
    params = rng.uniform(0, 2 * np.pi, template.n_params)
    states = np.stack([random_state(8, rng) for _ in range(4)])
    run_states(template, params, states)
    run_many(template, np.stack([params, params]), states[0])
    dataset = training.LabeledStates(states, np.array([0, 1, 2, 3]), 4)
    training.evaluate(make_head("ce_amplitude", template, 4), params, dataset)
    record = xxz.GroundStateRecord(0.5, np.zeros(from_descriptor("checkerboard:su4:L2").n_params), 0.0, 0.0, 1, 2, 0)
    xxz.states_from_records([record])
    assert calls and not tables
