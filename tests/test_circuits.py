import numpy as np
import pytest

from tnqc import statevector as sv
from tnqc.circuits import (
    MERA_LAYOUT,
    TTN_LAYOUT,
    CircuitTemplate,
    build_checkerboard,
    build_mera,
    build_ttn,
    from_descriptor,
    run,
    run_many,
    run_states,
)
from tnqc.gates import BlockKind, Gate, GateOp

from conftest import random_state
from oracles import dense_unitary

PARAM_COUNTS = {
    ("ttn", BlockKind.GENERAL_SU4): 105,
    ("ttn", BlockKind.GENERAL_SO4): 42,
    ("ttn", BlockKind.SIMPLE_REAL): 16,
    ("ttn", BlockKind.SIMPLE_SU2): 48,
    ("mera", BlockKind.GENERAL_SU4): 165,
    ("mera", BlockKind.GENERAL_SO4): 66,
    ("mera", BlockKind.SIMPLE_REAL): 24,
    ("mera", BlockKind.SIMPLE_SU2): 72,
}


def build(arch, kind):
    return build_ttn(kind) if arch == "ttn" else build_mera(kind)


class TestBuilders:
    @pytest.mark.parametrize(("arch", "kind"), PARAM_COUNTS)
    def test_parameter_counts(self, arch, kind):
        assert build(arch, kind).n_params == PARAM_COUNTS[(arch, kind)]

    @pytest.mark.parametrize("kind", list(BlockKind))
    def test_block_counts_via_cnots(self, kind):
        cnots_per_block = {"simple-real": 1, "simple-su2": 1, "so4": 2, "su4": 3}[kind.value]
        ttn_cnots = sum(op.gate is Gate.CNOT for op in build_ttn(kind).ops)
        mera_cnots = sum(op.gate is Gate.CNOT for op in build_mera(kind).ops)
        assert ttn_cnots == 7 * cnots_per_block
        assert mera_cnots == 11 * cnots_per_block

    def test_general_kinds_have_no_readout_rotations(self):
        # all parameters live in the 7 blocks: 7 x 6
        template = build_ttn(BlockKind.GENERAL_SO4)
        assert template.n_params == 42

    def test_readout_wires(self):
        for arch in ("ttn", "mera"):
            template = build(arch, BlockKind.GENERAL_SU4)
            assert template.readout == (2, 5)  # wires 3 and 6, 0-based

    @pytest.mark.parametrize("arch", ["ttn", "mera"])
    @pytest.mark.parametrize("kind", list(BlockKind))
    def test_slot_uniqueness(self, arch, kind):
        template = build(arch, kind)
        slots = sorted(op.param_slot for op in template.ops if op.trainable)
        assert slots == list(range(template.n_params))

    @pytest.mark.parametrize(
        ("arch", "layout"), [("ttn", TTN_LAYOUT), ("mera", MERA_LAYOUT)]
    )
    def test_causal_structure(self, arch, layout):
        # once a wire is merged away (not kept), no later op may touch it
        template = build(arch, BlockKind.GENERAL_SU4)
        dead: set[int] = set()
        op_iter = iter(template.ops)
        per_block = 18  # GENERAL_SU4 expands to 18 ops
        for (a, b), keep in layout:
            block_ops = [next(op_iter) for _ in range(per_block)]
            wires = {w for op in block_ops for w in op.wires}
            assert wires == {a - 1, b - 1}
            assert not wires & dead
            if keep is not None:
                dead.add({a, b}.difference({keep}).pop() - 1)
        for q in template.readout:
            assert q not in dead

    def test_reversed_cnots_follow_kept_wire(self):
        # in the tree, blocks whose upper wire continues get reversed CNOTs
        template = build_ttn(BlockKind.SIMPLE_REAL)
        cnots = [op for op in template.ops if op.gate is Gate.CNOT]
        targets = [op.wires[1] for op in cnots]
        # layouts keep wires 2,3,6,7 then 3,6, final defaults to lower wire 6
        assert targets == [1, 2, 5, 6, 2, 5, 5]


class TestCheckerboard:
    def test_four_layers_params(self):
        assert build_checkerboard(8, 4).n_params == 240  # 16 blocks x 15

    def test_single_layer_pairs(self):
        template = build_checkerboard(8, 1)
        blocks = _block_wire_sets(template, ops_per_block=18)
        assert blocks == [{0, 1}, {2, 3}, {4, 5}, {6, 7}]

    def test_second_layer_has_wrap_pair(self):
        template = build_checkerboard(8, 2)
        blocks = _block_wire_sets(template, ops_per_block=18)
        assert blocks[4:] == [{1, 2}, {3, 4}, {5, 6}, {7, 0}]

    def test_open_boundary_drops_wrap_pair(self):
        template = build_checkerboard(8, 2, periodic=False)
        blocks = _block_wire_sets(template, ops_per_block=18)
        assert blocks[4:] == [{1, 2}, {3, 4}, {5, 6}]

    def test_no_readout(self):
        assert build_checkerboard(8, 4).readout == ()

    def test_odd_qubit_count_rejected(self):
        with pytest.raises(ValueError):
            build_checkerboard(7, 2)

    def test_zero_layers_rejected(self):
        with pytest.raises(ValueError):
            build_checkerboard(8, 0)


def _block_wire_sets(template, ops_per_block):
    ops = list(template.ops)
    assert len(ops) % ops_per_block == 0
    return [
        {w for op in ops[i : i + ops_per_block] for w in op.wires}
        for i in range(0, len(ops), ops_per_block)
    ]


class TestTemplateValidation:
    def test_duplicate_slots_rejected(self):
        ops = (GateOp(Gate.RY, (0,), param_slot=0), GateOp(Gate.RY, (1,), param_slot=0))
        with pytest.raises(ValueError):
            CircuitTemplate(2, ops, 2, (), "bad")

    def test_duplicate_readout_rejected(self):
        ops = (GateOp(Gate.RY, (0,), param_slot=0),)
        with pytest.raises(ValueError):
            CircuitTemplate(2, ops, 1, (1, 1), "bad")


class TestRun:
    def test_zero_params_simple_real_fixes_vacuum(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        out = run(template, np.zeros(16), sv.zero_state(8))
        assert np.allclose(out, sv.zero_state(8), atol=1e-15)

    @pytest.mark.parametrize("desc", ["ttn:su4", "mera:so4", "checkerboard:su4:L2"])
    def test_norm_preserved(self, desc, rng):
        template = from_descriptor(desc)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        out = run(template, params, random_state(8, rng))
        assert sv.norm_error(out) < 1e-10

    def test_matches_dense_unitary_oracle(self, rng):
        # oracle: accumulate the full 256x256 matrix with explicit kron chains
        template = build_ttn(BlockKind.GENERAL_SU4)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        state = random_state(8, rng)
        full = dense_unitary(template, params)
        assert np.allclose(run(template, params, state), full @ state, atol=1e-12)

    def test_deterministic(self, rng):
        template = build_mera(BlockKind.SIMPLE_SU2)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        state = random_state(8, rng)
        first = run(template, params, state)
        second = run(template, params, state)
        assert np.array_equal(first, second)

    def test_wrong_param_length_rejected(self, rng):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        with pytest.raises(ValueError):
            run(template, np.zeros(15), sv.zero_state(8))

    def test_wrong_state_size_rejected(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        with pytest.raises(ValueError):
            run(template, np.zeros(16), sv.zero_state(7))

    def test_run_states_matches_run(self, rng):
        template = build_mera(BlockKind.GENERAL_SO4)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        states = np.stack([random_state(8, rng) for _ in range(5)])
        batched = run_states(template, params, states)
        for row, state in zip(batched, states):
            assert np.allclose(row, run(template, params, state), atol=1e-14)

    def test_run_many_matches_run(self, rng):
        template = build_ttn(BlockKind.GENERAL_SU4)
        rows = rng.uniform(0, 2 * np.pi, (5, template.n_params))
        state = random_state(8, rng)
        batched = run_many(template, rows, state)
        for row_out, row_params in zip(batched, rows):
            assert np.allclose(row_out, run(template, row_params, state), atol=1e-14)


class TestDescriptors:
    @pytest.mark.parametrize(
        "desc", ["ttn:su4", "ttn:simple-real", "mera:so4", "mera:simple-su2", "checkerboard:su4:L4"]
    )
    def test_round_trip(self, desc):
        assert from_descriptor(desc).descriptor == desc

    def test_unknown_architecture_lists_valid_ones(self):
        with pytest.raises(ValueError, match="mera:su4"):
            from_descriptor("mps:su4")

    def test_malformed_checkerboard_depth(self):
        with pytest.raises(ValueError):
            from_descriptor("checkerboard:su4:Lx")

