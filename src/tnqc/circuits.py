"""Circuit templates: 8-qubit TTN and MERA classifiers, N-qubit checkerboard.

Wire numbering in the layouts below is 1-based and top-to-bottom, matching how
the hierarchical networks are usually drawn; everything is converted to
0-based indices internally.  A layout entry ``((a, b), keep)`` places one
two-qubit block on wires ``a`` (upper) and ``b`` (lower); ``keep`` names the
wire that continues deeper into the network and therefore takes the CNOT
target for the Simple block kinds (``None`` means both wires continue and the
default lower-wire target is used).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gates import (
    PARAM_COUNT,
    READOUT_ROTATIONS,
    BlockKind,
    BlockProgram,
    GateOp,
    compile_blocks,
    expand_block,
)
from .statevector import Register, num_qubits

TTN_LAYOUT = (
    ((1, 2), 2),
    ((3, 4), 3),
    ((5, 6), 6),
    ((7, 8), 7),
    ((2, 3), 3),
    ((6, 7), 6),
    ((3, 6), None),
)

MERA_LAYOUT = (
    # first disentangler row
    ((2, 3), None),
    ((4, 5), None),
    ((6, 7), None),
    # first merge row
    ((1, 2), 2),
    ((3, 4), 3),
    ((5, 6), 6),
    ((7, 8), 7),
    # second disentangler, second merge row, final node
    ((3, 6), None),
    ((2, 3), 3),
    ((6, 7), 6),
    ((3, 6), None),
)

CLASSIFIER_QUBITS = 8
CLASSIFIER_READOUT = (3, 6)  # 1-based wire labels


@dataclass(frozen=True)
class CircuitTemplate:
    """An ordered gate program with named parameter slots (0-based wires)."""

    n_qubits: int
    ops: tuple[GateOp, ...]
    n_params: int
    readout: tuple[int, ...]
    descriptor: str
    # ops per fusion unit (one node or one readout rotation); () makes every op a unit
    units: tuple[int, ...] = ()

    def __post_init__(self):
        slots = sorted(op.param_slot for op in self.ops if op.trainable)
        if slots != list(range(self.n_params)):
            raise ValueError(
                f"parameter slots must cover 0..{self.n_params - 1} exactly once"
            )
        if len(set(self.readout)) != len(self.readout):
            raise ValueError(f"duplicate readout wires: {self.readout}")
        for q in self.readout:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"readout wire {q} out of range")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @cached_property
    def program(self) -> BlockProgram:
        """``ops`` fused unit by unit into blocks of at most two wires; compiled on first use."""
        return compile_blocks(self.ops, self.units or None)


def _hierarchical(layout, kind: BlockKind, name: str) -> CircuitTemplate:
    ops: list[GateOp] = []
    units: list[int] = []
    slot = 0
    for (a, b), keep in layout:
        width = PARAM_COUNT[kind]
        target = None if keep is None else keep - 1
        node = expand_block(kind, a - 1, b - 1, range(slot, slot + width), cnot_target=target)
        ops.extend(node)
        units.append(len(node))
        slot += width
    readout = tuple(q - 1 for q in CLASSIFIER_READOUT)
    for q in readout:
        for gate in READOUT_ROTATIONS[kind]:
            ops.append(GateOp(gate, (q,), param_slot=slot))
            units.append(1)
            slot += 1
    return CircuitTemplate(
        n_qubits=CLASSIFIER_QUBITS,
        ops=tuple(ops),
        n_params=slot,
        readout=readout,
        descriptor=f"{name}:{kind.value}",
        units=tuple(units),
    )


def build_ttn(kind: BlockKind) -> CircuitTemplate:
    """Binary-tree classifier: pairwise merges down to readout wires 3 and 6."""
    return _hierarchical(TTN_LAYOUT, kind, "ttn")


def build_mera(kind: BlockKind) -> CircuitTemplate:
    """TTN plus disentangler rows across branch boundaries before each merge."""
    return _hierarchical(MERA_LAYOUT, kind, "mera")


def build_checkerboard(n_qubits: int, layers: int, periodic: bool = True) -> CircuitTemplate:
    """Brick-wall state-preparation ansatz of GENERAL_SU4 blocks.

    Odd layers pair wires (1,2),(3,4),...; even layers pair (2,3),(4,5),...
    plus the wrap pair (n,1) when ``periodic``.  No readout wires: this
    circuit prepares a state rather than classifying one.
    """
    if n_qubits < 2 or n_qubits % 2:
        raise ValueError(f"n_qubits must be even and >= 2, got {n_qubits}")
    if layers < 1:
        raise ValueError(f"layers must be >= 1, got {layers}")
    kind = BlockKind.GENERAL_SU4
    width = PARAM_COUNT[kind]
    ops: list[GateOp] = []
    units: list[int] = []
    slot = 0
    for layer in range(1, layers + 1):
        if layer % 2:
            pairs = [(i, i + 1) for i in range(1, n_qubits, 2)]
        else:
            pairs = [(i, i + 1) for i in range(2, n_qubits, 2)]
            if periodic:
                pairs.append((n_qubits, 1))
        for a, b in pairs:
            node = expand_block(kind, a - 1, b - 1, range(slot, slot + width))
            ops.extend(node)
            units.append(len(node))
            slot += width
    return CircuitTemplate(
        n_qubits=n_qubits,
        ops=tuple(ops),
        n_params=slot,
        readout=(),
        descriptor=f"checkerboard:su4:L{layers}",
        units=tuple(units),
    )


def from_descriptor(descriptor: str, n_qubits: int = CLASSIFIER_QUBITS) -> CircuitTemplate:
    """Build a template from a string like ``ttn:su4`` or ``checkerboard:su4:L4``."""
    parts = descriptor.split(":")
    kinds = {k.value: k for k in BlockKind}
    try:
        if parts[0] in ("ttn", "mera") and len(parts) == 2 and parts[1] in kinds:
            builder = build_ttn if parts[0] == "ttn" else build_mera
            return builder(kinds[parts[1]])
        if (
            parts[0] == "checkerboard"
            and len(parts) == 3
            and parts[1] == "su4"
            and parts[2].startswith("L")
        ):
            return build_checkerboard(n_qubits, int(parts[2][1:]))
    except ValueError:
        pass
    valid = [f"{a}:{k}" for a in ("ttn", "mera") for k in kinds] + ["checkerboard:su4:L<layers>"]
    raise ValueError(f"unknown architecture {descriptor!r}; valid: {', '.join(valid)}")


def _run_blocks(template: CircuitTemplate, unitaries, states: np.ndarray) -> np.ndarray:
    """Apply the compiled blocks to states ``(B, 2^n)``, one block matrix product each.

    ``unitaries`` holds each group's ``(R, blocks, d, d)`` matrices, as built
    by ``template.program.matrices``; R is 1 (shared) or B (one row each).
    """
    if not template.program.blocks:
        return np.array(states, dtype=np.complex128)
    register = Register(states, template.n_qubits)
    for block in template.program.blocks:
        register.apply(unitaries[block.group][:, block.index], block.wires)
    return register.states()


def run(template: CircuitTemplate, params, input_state: np.ndarray) -> np.ndarray:
    """Apply the template to one input state with slots bound from ``params``."""
    params = np.asarray(params, dtype=float)
    if params.shape != (template.n_params,):
        raise ValueError(
            f"expected {template.n_params} parameters, got shape {params.shape}"
        )
    if num_qubits(input_state) != template.n_qubits:
        raise ValueError("input state size does not match template qubit count")
    psi = np.asarray(input_state).reshape(1, -1)
    return _run_blocks(template, template.program.matrices(params[None]), psi)[0]


def run_states(template: CircuitTemplate, params, states: np.ndarray) -> np.ndarray:
    """Apply the template with shared parameters to a batch of states (B, 2^n)."""
    params = np.asarray(params, dtype=float)
    psi = np.asarray(states).reshape(-1, template.dim)
    return _run_blocks(template, template.program.matrices(params[None]), psi)


def run_many(template: CircuitTemplate, param_rows, input_state: np.ndarray) -> np.ndarray:
    """Apply the template to one input under many parameter vectors (P, n_params)."""
    param_rows = np.asarray(param_rows, dtype=float)
    psi = np.broadcast_to(input_state, (param_rows.shape[0], template.dim))
    return _run_blocks(template, template.program.matrices(param_rows), psi)
