"""Parametric rotations and the two-qubit node blocks used by the circuits.

Every block is compiled to RY/RZ rotations plus CNOTs.  Rotation convention:
``RY(t) = exp(-i t Y / 2)``, ``RZ(t) = exp(-i t Z / 2)``.  Four block kinds are
supported, from cheapest to most expressive:

* ``SIMPLE_REAL``   - one RY per wire, one CNOT (2 parameters)
* ``SIMPLE_SU2``    - one RZ.RY.RZ Euler triple per wire, one CNOT (6)
* ``GENERAL_SO4``   - an arbitrary SO(4) element, two CNOTs (6)
* ``GENERAL_SU4``   - an arbitrary SU(4) element, three CNOTs (15)
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Gate(enum.Enum):
    RY = "ry"
    RZ = "rz"
    CNOT = "cnot"


class BlockKind(enum.Enum):
    SIMPLE_REAL = "simple-real"
    SIMPLE_SU2 = "simple-su2"
    GENERAL_SO4 = "so4"
    GENERAL_SU4 = "su4"


PARAM_COUNT = {
    BlockKind.SIMPLE_REAL: 2,
    BlockKind.SIMPLE_SU2: 6,
    BlockKind.GENERAL_SO4: 6,
    BlockKind.GENERAL_SU4: 15,
}

# Rotation set appended to each readout wire for the Simple kinds (the same
# per-wire rotations the blocks themselves use); empty for the general kinds,
# which already end in arbitrary single-qubit layers.
READOUT_ROTATIONS = {
    BlockKind.SIMPLE_REAL: (Gate.RY,),
    BlockKind.SIMPLE_SU2: (Gate.RZ, Gate.RY, Gate.RZ),
    BlockKind.GENERAL_SO4: (),
    BlockKind.GENERAL_SU4: (),
}


@dataclass(frozen=True)
class GateOp:
    """One gate in a circuit program.

    Rotations carry either a ``param_slot`` (trainable) or a fixed ``angle``,
    never both.  CNOT wires are ``(control, target)``.
    """

    gate: Gate
    wires: tuple[int, ...]
    param_slot: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.gate is Gate.CNOT:
            if len(self.wires) != 2 or self.param_slot is not None or self.angle is not None:
                raise ValueError(f"malformed CNOT op: {self}")
        else:
            if len(self.wires) != 1 or (self.param_slot is None) == (self.angle is None):
                raise ValueError(f"rotation needs exactly one of slot/angle: {self}")

    @property
    def trainable(self) -> bool:
        return self.param_slot is not None


def ry(theta):
    """RY matrix; array-valued ``theta`` yields a stacked (..., 2, 2) batch."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    out = np.empty(theta.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    return out


def rz(theta):
    """RZ matrix; array-valued ``theta`` yields a stacked (..., 2, 2) batch."""
    theta = np.asarray(theta, dtype=float)
    phase = np.exp(-0.5j * theta)
    out = np.zeros(theta.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = phase
    out[..., 1, 1] = np.conj(phase)
    return out


ROTATION_MATRIX = {Gate.RY: ry, Gate.RZ: rz}

I2 = np.eye(2, dtype=np.complex128)
# 4x4 CNOTs in (hi, lo) bit order.
CNOT_CTRL_HI = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
CNOT_CTRL_LO = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=np.complex128
)

HALF_PI = np.pi / 2


def _euler(wire, slots):
    """Arbitrary SU(2) rotation as an RZ.RY.RZ triple on three slots."""
    return [
        GateOp(Gate.RZ, (wire,), param_slot=slots[0]),
        GateOp(Gate.RY, (wire,), param_slot=slots[1]),
        GateOp(Gate.RZ, (wire,), param_slot=slots[2]),
    ]


def _fixed(gate, wire, angle):
    return GateOp(gate, (wire,), angle=angle)


def expand_block(
    kind: BlockKind,
    wire_a: int,
    wire_b: int,
    slots,
    cnot_target: int | None = None,
) -> list[GateOp]:
    """Compile one two-qubit node into a gate sequence.

    ``wire_a`` is the upper wire of the node as drawn, ``wire_b`` the lower.
    For the Simple kinds ``cnot_target`` picks the CNOT target wire (the wire
    that continues deeper into the network); it defaults to ``wire_b`` and is
    ignored by the general kinds, whose CNOT orientations are fixed by the
    decomposition.
    """
    slots = list(slots)
    if len(slots) != PARAM_COUNT[kind]:
        raise ValueError(
            f"{kind.name} needs {PARAM_COUNT[kind]} parameter slots, got {len(slots)}"
        )
    if cnot_target is None:
        cnot_target = wire_b
    if cnot_target not in (wire_a, wire_b):
        raise ValueError(f"cnot_target {cnot_target} not in block wires ({wire_a}, {wire_b})")
    cnot_control = wire_a if cnot_target == wire_b else wire_b

    a, b = wire_a, wire_b
    if kind is BlockKind.SIMPLE_REAL:
        return [
            GateOp(Gate.RY, (a,), param_slot=slots[0]),
            GateOp(Gate.RY, (b,), param_slot=slots[1]),
            GateOp(Gate.CNOT, (cnot_control, cnot_target)),
        ]
    if kind is BlockKind.SIMPLE_SU2:
        return (
            _euler(a, slots[0:3])
            + _euler(b, slots[3:6])
            + [GateOp(Gate.CNOT, (cnot_control, cnot_target))]
        )
    if kind is BlockKind.GENERAL_SO4:
        return (
            [
                _fixed(Gate.RZ, a, HALF_PI),
                _fixed(Gate.RZ, b, HALF_PI),
                _fixed(Gate.RY, b, HALF_PI),
                GateOp(Gate.CNOT, (b, a)),
            ]
            + _euler(a, slots[0:3])
            + _euler(b, slots[3:6])
            + [
                GateOp(Gate.CNOT, (b, a)),
                _fixed(Gate.RY, b, -HALF_PI),
                _fixed(Gate.RZ, b, -HALF_PI),
                _fixed(Gate.RZ, a, -HALF_PI),
            ]
        )
    if kind is BlockKind.GENERAL_SU4:
        return (
            _euler(a, slots[0:3])
            + _euler(b, slots[3:6])
            + [
                GateOp(Gate.CNOT, (b, a)),
                GateOp(Gate.RZ, (a,), param_slot=slots[6]),
                GateOp(Gate.RY, (b,), param_slot=slots[7]),
                GateOp(Gate.CNOT, (a, b)),
                GateOp(Gate.RY, (b,), param_slot=slots[8]),
                GateOp(Gate.CNOT, (b, a)),
            ]
            + _euler(a, slots[9:12])
            + _euler(b, slots[12:15])
        )
    raise ValueError(f"unknown block kind: {kind}")


def op_matrix_2q(op: GateOp, wire_a: int, wire_b: int) -> np.ndarray:
    """4x4 matrix of a single op inside the two-wire basis (wire_a = high bit)."""
    if op.gate is Gate.CNOT:
        control, target = op.wires
        return CNOT_CTRL_HI if control == wire_a else CNOT_CTRL_LO
    angle = op.angle if op.angle is not None else None
    if angle is None:
        raise ValueError("op_matrix_2q needs bound angles; use block_matrix for slots")
    u = ROTATION_MATRIX[op.gate](angle)
    return np.kron(u, I2) if op.wires[0] == wire_a else np.kron(I2, u)


def block_matrix(kind: BlockKind, params, cnot_target: int | None = None) -> np.ndarray:
    """Dense 4x4 matrix of a block; the oracle counterpart of expand_block."""
    params = np.asarray(params, dtype=float)
    if params.shape != (PARAM_COUNT[kind],):
        raise ValueError(
            f"{kind.name} needs {PARAM_COUNT[kind]} parameters, got shape {params.shape}"
        )
    ops = expand_block(kind, 0, 1, range(len(params)), cnot_target=cnot_target)
    u = np.eye(4, dtype=np.complex128)
    for op in ops:
        if op.trainable:
            op = GateOp(op.gate, op.wires, angle=float(params[op.param_slot]))
        u = op_matrix_2q(op, 0, 1) @ u
    return u
