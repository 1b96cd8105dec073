"""Parametric rotations and the two-qubit node blocks used by the circuits.

Every node is written out as a gate list of RY/RZ rotations plus CNOTs
(``expand_block``); that list is the circuit program templates store and
the oracles read.  For simulation, ``compile_blocks`` fuses it back into
blocks of at most two wires.  Its unit is a whole node (or one readout
rotation), so a node is never split between blocks: every node of one kind
compiles to the same block shape, and the checkerboard ansatz is one group.
The 4x4 matrices of all blocks of one shape are built for a whole stack of
parameter rows in one vectorised step (``BlockGroup.matrices``), with their
derivative matrices only when a gradient is asked for.  ``block_matrix`` multiplies one node out gate by gate
and is kept as the oracle for that step.  Rotation convention:
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


def _embed(m: np.ndarray, local: int, width: int) -> np.ndarray:
    """A one-wire matrix inside a block of ``width`` wires (local wire 0 = high bit)."""
    if width == 1:
        return m
    return np.kron(m, I2) if local == 0 else np.kron(I2, m)


def op_matrix_2q(op: GateOp, wire_a: int, wire_b: int) -> np.ndarray:
    """4x4 matrix of a single op inside the two-wire basis (wire_a = high bit)."""
    if op.gate is Gate.CNOT:
        control, target = op.wires
        return CNOT_CTRL_HI if control == wire_a else CNOT_CTRL_LO
    angle = op.angle if op.angle is not None else None
    if angle is None:
        raise ValueError("op_matrix_2q needs bound angles; use block_matrix for slots")
    u = ROTATION_MATRIX[op.gate](angle)
    return _embed(u, 0 if op.wires[0] == wire_a else 1, 2)


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


# ---------------------------------------------------------------------------
# block compilation

# -i times each rotation's Pauli generator P, so that
# exp(-i t P / 2) = cos(t/2) I + sin(t/2) Q and d/dt of it is (Q/2) times it.
_MINUS_I_PAULI = {
    Gate.RY: np.array([[0, -1], [1, 0]], dtype=np.complex128),
    Gate.RZ: np.array([[-1j, 0], [0, 1j]], dtype=np.complex128),
}


@dataclass(frozen=True)
class Block:
    """One fused run of ops: the wires it acts on and where its matrix is built."""

    wires: tuple[int, ...]  # the first wire is the high bit of the block's basis
    group: int  # index into BlockProgram.groups
    index: int  # row of this block in its group's matrix stack


class BlockGroup:
    """The blocks that share one op sequence, relative to their wires.

    A block's matrix is ``U = F_w G_{w-1} F_{w-1} ... G_0 F_0``: trainable
    rotations ``G_k = cos(t_k/2) I + sin(t_k/2) Q_k`` with the fixed ops between them
    (CNOTs, fixed-angle rotations) pre-multiplied into one constant ``F_k``
    per stretch.  Every ``Q_k`` is an embedded ``-i Y`` or ``-i Z``, which
    has one nonzero per column, so multiplying by it is a column gather.  The
    matrices of all blocks in the group are built together, for a stack of
    parameter rows, by one right-to-left sweep of ``U``'s factors.
    """

    def __init__(self, local_ops: tuple[GateOp, ...], width: int, slots):
        self.dim = 1 << width
        self.slots = np.array(slots, dtype=int)  # (blocks, trainable ops): angle slots
        gens, fixed = [], [None]  # fixed[k]: product of the fixed ops before trainable op k
        for op in local_ops:
            if op.trainable:
                gens.append(_embed(_MINUS_I_PAULI[op.gate], op.wires[0], width))
                fixed.append(None)
                continue
            m = op_matrix_2q(op, 0, 1) if width == 2 else ROTATION_MATRIX[op.gate](op.angle)
            fixed[-1] = m if fixed[-1] is None else m @ fixed[-1]
        self.fixed = fixed
        # X @ Q_k == X[..., q_rows[k]] * q_vals[k]; an RZ's Q_k is diagonal
        self.q_rows = np.array([np.abs(q).argmax(axis=0) for q in gens], dtype=int).reshape(-1, self.dim)
        self.q_vals = np.array(
            [q[rows, np.arange(self.dim)] for q, rows in zip(gens, self.q_rows)], dtype=np.complex128
        ).reshape(-1, self.dim)
        self.diagonal = [bool(np.all(rows == np.arange(self.dim))) for rows in self.q_rows]

    def matrices(self, param_rows: np.ndarray, derivatives: bool = False):
        """Block matrices for parameter rows ``(R, n_params)``: ``(R, blocks, d, d)``.

        With ``derivatives`` returns the pair of those and the
        ``(R, blocks, w, d, d)`` matrices ``E_k = S_k (Q_k / 2) S_k^dagger``,
        where ``S_k`` is the product of the block's ops after trainable op
        ``k``.  For states ``|ket>`` and ``|bra>`` taken just after the block,
        the derivative of ``2 Re <bra|ket>`` by angle ``k`` is
        ``2 Re sum_ij M_ij (E_k)_ij`` with ``M_ij = sum_rest conj(bra_i) ket_j``.
        """
        half = param_rows[:, self.slots] / 2  # (R, blocks, w)
        cos, sin = np.cos(half)[..., None], np.sin(half)[..., None]
        off = sin * self.q_vals  # (R, blocks, w, d): X @ G_k = X c_k + X[..., q_rows[k]] off_k
        diag = cos + off  # X @ G_k = X diag_k when Q_k is diagonal
        shape = half.shape[:2] + (self.dim, self.dim)
        last = np.eye(self.dim) if self.fixed[-1] is None else self.fixed[-1]
        x = np.array(np.broadcast_to(last, shape), dtype=np.complex128)  # S_w = F_w
        suffixes, suffixes_q = [], []
        for k in reversed(range(len(self.diagonal))):
            if derivatives:
                suffixes.append(x)
                suffixes_q.append(x[..., self.q_rows[k]] * self.q_vals[k])  # S_k Q_k
            if self.diagonal[k]:
                x = x * diag[:, :, None, k]
            else:
                x = x * cos[:, :, None, k] + x[..., self.q_rows[k]] * off[:, :, None, k]
            if self.fixed[k] is not None:  # one product for the whole stack
                x = (x.reshape(-1, self.dim) @ self.fixed[k]).reshape(shape)
        if not derivatives:
            return x
        if not suffixes:
            return x, np.zeros(shape[:2] + (0,) + shape[2:], dtype=np.complex128)
        s = np.stack(suffixes[::-1], axis=2)
        return x, (np.stack(suffixes_q[::-1], axis=2) / 2) @ s.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class BlockProgram:
    """A gate program fused into blocks of at most two wires, in program order."""

    blocks: tuple[Block, ...]
    groups: tuple[BlockGroup, ...]

    def matrices(self, param_rows: np.ndarray, derivatives: bool = False) -> list:
        """``BlockGroup.matrices`` of every group, in group order."""
        return [group.matrices(param_rows, derivatives) for group in self.groups]


def compile_blocks(ops, units=None) -> BlockProgram:
    """Fuse consecutive fusion units into blocks while they touch at most two wires.

    ``units`` gives the number of ops in each unit, in program order: a
    circuit builder makes each node and each readout rotation one unit, so
    a node is never split between blocks and every node of one kind keeps
    one block shape.  Without it every op is a unit of its own.  Blocks
    whose ops are the same relative to their wires share a group; a block's
    first-touched wire is the high bit of its basis.
    """
    ops = list(ops)
    sizes = [1] * len(ops) if units is None else list(units)
    if sum(sizes) != len(ops) or any(size < 1 for size in sizes):
        raise ValueError(f"units {sizes} do not partition {len(ops)} ops")
    runs: list[tuple[list[int], list[GateOp]]] = []
    start = 0
    for size in sizes:
        unit = ops[start : start + size]
        start += size
        wires = list(dict.fromkeys(q for op in unit for q in op.wires))
        if len(wires) > 2:
            raise ValueError(f"a fusion unit touches {len(wires)} wires: {wires}")
        if runs and len(set(runs[-1][0]).union(wires)) <= 2:
            runs[-1][0].extend(q for q in wires if q not in runs[-1][0])
            runs[-1][1].extend(unit)
        else:
            runs.append((wires, unit))
    keys: dict[tuple, list] = {}  # (width, local ops) -> slot rows of its blocks
    placed = []
    for wires, run_ops in runs:
        local = tuple(
            GateOp(
                op.gate,
                tuple(wires.index(q) for q in op.wires),
                param_slot=0 if op.trainable else None,
                angle=op.angle,
            )
            for op in run_ops
        )
        rows = keys.setdefault((len(wires), local), [])
        placed.append((tuple(wires), list(keys).index((len(wires), local)), len(rows)))
        rows.append([op.param_slot for op in run_ops if op.trainable])
    groups = tuple(BlockGroup(local, width, rows) for (width, local), rows in keys.items())
    return BlockProgram(tuple(Block(*p) for p in placed), groups)
