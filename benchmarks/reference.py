"""Independent reference computations for the benchmark's output checks.

Nothing here calls a tnqc kernel.  Circuits are read only through the
public ``GateOp`` list of a template (gate name, wires, parameter slot or
fixed angle) and simulated with dense matrices; the XXZ Hamiltonian is
assembled from Pauli Kronecker products and diagonalised with ``eigvalsh``;
the decoders and losses are written from their definitions.

Conventions shared with the program, because they define its outputs:
qubit 0 is the most significant bit of the amplitude index,
``RY(t) = exp(-i t Y / 2)`` and ``RZ(t) = exp(-i t Z / 2)``, and a readout
qubit's output is its |0>-probability.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

LOG_FLOOR = 1e-12


CNOT_HIGH_CONTROL = np.kron(P0, I2) + np.kron(P1, X)
CNOT_LOW_CONTROL = np.kron(I2, P0) + np.kron(X, P1)


def rotation(gate: str, angle: float) -> np.ndarray:
    """2x2 matrix of ``exp(-i angle P / 2)`` for P = Y ("ry") or Z ("rz")."""
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    if gate == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if gate == "rz":
        return np.array([[complex(c, -s), 0], [0, complex(c, s)]])
    raise ValueError(f"unknown rotation {gate!r}")


def _op_local(op, wires, params) -> np.ndarray:
    """Matrix of one GateOp in the basis of ``wires`` (first wire = high bit)."""
    if op.gate.value == "cnot":
        if len(wires) != 2:
            raise ValueError(f"CNOT needs a two-wire segment, got {wires}")
        return CNOT_HIGH_CONTROL if op.wires[0] == wires[0] else CNOT_LOW_CONTROL
    angle = params[op.param_slot] if op.param_slot is not None else op.angle
    g = rotation(op.gate.value, float(angle))
    if len(wires) == 1:
        return g
    out = np.zeros((4, 4), dtype=complex)
    if op.wires[0] == wires[0]:  # g (x) I
        out[0::2, 0::2] = g
        out[1::2, 1::2] = g
    else:  # I (x) g
        out[:2, :2] = g
        out[2:, 2:] = g
    return out


@lru_cache(maxsize=None)
def _embedding(n: int, wires: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Local index of every basis state, and where two states agree off ``wires``."""
    idx = np.arange(1 << n)
    local = np.zeros_like(idx)
    mask = 0
    for q in wires:
        bit = (idx >> (n - 1 - q)) & 1
        local = 2 * local + bit
        mask |= 1 << (n - 1 - q)
    rest = idx & ~mask
    return local, rest[:, None] == rest[None, :]


def embed(local_matrix: np.ndarray, wires, n: int) -> np.ndarray:
    """Dense 2^n x 2^n operator acting as ``local_matrix`` on ``wires``."""
    local, same_rest = _embedding(n, tuple(wires))
    return local_matrix[local[:, None], local[None, :]] * same_rest


class DenseCircuit:
    """A template's ops grouped into segments of at most two wires.

    Consecutive ops whose wires fit within two qubits share one dense
    2^n x 2^n matrix, so a circuit costs a few matrix products instead of
    one per gate.
    """

    def __init__(self, template):
        self.n = template.n_qubits
        self.readout = tuple(template.readout)
        self.segments: list[tuple[list, list]] = []
        for op in template.ops:
            if self.segments:
                wires, ops = self.segments[-1]
                union = wires + [q for q in op.wires if q not in wires]
                if len(union) <= 2:
                    wires[:] = union
                    ops.append(op)
                    continue
            self.segments.append((list(op.wires), [op]))
        self.slot_segment = {}
        for s, (_, ops) in enumerate(self.segments):
            for op in ops:
                if op.param_slot is not None:
                    self.slot_segment[op.param_slot] = s
        self.n_params = len(self.slot_segment)

    def segment_matrix(self, s: int, params) -> np.ndarray:
        wires, ops = self.segments[s]
        local = np.eye(1 << len(wires), dtype=complex)
        for op in ops:
            local = _op_local(op, wires, params) @ local
        return embed(local, wires, self.n)

    def matrices(self, params):
        """The segment matrices in circuit order, built one at a time."""
        return (self.segment_matrix(s, params) for s in range(len(self.segments)))

    def unitary(self, params) -> np.ndarray:
        u = np.eye(1 << self.n, dtype=complex)
        for g in self.matrices(params):
            u = g @ u
        return u

    def state(self, params, psi) -> np.ndarray:
        psi = np.asarray(psi, dtype=complex)
        for g in self.matrices(params):
            psi = g @ psi
        return psi


def vacuum(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def encode(features) -> np.ndarray:
    """Product states: qubit j in cos(pi x_j / 2)|0> + sin(pi x_j / 2)|1>, x_0 the high bit."""
    x = np.asarray(features, dtype=float)
    states = np.ones((x.shape[0], 1), dtype=complex)
    for j in range(x.shape[1]):
        qubit = np.stack([np.cos(np.pi * x[:, j] / 2), np.sin(np.pi * x[:, j] / 2)], axis=1)
        states = (states[:, :, None] * qubit[:, None, :]).reshape(x.shape[0], -1)
    return states


# ---------------------------------------------------------------------------
# decoders and losses

def _bits(n: int, q: int) -> np.ndarray:
    return (np.arange(1 << n) >> (n - 1 - q)) & 1


def binary_outputs(kets, readout) -> np.ndarray:
    """(N, len(readout)) |0>-probabilities of the readout wires."""
    probs = np.abs(kets) ** 2
    n = int(np.log2(kets.shape[-1]))
    return np.stack([probs[:, _bits(n, q) == 0].sum(axis=1) for q in readout], axis=1)


def class_codes(n_classes: int, n_bits: int) -> np.ndarray:
    """Row c holds the bits of c, most significant first."""
    return np.array([[(c >> (n_bits - 1 - i)) & 1 for i in range(n_bits)] for c in range(n_classes)], float)


def amplitude_outputs(kets, readout, n_classes: int) -> np.ndarray:
    """Joint readout distribution (first-listed wire high), first ``n_classes`` entries."""
    probs = np.abs(kets) ** 2
    n = int(np.log2(kets.shape[-1]))
    outcome = np.zeros(1 << n, dtype=int)
    for q in readout:
        outcome = 2 * outcome + _bits(n, q)
    return np.stack([probs[:, outcome == j].sum(axis=1) for j in range(n_classes)], axis=1)


def scores(kets, readout, decoder: str, n_classes: int) -> np.ndarray:
    """Per-class scores, higher is better: -distance^2 to the code, or the marginal."""
    if decoder == "binary":
        out = binary_outputs(kets, readout)
        codes = class_codes(n_classes, len(readout))
        return -((out[:, None, :] - codes[None]) ** 2).sum(axis=2)
    if decoder == "amplitude":
        return amplitude_outputs(kets, readout, n_classes)
    raise ValueError(f"unknown decoder {decoder!r}")


def predict(kets, readout, decoder: str, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Predicted classes (ties to the lower class) and the gap to the runner-up."""
    s = scores(kets, readout, decoder, n_classes)
    order = np.sort(s, axis=1)
    return np.argmax(s, axis=1), order[:, -1] - order[:, -2]


def loss(ket, label: int, readout, decoder: str, n_classes: int) -> float:
    """MSE on the binary code, or cross entropy of the softmaxed marginal."""
    kets = ket[None]
    if decoder == "binary":
        out = binary_outputs(kets, readout)[0]
        return float(np.mean((out - class_codes(n_classes, len(readout))[label]) ** 2))
    m = amplitude_outputs(kets, readout, n_classes)[0]
    p = np.exp(m - m.max())
    p /= p.sum()
    return float(-np.log(max(p[label], LOG_FLOOR)))


def finite_difference_grad(circuit: DenseCircuit, params, psi, label, decoder, n_classes, step=1e-4):
    """Central differences of the reference loss over every parameter.

    Only the segment that holds a parameter changes when it is shifted, so
    the state before each segment and the product of the segments after it
    are reused; segments are visited last to first to keep one such product.
    """
    params = np.asarray(params, dtype=float)
    before = [np.asarray(psi, dtype=complex)]
    for g in circuit.matrices(params):
        before.append(g @ before[-1])
    slots = {}
    for k, s in circuit.slot_segment.items():
        slots.setdefault(s, []).append(k)
    grad = np.zeros(params.size)
    tail = np.eye(1 << circuit.n, dtype=complex)
    for s in reversed(range(len(circuit.segments))):
        for k in slots.get(s, []):
            values = []
            for sign in (1.0, -1.0):
                shifted = params.copy()
                shifted[k] += sign * step
                out = tail @ (circuit.segment_matrix(s, shifted) @ before[s])
                values.append(loss(out, label, circuit.readout, decoder, n_classes))
            grad[k] = (values[0] - values[1]) / (2 * step)
        tail = tail @ circuit.segment_matrix(s, params)
    return grad


# ---------------------------------------------------------------------------
# XXZ chain

def _kron_all(factors) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


@lru_cache(maxsize=None)
def xxz_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sum of XX + YY, sum of ZZ) over the n periodic bonds, as real matrices."""
    hop = np.zeros((1 << n, 1 << n), dtype=complex)
    zz = np.zeros_like(hop)
    for i in range(n):
        j = (i + 1) % n
        for pauli, acc in ((X, hop), (Y, hop), (Z, zz)):
            acc += _kron_all(pauli if q in (i, j) else I2 for q in range(n))
    return hop.real.copy(), zz.real.copy()


def xxz_hamiltonian(delta: float, n: int = 8) -> np.ndarray:
    hop, zz = xxz_terms(n)
    return hop + delta * zz


def phase_label(delta: float) -> int:
    """0 ferromagnet (delta < -1), 1 planar paramagnet (|delta| <= 1), 2 antiferromagnet."""
    return 0 if delta < -1 else (2 if delta > 1 else 1)
