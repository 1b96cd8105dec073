"""Dense complex statevector simulation.

States are numpy ``complex128`` arrays of length ``2**n_qubits``.  Qubit 0 is
the most significant bit of the amplitude index, i.e. ``state.reshape([2] * n)``
puts qubit ``i`` on axis ``i``.  There is one gate kernel, ``Register``: it
applies a 2x2 or 4x4 matrix, shared or one per batch row, as one batched
matrix product on a ``(B, d, 2**(n-k))`` gather of the target wires.
``apply_1q`` and ``apply_2q`` are entry points onto it, and the compiled
circuits (``circuits``) and the adjoint sweep (``gradients``) drive it one
two-qubit block at a time.  The appliers take a state or a batch of states of
shape ``(B, 2**n)`` and preserve the input shape.  Readout statistics are
diagonal observables applied to ``probabilities``; see the loss heads in
``gradients``.
"""
from __future__ import annotations

import numpy as np

MAX_QUBITS = 24


def zero_state(n_qubits: int) -> np.ndarray:
    """All-qubits-|0> state: amplitude 1 at basis index 0."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def num_qubits(state: np.ndarray) -> int:
    """Qubit count of a state (or batch of states)."""
    dim = state.shape[-1]
    n = int(dim).bit_length() - 1
    if dim != 1 << n:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def _check_qubit(qubit: int, n: int) -> None:
    if not 0 <= qubit < n:
        raise IndexError(f"qubit {qubit} out of range for {n} qubits")


class Register:
    """A batch of states held as one tensor whose wire axes move as blocks apply.

    ``states`` has shape ``(*lead, 2**n)``; the lead axes (a batch, or a
    ket/bra pair of batches) stay in front and every wire gets an axis of its
    own.  Applying a matrix on some wires gathers them to the front of the wire
    axes as one ``(*lead, d, 2**(n-k))`` array, multiplies, and keeps the result
    in that order, so each block costs one copy and one batched product; the
    canonical order is restored only when the states are read back.  Nothing
    is written in place, so the caller's array is never modified.
    """

    def __init__(self, states: np.ndarray, n_qubits: int):
        states = np.asarray(states, dtype=np.complex128)
        self.lead = states.shape[:-1]
        self.order = list(range(n_qubits))  # wire held on each wire axis
        self.tensor = states.reshape(self.lead + (2,) * n_qubits)

    def gather(self, wires) -> np.ndarray:
        """The states as ``(*lead, 2**len(wires), rest)``; the first wire is the high bit."""
        lead = len(self.lead)
        order = list(wires) + [q for q in self.order if q not in wires]
        perm = list(range(lead)) + [lead + self.order.index(q) for q in order]
        self.tensor = self.tensor.transpose(perm)
        self.order = order
        return self.tensor.reshape(self.lead + (1 << len(wires), 1 << (len(order) - len(wires))))

    def put(self, block: np.ndarray) -> None:
        """Store a gathered ``(*lead, d, rest)`` array back as the register's states."""
        self.tensor = block.reshape(self.lead + (2,) * len(self.order))

    def apply(self, u: np.ndarray, wires) -> None:
        """Multiply by a ``(d, d)`` or per-row ``(R, d, d)`` matrix on ``wires``."""
        self.put(np.matmul(u, self.gather(wires)))

    def states(self) -> np.ndarray:
        """The states in canonical wire order, shape ``(*lead, 2**n)``.

        Before any matrix was applied this may be a view of the input.
        """
        lead = len(self.lead)
        axes = [lead + self.order.index(q) for q in range(len(self.order))]
        return self.tensor.transpose(list(range(lead)) + axes).reshape(self.lead + (1 << len(axes),))


def _apply(state: np.ndarray, u: np.ndarray, wires) -> np.ndarray:
    n = num_qubits(state)
    for q in wires:
        _check_qubit(q, n)
    if len(set(wires)) != len(wires):
        raise ValueError(f"duplicate qubit index in {wires}")
    register = Register(state, n)
    register.apply(np.asarray(u, dtype=np.complex128), wires)
    return register.states()


def apply_1q(state: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit, identity on the rest.

    ``u`` may be a single ``(2, 2)`` matrix or a per-row batch ``(B, 2, 2)``
    matching a batched ``state``.
    """
    return _apply(state, u, (qubit,))


def apply_2q(state: np.ndarray, u: np.ndarray, q_hi: int, q_lo: int) -> np.ndarray:
    """Apply a 4x4 matrix to two qubits; ``q_hi`` is the high bit of its basis.

    ``u`` may be a single ``(4, 4)`` matrix or a per-row batch ``(B, 4, 4)``
    matching a batched ``state``.
    """
    return _apply(state, u, (q_hi, q_lo))


def probabilities(state: np.ndarray) -> np.ndarray:
    """|amplitude|^2 for each basis index."""
    return (state.real**2 + state.imag**2)


def norm_error(state: np.ndarray) -> float:
    """|<psi|psi> - 1|, a cheap sanity check for gate-application bugs."""
    return abs(float(probabilities(state).sum()) - 1.0)
