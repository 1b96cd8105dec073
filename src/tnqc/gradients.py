"""Adjoint gradients of circuit losses and energies with respect to the angles.

Two passes over the states, independent of the parameter count (Jones &
Gacon, arXiv:2009.02823), taken block by block rather than gate by gate: the
forward pass applies the compiled two-qubit blocks; the reverse pass walks
them last to first, records for each block and example the reduced 4x4
bra-ket matrix ``M`` of its two wires and then undoes the block on both
states.  Every trainable gate is a Pauli-half rotation, so each angle's
derivative is ``2 Re sum(M * E_k)`` with the block's derivative matrix
``E_k`` (``gates.BlockGroup.matrices``), contracted for all blocks of one
shape in one ``einsum`` at the end.

The loss heads are the only decoders: they turn output states into readout
values, losses, predictions and the weights of the classical chain rule.
They fold that chain rule (MSE on readout bits, or softmax + cross entropy
on the readout marginal) into a single effective diagonal observable, so a
whole loss gradient still costs two passes.
"""
from __future__ import annotations

import numpy as np

from .circuits import CircuitTemplate, _run_blocks
from .encoding import binary_code, softmax
from .statevector import Register, probabilities


# ---------------------------------------------------------------------------
# observables

def diag_z_half(n_qubits: int, qubit: int) -> np.ndarray:
    """Diagonal of (I + sigma_z)/2 on one qubit: 1 where its bit is 0."""
    idx = np.arange(1 << n_qubits)
    bit = (idx >> (n_qubits - 1 - qubit)) & 1
    return (1 - bit).astype(float)


def diag_readout_projector(n_qubits: int, readout, outcome: int) -> np.ndarray:
    """Diagonal of the projector onto one joint outcome of the readout wires."""
    readout = list(readout)
    idx = np.arange(1 << n_qubits)
    value = np.zeros_like(idx)
    for q in readout:
        value = (value << 1) | ((idx >> (n_qubits - 1 - q)) & 1)
    return (value == outcome).astype(float)


# ---------------------------------------------------------------------------
# adjoint sweep

def _adjoint_sweep(template: CircuitTemplate, built, kets, bras) -> np.ndarray:
    """Reverse pass computing d<bra|ket>/d theta_k for all slots at once.

    ``built`` is ``template.program.matrices(param_rows, derivatives=True)``
    for the parameter rows of the forward pass: ``(1, n_params)`` (shared)
    or one row per state.  ``kets`` must hold the forward output states and
    ``bras`` the observable already applied to them (possibly weighted).
    Each block, last first, records the reduced bra-ket matrix ``M`` of its
    wires and then undoes itself on both states; the gradient of each
    block's angles is one contraction of ``M`` with the block's derivative
    matrices at the end.
    """
    program = template.program
    n_rows = kets.shape[0]
    brakets = [
        np.empty((n_rows,) + group.slots.shape[:1] + (group.dim, group.dim), dtype=np.complex128)
        for group in program.groups
    ]
    register = Register(np.stack([kets, bras]), template.n_qubits)
    for block in reversed(program.blocks):
        pair = register.gather(block.wires)  # (2, B, d, rest): kets, bras
        brakets[block.group][:, block.index] = pair[1].conj() @ pair[0].swapaxes(-1, -2)
        if block is not program.blocks[0]:  # nothing precedes the first block
            u = built[block.group][0][:, block.index]
            register.put(u.conj().swapaxes(-1, -2) @ pair)
    grads = np.zeros((n_rows, template.n_params))
    for group, (_, derivs), m in zip(program.groups, built, brakets):
        grads[:, group.slots] = 2 * np.einsum("...nij,...npij->...np", m, derivs).real
    return grads


# ---------------------------------------------------------------------------
# loss heads

class QubitBinaryHead:
    """MSE on per-qubit |0>-probabilities read as a binary class code.

    Output ``i`` is the |0>-probability of readout wire ``i``, the first wire
    being the most significant bit, so a readout register resting in |00>
    predicts class 3.  ``predict`` picks the nearest class code in Euclidean
    distance; ties go to the lower class.
    """

    loss_name = "mse_binary"

    def __init__(self, template: CircuitTemplate, n_classes: int):
        if not template.readout:
            raise ValueError("template has no readout wires")
        self.template = template
        self.n_classes = n_classes
        self.n_bits = len(template.readout)
        self.masks = np.stack(
            [diag_z_half(template.n_qubits, q) for q in template.readout]
        )
        self.codes = np.stack([binary_code(c, self.n_bits) for c in range(n_classes)])

    def outputs(self, kets: np.ndarray) -> np.ndarray:
        return probabilities(kets) @ self.masks.T

    def losses(self, outputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return ((outputs - self.codes[labels]) ** 2).mean(axis=1)

    def output_weights(self, outputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return 2.0 * (outputs - self.codes[labels]) / self.n_bits

    def predict(self, outputs: np.ndarray) -> np.ndarray:
        d2 = ((outputs[:, None, :] - self.codes[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)


class AmplitudeSoftmaxHead:
    """Cross entropy on the softmaxed, truncated readout marginal.

    Output ``j`` is the probability of the joint readout outcome whose
    first-listed wire is the most significant bit of ``j``; the first
    ``n_classes`` entries, softmaxed, are the class distribution.
    """

    loss_name = "ce_amplitude"

    def __init__(self, template: CircuitTemplate, n_classes: int):
        if not template.readout:
            raise ValueError("template has no readout wires")
        n_outcomes = 1 << len(template.readout)
        if n_classes > n_outcomes:
            raise ValueError(f"{n_classes} classes exceed {n_outcomes} readout outcomes")
        self.template = template
        self.n_classes = n_classes
        self.masks = np.stack(
            [
                diag_readout_projector(template.n_qubits, template.readout, j)
                for j in range(n_outcomes)
            ]
        )

    def outputs(self, kets: np.ndarray) -> np.ndarray:
        return probabilities(kets) @ self.masks.T

    def class_probs(self, outputs: np.ndarray) -> np.ndarray:
        return softmax(outputs[:, : self.n_classes])

    def losses(self, outputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        p = self.class_probs(outputs)
        picked = np.maximum(p[np.arange(len(labels)), labels], 1e-12)
        return -np.log(picked)

    def output_weights(self, outputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
        # d(-log softmax(m)_y)/dm = p - onehot on the kept entries, 0 beyond
        w = np.zeros_like(outputs)
        p = self.class_probs(outputs)
        p[np.arange(len(labels)), labels] -= 1.0
        w[:, : self.n_classes] = p
        return w

    def predict(self, outputs: np.ndarray) -> np.ndarray:
        return np.argmax(outputs[:, : self.n_classes], axis=1)


def make_head(loss: str, template: CircuitTemplate, n_classes: int):
    if loss == "mse_binary":
        return QubitBinaryHead(template, n_classes)
    if loss == "ce_amplitude":
        return AmplitudeSoftmaxHead(template, n_classes)
    raise ValueError(f"unknown loss {loss!r}; expected mse_binary or ce_amplitude")


def batch_loss_grad(head, params, states, labels):
    """Adjoint route over a batch: losses (B,), gradients (B, P), outputs (B, m)."""
    template = head.template
    params = np.asarray(params, dtype=float)
    labels = np.asarray(labels)
    built = template.program.matrices(params[None], derivatives=True)
    kets = _run_blocks(template, [u for u, _ in built], np.asarray(states).reshape(-1, template.dim))
    outs = head.outputs(kets)
    losses = head.losses(outs, labels)
    weights = head.output_weights(outs, labels)
    bras = kets * (weights @ head.masks)
    grads = _adjoint_sweep(template, built, kets, bras)
    return losses, grads, outs


def batch_energy_and_grad(template: CircuitTemplate, param_rows, input_state, hamiltonians):
    """Energies (B,) and gradients (B, P) for per-row parameters and Hamiltonians.

    ``hamiltonians`` is a (B, dim, dim) stack; used to advance several
    optimizations in lockstep.
    """
    param_rows = np.asarray(param_rows, dtype=float)
    hamiltonians = np.asarray(hamiltonians)
    built = template.program.matrices(param_rows, derivatives=True)
    psi = np.broadcast_to(input_state, (param_rows.shape[0], template.dim))
    kets = _run_blocks(template, [u for u, _ in built], psi)
    if np.isrealobj(hamiltonians):
        # a real H takes the real and imaginary parts as two columns of one real product
        parts = np.ascontiguousarray(kets).view(np.float64).reshape(kets.shape + (2,))
        bras = (hamiltonians @ parts).view(np.complex128)[..., 0]
    else:
        bras = np.einsum("bij,bj->bi", hamiltonians, kets)
    energies = np.einsum("bi,bi->b", kets.conj(), bras).real
    grads = _adjoint_sweep(template, built, kets, bras)
    return energies, grads
