"""Adjoint gradients of circuit losses and energies with respect to the angles.

Every trainable gate is a Pauli-half rotation, so one reverse sweep over the
forward output states gives the derivative of ``<bra|ket>`` for all angles
at once: two statevector passes in total, independent of the parameter
count (Jones & Gacon, arXiv:2009.02823).

The loss heads are the only decoders: they turn output states into readout
values, losses, predictions and the weights of the classical chain rule.
They fold that chain rule (MSE on readout bits, or softmax + cross entropy
on the readout marginal) into a single effective diagonal observable, so a
whole loss gradient still costs two passes.
"""
from __future__ import annotations

import numpy as np

from .circuits import CircuitTemplate, run_many, run_states
from .encoding import binary_code, softmax
from .gates import Gate
from .statevector import (
    _apply_cnot_inplace,
    _apply_ry_inplace,
    _apply_rz_inplace,
    _pair_overlap_y,
    _pair_overlap_z,
    _qubit_view,
    probabilities,
)


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

def _adjoint_sweep(template: CircuitTemplate, kets, bras, params=None, param_rows=None) -> np.ndarray:
    """Reverse pass computing d<bra|ket>/d theta_k for all slots at once.

    ``kets`` must hold the forward output states and ``bras`` the observable
    already applied to them (possibly weighted); both are consumed.  Angles
    come from ``params`` (shared) or ``param_rows`` (one vector per row).
    """
    n = template.n_qubits
    grads = np.zeros((kets.shape[0], template.n_params))
    for op in reversed(template.ops):
        if op.gate is Gate.CNOT:
            _apply_cnot_inplace(kets, n, *op.wires)
            _apply_cnot_inplace(bras, n, *op.wires)
            continue
        kview = _qubit_view(kets, n, op.wires[0])
        bview = _qubit_view(bras, n, op.wires[0])
        if op.trainable:
            # d/dt exp(-i t G/2) applied to the pre-gate ket equals
            # (-i/2) G |k_after>; the 2 Re(...) of the bra-ket pairing then
            # collapses to Im <bra| G |k_after>, evaluated before undoing U.
            overlap = _pair_overlap_y if op.gate is Gate.RY else _pair_overlap_z
            grads[:, op.param_slot] = overlap(bview, kview)
            if param_rows is not None:
                angle = param_rows[:, op.param_slot, None, None]
            else:
                angle = params[op.param_slot]
        else:
            angle = op.angle
        if op.gate is Gate.RY:
            c, s = np.cos(angle / 2), np.sin(-angle / 2)
            _apply_ry_inplace(kview, c, s)
            _apply_ry_inplace(bview, c, s)
        else:
            phase = np.exp(0.5j * angle)
            _apply_rz_inplace(kview, phase)
            _apply_rz_inplace(bview, phase)
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
    params = np.asarray(params, dtype=float)
    labels = np.asarray(labels)
    kets = run_states(head.template, params, states)
    outs = head.outputs(kets)
    losses = head.losses(outs, labels)
    weights = head.output_weights(outs, labels)
    bras = kets * (weights @ head.masks)
    grads = _adjoint_sweep(head.template, kets, bras, params=params)
    return losses, grads, outs


def batch_energy_and_grad(template: CircuitTemplate, param_rows, input_state, hamiltonians):
    """Energies (B,) and gradients (B, P) for per-row parameters and Hamiltonians.

    ``hamiltonians`` is a (B, dim, dim) stack; used to advance several
    optimizations in lockstep.
    """
    param_rows = np.asarray(param_rows, dtype=float)
    kets = run_many(template, param_rows, input_state)
    bras = np.einsum("bij,bj->bi", hamiltonians, kets)
    energies = np.einsum("bi,bi->b", kets.conj(), bras).real
    grads = _adjoint_sweep(template, kets, bras, param_rows=param_rows)
    return energies, grads
