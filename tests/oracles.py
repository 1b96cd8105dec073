"""Oracles: a dense unitary, the parameter-shift rule, finite differences and an SVD PCA.

``dense_unitary`` multiplies out a template's gate list with explicit kron products and
uses no simulator kernel.  The gradient oracles run the circuit once per shifted
parameter vector with ``run_many``.  The shift rule is exact for Pauli-half rotations;
central differences carry an O(step^2) error.
"""
import numpy as np

from tnqc.circuits import run_many, run_states
from tnqc.gates import Gate, ry, rz
from tnqc.statevector import probabilities


def dense_unitary(template, params) -> np.ndarray:
    """The template's full 2^n x 2^n matrix, accumulated op by op from kron chains."""
    full = np.eye(template.dim, dtype=complex)
    for op in template.ops:
        full = _embed(op, params, template.n_qubits) @ full
    return full


def _embed(op, params, n):
    if op.gate is Gate.CNOT:
        control, target = op.wires
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        return _chain({control: p0}, n) + _chain({control: p1, target: x}, n)
    angle = params[op.param_slot] if op.trainable else op.angle
    mat = ry(angle) if op.gate is Gate.RY else rz(angle)
    return _chain({op.wires[0]: mat}, n)


def _chain(placements, n):
    out = np.array([[1.0 + 0j]])
    for q in range(n):
        out = np.kron(out, placements.get(q, np.eye(2, dtype=complex)))
    return out


def shifted_rows(params, delta):
    """Rows [k + delta e_0, k - delta e_0, k + delta e_1, ...]."""
    p = params.size
    rows = np.repeat(params[None, :], 2 * p, axis=0)
    k = np.arange(p)
    rows[2 * k, k] += delta
    rows[2 * k + 1, k] -= delta
    return rows


def _differences(template, params, input_state, obs, delta):
    """<M>(k + delta e_j) - <M>(k - delta e_j) per j; M diagonal (1-D) or dense (2-D)."""
    kets = run_many(template, shifted_rows(np.asarray(params, dtype=float), delta), input_state)
    obs = np.asarray(obs)
    if obs.ndim == 1:
        f = probabilities(kets) @ obs
    else:
        f = np.einsum("bi,bi->b", kets.conj(), kets @ obs.T).real
    return f[0::2] - f[1::2]


def grad_param_shift(template, params, input_state, obs):
    return _differences(template, params, input_state, obs, np.pi / 2) / 2


def grad_finite_diff(template, params, input_state, obs, step=1e-4):
    if step <= 0:
        raise ValueError("step must be positive")
    return _differences(template, params, input_state, obs, step) / (2 * step)


def loss_and_grad_shift(head, params, state, label):
    """One example's loss and gradient: shift rule on the outputs, then the chain rule."""
    params = np.asarray(params, dtype=float)
    kets = run_many(head.template, shifted_rows(params, np.pi / 2), state)
    shifted_outs = probabilities(kets) @ head.masks.T  # (2P, n_obs)
    grad_outs = (shifted_outs[0::2] - shifted_outs[1::2]) / 2  # (P, n_obs)
    out = head.outputs(run_states(head.template, params, state[None, :]))
    labels = np.asarray([label])
    return float(head.losses(out, labels)[0]), grad_outs @ head.output_weights(out, labels)[0]


def loss_and_grad_fd(head, params, state, label, step=1e-4):
    """One example's loss and gradient by central differences of the whole loss."""
    params = np.asarray(params, dtype=float)
    kets = run_many(head.template, shifted_rows(params, step), state)
    f = head.losses(head.outputs(kets), np.full(kets.shape[0], label))
    out = head.outputs(run_states(head.template, params, state[None, :]))
    return float(head.losses(out, np.asarray([label]))[0]), (f[0::2] - f[1::2]) / (2 * step)


def pca_svd(matrix, k):
    """Top-k PCA components and explained variances from the SVD of the centered data.

    Components carry the library's sign convention: the largest-magnitude
    entry of each is positive.
    """
    x = np.asarray(matrix, dtype=float)
    _, singular, vt = np.linalg.svd(x - x.mean(axis=0), full_matrices=False)
    components = vt[:k].copy()
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return components, singular[:k] ** 2 / max(x.shape[0] - 1, 1)
