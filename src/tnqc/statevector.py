"""Dense complex statevector simulation.

States are numpy ``complex128`` arrays of length ``2**n_qubits``.  Qubit 0 is
the most significant bit of the amplitude index, i.e. ``state.reshape([2] * n)``
puts qubit ``i`` on axis ``i``.  The gate appliers also take a batch of states
of shape ``(B, 2**n)`` and preserve the input shape.  Readout statistics
are diagonal observables applied to ``probabilities``; see the loss heads in
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


def apply_1q(state: np.ndarray, u: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit, identity on the rest.

    ``u`` may be a single ``(2, 2)`` matrix or a per-row batch ``(B, 2, 2)``
    matching a batched ``state``.
    """
    n = num_qubits(state)
    _check_qubit(qubit, n)
    out = np.array(state, dtype=np.complex128, copy=True)
    view = out.reshape(-1, 1 << qubit, 2, (1 << n) >> (qubit + 1))
    _apply_1q_inplace(view, u)
    return out


def _apply_1q_inplace(view, u):
    """Mutate a (B, lead, 2, rest) view with a (2,2) or (B,2,2) matrix."""
    u = np.asarray(u)
    if u.ndim == 3:
        u00 = u[:, 0, 0, None, None]
        u01 = u[:, 0, 1, None, None]
        u10 = u[:, 1, 0, None, None]
        u11 = u[:, 1, 1, None, None]
    else:
        u00, u01, u10, u11 = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    s0 = view[:, :, 0, :].copy()
    s1 = view[:, :, 1, :]
    view[:, :, 0, :] = u00 * s0 + u01 * s1
    view[:, :, 1, :] = u11 * s1 + u10 * s0


def _qubit_view(flat, n, qubit):
    """Reshape (B, 2^n) (or (2^n,)) to (B, lead, 2, rest) with the qubit isolated."""
    return flat.reshape(-1, 1 << qubit, 2, (1 << n) >> (qubit + 1))


def _apply_ry_inplace(view, c, s):
    """RY with cos/sin halves ``c``, ``s`` (scalars or (B, 1, 1) arrays)."""
    v0 = view[:, :, 0, :]
    v1 = view[:, :, 1, :]
    orig0 = v0.copy()
    v0 *= c
    v0 -= s * v1
    v1 *= c
    v1 += s * orig0


def _apply_rz_inplace(view, phase):
    """RZ with ``phase = exp(-i theta / 2)`` (scalar or (B, 1, 1) array)."""
    view[:, :, 0, :] *= phase
    view[:, :, 1, :] *= np.conj(phase)


def _pair_overlap_y(bra_view, ket_view):
    """Im <bra| Y_q |ket> per batch row, from the qubit-isolated views."""
    b0, b1 = bra_view[:, :, 0, :], bra_view[:, :, 1, :]
    k0, k1 = ket_view[:, :, 0, :], ket_view[:, :, 1, :]
    z = np.einsum("bqr,bqr->b", b1.conj(), k0) - np.einsum("bqr,bqr->b", b0.conj(), k1)
    return z.real


def _pair_overlap_z(bra_view, ket_view):
    """Im <bra| Z_q |ket> per batch row, from the qubit-isolated views."""
    b0, b1 = bra_view[:, :, 0, :], bra_view[:, :, 1, :]
    k0, k1 = ket_view[:, :, 0, :], ket_view[:, :, 1, :]
    z = np.einsum("bqr,bqr->b", b0.conj(), k0) - np.einsum("bqr,bqr->b", b1.conj(), k1)
    return z.imag


def _two_qubit_view(flat, n, qa, qb):
    """Reshape (B, 2^n) so qubits qa < qb sit on their own axes."""
    return flat.reshape(
        -1,
        1 << qa,
        2,
        (1 << qb) >> (qa + 1),
        2,
        (1 << n) >> (qb + 1),
    )


def apply_2q(state: np.ndarray, u: np.ndarray, q_hi: int, q_lo: int) -> np.ndarray:
    """Apply a 4x4 matrix to two qubits; ``q_hi`` is the high bit of its basis."""
    n = num_qubits(state)
    _check_qubit(q_hi, n)
    _check_qubit(q_lo, n)
    if q_hi == q_lo:
        raise ValueError(f"duplicate qubit index {q_hi}")
    out = np.array(state, dtype=np.complex128, copy=True)
    qa, qb = sorted((q_hi, q_lo))
    view = _two_qubit_view(out, n, qa, qb)

    def block(b_hi, b_lo):
        # axis positions follow ascending qubit order, not (q_hi, q_lo) order
        ba, bb = (b_hi, b_lo) if q_hi == qa else (b_lo, b_hi)
        return view[:, :, ba, :, bb, :]

    s = [block(j >> 1, j & 1).copy() for j in range(4)]
    for i in range(4):
        block(i >> 1, i & 1)[:] = u[i, 0] * s[0] + u[i, 1] * s[1] + u[i, 2] * s[2] + u[i, 3] * s[3]
    return out


def _apply_cnot_inplace(flat, n, control, target):
    """Swap target-bit slices where the control bit is 1."""
    qa, qb = sorted((control, target))
    view = _two_qubit_view(flat, n, qa, qb)
    if control == qa:
        a = view[:, :, 1, :, 0, :].copy()
        view[:, :, 1, :, 0, :] = view[:, :, 1, :, 1, :]
        view[:, :, 1, :, 1, :] = a
    else:
        a = view[:, :, 0, :, 1, :].copy()
        view[:, :, 0, :, 1, :] = view[:, :, 1, :, 1, :]
        view[:, :, 1, :, 1, :] = a


def probabilities(state: np.ndarray) -> np.ndarray:
    """|amplitude|^2 for each basis index."""
    return (state.real**2 + state.imag**2)


def norm_error(state: np.ndarray) -> float:
    """|<psi|psi> - 1|, a cheap sanity check for gate-application bugs."""
    return abs(float(probabilities(state).sum()) - 1.0)
