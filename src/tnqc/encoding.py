"""Feature encoding and the label helpers the loss heads share.

Classical features in [0, 1] enter the circuit as a product state of RY
rotations, one qubit per feature.  Reading a class back out of the final
state is the job of the loss heads in ``gradients``: binary codes of the
class index on per-qubit |0>-probabilities, or a softmax over the truncated
readout marginal.
"""
from __future__ import annotations

import numpy as np


def encode_dataset(features) -> np.ndarray:
    """Encode a (N, n_features) matrix into a (N, 2^n) state batch.

    Qubit j of each row is RY(pi * x_j) applied to |0>, and feature 0 lands
    on the most significant bit of the amplitude index.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {features.shape}")
    # written so that NaN, which fails every comparison, is rejected too
    if not np.all((features >= 0) & (features <= 1)):
        raise ValueError("features outside [0, 1]; check preprocessing")
    half = np.pi * features / 2
    states = np.ones((features.shape[0], 1), dtype=np.complex128)
    for j in reversed(range(features.shape[1])):
        c = np.cos(half[:, j])[:, None]
        s = np.sin(half[:, j])[:, None]
        states = np.concatenate([c * states, s * states], axis=1)
    return states


def binary_code(label: int, n_bits: int) -> np.ndarray:
    """Bits of ``label`` as floats, most significant first."""
    if not 0 <= label < (1 << n_bits):
        raise ValueError(f"label {label} does not fit in {n_bits} bits")
    return np.array([(label >> (n_bits - 1 - i)) & 1 for i in range(n_bits)], dtype=float)


def softmax(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


__all__ = ["encode_dataset", "binary_code", "softmax"]
