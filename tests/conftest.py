import numpy as np
import pytest

from tnqc.circuits import CircuitTemplate


def random_state(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random normalized statevector."""
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def identity_template(n_qubits: int, readout=()):
    """Gate-free template, so a head's outputs read the input state directly."""
    return CircuitTemplate(n_qubits, (), 0, tuple(readout), "identity")
