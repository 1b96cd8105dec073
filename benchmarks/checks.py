"""Output checks: each compares what the program wrote or printed with the
independent computations in ``reference`` and raises ``CheckError`` on a
mismatch.  They take plain data (parsed JSON rows, printed text, arrays) so
that the tests in ``tests/`` can feed them corrupted outputs.
"""
from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

import reference as ref

ENERGY_TOL = 1e-8  # absolute, for energies of order 10
STATE_TOL = 1e-10
GRAD_TOL = 1e-6
PRINT_HALF_ULP = 0.5e-4  # accuracies are printed with four decimals
TIE_GAP = 1e-9  # decoder scores closer than this may order differently in another kernel


class CheckError(AssertionError):
    pass


@lru_cache(maxsize=None)
def ground_energy(delta: float, n_sites: int) -> float:
    return float(np.linalg.eigvalsh(ref.xxz_hamiltonian(delta, n_sites))[0])


def check_ground_states(records, states, count: int, n_sites: int = 8) -> None:
    """Record count, exact energy, variational bound, recomputed VQE energy and phase label.

    ``states`` holds the reference simulation of each record's stored
    checkerboard parameters applied to |0...0>.
    """
    if len(records) != count:
        raise CheckError(f"{len(records)} records, expected {count}")
    for r, psi in zip(records, states):
        delta = float(r["delta"])
        e0 = ground_energy(delta, n_sites)
        if abs(r["exact_energy"] - e0) > ENERGY_TOL:
            raise CheckError(f"delta={delta}: exact_energy {r['exact_energy']} != eigvalsh {e0}")
        if r["vqe_energy"] < e0 - ENERGY_TOL:
            raise CheckError(f"delta={delta}: vqe_energy {r['vqe_energy']} below the ground energy {e0}")
        energy = float(np.vdot(psi, ref.xxz_hamiltonian(delta, n_sites) @ psi).real)
        if abs(energy - r["vqe_energy"]) > ENERGY_TOL:
            raise CheckError(f"delta={delta}: vqe_energy {r['vqe_energy']} but <psi|H|psi> = {energy}")
        if r["label"] != ref.phase_label(delta):
            raise CheckError(f"delta={delta}: label {r['label']}, phase rule gives {ref.phase_label(delta)}")


def check_median_error(records, target: float) -> None:
    errors = [abs(r["vqe_energy"] - r["exact_energy"]) / abs(r["exact_energy"]) for r in records]
    median = float(np.median(errors))
    if not median < target:
        raise CheckError(f"median relative energy error {median:.4g} not below {target}")


def check_states(program_states, reference_states) -> None:
    """Program-prepared states are normalized and equal the reference ones."""
    norms = np.sum(np.abs(program_states) ** 2, axis=1)
    if not np.all(np.abs(norms - 1) <= STATE_TOL):
        raise CheckError(f"state norms off by up to {np.max(np.abs(norms - 1)):.3g}")
    diff = float(np.max(np.abs(program_states - reference_states)))
    if not diff <= STATE_TOL:
        raise CheckError(f"states differ from the reference by {diff:.3g}")


def check_accuracy(printed: float, labels, preds, gaps, floor: float) -> None:
    """Printed accuracy equals the reference decoder's and clears ``floor``."""
    labels = np.asarray(labels)
    accuracy = float(np.mean(np.asarray(preds) == labels))
    ties = int(np.sum(np.asarray(gaps) < TIE_GAP))
    if abs(printed - accuracy) > PRINT_HALF_ULP + ties / len(labels):
        raise CheckError(f"printed accuracy {printed} but the reference decoder gives {accuracy:.6f}")
    if not printed >= floor:
        raise CheckError(f"accuracy {printed} below the required {floor:.4f}")


def check_confusion(matrix, labels, preds, gaps, n_classes: int) -> None:
    """Rows sum to the class counts; entries match the reference predictions."""
    matrix = np.asarray(matrix)
    counts = np.bincount(labels, minlength=n_classes)
    if matrix.shape != (n_classes, n_classes) or not np.array_equal(matrix.sum(axis=1), counts):
        raise CheckError(f"confusion rows sum to {matrix.sum(axis=1).tolist()}, class counts are {counts.tolist()}")
    expected = np.zeros((n_classes, n_classes), dtype=int)
    np.add.at(expected, (np.asarray(labels), np.asarray(preds)), 1)
    ties = int(np.sum(np.asarray(gaps) < TIE_GAP))
    if np.abs(matrix - expected).sum() > 2 * ties:
        raise CheckError(f"confusion matrix {matrix.tolist()} != reference {expected.tolist()}")


def check_gradient(program_grad, fd_grad) -> None:
    diff = float(np.max(np.abs(np.asarray(program_grad) - fd_grad)))
    if not diff <= GRAD_TOL:
        raise CheckError(f"batch_loss_grad differs from finite differences by {diff:.3g}")


def check_pca(components, top_variance: float, covariance) -> None:
    """Orthonormal rows that capture the top-k variance of the reference covariance."""
    c = np.asarray(components, dtype=float)
    gram_err = float(np.max(np.abs(c @ c.T - np.eye(c.shape[0]))))
    if gram_err > 1e-10:
        raise CheckError(f"PCA components are not orthonormal (max |CC^T - I| = {gram_err:.3g})")
    captured = float(np.trace(c @ covariance @ c.T))
    if abs(captured - top_variance) > 1e-8 * top_variance:
        raise CheckError(f"components capture variance {captured}, the top-k eigenvalues sum to {top_variance}")


def check_features(features, labels, expected_labels) -> None:
    f = np.asarray(features, dtype=float)
    if not np.all(np.isfinite(f)):
        raise CheckError("non-finite features")
    if f.min() < 0 or f.max() > 1:
        raise CheckError(f"features outside [0, 1]: [{f.min()}, {f.max()}]")
    if not np.array_equal(np.asarray(labels), np.asarray(expected_labels)):
        raise CheckError("feature-file labels differ from the generated labels of the kept classes")


# ---------------------------------------------------------------------------
# parsing of the CLI's printed output

def parse_eval(text: str) -> tuple[float, int, np.ndarray]:
    """(accuracy, example count, confusion matrix) from ``tnqc eval`` output."""
    m = re.search(r"^accuracy: ([0-9.]+) over (\d+) examples$", text, re.M)
    if not m:
        raise CheckError(f"no accuracy line in eval output: {text!r}")
    rows = [line.split() for line in text.splitlines()[2:] if line.strip()]
    try:
        matrix = np.array([[int(v) for v in row] for row in rows])
    except ValueError:
        raise CheckError(f"unreadable confusion matrix in eval output: {text!r}") from None
    return float(m.group(1)), int(m.group(2)), matrix


def parse_train(text: str) -> dict[int, float]:
    """Seed -> printed test accuracy from ``tnqc train`` output."""
    found = re.findall(r"^seed (\d+): test accuracy ([0-9.]+)", text, re.M)
    if not found:
        raise CheckError(f"no per-seed accuracy in train output: {text!r}")
    return {int(s): float(a) for s, a in found}
