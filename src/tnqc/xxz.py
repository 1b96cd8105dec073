"""The spin-1/2 XXZ chain: Hamiltonian, exact diagonalization, VQE dataset.

The chain has equal XX/YY couplings, a tunable ZZ anisotropy ``delta``, and
periodic boundaries.  Three phases over delta in [-2, 2]:

* delta < -1   z-axis ferromagnet        (label 0)
* |delta| <= 1 gapless planar paramagnet (label 1)
* delta > 1    z-axis antiferromagnet    (label 2)

Ground states are prepared variationally with the checkerboard ansatz by
minimizing the squared distance between the circuit energy and a target set
slightly below the exact ground energy.  Sweeping delta in ascending order
and warm-starting each point from the previous optimum (with a small angle
perturbation, since the previous state may be an exact eigenstate whose
energy gradient vanishes) keeps the iteration count low near the phase
boundaries.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .circuits import build_checkerboard, run_many
from .fileio import read_jsonl, write_jsonl
from .gradients import batch_energy_and_grad
from .statevector import zero_state
from .training import AdamState, DivergenceError, LabeledStates, adam_step

MAX_DENSE_SITES = 12
DATASET_FORMAT = "xxz-ground-states"
DATASET_VERSION = 1

PHASE_NAMES = ("ferromagnet", "paramagnet", "antiferromagnet")


def build_hamiltonian(delta: float, n_sites: int = 8, coupling: float = 1.0) -> np.ndarray:
    """Dense real-symmetric XXZ matrix with periodic boundaries.

    Spin up (sigma_z = +1) is bit 0.  Each of the ``n_sites`` bonds adds
    ``coupling * delta * s_i s_j`` on the diagonal and ``2 * coupling``
    between configurations that differ by swapping one antiparallel pair;
    for two sites the single physical bond therefore counts twice.
    """
    if not 2 <= n_sites <= MAX_DENSE_SITES:
        raise ValueError(f"n_sites must be in [2, {MAX_DENSE_SITES}] for dense storage")
    dim = 1 << n_sites
    idx = np.arange(dim)
    shifts = n_sites - 1 - np.arange(n_sites)
    bits = (idx[:, None] >> shifts[None, :]) & 1  # (dim, n_sites)
    s = 1 - 2 * bits
    h = np.zeros((dim, dim))
    for site in range(n_sites):
        nxt = (site + 1) % n_sites
        h[idx, idx] += coupling * delta * s[:, site] * s[:, nxt]
        anti = bits[:, site] != bits[:, nxt]
        flipped = idx[anti] ^ (1 << shifts[site]) ^ (1 << shifts[nxt])
        h[idx[anti], flipped] += 2.0 * coupling
    return h


def exact_ground_energy(hamiltonian: np.ndarray) -> float:
    """Smallest eigenvalue of a real-symmetric Hamiltonian."""
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Hamiltonian must be a square matrix")
    if not np.allclose(h, h.T, atol=1e-12):
        raise ValueError("Hamiltonian must be symmetric")
    return float(np.linalg.eigvalsh(h)[0])


def energy_expectation(state: np.ndarray, hamiltonian: np.ndarray) -> float:
    """<psi|H|psi>; the imaginary part must vanish for Hermitian H."""
    if state.shape[-1] != hamiltonian.shape[0]:
        raise ValueError("state and Hamiltonian dimensions disagree")
    value = np.vdot(state, hamiltonian @ state)
    if abs(value.imag) > 1e-10:
        raise ValueError(f"energy has non-negligible imaginary part {value.imag}")
    return float(value.real)


def phase_label(delta: float) -> int:
    """0 ferromagnet (delta < -1), 1 paramagnet (|delta| <= 1), 2 antiferromagnet."""
    if not np.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if delta < -1:
        return 0
    if delta > 1:
        return 2
    return 1


def target_energy(exact: float) -> float:
    """Optimization target: 10% below the exact ground energy, floored at 1."""
    return exact - 0.1 * max(abs(exact), 1.0)


@dataclass
class VqeConfig:
    iterations: int = 500
    warm_iterations: int = 350
    learning_rate: float = 0.04
    warm_start_noise: float = 0.02
    restarts: int = 1  # cold starts only; best energy wins
    chains: int = 16  # independent warm-start sweeps advanced in lockstep


def _minimize_batch(template, hamiltonians, e_targets, theta0, iterations, learning_rate, deltas):
    """Adam descent of (E - E_target)^2 for several rows at once.

    Returns the best-seen parameters and energies per row (energy wins, the
    squared loss is monotone in it above the target).
    """
    vacuum = zero_state(template.n_qubits)
    theta = np.array(theta0, dtype=float)
    adam = AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta))
    best_theta = theta.copy()
    best_energy = np.full(theta.shape[0], np.inf)
    for _ in range(iterations):
        energies, grads = batch_energy_and_grad(template, theta, vacuum, hamiltonians)
        if not np.all(np.isfinite(energies)):
            bad = deltas[~np.isfinite(energies)]
            raise DivergenceError(f"VQE energy diverged at delta={bad.tolist()}")
        improved = energies < best_energy
        best_energy[improved] = energies[improved]
        best_theta[improved] = theta[improved]
        scale = 2.0 * (energies - e_targets)
        theta = adam_step(adam, theta, scale[:, None] * grads, learning_rate)
    kets = run_many(template, theta, vacuum)
    energies = np.einsum("bi,bij,bj->b", kets.conj(), hamiltonians, kets).real
    improved = energies < best_energy
    best_energy[improved] = energies[improved]
    best_theta[improved] = theta[improved]
    return best_theta, best_energy


def vqe_optimize(
    delta: float,
    layers: int = 4,
    warm_start: np.ndarray | None = None,
    config: VqeConfig | None = None,
    n_sites: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, float, float]:
    """Variationally approximate the ground state at one anisotropy value.

    Returns the best-seen checkerboard parameters, their energy and the
    exact ground energy the target was set from.  With a warm start the
    parameters are perturbed by ``warm_start_noise`` radians to escape
    zero-gradient eigenstates left by the previous point.
    """
    config = config or VqeConfig()
    template = build_checkerboard(n_sites, layers)
    h = build_hamiltonian(delta, n_sites)
    exact = exact_ground_energy(h)
    e_target = target_energy(exact)

    if warm_start is not None:
        rng = np.random.default_rng([seed, 3])
        theta0 = np.asarray(warm_start, dtype=float).copy()
        theta0 += rng.normal(scale=config.warm_start_noise, size=theta0.shape)
        thetas, energies = _minimize_batch(
            template, h[None], np.array([e_target]), theta0[None],
            config.warm_iterations, config.learning_rate, np.array([delta]),
        )
        return thetas[0], float(energies[0]), exact

    restarts = max(1, config.restarts)
    theta0 = np.stack(
        [
            np.random.default_rng([seed, 3, r]).uniform(0.0, 2 * np.pi, template.n_params)
            for r in range(restarts)
        ]
    )
    thetas, energies = _minimize_batch(
        template,
        np.broadcast_to(h, (restarts,) + h.shape),
        np.full(restarts, e_target),
        theta0,
        config.iterations,
        config.learning_rate,
        np.full(restarts, delta),
    )
    best = int(np.argmin(energies))
    return thetas[best], float(energies[best]), exact


@dataclass
class GroundStateRecord:
    delta: float
    params: np.ndarray
    vqe_energy: float
    exact_energy: float
    label: int
    layers: int
    seed: int

    @property
    def relative_error(self) -> float:
        return abs(self.vqe_energy - self.exact_energy) / abs(self.exact_energy)


def _point_seed(seed: int, chain: int, position: int) -> int:
    """Distinct deterministic RNG root per grid point."""
    return (seed * 1000003 + chain) * 1009 + position


def delta_grid(count: int, delta_range: tuple[float, float] = (-2.0, 2.0)) -> np.ndarray:
    """Evenly spaced anisotropy grid with exact phase-boundary points dropped."""
    if count < 3:
        raise ValueError(f"count must be >= 3, got {count}")
    grid = np.linspace(delta_range[0], delta_range[1], count)
    return grid[np.abs(np.abs(grid) - 1.0) > 1e-12]


def generate_dataset(
    count: int = 1000,
    delta_range: tuple[float, float] = (-2.0, 2.0),
    layers: int = 4,
    config: VqeConfig | None = None,
    seed: int = 0,
    n_sites: int = 8,
) -> list[GroundStateRecord]:
    """VQE ground states over ascending delta sweeps with warm starts.

    The grid is cut into ``config.chains`` contiguous stretches; each stretch
    is swept in ascending order warm-starting from its previous point, and
    all stretches advance together as one batched optimization.
    """
    config = config or VqeConfig()
    if seed < 0:
        raise ValueError("seed must be non-negative")
    grid = delta_grid(count, delta_range)
    template = build_checkerboard(n_sites, layers)
    n_chains = max(1, min(config.chains, len(grid)))
    bounds = np.linspace(0, len(grid), n_chains + 1).astype(int)
    chains = [grid[bounds[c] : bounds[c + 1]] for c in range(n_chains)]
    positions = max(len(c) for c in chains)

    results: dict[float, tuple[np.ndarray, float, float]] = {}
    warm = np.zeros((n_chains, template.n_params))

    # Chain heads run as one sequential warm sweep (only the very first point
    # is cold), so every chain inherits the adiabatic track from the range
    # start instead of plateauing on its own random init.
    previous = None
    for c in range(n_chains):
        delta = float(chains[c][0])
        params, energy, exact = vqe_optimize(
            delta, layers, warm_start=previous, config=config,
            n_sites=n_sites, seed=_point_seed(seed, c, 0),
        )
        warm[c] = previous = params
        results[delta] = (params, energy, exact)

    for position in range(1, positions):
        rows = [c for c in range(n_chains) if position < len(chains[c])]
        deltas = np.array([chains[c][position] for c in rows])
        hams = np.stack([build_hamiltonian(float(d), n_sites) for d in deltas])
        exacts = np.array([exact_ground_energy(h) for h in hams])
        targets = np.array([target_energy(e) for e in exacts])
        noise = np.stack(
            [
                np.random.default_rng([_point_seed(seed, c, position), 3]).normal(
                    scale=config.warm_start_noise, size=template.n_params
                )
                for c in rows
            ]
        )
        thetas, energies = _minimize_batch(
            template, hams, targets, warm[rows] + noise,
            config.warm_iterations, config.learning_rate, deltas,
        )
        for i, c in enumerate(rows):
            warm[c] = thetas[i]
            results[float(deltas[i])] = (thetas[i], float(energies[i]), float(exacts[i]))

    records = [
        GroundStateRecord(
            delta=float(d),
            params=results[float(d)][0],
            vqe_energy=results[float(d)][1],
            exact_energy=results[float(d)][2],
            label=phase_label(float(d)),
            layers=layers,
            seed=seed,
        )
        for d in grid
    ]
    return records


def dataset_summary(records: list[GroundStateRecord]) -> dict:
    errors = np.array([r.relative_error for r in records])
    counts = np.bincount([r.label for r in records], minlength=3)
    return {
        "count": len(records),
        "median_relative_error": float(np.median(errors)),
        "max_relative_error": float(errors.max()),
        "class_counts": counts.tolist(),
    }


def save_records(records: list[GroundStateRecord], path, config: VqeConfig | None = None, seed: int = 0) -> None:
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "layers": records[0].layers if records else None,
        "seed": seed,
        "vqe_config": asdict(config or VqeConfig()),
    }
    rows = (
        {
            "delta": r.delta,
            "params": [float(v) for v in r.params],
            "vqe_energy": r.vqe_energy,
            "exact_energy": r.exact_energy,
            "label": r.label,
            "layers": r.layers,
            "seed": r.seed,
        }
        for r in records
    )
    write_jsonl(path, header, rows)


def load_records(path) -> list[GroundStateRecord]:
    header, rows = read_jsonl(path)
    if header.get("format") != DATASET_FORMAT:
        raise ValueError(f"{path}: not an XXZ ground-state dataset")
    if header.get("version") != DATASET_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {header.get('version')}")
    return [
        GroundStateRecord(
            delta=row["delta"],
            params=np.asarray(row["params"], dtype=float),
            vqe_energy=row["vqe_energy"],
            exact_energy=row["exact_energy"],
            label=row["label"],
            layers=row["layers"],
            seed=row["seed"],
        )
        for row in rows
    ]


def states_from_records(records: list[GroundStateRecord], n_sites: int = 8) -> LabeledStates:
    """Prepare each record's circuit state; these feed the classifiers directly."""
    if not records:
        raise ValueError("no records")
    layers = records[0].layers
    if any(r.layers != layers for r in records):
        raise ValueError("records mix checkerboard depths")
    template = build_checkerboard(n_sites, layers)
    states = run_many(template, np.stack([r.params for r in records]), zero_state(n_sites))
    return LabeledStates(states, np.array([r.label for r in records]), n_classes=3)


def split_records(
    records: list[GroundStateRecord], ratio: tuple[int, int] = (2, 1), seed: int = 0
) -> tuple[list[GroundStateRecord], list[GroundStateRecord]]:
    """Label-stratified shuffled split, e.g. (2, 1) for train:test."""
    rng = np.random.default_rng([seed, 4])
    train: list[GroundStateRecord] = []
    test: list[GroundStateRecord] = []
    for label in sorted({r.label for r in records}):
        group = [r for r in records if r.label == label]
        order = rng.permutation(len(group))
        n_test = round(len(group) * ratio[1] / sum(ratio))
        test.extend(group[i] for i in order[:n_test])
        train.extend(group[i] for i in order[n_test:])
    return train, test
