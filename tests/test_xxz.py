import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnqc import xxz
from tnqc.circuits import build_checkerboard, run
from tnqc.statevector import zero_state
from tnqc.xxz import (
    GroundStateRecord,
    VqeConfig,
    build_hamiltonian,
    dataset_summary,
    delta_grid,
    energy_expectation,
    exact_ground_energy,
    generate_dataset,
    load_records,
    phase_label,
    save_records,
    split_records,
    states_from_records,
    target_energy,
    vqe_optimize,
)

from conftest import random_state

# pinned after first computation; cross-checked against a sparse pauli-kron
# construction, and against the known 8-site periodic Heisenberg value
HEISENBERG_8_GROUND = -14.604373635748662

FAST_VQE = VqeConfig(iterations=220, warm_iterations=150, learning_rate=0.05, chains=1)


class TestHamiltonian:
    def test_two_site_spectrum_at_zero_anisotropy(self):
        # periodic chain of two sites doubles the single bond
        h = build_hamiltonian(0.0, n_sites=2)
        assert np.allclose(np.linalg.eigvalsh(h), [-4, 0, 0, 4], atol=1e-9)

    def test_polarized_diagonal_entry(self):
        h = build_hamiltonian(-2.0, n_sites=8)
        assert h[0, 0] == pytest.approx(-16.0)
        assert not h[0, 1:].any()  # flip terms annihilate the polarized state

    def test_symmetric(self):
        h = build_hamiltonian(0.37, n_sites=6)
        assert np.abs(h - h.T).max() < 1e-12

    def test_commutes_with_total_sz(self):
        # block structure: matrix elements only within a magnetization sector
        h = build_hamiltonian(1.3, n_sites=6)
        idx = np.arange(64)
        magnetization = 6 - 2 * np.array([bin(i).count("1") for i in idx])
        rows, cols = np.nonzero(h)
        assert np.array_equal(magnetization[rows], magnetization[cols])

    def test_spin_flip_spectrum_symmetry(self):
        # conjugating by X on every site reverses all bits
        h = build_hamiltonian(0.8, n_sites=8)
        flipped = h[::-1, ::-1]
        assert exact_ground_energy(flipped) == pytest.approx(
            exact_ground_energy(h), abs=1e-9
        )

    def test_too_many_sites_rejected(self):
        with pytest.raises(ValueError):
            build_hamiltonian(0.0, n_sites=13)

    @pytest.mark.parametrize("delta", [-2.0, -0.5, 0.7, 1.0])
    def test_matches_sparse_pauli_kron_oracle(self, delta):
        # independent construction: explicit sigma-matrix kron products
        from scipy.sparse import csr_matrix, identity, kron

        sx = csr_matrix(np.array([[0, 1], [1, 0]], dtype=float))
        sy = csr_matrix(np.array([[0, -1j], [1j, 0]]))
        sz = csr_matrix(np.array([[1, 0], [0, -1]], dtype=float))
        eye = identity(2, format="csr")

        def site_op(op, site, n):
            out = None
            for k in range(n):
                piece = op if k == site else eye
                out = piece if out is None else kron(out, piece, format="csr")
            return out

        n = 6
        dim = 2**n
        oracle = csr_matrix((dim, dim), dtype=complex)
        for i in range(n):
            k = (i + 1) % n
            oracle = oracle + (
                site_op(sx, i, n) @ site_op(sx, k, n)
                + site_op(sy, i, n) @ site_op(sy, k, n)
                + delta * site_op(sz, i, n) @ site_op(sz, k, n)
            )
        dense = oracle.toarray()
        assert np.abs(dense.imag).max() < 1e-12
        assert np.abs(dense.real - build_hamiltonian(delta, n_sites=6)).max() < 1e-12


class TestExactGroundEnergy:
    def test_ferromagnetic_anchor(self):
        h = build_hamiltonian(-2.0, n_sites=8)
        assert exact_ground_energy(h) == pytest.approx(-16.0, abs=1e-9)

    def test_scaled_identity(self):
        assert exact_ground_energy(2.5 * np.eye(16)) == pytest.approx(2.5)

    def test_heisenberg_point_regression(self):
        h = build_hamiltonian(1.0, n_sites=8)
        assert exact_ground_energy(h) == pytest.approx(HEISENBERG_8_GROUND, abs=1e-9)

    def test_asymmetric_input_rejected(self):
        with pytest.raises(ValueError):
            exact_ground_energy(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_sectors_match_full_diagonalization(self, n, sz_structure, seed):
        rng = np.random.default_rng(seed)
        dim = 1 << n
        h = rng.normal(size=(dim, dim))
        if sz_structure:  # keep only entries between equal popcounts
            popcount = np.array([bin(i).count("1") for i in range(dim)])
            h *= popcount[:, None] == popcount[None, :]
        h = h + h.T
        assert exact_ground_energy(h) == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-10)

    @pytest.mark.parametrize("delta", [-2.0, -0.7, 0.0, 1.0, 1.9])
    def test_chain_sectors_match_full_diagonalization(self, delta):
        h = build_hamiltonian(delta, n_sites=8)
        assert exact_ground_energy(h) == pytest.approx(np.linalg.eigvalsh(h)[0], abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.booleans(), st.sampled_from(["asymmetric", "nan", "inf"]), st.integers(0, 2**32 - 1))
    def test_bad_input_rejected_on_both_paths(self, n, in_sector, fault, seed):
        dim = 1 << n
        h = np.diag(np.random.default_rng(seed).normal(size=dim))
        # basis states 1 and 2 share a popcount; 0 and dim - 1 do not
        i, j = (1, 2) if in_sector else (0, dim - 1)
        if fault == "asymmetric":
            h[i, j] = 1e-3
        else:
            h[i, j] = h[j, i] = np.nan if fault == "nan" else np.inf
        with pytest.raises(ValueError):
            exact_ground_energy(h)


class TestEnergyExpectation:
    def test_polarized_state(self):
        h = build_hamiltonian(-2.0, n_sites=8)
        assert energy_expectation(zero_state(8), h) == pytest.approx(-16.0)

    def test_eigenvector_gives_eigenvalue(self):
        h = build_hamiltonian(0.4, n_sites=4)
        values, vectors = np.linalg.eigh(h)
        state = vectors[:, 3].astype(complex)
        assert energy_expectation(state, h) == pytest.approx(values[3], abs=1e-10)

    def test_variational_bound_on_random_states(self, rng):
        h = build_hamiltonian(0.9, n_sites=6)
        floor = exact_ground_energy(h)
        for _ in range(100):
            assert energy_expectation(random_state(6, rng), h) >= floor - 1e-9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            energy_expectation(zero_state(3), build_hamiltonian(0.0, n_sites=2))


class TestPhaseLabel:
    @pytest.mark.parametrize(
        ("delta", "label"),
        [(-1.5, 0), (-1.001, 0), (-1.0, 1), (0.0, 1), (1.0, 1), (1.001, 2), (1.5, 2)],
    )
    def test_labels(self, delta, label):
        assert phase_label(delta) == label

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            phase_label(float("nan"))


class TestDeltaGrid:
    def test_grid_excludes_exact_boundaries(self):
        grid = delta_grid(21)  # step 0.2 hits both -1 and +1
        assert len(grid) == 19
        assert not np.isin([-1.0, 1.0], grid).any()

    def test_thousand_point_class_measure(self):
        grid = delta_grid(1000)
        counts = np.bincount([phase_label(d) for d in grid], minlength=3)
        assert abs(counts[0] - 250) <= 5
        assert abs(counts[1] - 500) <= 5
        assert abs(counts[2] - 250) <= 5

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            delta_grid(2)


class TestVqe:
    def test_ferromagnet_converges_to_exact_degenerate_ground(self):
        params, energy, exact = vqe_optimize(-2.0, layers=2, config=FAST_VQE, seed=0)
        assert exact == pytest.approx(-16.0, abs=1e-9)
        assert abs(energy + 16.0) / 16.0 < 0.02

    def test_energy_respects_variational_bound(self):
        params, energy, exact = vqe_optimize(0.5, layers=2, config=FAST_VQE, seed=1)
        assert exact == exact_ground_energy(build_hamiltonian(0.5))
        assert energy >= exact - 1e-9

    def test_returned_params_reproduce_energy(self):
        params, energy, _ = vqe_optimize(-1.5, layers=2, config=FAST_VQE, seed=2)
        template = build_checkerboard(8, 2)
        state = run(template, params, zero_state(8))
        h = build_hamiltonian(-1.5)
        assert energy_expectation(state, h) == pytest.approx(energy, abs=1e-9)

    def test_warm_start_stays_put_at_optimum(self):
        cold_params, cold_energy, _ = vqe_optimize(-2.0, layers=2, config=FAST_VQE, seed=0)
        config = VqeConfig(warm_iterations=40, learning_rate=0.02, warm_start_noise=0.005)
        _, warm_energy, _ = vqe_optimize(-2.0, layers=2, warm_start=cold_params, config=config, seed=0)
        assert warm_energy <= cold_energy + 0.05 * 16.0


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(count=8, delta_range=(-2, 2), layers=2,
                            config=FAST_VQE, seed=0)


class TestDataset:
    def test_variational_bound_on_every_record(self, small_dataset):
        for record in small_dataset:
            assert record.vqe_energy >= record.exact_energy - 1e-9

    def test_labels_match_phase_rule(self, small_dataset):
        for record in small_dataset:
            assert record.label == phase_label(record.delta)

    def test_deterministic(self, small_dataset):
        again = generate_dataset(count=8, delta_range=(-2, 2), layers=2,
                                 config=FAST_VQE, seed=0)
        for a, b in zip(small_dataset, again):
            assert a.delta == b.delta
            assert np.array_equal(a.params, b.params)
            assert a.vqe_energy == b.vqe_energy

    def test_round_trip_through_jsonl(self, small_dataset, tmp_path):
        path = tmp_path / "ground_states.jsonl"
        save_records(small_dataset, path, config=FAST_VQE, seed=0)
        loaded = load_records(path)
        assert len(loaded) == len(small_dataset)
        for a, b in zip(small_dataset, loaded):
            assert a.delta == b.delta
            assert np.array_equal(a.params, b.params)
            assert (a.vqe_energy, a.exact_energy, a.label) == (
                b.vqe_energy, b.exact_energy, b.label,
            )

    def test_summary_fields(self, small_dataset):
        summary = dataset_summary(small_dataset)
        assert summary["count"] == len(small_dataset)
        assert 0 <= summary["median_relative_error"] <= summary["max_relative_error"]
        assert sum(summary["class_counts"]) == len(small_dataset)

    def test_states_preparation_matches_circuit(self, small_dataset):
        prepared = states_from_records(small_dataset)
        template = build_checkerboard(8, 2)
        first = run(template, small_dataset[0].params, zero_state(8))
        assert np.allclose(prepared.states[0], first, atol=1e-12)
        assert prepared.n_classes == 3

    def test_one_diagonalization_per_point(self, monkeypatch):
        calls = []

        def counting(hamiltonian):
            calls.append(1)
            return exact_ground_energy(hamiltonian)

        monkeypatch.setattr(xxz, "exact_ground_energy", counting)
        config = VqeConfig(iterations=5, warm_iterations=3, chains=2)
        records = generate_dataset(count=6, layers=1, config=config, seed=0)
        assert len(calls) == len(records) == 6

    def test_stratified_split_ratio(self):
        records = [
            GroundStateRecord(d, np.zeros(1), -1.0, -1.0, phase_label(d), 1, 0)
            for d in np.linspace(-2, 2, 90)
        ]
        train_part, test_part = split_records(records, (2, 1), seed=0)
        assert len(train_part) + len(test_part) == 90
        total_counts = np.bincount([r.label for r in records], minlength=3)
        train_counts = np.bincount([r.label for r in train_part], minlength=3)
        test_counts = np.bincount([r.label for r in test_part], minlength=3)
        assert np.array_equal(train_counts + test_counts, total_counts)
        # per label the test share is one third, up to rounding
        for label in range(3):
            assert abs(test_counts[label] - total_counts[label] / 3) <= 1

    def test_split_deterministic_and_disjoint(self):
        records = [
            GroundStateRecord(d, np.zeros(1), -1.0, -1.0, phase_label(d), 1, 0)
            for d in np.linspace(-2, 2, 30)
        ]
        first = split_records(records, (2, 1), seed=5)
        second = split_records(records, (2, 1), seed=5)
        assert [r.delta for r in first[0]] == [r.delta for r in second[0]]
        train_deltas = {r.delta for r in first[0]}
        test_deltas = {r.delta for r in first[1]}
        assert not train_deltas & test_deltas


def test_target_energy_offset():
    assert target_energy(-16.0) == pytest.approx(-17.6)
    assert target_energy(-0.5) == pytest.approx(-0.6)  # floored at one unit
