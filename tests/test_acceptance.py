"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  The two MNIST criteria
need the official IDX files (uncompressed) under $TNQC_MNIST_DIR or
./data/mnist and skip with an explanatory message when absent; everything
else runs unconditionally and is deterministic under the pinned seeds.
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tnqc.circuits import build_mera, build_ttn, from_descriptor
from tnqc.encoding import encode_dataset
from tnqc.gates import BlockKind
from tnqc.gradients import batch_loss_grad, make_head
from tnqc.mnist import filter_classes, fit_pca, load_image_label_pair, transform, images_to_matrix
from tnqc.statevector import norm_error
from tnqc.training import LabeledStates, TrainConfig, evaluate, logistic_baseline, split_train_val, train
from tnqc.xxz import (
    VqeConfig,
    build_hamiltonian,
    exact_ground_energy,
    energy_expectation,
    generate_dataset,
    split_records,
    states_from_records,
)

from conftest import identity_template, random_state, random_unitary
from oracles import loss_and_grad_fd, loss_and_grad_shift

GRADIENT_TOL = 1e-6
FD_STEP = 1e-4

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {status} [{name}] {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _mnist_dir():
    base = Path(os.environ.get("TNQC_MNIST_DIR", Path(__file__).parent.parent / "data" / "mnist"))
    if all((base / name).exists() for name in MNIST_FILES):
        return base
    return None


# ---------------------------------------------------------------------------
# shared expensive fixtures

@pytest.fixture(scope="module")
def xxz_dataset():
    tic = time.perf_counter()
    records = generate_dataset(count=300, delta_range=(-2, 2), layers=4, seed=0)
    return records, time.perf_counter() - tic


def _train_xxz(records, descriptor, seeds):
    template = from_descriptor(descriptor)
    head = make_head("mse_binary", template, 3)
    accuracies = []
    sanity_margins = []
    for seed in seeds:
        train_records, test_records = split_records(records, (2, 1), seed)
        train_full = states_from_records(train_records)
        test_set = states_from_records(test_records)
        train_set, val_set = split_train_val(train_full, (11, 1), seed)
        config = TrainConfig(
            batch_size=8, batches_per_epoch=0, learning_rate=0.001,
            max_epochs=1000, patience=250, seed=seed, loss="mse_binary",
        )
        checkpoint, _ = train(template, config, train_set, val_set)
        accuracies.append(evaluate(head, checkpoint.params, test_set)[0])
        # trained checkpoints score on their own training set within a
        # sanity band of the recorded validation accuracy
        train_acc, _ = evaluate(head, checkpoint.params, train_set)
        sanity_margins.append(train_acc - (checkpoint.best_val_accuracy - 0.1))
    return accuracies, sanity_margins


@pytest.fixture(scope="module")
def xxz_training(xxz_dataset):
    records, gen_seconds = xxz_dataset
    tic = time.perf_counter()
    results = {}
    sanity = {}
    for descriptor in ("mera:su4", "ttn:simple-real"):
        results[descriptor], sanity[descriptor] = _train_xxz(records, descriptor, seeds=(0, 1, 2))
    return results, sanity, gen_seconds + (time.perf_counter() - tic)


@pytest.fixture(scope="module")
def mnist_data():
    base = _mnist_dir()
    if base is None:
        return None
    train_images, train_labels = load_image_label_pair(
        base / MNIST_FILES[0], base / MNIST_FILES[1]
    )
    test_images, test_labels = load_image_label_pair(
        base / MNIST_FILES[2], base / MNIST_FILES[3]
    )
    tri, trl = filter_classes(train_images, train_labels, keep=(0, 1, 2, 3))
    tei, tel = filter_classes(test_images, test_labels, keep=(0, 1, 2, 3))
    model = fit_pca(images_to_matrix(tri), k=8)
    return (
        transform(model, images_to_matrix(tri)), trl,
        transform(model, images_to_matrix(tei)), tel,
    )


@pytest.fixture(scope="module")
def mnist_training(mnist_data):
    if mnist_data is None:
        return None
    train_x, train_y, test_x, test_y = mnist_data
    pick = np.random.default_rng(2025)
    train_idx = pick.choice(len(train_y), size=2000, replace=False)
    test_idx = pick.choice(len(test_y), size=500, replace=False)
    train_full = LabeledStates(encode_dataset(train_x[train_idx]), train_y[train_idx], 4)
    test_set = LabeledStates(encode_dataset(test_x[test_idx]), test_y[test_idx], 4)

    tic = time.perf_counter()
    results = {}
    for descriptor, decoder in (
        ("mera:su4", "binary"),
        ("mera:su4", "amplitude"),
        ("ttn:simple-real", "binary"),
    ):
        template = from_descriptor(descriptor)
        loss = {"binary": "mse_binary", "amplitude": "ce_amplitude"}[decoder]
        accuracies = []
        for seed in (0, 1, 2):
            train_set, val_set = split_train_val(train_full, (11, 1), seed)
            config = TrainConfig(
                batch_size=20, batches_per_epoch=10, learning_rate=0.001,
                max_epochs=1000, patience=100, seed=seed, loss=loss,
            )
            checkpoint, _ = train(template, config, train_set, val_set)
            accuracies.append(evaluate(make_head(loss, template, 4), checkpoint.params, test_set)[0])
        results[(descriptor, decoder)] = accuracies
    return results, time.perf_counter() - tic


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_gradient_agreement():
    tic = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for build in (build_ttn, build_mera):
        for kind in BlockKind:
            template = build(kind)
            for loss in ("mse_binary", "ce_amplitude"):
                head = make_head(loss, template, 4)
                for _ in range(20):
                    params = rng.uniform(0, 2 * np.pi, template.n_params)
                    state = random_state(8, rng)
                    label = int(rng.integers(4))
                    _, g_adj, _ = batch_loss_grad(head, params, state[None, :], [label])
                    g_adj = g_adj[0]
                    _, g_shift = loss_and_grad_shift(head, params, state, label)
                    _, g_fd = loss_and_grad_fd(head, params, state, label, step=FD_STEP)
                    worst = max(
                        worst,
                        np.abs(g_adj - g_shift).max(),
                        np.abs(g_adj - g_fd).max(),
                        np.abs(g_shift - g_fd).max(),
                    )
    elapsed = time.perf_counter() - tic
    _report(
        1, "gradient agreement",
        worst < GRADIENT_TOL and elapsed < 60,
        f"max deviation {worst:.2e} over 16 combos x 20 instances in {elapsed:.1f}s",
    )


def test_criterion_2_exact_diagonalization_anchors():
    tic = time.perf_counter()
    ferro = exact_ground_energy(build_hamiltonian(-2.0, n_sites=8))
    spectrum = np.linalg.eigvalsh(build_hamiltonian(0.0, n_sites=2))
    ok = abs(ferro + 16.0) < 1e-9 and np.allclose(spectrum, [-4, 0, 0, 4], atol=1e-9)
    _report(
        2, "exact diagonalization anchors", ok,
        f"E0(delta=-2)={ferro:.12f}, two-site spectrum {np.round(spectrum, 9).tolist()} "
        f"in {time.perf_counter() - tic:.2f}s",
    )


def test_criterion_3_vqe_quality():
    tic = time.perf_counter()
    records = generate_dataset(count=20, delta_range=(-2, 2), layers=4, seed=0)
    errors = np.array([r.relative_error for r in records])
    elapsed = time.perf_counter() - tic
    ok = errors.max() <= 0.08 and np.median(errors) <= 0.05 and elapsed < 600
    _report(
        3, "VQE ground-state quality", ok,
        f"20-point grid: max {errors.max():.4f} (<=0.08), "
        f"median {np.median(errors):.4f} (<=0.05), {elapsed:.0f}s",
    )


def test_criterion_4_xxz_classification(xxz_training):
    results, sanity, elapsed = xxz_training
    mera = float(np.mean(results["mera:su4"]))
    ttn = float(np.mean(results["ttn:simple-real"]))
    worst_sanity = min(min(m) for m in sanity.values())
    ok = mera >= 0.85 and ttn >= 0.75 and worst_sanity >= 0 and elapsed < 1800
    _report(
        4, "XXZ phase recognition", ok,
        f"mera:su4 mean {mera:.4f} (>=0.85), ttn:simple-real mean {ttn:.4f} (>=0.75), "
        f"3 seeds each, train-vs-val sanity margin {worst_sanity:+.3f}, "
        f"{elapsed:.0f}s incl. dataset generation",
    )


def test_criterion_5_mnist_classification(mnist_training):
    if mnist_training is None:
        pytest.skip(
            "official MNIST IDX files not available in this environment "
            "(no general network access); set TNQC_MNIST_DIR to run this criterion"
        )
    results, elapsed = mnist_training
    binary = float(np.mean(results[("mera:su4", "binary")]))
    amplitude = float(np.mean(results[("mera:su4", "amplitude")]))
    ok = binary >= 0.75 and amplitude >= 0.75 and elapsed < 3600
    _report(
        5, "MNIST digit classification", ok,
        f"mera:su4 binary {binary:.4f} / amplitude {amplitude:.4f} (each >=0.75), "
        f"2000 train / 500 test, 3 seeds, {elapsed:.0f}s",
    )


def test_criterion_6_logistic_baseline(mnist_data):
    if mnist_data is None:
        pytest.skip(
            "official MNIST IDX files not available in this environment "
            "(no general network access); set TNQC_MNIST_DIR to run this criterion"
        )
    train_x, train_y, test_x, test_y = mnist_data
    tic = time.perf_counter()
    accuracy = logistic_baseline(train_x, train_y, test_x, test_y, 4)
    elapsed = time.perf_counter() - tic
    ok = abs(accuracy - 0.94) <= 0.02 and elapsed < 60
    _report(
        6, "logistic-regression baseline", ok,
        f"accuracy {accuracy:.4f} (0.94 +- 0.02) on full 4-class split in {elapsed:.0f}s",
    )


def test_criterion_7_parameter_counts():
    expected = {
        "mera:su4": 165,
        "ttn:su4": 105,
        "mera:so4": 66,
        "ttn:simple-real": 16,
    }
    got = {desc: from_descriptor(desc).n_params for desc in expected}
    _report(7, "parameter-count contract", got == expected, f"{got}")


def test_criterion_8_architecture_ordering(xxz_training, mnist_training):
    results, _, _ = xxz_training
    mera = float(np.mean(results["mera:su4"]))
    ttn = float(np.mean(results["ttn:simple-real"]))
    detail = f"XXZ: mera:su4 {mera:.4f} >= ttn:simple-real {ttn:.4f}"
    ok = mera >= ttn
    if mnist_training is not None:
        mnist_results, _ = mnist_training
        m_mera = float(np.mean(mnist_results[("mera:su4", "binary")]))
        m_ttn = float(np.mean(mnist_results[("ttn:simple-real", "binary")]))
        ok = ok and m_mera >= m_ttn
        detail += f"; MNIST: {m_mera:.4f} >= {m_ttn:.4f}"
    _report(8, "expressivity ordering", ok, detail)


def test_mnist_discovery_wiring(tmp_path, monkeypatch):
    # not a release criterion: checks that criteria 5-6 would pick up real
    # files from TNQC_MNIST_DIR by running the same loading path end to end
    rng = np.random.default_rng(0)
    from tnqc.mnist import serialize_idx

    train_labels = rng.integers(0, 10, 120).astype(np.uint8)
    test_labels = rng.integers(0, 10, 40).astype(np.uint8)

    def blobs(labels):
        images = np.zeros((len(labels), 28, 28), dtype=np.uint8)
        for i, label in enumerate(labels):
            r = 2 + 2 * int(label)
            images[i, r : r + 5, 4:9] = rng.integers(130, 255, (5, 5))
        return images

    for name, data in zip(
        MNIST_FILES, (blobs(train_labels), train_labels, blobs(test_labels), test_labels)
    ):
        (tmp_path / name).write_bytes(serialize_idx(data))
    monkeypatch.setenv("TNQC_MNIST_DIR", str(tmp_path))
    base = _mnist_dir()
    assert base == tmp_path
    train_images, loaded_labels = load_image_label_pair(base / MNIST_FILES[0], base / MNIST_FILES[1])
    assert np.array_equal(loaded_labels, train_labels)
    tri, trl = filter_classes(train_images, loaded_labels, keep=(0, 1, 2, 3))
    model = fit_pca(images_to_matrix(tri), k=8)
    features = transform(model, images_to_matrix(tri))
    assert features.shape == (len(trl), 8)
    assert features.min() >= 0 and features.max() <= 1


def test_criterion_9_invariant_suites():
    tic = time.perf_counter()
    rng = np.random.default_rng(31)

    # statevector norm preservation under random gate sequences
    from tnqc.statevector import apply_1q, apply_2q

    worst_norm = 0.0
    for _ in range(100):
        state = random_state(6, rng)
        for _ in range(10):
            if rng.random() < 0.5:
                state = apply_1q(state, random_unitary(2, rng), int(rng.integers(6)))
            else:
                q = rng.choice(6, size=2, replace=False)
                state = apply_2q(state, random_unitary(4, rng), int(q[0]), int(q[1]))
        worst_norm = max(worst_norm, norm_error(state))

    # decoder output is a distribution
    worst_sum = 0.0
    head = make_head("ce_amplitude", identity_template(8, (2, 5)), 4)
    for _ in range(100):
        probs = head.class_probs(head.outputs(random_state(8, rng)[None, :]))[0]
        assert np.all(probs >= 0)
        worst_sum = max(worst_sum, abs(probs.sum() - 1.0))

    # variational bound
    h = build_hamiltonian(0.6, n_sites=8)
    floor = exact_ground_energy(h)
    bound_ok = all(
        energy_expectation(random_state(8, rng), h) >= floor - 1e-9 for _ in range(100)
    )

    # dataset determinism
    config = VqeConfig(iterations=60, warm_iterations=40, learning_rate=0.05, chains=2)
    first = generate_dataset(count=6, layers=1, config=config, seed=3)
    second = generate_dataset(count=6, layers=1, config=config, seed=3)
    deterministic = all(
        a.delta == b.delta and np.array_equal(a.params, b.params) and a.vqe_energy == b.vqe_energy
        for a, b in zip(first, second)
    )

    elapsed = time.perf_counter() - tic
    ok = worst_norm < 1e-10 and worst_sum < 1e-10 and bound_ok and deterministic and elapsed < 120
    _report(
        9, "invariant suites", ok,
        f"norm err {worst_norm:.1e}, distribution err {worst_sum:.1e}, "
        f"variational bound {'held' if bound_ok else 'VIOLATED'}, "
        f"dataset determinism {'held' if deterministic else 'VIOLATED'}, {elapsed:.0f}s",
    )
