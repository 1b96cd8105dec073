import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnqc.mnist import (
    IdxError,
    filter_classes,
    fit_pca,
    images_to_matrix,
    load_features,
    load_pca,
    parse_idx,
    prepare_features,
    save_features,
    save_pca,
    serialize_idx,
    transform,
)

from oracles import pca_svd


def label_bytes(labels):
    return bytes([0, 0, 8, 1]) + len(labels).to_bytes(4, "big") + bytes(labels)


def image_bytes(count, rows, cols, pixels):
    header = bytes([0, 0, 8, 3])
    for dim in (count, rows, cols):
        header += dim.to_bytes(4, "big")
    return header + bytes(pixels)


class TestIdxParser:
    def test_label_fixture(self):
        labels = parse_idx(label_bytes([3, 1]))
        assert labels.tolist() == [3, 1]

    def test_image_fixture(self):
        images = parse_idx(image_bytes(1, 2, 2, [0, 128, 255, 7]))
        assert images.shape == (1, 2, 2)
        assert images[0].tolist() == [[0, 128], [255, 7]]

    def test_truncated_payload(self):
        with pytest.raises(IdxError, match="payload"):
            parse_idx(image_bytes(1, 2, 2, [0, 128, 255]))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(IdxError, match="payload"):
            parse_idx(label_bytes([1, 2]) + b"\x00")

    def test_bad_magic(self):
        with pytest.raises(IdxError, match="magic"):
            parse_idx(bytes([0, 0, 9, 9, 0, 0, 0, 0]))

    def test_label_out_of_range(self):
        with pytest.raises(IdxError, match=r"\[0, 9\]"):
            parse_idx(label_bytes([3, 12]))

    def test_truncated_header(self):
        with pytest.raises(IdxError, match="header|magic"):
            parse_idx(bytes([0, 0, 8, 3, 0, 0]))

    def test_round_trip(self):
        for blob in (label_bytes([0, 9, 4]), image_bytes(2, 2, 3, range(12))):
            assert serialize_idx(parse_idx(blob)) == blob

    def test_images_are_a_view_of_the_stream(self):
        blob = image_bytes(10000, 28, 28, bytes(10000 * 28 * 28))  # 7.84 MB of pixels
        tracemalloc.start()
        try:
            images = parse_idx(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert images.shape == (10000, 28, 28) and not images.flags.writeable
        assert peak < 1_000_000


class TestFilterClasses:
    def test_keeps_selected_digits_in_order(self):
        labels = np.array([0, 7, 2, 9, 3])
        images = np.arange(5 * 4).reshape(5, 2, 2)
        kept_images, kept_labels = filter_classes(images, labels)
        assert np.array_equal(kept_images, images[[0, 2, 4]])
        assert kept_labels.tolist() == [0, 2, 3]

    def test_remaps_to_dense_labels(self):
        labels = np.array([5, 8, 5, 6])
        _, new_labels = filter_classes(np.zeros((4, 1, 1)), labels, keep=(5, 6, 8))
        assert new_labels.tolist() == [0, 2, 0, 1]

    def test_no_matching_labels_gives_empty(self):
        images, labels = filter_classes(np.zeros((3, 1, 1)), np.array([7, 8, 9]))
        assert len(labels) == 0 and images.shape[0] == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 9), max_size=30), st.lists(st.integers(0, 9), min_size=1, max_size=5))
    def test_matches_dict_remap(self, labels, keep):
        labels = np.array(labels, dtype=np.uint8)
        remap = {digit: i for i, digit in enumerate(sorted(keep))}
        _, new_labels = filter_classes(np.zeros((len(labels), 1, 1)), labels, keep)
        assert new_labels.tolist() == [remap[d] for d in labels if d in remap]


class TestPca:
    def test_exact_low_rank_recovery(self, rng):
        # data confined to an 8-dimensional coordinate subspace reconstructs exactly
        latent = rng.normal(size=(40, 8))
        x = np.zeros((40, 784))
        x[:, 100:108] = latent
        model = fit_pca(x, k=8)
        centered = x - model.mean
        reconstructed = (centered @ model.components.T) @ model.components
        assert np.abs(reconstructed - centered).max() < 1e-8

    def test_orthonormal_components(self, rng):
        x = rng.normal(size=(50, 30))
        model = fit_pca(x, k=8)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(8)).max() < 1e-8

    def test_explained_variance_matches_eigh_oracle(self, rng):
        x = rng.normal(size=(20, 784)) * np.linspace(3, 0.1, 784)
        model = fit_pca(x, k=8)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)
        covariance = np.cov(x, rowvar=False)
        top = np.linalg.eigvalsh(covariance)[-8:][::-1]
        assert np.allclose(model.explained_variance, top, atol=1e-8)

    def test_duplicating_examples_keeps_components(self, rng):
        x = rng.normal(size=(30, 20))
        doubled = np.vstack([x, x])
        a = fit_pca(x, k=4).components
        b = fit_pca(doubled, k=4).components
        assert np.abs(a - b).max() < 1e-8  # sign fixing makes them comparable

    def test_sign_convention(self, rng):
        model = fit_pca(rng.normal(size=(30, 12)), k=4)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((4, 10)), k=8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 40), st.integers(2, 40), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_svd_oracle(self, n, d, k, low_rank, seed):
        """Both Gram branches (N >= d and N < d), with and without rank deficiency."""
        rng = np.random.default_rng(seed)
        k = min(k, n, d)
        # well-separated variances keep every top-k component unique
        scales = 3.0 ** -np.arange(d)
        x = rng.normal(size=(n, d)) * scales
        if low_rank:  # rank k + 1 < min(n - 1, d) where possible
            rank = min(k + 1, d)
            x = rng.normal(size=(n, rank)) * scales[:rank] @ np.linalg.qr(rng.normal(size=(d, rank)))[0].T
        components, explained = pca_svd(x, k)
        model = fit_pca(x, k)
        assert np.allclose(model.explained_variance, explained, rtol=0, atol=1e-10)
        unique = explained > 1e-8 * explained[0]  # zero-variance components are arbitrary
        unique[1:] &= explained[1:] < explained[:-1] * (1 - 1e-3)
        unique[:-1] &= explained[1:] < explained[:-1] * (1 - 1e-3)
        assert np.allclose(model.components[unique], components[unique], rtol=0, atol=1e-10)
        assert np.allclose(model.components @ model.components.T, np.eye(len(components)), atol=1e-10)


class TestTransform:
    def test_train_matrix_lands_in_unit_interval(self, rng):
        x = rng.normal(size=(40, 12))
        model = fit_pca(x, k=4)
        features = transform(model, x)
        assert features.min() >= 0.0 and features.max() <= 1.0
        # extrema are attained exactly where the train min/max sit
        assert features.max(axis=0) == pytest.approx(np.ones(4))
        assert features.min(axis=0) == pytest.approx(np.zeros(4))

    def test_out_of_range_projection_clamps(self, rng):
        x = rng.normal(size=(40, 12))
        model = fit_pca(x, k=4)
        far = x + 100.0 * model.components[0]
        features = transform(model, far)
        assert features[:, 0].max() == 1.0
        below = x - 100.0 * model.components[0]
        assert transform(model, below)[:, 0].min() == 0.0

    def test_zero_variance_component_maps_to_zero(self):
        x = np.tile(np.arange(12.0), (20, 1))
        x[:, 0] = np.arange(20.0)  # single varying direction
        model = fit_pca(x, k=2)
        features = transform(model, x)
        assert np.all(features[:, 1] == 0.0)


class TestPipeline:
    def test_prepare_features_shapes_and_ranges(self, rng):
        # small synthetic digit set with class-dependent structure
        train_labels = np.repeat(np.arange(4), 15).astype(np.uint8)
        test_labels = np.repeat(np.arange(4), 5).astype(np.uint8)
        train_images = _blobby_images(train_labels, rng)
        test_images = _blobby_images(test_labels, rng)
        train_x, train_y, test_x, test_y, model = prepare_features(
            train_images, train_labels, test_images, test_labels, k=8
        )
        assert train_x.shape == (60, 8) and test_x.shape == (20, 8)
        assert train_x.min() >= 0 and train_x.max() <= 1
        assert test_x.min() >= 0 and test_x.max() <= 1
        assert np.array_equal(np.unique(train_y), [0, 1, 2, 3])
        assert model.components.shape == (8, 784)

    def test_feature_file_round_trip(self, tmp_path, rng):
        features = rng.uniform(0, 1, (10, 8))
        labels = rng.integers(0, 4, 10)
        path = tmp_path / "features.jsonl"
        save_features(path, features, labels, {"classes": [0, 1, 2, 3]})
        loaded_x, loaded_y = load_features(path)
        assert np.allclose(loaded_x, features, atol=1e-15)
        assert np.array_equal(loaded_y, labels)

    def test_feature_file_bytes_match_per_element_serialisation(self, tmp_path, rng):
        features = np.vstack([rng.uniform(0, 1, (6, 8)), np.eye(8)[:2], np.full((1, 8), 1 / 3)])
        labels = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0])
        path = tmp_path / "features.jsonl"
        save_features(path, features, labels, {"classes": [0, 1, 2, 3]})
        header = {"format": "mnist-features", "version": 1, "n_features": 8, "classes": [0, 1, 2, 3]}
        lines = [json.dumps(header)] + [
            json.dumps({"features": [float(v) for v in row], "label": int(label)})
            for row, label in zip(features, labels)
        ]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_prepare_features_reuses_the_train_projection(self, rng):
        train_labels = np.repeat(np.arange(4), 15).astype(np.uint8)
        images = _blobby_images(train_labels, rng)
        train_x, _, _, _, model = prepare_features(images, train_labels, images[:4], train_labels[:4], k=8)
        assert np.array_equal(train_x, transform(model, images_to_matrix(images)))

    def test_pca_model_round_trip(self, tmp_path, rng):
        model = fit_pca(rng.normal(size=(30, 16)), k=4)
        path = tmp_path / "pca.json"
        save_pca(model, path)
        loaded = load_pca(path)
        assert np.array_equal(loaded.components, model.components)
        assert np.array_equal(loaded.feature_min, model.feature_min)

    def test_pixels_scaled_to_unit_interval(self):
        images = np.array([[[0, 255], [128, 64]]], dtype=np.uint8)
        matrix = images_to_matrix(images)
        assert matrix.min() == 0.0 and matrix.max() == 1.0
        assert matrix.shape == (1, 4)


def _blobby_images(labels, rng):
    """28x28 blobs whose position depends on the class label."""
    images = np.zeros((len(labels), 28, 28), dtype=np.uint8)
    for i, label in enumerate(labels):
        r, c = 5 + 4 * int(label), 20 - 3 * int(label)
        patch = rng.integers(100, 255, size=(6, 6))
        images[i, r : r + 6, c : c + 6] = patch
    return images
