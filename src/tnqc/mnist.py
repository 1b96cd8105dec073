"""MNIST ingestion: IDX parsing, class filtering, PCA to 8 features.

Only the raw (uncompressed) IDX container is handled; gunzip the official
files first.  Pixels are scaled to [0, 1], the digit classes are filtered
down to a small set, and a PCA fitted on the training split only reduces
784 pixels to 8 features, each min-max scaled to [0, 1] with train-split
statistics (test projections outside the train range are clamped).
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write_text, read_jsonl, write_jsonl

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

FEATURES_FORMAT = "mnist-features"
FEATURES_VERSION = 1


class IdxError(ValueError):
    """Malformed IDX byte stream."""


def parse_idx(data: bytes) -> np.ndarray:
    """Decode an IDX byte stream; (count, rows, cols) images or (count,) labels."""
    if len(data) < 4:
        raise IdxError("IDX stream shorter than its magic number")
    (magic,) = struct.unpack(">i", data[:4])
    if magic == IMAGE_MAGIC:
        ndim = 3
    elif magic == LABEL_MAGIC:
        ndim = 1
    else:
        raise IdxError(f"bad IDX magic 0x{magic & 0xFFFFFFFF:08x}")
    header_end = 4 + 4 * ndim
    if len(data) < header_end:
        raise IdxError("IDX stream truncated inside the dimension header")
    dims = struct.unpack(f">{ndim}i", data[4:header_end])
    if any(d < 0 for d in dims):
        raise IdxError(f"negative IDX dimension {dims}")
    expected = int(np.prod(dims, dtype=np.int64))
    payload = data[header_end:]
    if len(payload) != expected:
        raise IdxError(
            f"IDX payload length {len(payload)} does not match dimensions "
            f"{dims} (expected {expected} bytes)"
        )
    array = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    if ndim == 1 and array.size and array.max() > 9:
        raise IdxError(f"label {int(array.max())} outside [0, 9]")
    return array


def serialize_idx(array: np.ndarray) -> bytes:
    """Inverse of parse_idx, used for fixtures and round-trip checks."""
    array = np.asarray(array, dtype=np.uint8)
    if array.ndim == 3:
        magic = IMAGE_MAGIC
    elif array.ndim == 1:
        magic = LABEL_MAGIC
    else:
        raise IdxError(f"cannot serialize {array.ndim}-D data as IDX")
    header = struct.pack(f">i{array.ndim}i", magic, *array.shape)
    return header + array.tobytes()


def load_idx(path) -> np.ndarray:
    with open(path, "rb") as f:
        return parse_idx(f.read())


def load_image_label_pair(images_path, labels_path) -> tuple[np.ndarray, np.ndarray]:
    images = load_idx(images_path)
    labels = load_idx(labels_path)
    if images.ndim != 3:
        raise IdxError(f"{images_path}: expected an image file")
    if labels.ndim != 1:
        raise IdxError(f"{labels_path}: expected a label file")
    if images.shape[0] != labels.shape[0]:
        raise IdxError(
            f"image count {images.shape[0]} and label count {labels.shape[0]} disagree"
        )
    return images, labels


def filter_classes(images, labels, keep=(0, 1, 2, 3)) -> tuple[np.ndarray, np.ndarray]:
    """Keep selected digit classes, remapping labels to 0..len(keep)-1."""
    keep = sorted(keep)
    labels = np.asarray(labels)
    mask = np.isin(labels, keep)
    remap = {digit: i for i, digit in enumerate(keep)}
    new_labels = np.array([remap[d] for d in labels[mask]], dtype=int)
    return np.asarray(images)[mask], new_labels


@dataclass
class PCAModel:
    mean: np.ndarray  # (n_features,)
    components: np.ndarray  # (k, n_features), orthonormal rows
    explained_variance: np.ndarray  # (k,), non-increasing
    feature_min: np.ndarray  # (k,) train-split projection minima
    feature_max: np.ndarray  # (k,)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def fit_pca(train_matrix, k: int = 8) -> PCAModel:
    """Top-k principal components of the training matrix plus scaling stats."""
    x = np.asarray(train_matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] < k:
        raise ValueError(f"need at least {k} examples of 1-D features, got {x.shape}")
    mean = x.mean(axis=0)
    centered = x - mean
    # SVD of the centered data: right singular vectors are the components,
    # squared singular values give the (unnormalized) explained variances.
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    denom = max(x.shape[0] - 1, 1)
    explained = (singular[:k] ** 2) / denom
    # deterministic sign: largest-magnitude entry of each component positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    projected = centered @ components.T
    return PCAModel(
        mean=mean,
        components=components,
        explained_variance=explained,
        feature_min=projected.min(axis=0),
        feature_max=projected.max(axis=0),
    )


def transform(model: PCAModel, matrix) -> np.ndarray:
    """Project onto the components and min-max scale into [0, 1] (clamped)."""
    x = np.asarray(matrix, dtype=float)
    projected = (x - model.mean) @ model.components.T
    span = model.feature_max - model.feature_min
    span = np.where(span > 0, span, 1.0)  # zero-variance components map to 0
    return np.clip((projected - model.feature_min) / span, 0.0, 1.0)


def images_to_matrix(images) -> np.ndarray:
    """Flatten uint8 images to float rows in [0, 1]."""
    images = np.asarray(images)
    return images.reshape(images.shape[0], -1).astype(float) / 255.0


def prepare_features(
    train_images,
    train_labels,
    test_images,
    test_labels,
    k: int = 8,
    classes=(0, 1, 2, 3),
):
    """Full preprocessing path; PCA and scaling are fitted on train data only."""
    tri, trl = filter_classes(train_images, train_labels, classes)
    tei, tel = filter_classes(test_images, test_labels, classes)
    model = fit_pca(images_to_matrix(tri), k)
    train_features = transform(model, images_to_matrix(tri))
    test_features = transform(model, images_to_matrix(tei))
    return train_features, trl, test_features, tel, model


def save_features(path, features, labels, meta: dict | None = None) -> None:
    header = {
        "format": FEATURES_FORMAT,
        "version": FEATURES_VERSION,
        "n_features": int(np.asarray(features).shape[1]),
        **(meta or {}),
    }
    rows = (
        {"features": [float(v) for v in row], "label": int(label)}
        for row, label in zip(features, labels)
    )
    write_jsonl(path, header, rows)


def load_features(path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_jsonl(path)
    if header.get("format") != FEATURES_FORMAT:
        raise ValueError(f"{path}: not a feature file")
    if header.get("version") != FEATURES_VERSION:
        raise ValueError(f"{path}: unsupported feature file version")
    features = np.array([row["features"] for row in rows], dtype=float)
    labels = np.array([row["label"] for row in rows], dtype=int)
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{path}: non-finite feature values")
    return features, labels


def save_pca(model: PCAModel, path) -> None:
    payload = {
        "mean": model.mean.tolist(),
        "components": model.components.tolist(),
        "explained_variance": model.explained_variance.tolist(),
        "feature_min": model.feature_min.tolist(),
        "feature_max": model.feature_max.tolist(),
    }
    atomic_write_text(path, json.dumps(payload) + "\n")


def load_pca(path) -> PCAModel:
    with open(path) as f:
        payload = json.load(f)
    return PCAModel(
        mean=np.asarray(payload["mean"], dtype=float),
        components=np.asarray(payload["components"], dtype=float),
        explained_variance=np.asarray(payload["explained_variance"], dtype=float),
        feature_min=np.asarray(payload["feature_min"], dtype=float),
        feature_max=np.asarray(payload["feature_max"], dtype=float),
    )
