"""The digit-recognition pipeline, runnable with or without real MNIST.

With the official IDX files (uncompressed) in ./data/mnist or $TNQC_MNIST_DIR,
this uses them; otherwise it fabricates small synthetic digit images so the
whole path still runs: IDX parsing -> class filtering -> PCA to 8 features ->
min-max scaling -> qubit encoding -> training -> logistic baseline.
"""
import os
from pathlib import Path

import numpy as np

from tnqc import BlockKind, TrainConfig, build_ttn, evaluate, logistic_baseline, make_head, train
from tnqc.encoding import encode_dataset
from tnqc.mnist import load_image_label_pair, prepare_features, serialize_idx
from tnqc.training import LabeledStates, split_train_val

data_dir = Path(os.environ.get("TNQC_MNIST_DIR", "data/mnist"))
names = (
    "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
)

if all((data_dir / name).exists() for name in names):
    print(f"using MNIST from {data_dir}")
    train_images, train_labels = load_image_label_pair(data_dir / names[0], data_dir / names[1])
    test_images, test_labels = load_image_label_pair(data_dir / names[2], data_dir / names[3])
    n_train, n_test = 2000, 500
else:
    print("official MNIST not found; fabricating synthetic digit blobs")
    rng = np.random.default_rng(0)

    def blobs(labels):
        images = np.zeros((len(labels), 28, 28), dtype=np.uint8)
        for i, label in enumerate(labels):
            r, c = 2 + 2 * int(label), 2 + 2 * (9 - int(label))
            images[i, r : r + 6, c : c + 6] = rng.integers(100, 255, (6, 6))
        return images

    train_labels = rng.integers(0, 10, 1200).astype(np.uint8)
    test_labels = rng.integers(0, 10, 400).astype(np.uint8)
    train_images, test_images = blobs(train_labels), blobs(test_labels)
    # round-trip through the IDX container for good measure
    from tnqc.mnist import parse_idx

    train_images = parse_idx(serialize_idx(train_images))
    n_train, n_test = 600, 200

train_x, train_y, test_x, test_y, model = prepare_features(
    train_images, train_labels, test_images, test_labels, k=8
)
rng = np.random.default_rng(0)
train_pick = rng.choice(len(train_y), size=min(n_train, len(train_y)), replace=False)
test_pick = rng.choice(len(test_y), size=min(n_test, len(test_y)), replace=False)
train_x, train_y = train_x[train_pick], train_y[train_pick]
test_x, test_y = test_x[test_pick], test_y[test_pick]
print(f"prepared {len(train_y)} train / {len(test_y)} test examples, 8 features in [0, 1]")
print("explained variances:", np.round(model.explained_variance[:4], 2), "...")

baseline = logistic_baseline(train_x, train_y, test_x, test_y, 4)
print(f"logistic-regression baseline: {baseline:.3f}")

train_full = LabeledStates(encode_dataset(train_x), train_y, 4)
test_set = LabeledStates(encode_dataset(test_x), test_y, 4)
train_set, val_set = split_train_val(train_full, (11, 1), seed=0)
template = build_ttn(BlockKind.SIMPLE_SU2)
config = TrainConfig(batch_size=20, batches_per_epoch=10, learning_rate=0.01,
                     max_epochs=120, patience=50, seed=0, loss="ce_amplitude")
print(f"training {template.descriptor} with amplitude decoding ...")
checkpoint, history = train(template, config, train_set, val_set)
accuracy, _ = evaluate(make_head(config.loss, template, 4), checkpoint.params, test_set)
print(f"quantum classifier test accuracy: {accuracy:.3f} ({len(history)} epochs)")
