"""The two benchmark workloads: phase recognition and digit recognition.

Each workload makes its inputs from the run seed in ``setup`` and warms up
with one tiny run of each command; ``round`` then runs the same CLI commands
and checks every time.  Each command names its
timed phase (prepare, train or eval) and the fixed work it does, so that a
rate is work over the command's wall time.  A round runs all its commands
back to back and checks their outputs afterwards: the reference
computations, interleaved, made the timings of the next command vary.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from tnqc.circuits import build_checkerboard, from_descriptor, run_states
from tnqc.encoding import encode_dataset
from tnqc.gradients import batch_loss_grad, make_head
from tnqc.xxz import load_records, split_records, states_from_records

import checks
import reference as ref


def read_rows(path) -> tuple[dict, list[dict]]:
    """Header and rows of a JSON Lines output file, read without the program."""
    with open(path) as f:
        lines = [json.loads(line) for line in f if line.strip()]
    return lines[0], lines[1:]


def write_config(path, values: dict) -> None:
    """A ``key = value`` override file as the CLI's ``--config`` reads it."""
    Path(path).write_text("".join(f"{k} = {v}\n" for k, v in values.items()))


def _classifier_checks(runner, ckpt_path, inputs, labels, sample=()):
    """Reference predictions for a checkpoint; state and gradient checks on ``sample``.

    ``inputs`` are the classifier's input states made by the reference, and
    ``sample`` the indices of the examples whose forward states and loss
    gradients are compared with the program's.  Returns (predictions,
    decision gaps) over all inputs.
    """
    with open(ckpt_path) as f:
        ckpt = json.load(f)
    template = from_descriptor(ckpt["descriptor"])
    circuit = ref.DenseCircuit(template)
    params = np.asarray(ckpt["params"], dtype=float)
    decoder, n_classes = ckpt["decoder"], ckpt["n_classes"]
    unitary = circuit.unitary(params)
    preds, gaps = [], []
    for start in range(0, len(inputs), 1024):
        kets = inputs[start : start + 1024] @ unitary.T
        p, g = ref.predict(kets, template.readout, decoder, n_classes)
        preds.append(p)
        gaps.append(g)
    preds, gaps = np.concatenate(preds), np.concatenate(gaps)

    if not len(sample):
        return preds, gaps
    sample = np.asarray(sample)
    runner.check(
        "classifier states", checks.check_states,
        run_states(template, params, inputs[sample]), inputs[sample] @ unitary.T,
    )
    loss = {"binary": "mse_binary", "amplitude": "ce_amplitude"}[decoder]
    _, grads, _ = batch_loss_grad(make_head(loss, template, n_classes), params, inputs[sample], labels[sample])
    for row, i in enumerate(sample):
        fd = ref.finite_difference_grad(circuit, params, inputs[i], int(labels[i]), decoder, n_classes)
        runner.check("loss gradient", checks.check_gradient, grads[row], fd)
    return preds, gaps


class XxzPipeline:
    """gen-xxz -> train mera:su4 (binary, 3 seeds) -> eval of each checkpoint, repeated."""

    name = "xxz-pipeline"
    COUNT = 96
    LAYERS = 4
    VQE = {  # every VqeConfig key, set explicitly
        "iterations": 40,
        "warm_iterations": 12,
        "learning_rate": 0.04,
        "warm_start_noise": 0.02,
        "restarts": 1,
        "chains": 8,
    }
    EPOCHS = 6
    BATCH = 8
    LEARNING_RATE = 0.05
    EVAL_REPEATS = 3  # one eval takes ~0.1 s; repeats give the phase more samples
    MEDIAN_ERROR_TARGET = 0.12
    ACCURACY_MARGIN = 0.2  # over chance, 1/3

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.train_seeds = [3 * seed, 3 * seed + 1, 3 * seed + 2]
        self.data = root / "xxz.jsonl"
        self.config = root / "vqe.cfg"

    def setup(self, runner) -> None:
        write_config(self.config, self.VQE)
        # the grid gen-xxz sweeps; no point sits exactly on a phase boundary
        self.labels = np.array([ref.phase_label(d) for d in np.linspace(-2, 2, self.COUNT)])

        warm = self.root / "warm-up"
        warm.mkdir()
        write_config(warm / "vqe.cfg", {**self.VQE, "iterations": 2, "warm_iterations": 1, "chains": 2})
        runner.command(None, 0, [
            "gen-xxz", "--count", "12", "--delta-range=-2,2", "--layers", str(self.LAYERS),
            "--seed", str(self.seed), "--out", str(warm / "xxz.jsonl"), "--config", str(warm / "vqe.cfg"),
        ])
        runner.command(None, 0, [
            "train", "--arch", "mera:su4", "--decoder", "binary", "--data", str(warm / "xxz.jsonl"),
            "--seeds", "0", "--out", str(warm), "--batch-size", str(self.BATCH), "--max-epochs", "1", "--patience", "1",
        ])
        runner.command(None, 0, ["eval", "--checkpoint", str(warm / "seed0.checkpoint.json"), "--data", str(warm / "xxz.jsonl")])

    def round(self, runner) -> None:
        runner.command("prepare", self.COUNT, [
            "gen-xxz", "--count", str(self.COUNT), "--delta-range=-2,2",
            "--layers", str(self.LAYERS), "--seed", str(self.seed),
            "--out", str(self.data), "--config", str(self.config),
        ])
        out = self.root / "train"
        train_text = runner.command("train", self.EPOCHS * len(self.train_seeds) * self._train_size(self.labels), [
            "train", "--arch", "mera:su4", "--decoder", "binary", "--data", str(self.data),
            "--seeds", ",".join(map(str, self.train_seeds)), "--out", str(out),
            "--batch-size", str(self.BATCH), "--batches-per-epoch", "0",
            "--max-epochs", str(self.EPOCHS), "--patience", str(self.EPOCHS),
            "--learning-rate", str(self.LEARNING_RATE),
        ])
        eval_texts = {
            seed: [
                runner.command("eval", self.COUNT, [
                    "eval", "--checkpoint", str(out / f"seed{seed}.checkpoint.json"), "--data", str(self.data),
                ])
                for _ in range(self.EVAL_REPEATS)
            ]
            for seed in self.train_seeds
        }

        _, records = read_rows(self.data)
        vqe_circuit = ref.DenseCircuit(build_checkerboard(8, self.LAYERS))
        states = np.stack([vqe_circuit.state(r["params"], ref.vacuum(8)) for r in records])
        runner.check("ground states", checks.check_ground_states, records, states, self.COUNT)
        runner.check("median VQE error", checks.check_median_error, records, self.MEDIAN_ERROR_TARGET)
        runner.check("prepared states", checks.check_states,
                     states_from_records(load_records(self.data)).states, states)

        labels = self.labels
        printed = runner.check("train output", checks.parse_train, train_text) or {}
        floor = 1 / 3 + self.ACCURACY_MARGIN
        index = [SimpleNamespace(label=int(label), i=i) for i, label in enumerate(labels)]
        for seed, texts in eval_texts.items():
            # the finite-difference gradient of mera:su4 costs ~0.2 s per example: one per round
            sample = [seed % len(labels)] if seed == self.train_seeds[0] else []
            preds, gaps = _classifier_checks(runner, out / f"seed{seed}.checkpoint.json", states, labels, sample)
            test = np.array([r.i for r in split_records(index, (2, 1), seed)[1]])
            if seed in printed:
                runner.check("train accuracy", checks.check_accuracy,
                             printed[seed], labels[test], preds[test], gaps[test], floor)
            for text in texts:
                parsed = runner.check("eval output", checks.parse_eval, text)
                if parsed:
                    accuracy, _, matrix = parsed
                    runner.check("eval accuracy", checks.check_accuracy, accuracy, labels, preds, gaps, floor)
                    runner.check("confusion matrix", checks.check_confusion, matrix, labels, preds, gaps, 3)

    @staticmethod
    def _train_size(labels) -> int:
        """Examples per epoch: the 2:1 label-stratified split, less the 11:1 validation carve."""
        n_test = sum(round(np.sum(labels == c) / 3) for c in np.unique(labels))
        train_full = len(labels) - n_test
        return train_full - max(1, round(train_full / 12))


# ---------------------------------------------------------------------------
# synthetic digits

# pen strokes per digit in a unit box, (x, y) with y downwards
_STROKES = {
    0: [("arc", 0.5, 0.5, 0.28, 0.4, 0, 360)],
    1: [("line", [(0.38, 0.22), (0.52, 0.1), (0.52, 0.9)])],
    2: [("arc", 0.5, 0.32, 0.24, 0.22, 180, 360), ("line", [(0.74, 0.36), (0.24, 0.9), (0.8, 0.9)])],
    3: [("arc", 0.48, 0.3, 0.22, 0.2, 150, 450), ("arc", 0.48, 0.7, 0.25, 0.2, 270, 570)],
    4: [("line", [(0.66, 0.9), (0.66, 0.1), (0.2, 0.64), (0.82, 0.64)])],
    5: [("line", [(0.76, 0.1), (0.32, 0.1), (0.3, 0.46)]), ("arc", 0.5, 0.66, 0.25, 0.24, 220, 500)],
    6: [("arc", 0.5, 0.68, 0.22, 0.22, 0, 360), ("line", [(0.68, 0.12), (0.4, 0.3), (0.29, 0.62)])],
    7: [("line", [(0.2, 0.1), (0.8, 0.1), (0.42, 0.9)])],
    8: [("arc", 0.5, 0.29, 0.18, 0.19, 0, 360), ("arc", 0.5, 0.7, 0.23, 0.21, 0, 360)],
    9: [("arc", 0.5, 0.32, 0.21, 0.21, 0, 360), ("line", [(0.71, 0.34), (0.62, 0.9)])],
}


def _stroke_points(stroke) -> np.ndarray:
    if stroke[0] == "arc":
        _, cx, cy, rx, ry, a0, a1 = stroke
        t = np.radians(np.linspace(a0, a1, 120))
        return np.stack([cx + rx * np.cos(t), cy - ry * np.sin(t)], axis=1)
    corners = np.array(stroke[1])
    pieces = [np.linspace(a, b, 40) for a, b in zip(corners[:-1], corners[1:])]
    return np.concatenate(pieces)


def digit_prototypes(pen_widths=(0.9, 1.3), shift: int = 2) -> np.ndarray:
    """(10, widths, shifts, 28, 28) ink images in [0, 1]."""
    grid = np.stack(np.meshgrid(np.arange(28), np.arange(28), indexing="xy"), axis=-1)
    shifts = [(dy, dx) for dy in range(-shift, shift + 1) for dx in range(-shift, shift + 1)]
    out = np.zeros((10, len(pen_widths), len(shifts), 28, 28), dtype=np.float32)
    for digit, strokes in _STROKES.items():
        pts = 4 + 20 * np.concatenate([_stroke_points(s) for s in strokes])
        d2 = ((grid[:, :, None, :] - pts[None, None]) ** 2).sum(axis=-1).min(axis=2)
        for w, width in enumerate(pen_widths):
            ink = np.exp(-d2 / (2 * width**2))
            for s, (dy, dx) in enumerate(shifts):
                out[digit, w, s] = np.roll(ink, (dy, dx), axis=(0, 1))
    return out


def synthetic_digits(count: int, rng: np.random.Generator, prototypes) -> tuple[np.ndarray, np.ndarray]:
    """uint8 images of uniformly drawn digits: a jittered prototype, faded and noisy."""
    labels = rng.integers(0, 10, count).astype(np.uint8)
    images = np.empty((count, 28, 28), dtype=np.uint8)
    _, widths, shifts = prototypes.shape[:3]
    for start in range(0, count, 2000):
        lab = labels[start : start + 2000]
        n = len(lab)
        base = prototypes[lab, rng.integers(0, widths, n), rng.integers(0, shifts, n)]
        fade = rng.uniform(0.55, 1.0, (n, 1, 1)).astype(np.float32)
        noise = rng.normal(0.0, 0.12, base.shape).astype(np.float32)
        images[start : start + n] = (255 * np.clip(base * fade + noise, 0, 1)).astype(np.uint8)
    return images, labels


def write_idx(path, array: np.ndarray) -> None:
    """Raw IDX container: magic 0x803 for (n, rows, cols) uint8, 0x801 for labels."""
    magic = 0x803 if array.ndim == 3 else 0x801
    with open(path, "wb") as f:
        f.write(struct.pack(f">i{array.ndim}i", magic, *array.shape))
        f.write(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


class Digits:
    """Synthetic IDX digits -> prepare-mnist -> train ttn:so4 (amplitude) -> eval."""

    name = "digits"
    TRAIN_IMAGES = 6000
    TEST_IMAGES = 10000
    CLASSES = (0, 1, 2, 3)
    COMPONENTS = 8
    EPOCHS = 10
    BATCH = 20
    BATCHES = 10
    LEARNING_RATE = 0.05
    ACCURACY_MARGIN = 0.2  # over chance, 1/4

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.idx = {k: root / f"{k}-idx" for k in ("train-images", "train-labels", "test-images", "test-labels")}
        self.features = root / "features"

    def setup(self, runner) -> None:
        rng = np.random.default_rng([self.seed, 2021])
        prototypes = digit_prototypes()
        train_images, train_labels = synthetic_digits(self.TRAIN_IMAGES, rng, prototypes)
        test_images, test_labels = synthetic_digits(self.TEST_IMAGES, rng, prototypes)
        for key, array in (("train-images", train_images), ("train-labels", train_labels),
                           ("test-images", test_images), ("test-labels", test_labels)):
            write_idx(self.idx[key], array)
        keep = np.isin(train_labels, self.CLASSES)
        self.train_labels = train_labels[keep].astype(int)
        self.test_labels = test_labels[np.isin(test_labels, self.CLASSES)].astype(int)
        self._train_pixels = train_images[keep]
        self._pca_reference = None

        warm = self.root / "warm-up"
        warm.mkdir()
        for key, array in (("train-images", train_images[:400]), ("train-labels", train_labels[:400]),
                           ("test-images", test_images[:100]), ("test-labels", test_labels[:100])):
            write_idx(warm / key, array)
        runner.command(None, 0, [
            "prepare-mnist", "--images", str(warm / "train-images"), "--labels", str(warm / "train-labels"),
            "--test-images", str(warm / "test-images"), "--test-labels", str(warm / "test-labels"),
            "--out", str(warm), "--components", str(self.COMPONENTS), "--classes", ",".join(map(str, self.CLASSES)),
        ])
        runner.command(None, 0, [
            "train", "--arch", "ttn:so4", "--decoder", "amplitude", "--data", str(warm / "train_features.jsonl"),
            "--test-data", str(warm / "test_features.jsonl"), "--seeds", "0", "--out", str(warm),
            "--batch-size", str(self.BATCH), "--batches-per-epoch", "1", "--max-epochs", "1", "--patience", "1",
        ])
        runner.command(None, 0, [
            "eval", "--checkpoint", str(warm / "seed0.checkpoint.json"), "--data", str(warm / "test_features.jsonl"),
        ])

    def pca_reference(self) -> tuple[float, np.ndarray]:
        """(sum of the top-k covariance eigenvalues, covariance) of the kept training pixels."""
        if self._pca_reference is None:
            x = self._train_pixels.reshape(len(self._train_pixels), -1) / 255.0
            cov = np.cov(x, rowvar=False)
            top = float(np.sum(np.linalg.eigvalsh(cov)[-self.COMPONENTS:]))
            self._pca_reference = (top, cov)
        return self._pca_reference

    def round(self, runner) -> None:
        runner.command("prepare", self.TRAIN_IMAGES + self.TEST_IMAGES, [
            "prepare-mnist", "--images", str(self.idx["train-images"]),
            "--labels", str(self.idx["train-labels"]),
            "--test-images", str(self.idx["test-images"]),
            "--test-labels", str(self.idx["test-labels"]),
            "--out", str(self.features), "--components", str(self.COMPONENTS),
            "--classes", ",".join(map(str, self.CLASSES)),
        ])
        train_path = self.features / "train_features.jsonl"
        test_path = self.features / "test_features.jsonl"
        out = self.root / "train"
        train_text = runner.command("train", self.EPOCHS * self.BATCHES * self.BATCH, [
            "train", "--arch", "ttn:so4", "--decoder", "amplitude",
            "--data", str(train_path), "--test-data", str(test_path),
            "--seeds", str(self.seed), "--out", str(out),
            "--batch-size", str(self.BATCH), "--batches-per-epoch", str(self.BATCHES),
            "--max-epochs", str(self.EPOCHS), "--patience", str(self.EPOCHS),
            "--learning-rate", str(self.LEARNING_RATE),
        ])
        ckpt = out / f"seed{self.seed}.checkpoint.json"
        eval_text = runner.command("eval", len(self.test_labels), ["eval", "--checkpoint", str(ckpt), "--data", str(test_path)])

        _, rows = read_rows(train_path)
        runner.check("train features", checks.check_features,
                     [r["features"] for r in rows], [r["label"] for r in rows], self.train_labels)
        _, rows = read_rows(test_path)
        test_x = np.array([r["features"] for r in rows])
        runner.check("test features", checks.check_features,
                     test_x, [r["label"] for r in rows], self.test_labels)
        with open(self.features / "pca_model.json") as f:
            components = json.load(f)["components"]
        runner.check("PCA components", checks.check_pca, components, *self.pca_reference())

        inputs = ref.encode(test_x)
        sample = np.arange(0, len(test_x), len(test_x) // 64)
        runner.check("encoded states", checks.check_states, encode_dataset(test_x[sample]), inputs[sample])
        labels = self.test_labels
        preds, gaps = _classifier_checks(runner, ckpt, inputs, labels, sample[:2])
        floor = 1 / len(self.CLASSES) + self.ACCURACY_MARGIN
        printed = runner.check("train output", checks.parse_train, train_text) or {}
        if self.seed in printed:
            runner.check("train accuracy", checks.check_accuracy, printed[self.seed], labels, preds, gaps, floor)
        parsed = runner.check("eval output", checks.parse_eval, eval_text)
        if parsed:
            accuracy, _, matrix = parsed
            runner.check("eval accuracy", checks.check_accuracy, accuracy, labels, preds, gaps, floor)
            runner.check("confusion matrix", checks.check_confusion, matrix, labels, preds, gaps,
                         len(self.CLASSES))


WORKLOADS = {w.name: w for w in (XxzPipeline, Digits)}
