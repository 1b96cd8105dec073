"""Adam, the mini-batch training loop with early stopping, and baselines.

Training follows the usual hybrid loop: encode or prepare the input states
once, then per batch compute the mean loss gradient over the examples (via
the adjoint route) and take one Adam step.  Validation accuracy is scored
after every epoch; when it stops improving for ``patience`` epochs the loop
halts and the parameters from the best epoch are restored.  ``evaluate`` is
the one scoring pass: it simulates each state once and returns the accuracy
with the confusion matrix it is read from.

All randomness (parameter init, batch order) derives from the config seed, so
identical config + data reproduce the history bit for bit.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .circuits import CircuitTemplate, from_descriptor, run_states
from .fileio import atomic_write_text
from .gradients import batch_loss_grad, make_head

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7

CHECKPOINT_VERSION = 2

EVAL_CHUNK = 512


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries enough context to locate the blow-up."""


class CheckpointError(ValueError):
    """Checkpoint file is missing fields, corrupted, or of an unknown version."""


@dataclass
class TrainConfig:
    batch_size: int = 20
    batches_per_epoch: int = 10  # 0 = one full pass over the training set
    learning_rate: float = 0.001
    max_epochs: int = 1000
    patience: int = 100
    seed: int = 0
    loss: str = "mse_binary"  # or "ce_amplitude"

    def __post_init__(self):
        if self.batch_size < 1 or self.max_epochs < 1 or self.batches_per_epoch < 0:
            raise ValueError(f"non-positive sizes in config: {self}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ValueError(f"patience must be in [1, max_epochs], got {self.patience}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def zeros(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
    """One Adam update; mutates ``state`` and returns the new parameters."""
    if params.shape != grad.shape or params.shape != state.m.shape:
        raise ValueError("parameter/gradient/state dimension mismatch")
    state.t += 1
    state.m = state.beta1 * state.m + (1 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1 - state.beta2) * grad**2
    m_hat = state.m / (1 - state.beta1**state.t)
    v_hat = state.v / (1 - state.beta2**state.t)
    return params - lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class LabeledStates:
    """Prepared input states with integer class labels."""

    states: np.ndarray  # (N, 2^n) complex
    labels: np.ndarray  # (N,) int
    n_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.states.shape[0] != self.labels.shape[0]:
            raise ValueError("states and labels differ in length")
        if len(self.labels) and not (0 <= self.labels.min() and self.labels.max() < self.n_classes):
            raise ValueError("label outside [0, n_classes)")

    def __len__(self) -> int:
        return self.states.shape[0]

    def subset(self, idx) -> "LabeledStates":
        return LabeledStates(self.states[idx], self.labels[idx], self.n_classes)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    seconds: float


def history_csv(records: list[EpochRecord]) -> str:
    lines = ["epoch,train_loss,train_acc,val_acc,seconds"]
    for r in records:
        lines.append(f"{r.epoch},{r.train_loss:.10g},{r.train_acc:.6g},{r.val_acc:.6g},{r.seconds:.4g}")
    return "\n".join(lines) + "\n"


@dataclass
class Checkpoint:
    descriptor: str
    decoder: str  # "binary" or "amplitude"
    n_classes: int
    params: np.ndarray
    config: TrainConfig
    seed: int
    best_val_accuracy: float
    epochs_run: int
    dataset_fingerprints: tuple[str, ...]  # sha256 of each data file trained on
    version: int = CHECKPOINT_VERSION


DECODER_LOSS = {"binary": "mse_binary", "amplitude": "ce_amplitude"}
LOSS_DECODER = {v: k for k, v in DECODER_LOSS.items()}


def _batch_stream(n_examples: int, batch_size: int, rng: np.random.Generator):
    """Yield index batches without replacement, reshuffling each full pass."""
    while True:
        order = rng.permutation(n_examples)
        for start in range(0, n_examples, batch_size):
            yield order[start : start + batch_size]


def train(
    template: CircuitTemplate,
    config: TrainConfig,
    train_set: LabeledStates,
    val_set: LabeledStates,
) -> tuple[Checkpoint, list[EpochRecord]]:
    """Fit the template's parameters; returns the best-epoch checkpoint and history."""
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("empty training or validation set")
    head = make_head(config.loss, template, train_set.n_classes)

    init_rng = np.random.default_rng([config.seed, 0])
    params = init_rng.uniform(0.0, 2 * np.pi, size=template.n_params)
    adam = AdamState.zeros(template.n_params)
    batch_rng = np.random.default_rng([config.seed, 1, 0])
    stream = _batch_stream(len(train_set), config.batch_size, batch_rng)
    if config.batches_per_epoch:
        batches_per_epoch = config.batches_per_epoch
    else:
        batches_per_epoch = -(-len(train_set) // config.batch_size)

    best_params = params.copy()
    best_val = -1.0
    since_best = 0
    history: list[EpochRecord] = []

    for epoch in range(1, config.max_epochs + 1):
        tic = time.perf_counter()
        loss_sum = 0.0
        n_seen = 0
        n_correct = 0
        for _ in range(batches_per_epoch):
            idx = next(stream)
            labels = train_set.labels[idx]
            losses, grads, outs = batch_loss_grad(head, params, train_set.states[idx], labels)
            batch_loss = float(losses.mean())
            if not np.isfinite(batch_loss):
                raise DivergenceError(
                    f"non-finite loss {batch_loss} at epoch {epoch} (seed {config.seed})"
                )
            n_correct += int((head.predict(outs) == labels).sum())
            n_seen += len(idx)
            loss_sum += batch_loss
            params = adam_step(adam, params, grads.mean(axis=0), config.learning_rate)
        val_acc, _ = evaluate(head, params, val_set)
        history.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / batches_per_epoch,
                train_acc=n_correct / n_seen,
                val_acc=val_acc,
                seconds=time.perf_counter() - tic,
            )
        )
        if val_acc > best_val:
            best_val = val_acc
            best_params = params.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break

    checkpoint = Checkpoint(
        descriptor=template.descriptor,
        decoder=LOSS_DECODER[config.loss],
        n_classes=train_set.n_classes,
        params=best_params,
        config=config,
        seed=config.seed,
        best_val_accuracy=best_val,
        epochs_run=history[-1].epoch,
        dataset_fingerprints=(),  # states carry no file; callers that read one fill this in
    )
    return checkpoint, history


def evaluate(head, params, dataset: LabeledStates) -> tuple[float, np.ndarray]:
    """Accuracy and confusion matrix (rows = true class, columns = predicted).

    Each state is simulated once, in chunks of ``EVAL_CHUNK`` rows; the
    accuracy is the matrix trace over its sum.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    n = dataset.n_classes
    counts = np.zeros(n * n, dtype=int)
    for start in range(0, len(dataset), EVAL_CHUNK):
        chunk = slice(start, start + EVAL_CHUNK)
        kets = run_states(head.template, params, dataset.states[chunk])
        preds = head.predict(head.outputs(kets))
        counts += np.bincount(dataset.labels[chunk] * n + preds, minlength=n * n)
    matrix = counts.reshape(n, n)
    return int(np.trace(matrix)) / int(matrix.sum()), matrix


def split_train_val(dataset: LabeledStates, ratio: tuple[int, int], seed: int) -> tuple[LabeledStates, LabeledStates]:
    """Shuffled split by ratio, e.g. (11, 1) for the train/validation carve."""
    rng = np.random.default_rng([seed, 2])
    order = rng.permutation(len(dataset))
    n_val = max(1, round(len(dataset) * ratio[1] / sum(ratio)))
    return dataset.subset(order[n_val:]), dataset.subset(order[:n_val])


# ---------------------------------------------------------------------------
# classical reference

def logistic_baseline(
    train_features,
    train_labels,
    test_features,
    test_labels,
    n_classes: int,
    learning_rate: float = 1.0,
    max_iter: int = 10000,
    grad_tol: float = 1e-5,
) -> float:
    """Multinomial logistic regression by full-batch gradient descent."""
    x = np.asarray(train_features, dtype=float)
    y = np.asarray(train_labels, dtype=int)
    xt = np.asarray(test_features, dtype=float)
    yt = np.asarray(test_labels, dtype=int)
    if x.ndim != 2 or xt.ndim != 2 or x.shape[1] != xt.shape[1]:
        raise ValueError("train/test feature dimensions disagree")
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    onehot = np.eye(n_classes)[y]
    w = np.zeros((xb.shape[1], n_classes))
    for _ in range(max_iter):
        logits = xb @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        grad = xb.T @ (p - onehot) / xb.shape[0]
        if np.linalg.norm(grad) < grad_tol:
            break
        w -= learning_rate * grad
    xtb = np.hstack([xt, np.ones((xt.shape[0], 1))])
    preds = np.argmax(xtb @ w, axis=1)
    return float((preds == yt).mean())


# ---------------------------------------------------------------------------
# checkpoint persistence

def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    payload = {
        "version": checkpoint.version,
        "descriptor": checkpoint.descriptor,
        "decoder": checkpoint.decoder,
        "n_classes": checkpoint.n_classes,
        "params": checkpoint.params.tolist(),
        "config": asdict(checkpoint.config),
        "seed": checkpoint.seed,
        "best_val_accuracy": checkpoint.best_val_accuracy,
        "epochs_run": checkpoint.epochs_run,
        "dataset_fingerprints": list(checkpoint.dataset_fingerprints),
    }
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path) as f:
            payload = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupted checkpoint ({exc})") from exc
    try:
        version = payload["version"]
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {version} not supported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        checkpoint = Checkpoint(
            descriptor=payload["descriptor"],
            decoder=payload["decoder"],
            n_classes=int(payload["n_classes"]),
            params=np.asarray(payload["params"], dtype=float),
            config=TrainConfig(**payload["config"]),
            seed=int(payload["seed"]),
            best_val_accuracy=float(payload["best_val_accuracy"]),
            epochs_run=int(payload["epochs_run"]),
            dataset_fingerprints=tuple(payload["dataset_fingerprints"]),
            version=version,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, CheckpointError):
            raise
        raise CheckpointError(f"{path}: malformed checkpoint ({exc})") from exc
    if checkpoint.decoder not in DECODER_LOSS:
        raise CheckpointError(f"{path}: unknown decoder {checkpoint.decoder!r}")
    expected = from_descriptor(checkpoint.descriptor).n_params
    if checkpoint.params.size != expected:
        raise CheckpointError(
            f"{path}: {checkpoint.descriptor} expects {expected} parameters, "
            f"found {checkpoint.params.size}"
        )
    return checkpoint
