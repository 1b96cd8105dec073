"""Command-line surface for the full pipeline.

Subcommands: prepare-mnist, gen-xxz, train, eval, baseline.  Every mutating
command writes a run manifest (resolved config, input hashes, timestamps,
outputs) next to its outputs.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import from_descriptor
from .encoding import encode_dataset
from .fileio import atomic_write_text, parse_jsonl, read_hashed
from .gradients import make_head
from .mnist import (
    FEATURES_FORMAT,
    IdxError,
    image_label_pair,
    load_features,
    parse_features,
    parse_idx,
    prepare_features,
    save_features,
    save_pca,
)
from .training import (
    DECODER_LOSS,
    CheckpointError,
    DivergenceError,
    LabeledStates,
    TrainConfig,
    evaluate,
    history_csv,
    load_checkpoint,
    logistic_baseline,
    save_checkpoint,
    split_train_val,
    train,
)
from .xxz import (
    DATASET_FORMAT,
    VqeConfig,
    dataset_summary,
    generate_dataset,
    parse_records,
    save_records,
    split_records,
    states_from_records,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_SEEDS = "0,1,2,3,4"


class CliDataError(ValueError):
    pass


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_manifest(out_dir: Path, command: str, config: dict, input_hashes: dict, outputs: list, started: str) -> None:
    manifest = {
        "command": command,
        "config": config,
        "input_hashes": input_hashes,
        "started": started,
        "finished": _utcnow(),
        "outputs": [str(p) for p in outputs],
    }
    atomic_write_text(out_dir / f"{command}.manifest.json", json.dumps(manifest, indent=1) + "\n")


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _load_config_file(path) -> dict:
    """Parse a key = value override file (strings, numbers, booleans)."""
    overrides = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliDataError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value.strip("\"'")
    return overrides


def _read_dataset(path):
    """(format, header, rows, sha256) of a dataset file, from one read of it."""
    data, digest = read_hashed(path)
    header, rows = parse_jsonl(data.decode(), path)
    kind = header.get("format")
    if kind not in (DATASET_FORMAT, FEATURES_FORMAT):
        raise CliDataError(f"{path}: unrecognized dataset format {kind!r}")
    return kind, header, rows, digest


# ---------------------------------------------------------------------------
# subcommands

def cmd_prepare_mnist(args) -> int:
    started = _utcnow()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    classes = _parse_int_list(args.classes)
    arrays, hashes = {}, {}
    for name in ("images", "labels", "test_images", "test_labels"):
        data, hashes[name] = read_hashed(getattr(args, name))
        arrays[name] = parse_idx(data)
    train_images, train_labels = image_label_pair(arrays["images"], arrays["labels"], args.images, args.labels)
    test_images, test_labels = image_label_pair(
        arrays["test_images"], arrays["test_labels"], args.test_images, args.test_labels
    )
    train_x, train_y, test_x, test_y, model = prepare_features(
        train_images, train_labels, test_images, test_labels, k=args.components, classes=classes
    )
    meta = {"classes": classes, "pca_components": args.components, "pca_fit": "train-after-filter"}
    train_path = out_dir / "train_features.jsonl"
    test_path = out_dir / "test_features.jsonl"
    pca_path = out_dir / "pca_model.json"
    save_features(train_path, train_x, train_y, meta)
    save_features(test_path, test_x, test_y, meta)
    save_pca(model, pca_path)
    _write_manifest(
        out_dir,
        "prepare-mnist",
        {"components": args.components, "classes": classes},
        hashes,
        [train_path, test_path, pca_path],
        started,
    )
    print(f"wrote {len(train_y)} train / {len(test_y)} test examples to {out_dir}")
    return EXIT_OK


def cmd_gen_xxz(args) -> int:
    started = _utcnow()
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    lo, hi = (float(tok) for tok in args.delta_range.split(","))
    overrides = _load_config_file(args.config) if args.config else {}
    known = asdict(VqeConfig())
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise CliDataError(f"unknown VQE config keys: {', '.join(unknown)}")
    vqe_config = VqeConfig(**{**known, **overrides})
    records = generate_dataset(
        count=args.count,
        delta_range=(lo, hi),
        layers=args.layers,
        config=vqe_config,
        seed=args.seed,
    )
    save_records(records, out_path, config=vqe_config, seed=args.seed)
    summary = dataset_summary(records)
    _write_manifest(
        out_path.parent,
        "gen-xxz",
        {
            "count": args.count,
            "delta_range": [lo, hi],
            "layers": args.layers,
            "seed": args.seed,
            "vqe_config": asdict(vqe_config),
            "summary": summary,
        },
        {},
        [out_path],
        started,
    )
    print(
        f"{summary['count']} ground states: median relative energy error "
        f"{summary['median_relative_error']:.4f}, max {summary['max_relative_error']:.4f}, "
        f"class counts {summary['class_counts']}"
    )
    return EXIT_OK


def _load_train_test(args, kind: str, header: dict, rows: list, digest: str):
    """Prepare the training data, read once as ``header`` and ``rows``, for every seed.

    Returns the sha256 fingerprints of the files read and a function of the
    seed that gives the (train, test) state sets: an XXZ dataset is split
    2:1 per seed from states prepared once, feature files come with their
    own test split.
    """
    if kind == DATASET_FORMAT:
        records = parse_records(header, rows, args.data)
        prepared = states_from_records(records)
        position = {id(record): i for i, record in enumerate(records)}

        def split(seed):
            parts = split_records(records, (2, 1), seed)
            if not all(parts):
                raise CliDataError(f"{args.data}: too few records for a 2:1 train/test split")
            return tuple(prepared.subset([position[id(r)] for r in part]) for part in parts)

        return (digest,), split
    if not args.test_data:
        raise CliDataError("feature datasets need --test-data for the test split")
    train_x, train_y = parse_features(header, rows, args.data)
    _, test_header, test_rows, test_digest = _read_dataset(args.test_data)
    test_x, test_y = parse_features(test_header, test_rows, args.test_data)
    n_classes = int(max(train_y.max(), test_y.max())) + 1
    sets = (
        LabeledStates(encode_dataset(train_x), train_y, n_classes),
        LabeledStates(encode_dataset(test_x), test_y, n_classes),
    )
    return (digest, test_digest), lambda seed: sets


def _train_defaults(kind: str) -> dict:
    if kind == DATASET_FORMAT:
        return {"batch_size": 8, "batches_per_epoch": 0, "patience": 250}
    return {"batch_size": 20, "batches_per_epoch": 10, "patience": 100}


def cmd_train(args) -> int:
    started = _utcnow()
    template = from_descriptor(args.arch)
    if not template.readout:
        raise CliDataError(f"{args.arch} has no readout wires; pick a classifier architecture")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = _parse_int_list(args.seeds)
    if not seeds:
        raise CliDataError("--seeds must name at least one seed")
    kind, header, rows, digest = _read_dataset(args.data)

    settings = _train_defaults(kind)
    settings["learning_rate"] = 0.001
    settings["max_epochs"] = 1000
    if args.config:
        overrides = _load_config_file(args.config)
        allowed = {"batch_size", "batches_per_epoch", "learning_rate", "max_epochs", "patience"}
        unknown = sorted(set(overrides) - allowed)
        if unknown:
            raise CliDataError(f"unknown training config keys: {', '.join(unknown)}")
        settings.update(overrides)
    for flag in ("batch_size", "batches_per_epoch", "learning_rate", "max_epochs", "patience"):
        value = getattr(args, flag)
        if value is not None:
            settings[flag] = value
    loss = DECODER_LOSS[args.decoder]
    fingerprints, split = _load_train_test(args, kind, header, rows, digest)

    accuracies = []
    outputs = []
    for seed in seeds:
        train_full, test_set = split(seed)
        train_set, val_set = split_train_val(train_full, (11, 1), seed)
        config = TrainConfig(seed=seed, loss=loss, **settings)
        checkpoint, history = train(template, config, train_set, val_set)
        checkpoint.dataset_fingerprints = fingerprints
        acc, _ = evaluate(make_head(loss, template, test_set.n_classes), checkpoint.params, test_set)
        accuracies.append(acc)
        ckpt_path = out_dir / f"seed{seed}.checkpoint.json"
        hist_path = out_dir / f"seed{seed}.history.csv"
        save_checkpoint(checkpoint, ckpt_path)
        atomic_write_text(hist_path, history_csv(history))
        outputs.extend([ckpt_path, hist_path])
        print(
            f"seed {seed}: test accuracy {acc:.4f} "
            f"(best val {checkpoint.best_val_accuracy:.4f}, {len(history)} epochs)"
        )
    mean = float(np.mean(accuracies))
    std = float(np.std(accuracies))
    summary = {
        "arch": args.arch,
        "decoder": args.decoder,
        "seeds": seeds,
        "test_accuracies": accuracies,
        "mean": mean,
        "std": std,
    }
    summary_path = out_dir / "summary.json"
    atomic_write_text(summary_path, json.dumps(summary, indent=1) + "\n")
    outputs.append(summary_path)
    input_hashes = dict(zip(("data", "test_data"), fingerprints))
    _write_manifest(out_dir, "train", {**settings, "arch": args.arch, "decoder": args.decoder, "seeds": seeds}, input_hashes, outputs, started)
    print(f"test accuracy: {100 * mean:.1f} +- {100 * std:.1f} (over {len(seeds)} seeds)")
    return EXIT_OK


def cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    template = from_descriptor(checkpoint.descriptor)
    kind, header, rows, digest = _read_dataset(args.data)
    fingerprints = checkpoint.dataset_fingerprints
    if fingerprints and digest not in fingerprints:
        print(
            "warning: dataset fingerprint differs from the ones recorded at training time",
            file=sys.stderr,
        )
    if kind == DATASET_FORMAT:
        dataset = states_from_records(parse_records(header, rows, args.data))
        if dataset.n_classes != checkpoint.n_classes:
            raise CliDataError(
                f"checkpoint expects {checkpoint.n_classes} classes, dataset has {dataset.n_classes}"
            )
    else:
        features, labels = parse_features(header, rows, args.data)
        if labels.max() >= checkpoint.n_classes:
            raise CliDataError(
                f"dataset label {int(labels.max())} outside the checkpoint's "
                f"{checkpoint.n_classes} classes"
            )
        dataset = LabeledStates(encode_dataset(features), labels, checkpoint.n_classes)
    head = make_head(DECODER_LOSS[checkpoint.decoder], template, checkpoint.n_classes)
    acc, matrix = evaluate(head, checkpoint.params, dataset)
    print(f"accuracy: {acc:.4f} over {len(dataset)} examples")
    print("confusion matrix (rows = true class, columns = predicted):")
    for row in matrix:
        print("  " + " ".join(f"{v:6d}" for v in row))
    return EXIT_OK


def cmd_baseline(args) -> int:
    train_x, train_y = load_features(args.train)
    test_x, test_y = load_features(args.test)
    if train_x.shape[1] != test_x.shape[1]:
        raise CliDataError(
            f"feature dimensions disagree: train {train_x.shape[1]}, test {test_x.shape[1]}"
        )
    n_classes = int(max(train_y.max(), test_y.max())) + 1
    acc = logistic_baseline(train_x, train_y, test_x, test_y, n_classes)
    print(f"logistic regression test accuracy: {acc:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnqc",
        description="Tensor-network quantum classifiers: datasets, training, evaluation.",
    )
    parser.add_argument("--version", action="version", version=f"tnqc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-mnist", help="IDX files -> filtered, PCA-compressed feature files")
    p.add_argument("--images", required=True, help="training images, raw IDX (not gzipped)")
    p.add_argument("--labels", required=True, help="training labels, raw IDX")
    p.add_argument("--test-images", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--components", type=int, default=8)
    p.add_argument("--classes", default="0,1,2,3", help="digit classes to keep")
    p.set_defaults(func=cmd_prepare_mnist)

    p = sub.add_parser("gen-xxz", help="generate VQE ground states across the anisotropy range")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--delta-range", default="-2,2")
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--config", help="key = value VQE overrides (iterations, learning_rate, ...)")
    p.set_defaults(func=cmd_gen_xxz)

    p = sub.add_parser("train", help="train one architecture over several seeds")
    p.add_argument("--arch", required=True, help="e.g. ttn:su4, mera:so4, mera:simple-real")
    p.add_argument("--decoder", choices=("binary", "amplitude"), required=True)
    p.add_argument("--data", required=True, help="feature file or XXZ dataset")
    p.add_argument("--test-data", help="test feature file (feature datasets only)")
    p.add_argument("--seeds", default=DEFAULT_SEEDS)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="key = value training overrides")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--batches-per-epoch", type=int, dest="batches_per_epoch")
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int, dest="patience")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baseline", help="logistic-regression reference on feature files")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except (DivergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (IdxError, CheckpointError, CliDataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
