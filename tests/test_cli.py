import argparse
import builtins
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from tnqc import mnist, xxz
from tnqc.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from tnqc.mnist import save_features, serialize_idx
from tnqc.training import load_checkpoint
from tnqc.xxz import VqeConfig, generate_dataset, save_records


def write_idx_fixtures(tmp_path, rng, n_train=40, n_test=16):
    def blob_images(labels):
        images = np.zeros((len(labels), 28, 28), dtype=np.uint8)
        for i, label in enumerate(labels):
            r, c = 2 + 2 * int(label), 2 + 2 * (9 - int(label))
            images[i, r : r + 5, c : c + 5] = rng.integers(120, 255, size=(5, 5))
        return images

    train_labels = rng.integers(0, 10, n_train).astype(np.uint8)
    test_labels = rng.integers(0, 10, n_test).astype(np.uint8)
    paths = {}
    for name, data in (
        ("train-images", blob_images(train_labels)),
        ("train-labels", train_labels),
        ("test-images", blob_images(test_labels)),
        ("test-labels", test_labels),
    ):
        path = tmp_path / f"{name}.idx"
        path.write_bytes(serialize_idx(data))
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def xxz_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("xxz") / "ground_states.jsonl"
    records = generate_dataset(
        count=12, layers=2,
        config=VqeConfig(iterations=150, warm_iterations=100, learning_rate=0.05, chains=1),
        seed=0,
    )
    save_records(records, path, seed=0)
    return str(path)


class TestPrepareMnist:
    def test_end_to_end(self, tmp_path, rng):
        paths = write_idx_fixtures(tmp_path, rng)
        out = tmp_path / "out"
        code = main([
            "prepare-mnist",
            "--images", paths["train-images"], "--labels", paths["train-labels"],
            "--test-images", paths["test-images"], "--test-labels", paths["test-labels"],
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "train_features.jsonl").exists()
        assert (out / "test_features.jsonl").exists()
        assert (out / "pca_model.json").exists()
        manifest = json.loads((out / "prepare-mnist.manifest.json").read_text())
        assert manifest["command"] == "prepare-mnist"
        assert set(manifest["input_hashes"]) == {"images", "labels", "test_images", "test_labels"}

    def test_reruns_are_byte_identical(self, tmp_path, rng):
        paths = write_idx_fixtures(tmp_path, rng)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main([
                "prepare-mnist",
                "--images", paths["train-images"], "--labels", paths["train-labels"],
                "--test-images", paths["test-images"], "--test-labels", paths["test-labels"],
                "--out", str(out),
            ]) == EXIT_OK
        for name in ("train_features.jsonl", "test_features.jsonl", "pca_model.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_labels_file_is_data_error(self, tmp_path, rng):
        paths = write_idx_fixtures(tmp_path, rng)
        code = main([
            "prepare-mnist",
            "--images", paths["train-images"], "--labels", str(tmp_path / "nope.idx"),
            "--test-images", paths["test-images"], "--test-labels", paths["test-labels"],
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA

    def test_corrupt_idx_is_data_error(self, tmp_path, rng):
        paths = write_idx_fixtures(tmp_path, rng)
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x05\x01\x02")  # truncated
        code = main([
            "prepare-mnist",
            "--images", paths["train-images"], "--labels", str(bad),
            "--test-images", paths["test-images"], "--test-labels", paths["test-labels"],
            "--out", str(tmp_path / "out"),
        ])
        assert code == EXIT_DATA


class TestGenXxz:
    def test_smoke_run_writes_records_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "xxz.jsonl"
        code = main([
            "gen-xxz", "--count", "6", "--layers", "1", "--seed", "0",
            "--out", str(out),
            "--config", str(_vqe_config_file(tmp_path)),
        ])
        assert code == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 6  # header + records
        header = json.loads(lines[0])
        assert header["format"] == "xxz-ground-states"
        printed = capsys.readouterr().out
        assert "median relative energy error" in printed
        assert (tmp_path / "gen-xxz.manifest.json").exists()

    def test_unknown_config_key_is_data_error(self, tmp_path):
        config = tmp_path / "vqe.cfg"
        config.write_text("bogus_knob = 3\n")
        code = main([
            "gen-xxz", "--count", "4", "--out", str(tmp_path / "x.jsonl"),
            "--config", str(config),
        ])
        assert code == EXIT_DATA


class TestTrainEval:
    def test_train_on_xxz_then_eval(self, tmp_path, xxz_file, capsys):
        out = tmp_path / "runs"
        code = main([
            "train", "--arch", "ttn:simple-real", "--decoder", "binary",
            "--data", xxz_file, "--seeds", "0,1", "--out", str(out),
            "--max-epochs", "4", "--patience", "4", "--batch-size", "4",
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "+-" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["test_accuracies"]) == 2
        checkpoint = load_checkpoint(out / "seed0.checkpoint.json")
        assert checkpoint.descriptor == "ttn:simple-real"
        assert checkpoint.params.shape == (16,)
        assert (out / "seed0.history.csv").read_text().startswith("epoch,train_loss")

        code = main(["eval", "--checkpoint", str(out / "seed0.checkpoint.json"), "--data", xxz_file])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "accuracy:" in printed
        assert "confusion matrix" in printed

    def test_confusion_matrix_rows_sum_to_class_counts(self, tmp_path, xxz_file, capsys):
        out = tmp_path / "runs"
        main([
            "train", "--arch", "ttn:simple-real", "--decoder", "amplitude",
            "--data", xxz_file, "--seeds", "0", "--out", str(out),
            "--max-epochs", "2", "--patience", "2", "--batch-size", "4",
        ])
        capsys.readouterr()
        main(["eval", "--checkpoint", str(out / "seed0.checkpoint.json"), "--data", xxz_file])
        printed = capsys.readouterr().out
        rows = [
            [int(tok) for tok in line.split()]
            for line in printed.splitlines()
            if line.startswith("  ") and line.split() and line.split()[0].isdigit()
        ]
        from tnqc.xxz import load_records

        labels = [r.label for r in load_records(xxz_file)]
        counts = np.bincount(labels, minlength=3)
        assert [sum(row) for row in rows] == counts.tolist()

    def test_unknown_architecture_is_data_error(self, tmp_path, xxz_file, capsys):
        code = main([
            "train", "--arch", "mps:su4", "--decoder", "binary",
            "--data", xxz_file, "--out", str(tmp_path / "o"),
        ])
        assert code == EXIT_DATA
        assert "valid" in capsys.readouterr().err

    def test_feature_dataset_requires_test_data(self, tmp_path, rng):
        path = tmp_path / "features.jsonl"
        save_features(path, rng.uniform(0, 1, (8, 8)), rng.integers(0, 4, 8))
        code = main([
            "train", "--arch", "ttn:simple-real", "--decoder", "binary",
            "--data", str(path), "--out", str(tmp_path / "o"),
            "--max-epochs", "1", "--patience", "1",
        ])
        assert code == EXIT_DATA

    def test_train_on_feature_files(self, tmp_path, rng, capsys):
        labels = np.tile([0, 1, 2, 3], 12)
        features = rng.uniform(0.3, 0.7, (48, 8))
        features[:, 0] = 1.0 - ((labels >> 1) & 1)
        features[:, 1] = 1.0 - (labels & 1)
        train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        save_features(train_path, features, labels)
        save_features(test_path, features, labels)
        out = tmp_path / "runs"
        code = main([
            "train", "--arch", "ttn:simple-su2", "--decoder", "amplitude",
            "--data", str(train_path), "--test-data", str(test_path),
            "--seeds", "0", "--out", str(out),
            "--max-epochs", "3", "--patience", "3", "--batches-per-epoch", "2",
        ])
        assert code == EXIT_OK
        assert (out / "seed0.checkpoint.json").exists()
        assert "test accuracy" in capsys.readouterr().out
        code = main(["eval", "--checkpoint", str(out / "seed0.checkpoint.json"),
                     "--data", str(test_path)])
        assert code == EXIT_OK

    def test_checkpoint_corruption_is_data_error(self, tmp_path, xxz_file):
        bad = tmp_path / "bad.checkpoint.json"
        bad.write_text("{not json")
        assert main(["eval", "--checkpoint", str(bad), "--data", xxz_file]) == EXIT_DATA

    def test_eval_warns_on_fingerprint_mismatch(self, tmp_path, xxz_file, capsys):
        out = tmp_path / "runs"
        main([
            "train", "--arch", "ttn:simple-real", "--decoder", "binary",
            "--data", xxz_file, "--seeds", "0", "--out", str(out),
            "--max-epochs", "2", "--patience", "2", "--batch-size", "4",
        ])
        other = tmp_path / "other.jsonl"
        records = generate_dataset(
            count=6, layers=2,
            config=VqeConfig(iterations=60, warm_iterations=40, chains=1), seed=1,
        )
        save_records(records, other, seed=1)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "seed0.checkpoint.json"), "--data", str(other)])
        assert code == EXIT_OK
        assert "fingerprint" in capsys.readouterr().err


def write_feature_split(tmp_path, rng, nan_column=None):
    """Separable 4-class train and test feature files that differ in content."""
    paths = []
    for name, n in (("train", 48), ("test", 24)):
        labels = np.tile([0, 1, 2, 3], n // 4)
        features = rng.uniform(0.3, 0.7, (n, 8))
        features[:, 0] = 1.0 - ((labels >> 1) & 1)
        features[:, 1] = 1.0 - (labels & 1)
        if nan_column is not None and name == "test":
            features[:, nan_column] = np.nan
        path = tmp_path / f"{name}.jsonl"
        save_features(path, features, labels)
        paths.append(str(path))
    return paths


def train_on_features(tmp_path, train_path, test_path):
    out = tmp_path / "runs"
    code = main([
        "train", "--arch", "ttn:simple-real", "--decoder", "binary",
        "--data", train_path, "--test-data", test_path,
        "--seeds", "0", "--out", str(out),
        "--max-epochs", "2", "--patience", "2", "--batches-per-epoch", "2",
    ])
    assert code == EXIT_OK
    return str(out / "seed0.checkpoint.json")


class TestBadFeatures:
    def test_eval_rejects_nan_column(self, tmp_path, rng, capsys):
        train_path, test_path = write_feature_split(tmp_path, rng)
        checkpoint = train_on_features(tmp_path, train_path, test_path)
        _, nan_test = write_feature_split(tmp_path / "nan", rng, nan_column=3)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", checkpoint, "--data", nan_test]) == EXIT_DATA
        captured = capsys.readouterr()
        assert "accuracy" not in captured.out
        assert "non-finite" in captured.err

    def test_baseline_rejects_nan_column(self, tmp_path, rng, capsys):
        train_path, test_path = write_feature_split(tmp_path, rng, nan_column=3)
        assert main(["baseline", "--train", train_path, "--test", test_path]) == EXIT_DATA
        assert "non-finite" in capsys.readouterr().err

    def test_train_rejects_nan_column(self, tmp_path, rng):
        train_path, test_path = write_feature_split(tmp_path, rng, nan_column=3)
        code = main([
            "train", "--arch", "ttn:simple-real", "--decoder", "binary",
            "--data", train_path, "--test-data", test_path,
            "--seeds", "0", "--out", str(tmp_path / "runs"),
            "--max-epochs", "1", "--patience", "1",
        ])
        assert code == EXIT_DATA

    def test_baseline_rejects_empty_feature_file(self, tmp_path, rng, capsys):
        train_path, _ = write_feature_split(tmp_path, rng)
        empty_path = tmp_path / "empty.jsonl"
        save_features(empty_path, np.zeros((0, 8)), np.zeros(0, dtype=int))
        assert main(["baseline", "--train", train_path, "--test", str(empty_path)]) == EXIT_DATA
        assert "no rows" in capsys.readouterr().err


@pytest.fixture
def opened(monkeypatch):
    """Every path opened for reading while the test runs, once per open."""
    paths, real_open = [], builtins.open

    def recording(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+"):
            paths.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording)
    monkeypatch.setattr(io, "open", recording)  # pathlib opens through io.open
    return paths


class TestInputReads:
    def test_eval_of_test_file_does_not_warn(self, tmp_path, rng, capsys):
        train_path, test_path = write_feature_split(tmp_path, rng)
        checkpoint = train_on_features(tmp_path, train_path, test_path)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", checkpoint, "--data", test_path]) == EXIT_OK
        assert "fingerprint" not in capsys.readouterr().err

    def test_multi_seed_train_reads_the_dataset_once(self, tmp_path, xxz_file, opened):
        code = main([
            "train", "--arch", "ttn:simple-real", "--decoder", "binary",
            "--data", xxz_file, "--seeds", "0,1,2", "--out", str(tmp_path / "runs"),
            "--max-epochs", "1", "--patience", "1", "--batch-size", "4",
        ])
        assert code == EXIT_OK
        assert opened.count(xxz_file) == 1

    def test_multi_seed_train_prepares_states_once(self, tmp_path, xxz_file, monkeypatch):
        from tnqc import cli

        prepared = []

        def recording(records):
            prepared.append(len(records))
            return xxz.states_from_records(records)

        monkeypatch.setattr(cli, "states_from_records", recording)
        code = main([
            "train", "--arch", "ttn:simple-real", "--decoder", "binary",
            "--data", xxz_file, "--seeds", "0,1,2", "--out", str(tmp_path / "runs"),
            "--max-epochs", "1", "--patience", "1", "--batch-size", "4",
        ])
        assert code == EXIT_OK
        assert prepared == [12]

    def test_train_splits_match_per_split_preparation(self, xxz_file):
        from tnqc import cli

        args = argparse.Namespace(data=xxz_file, test_data=None)
        kind, header, rows, digest = cli._read_dataset(xxz_file)
        _, split = cli._load_train_test(args, kind, header, rows, digest)
        records = xxz.load_records(xxz_file)
        for seed in (0, 1, 2):
            for got, part in zip(split(seed), xxz.split_records(records, (2, 1), seed)):
                expected = xxz.states_from_records(part)
                assert np.abs(got.states - expected.states).max() <= 1e-12
                assert got.labels.tolist() == expected.labels.tolist()

    def test_train_hashes_each_input_once(self, tmp_path, rng, opened):
        train_path, test_path = write_feature_split(tmp_path, rng)
        train_on_features(tmp_path, train_path, test_path)
        assert opened.count(train_path) == 1 and opened.count(test_path) == 1
        manifest = json.loads((tmp_path / "runs" / "train.manifest.json").read_text())
        assert manifest["input_hashes"] == {
            "data": hashlib.sha256(Path(train_path).read_bytes()).hexdigest(),
            "test_data": hashlib.sha256(Path(test_path).read_bytes()).hexdigest(),
        }

    @pytest.mark.parametrize("dataset", ["xxz", "features"])
    def test_eval_reads_its_data_once(self, tmp_path, rng, xxz_file, dataset, opened, capsys):
        if dataset == "xxz":
            data = xxz_file
            assert main([
                "train", "--arch", "ttn:simple-real", "--decoder", "binary", "--data", data,
                "--seeds", "0", "--out", str(tmp_path / "runs"), "--max-epochs", "1", "--patience", "1",
            ]) == EXIT_OK
            checkpoint = str(tmp_path / "runs" / "seed0.checkpoint.json")
        else:
            train_path, data = write_feature_split(tmp_path, rng)
            checkpoint = train_on_features(tmp_path, train_path, data)
        opened.clear()
        capsys.readouterr()
        assert main(["eval", "--checkpoint", checkpoint, "--data", data]) == EXIT_OK
        assert opened.count(data) == 1
        assert "fingerprint" not in capsys.readouterr().err

    def test_prepare_mnist_reads_each_input_once(self, tmp_path, rng, opened):
        paths = write_idx_fixtures(tmp_path, rng)
        out = tmp_path / "out"
        assert main([
            "prepare-mnist",
            "--images", paths["train-images"], "--labels", paths["train-labels"],
            "--test-images", paths["test-images"], "--test-labels", paths["test-labels"],
            "--out", str(out),
        ]) == EXIT_OK
        assert all(opened.count(path) == 1 for path in paths.values())
        manifest = json.loads((out / "prepare-mnist.manifest.json").read_text())
        assert manifest["input_hashes"]["labels"] == hashlib.sha256(
            Path(paths["train-labels"]).read_bytes()
        ).hexdigest()


class TestBaseline:
    def test_separable_features_reach_full_accuracy(self, tmp_path, rng, capsys):
        labels = np.array([0, 1] * 20)
        features = np.where(
            labels[:, None] == 1,
            rng.uniform(0.8, 1.0, (40, 8)),
            rng.uniform(0.0, 0.2, (40, 8)),
        )
        train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        save_features(train_path, features, labels)
        save_features(test_path, features, labels)
        code = main(["baseline", "--train", str(train_path), "--test", str(test_path)])
        assert code == EXIT_OK
        assert "1.0000" in capsys.readouterr().out

    def test_dimension_mismatch_is_data_error(self, tmp_path, rng):
        train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        save_features(train_path, rng.uniform(0, 1, (8, 8)), rng.integers(0, 2, 8))
        save_features(test_path, rng.uniform(0, 1, (8, 6)), rng.integers(0, 2, 8))
        assert main(["baseline", "--train", str(train_path), "--test", str(test_path)]) == EXIT_DATA


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        assert main(["gen-xxz", "--frobnicate"]) == EXIT_USAGE

    def test_help_exits_cleanly(self):
        assert main(["--help"]) == EXIT_OK


def _vqe_config_file(tmp_path):
    path = tmp_path / "vqe.cfg"
    path.write_text(
        "# fast smoke-test settings\n"
        "iterations = 80\n"
        "warm_iterations = 50\n"
        "learning_rate = 0.05\n"
        "chains = 1\n"
    )
    return path
