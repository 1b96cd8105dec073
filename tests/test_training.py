import numpy as np
import pytest

from tnqc import training
from tnqc.circuits import build_ttn, run_states
from tnqc.encoding import encode_dataset
from tnqc.gates import BlockKind
from tnqc.gradients import batch_loss_grad, make_head
from tnqc.training import (
    EVAL_CHUNK,
    AdamState,
    CheckpointError,
    DivergenceError,
    LabeledStates,
    TrainConfig,
    adam_step,
    evaluate,
    history_csv,
    load_checkpoint,
    logistic_baseline,
    save_checkpoint,
    split_train_val,
    train,
)

from conftest import identity_template


def toy_dataset(n, seed, n_classes=4):
    """Features whose first two coordinates encode the class bits exactly."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, n)
    features = rng.uniform(0.2, 0.8, size=(n, 8))
    features[:, 0] = 1.0 - ((labels >> 1) & 1)  # qubit in |1> reads as bit 0
    features[:, 1] = 1.0 - (labels & 1)
    return LabeledStates(encode_dataset(features), labels, n_classes)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        state = AdamState.zeros(3)
        state.eps = 1e-12
        grad = np.array([0.2, -3.0, 1e-4])
        params = np.zeros(3)
        updated = adam_step(state, params, grad, lr=0.01)
        assert np.allclose(updated, -0.01 * np.sign(grad), atol=1e-6)

    def test_zero_gradient_keeps_params(self):
        state = AdamState.zeros(2)
        params = np.array([1.0, -2.0])
        for _ in range(5):
            params = adam_step(state, params, np.zeros(2), lr=0.1)
        assert np.array_equal(params, [1.0, -2.0])

    def test_constant_gradient_descends_monotonically(self):
        state = AdamState.zeros(1)
        params = np.array([0.5])
        seen = [params[0]]
        for _ in range(10):
            params = adam_step(state, params, np.array([1.0]), lr=0.001)
            seen.append(params[0])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            adam_step(AdamState.zeros(2), np.zeros(3), np.zeros(3), 0.1)

    def test_default_hyperparameters(self):
        state = AdamState.zeros(1)
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-7)


class TestConfigValidation:
    def test_patience_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=0)

    def test_patience_above_max_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=50, max_epochs=10)

    def test_nonpositive_batch_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=-1)


class TestTrainLoop:
    def test_single_example_overfit(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        dataset = toy_dataset(1, seed=5)
        config = TrainConfig(
            batch_size=1, batches_per_epoch=1, learning_rate=0.05,
            max_epochs=60, patience=60, seed=0,
        )
        _, history = train(template, config, dataset, dataset)
        assert history[-1].train_loss < history[0].train_loss

    def test_empty_dataset_rejected(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        dataset = toy_dataset(4, seed=0)
        empty = dataset.subset(np.array([], dtype=int))
        with pytest.raises(ValueError):
            train(template, TrainConfig(), empty, dataset)

    def test_deterministic_history(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        train_set, val_set = toy_dataset(24, seed=1), toy_dataset(8, seed=2)
        config = TrainConfig(batch_size=8, batches_per_epoch=2, max_epochs=5, patience=5, seed=3)
        _, first = train(template, config, train_set, val_set)
        _, second = train(template, config, train_set, val_set)
        assert [(r.train_loss, r.train_acc, r.val_acc) for r in first] == [
            (r.train_loss, r.train_acc, r.val_acc) for r in second
        ]

    def test_early_stopping_restores_best_epoch(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        train_set, val_set = toy_dataset(24, seed=1), toy_dataset(12, seed=2)
        config = TrainConfig(batch_size=8, batches_per_epoch=3, learning_rate=0.1,
                             max_epochs=30, patience=3, seed=1)
        checkpoint, history = train(template, config, train_set, val_set)
        best = max(r.val_acc for r in history)
        assert checkpoint.best_val_accuracy == pytest.approx(best)
        # returned parameters evaluate to the recorded best accuracy
        head = make_head("mse_binary", template, 4)
        assert evaluate(head, checkpoint.params, val_set)[0] == pytest.approx(best)
        # stopping happened `patience` epochs after the best epoch (or at cap)
        best_epoch = max((r.val_acc, r.epoch) for r in history)[1]
        if history[-1].epoch < config.max_epochs:
            last_improvement = max(r.epoch for r in history if r.val_acc == best)
            assert history[-1].epoch == last_improvement + config.patience

    def test_batch_mean_gradient_equals_mean_of_per_example(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        head = make_head("mse_binary", template, 4)
        dataset = toy_dataset(10, seed=4)
        rng = np.random.default_rng(0)
        params = rng.uniform(0, 2 * np.pi, template.n_params)
        _, grads, _ = batch_loss_grad(head, params, dataset.states, dataset.labels)
        batch_mean = grads.mean(axis=0)
        singles = np.stack(
            [
                batch_loss_grad(head, params, dataset.states[i : i + 1], dataset.labels[i : i + 1])[1][0]
                for i in range(10)
            ]
        )
        assert np.abs(batch_mean - singles.mean(axis=0)).max() < 1e-12

    def test_divergence_raises_with_context(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        dataset = toy_dataset(4, seed=0)
        bad = LabeledStates(dataset.states * np.nan, dataset.labels, 4)
        with pytest.raises(DivergenceError, match="epoch 1"):
            train(template, TrainConfig(max_epochs=2, patience=1, batches_per_epoch=1,
                                        batch_size=4, seed=0), bad, dataset)


class TestEvaluate:
    def test_perfect_predictions(self):
        # identity circuit, class bits written straight onto the readout wires
        template = identity_template(8, (2, 5))
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, 12)
        features = np.zeros((12, 8))
        features[:, 2] = 1.0 - ((labels >> 1) & 1)  # |0> on the wire reads as bit 1
        features[:, 5] = 1.0 - (labels & 1)
        dataset = LabeledStates(encode_dataset(features), labels, 4)
        acc, matrix = evaluate(make_head("mse_binary", template, 4), np.zeros(0), dataset)
        assert acc == 1.0
        assert np.array_equal(matrix, np.diag(np.bincount(labels, minlength=4)))

    def test_random_params_near_chance(self):
        template = build_ttn(BlockKind.GENERAL_SU4)
        head = make_head("mse_binary", template, 4)
        dataset = toy_dataset(200, seed=7)
        accs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            params = rng.uniform(0, 2 * np.pi, template.n_params)
            accs.append(evaluate(head, params, dataset)[0])
        assert abs(np.mean(accs) - 0.25) < 0.1

    def test_empty_dataset_rejected(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        dataset = toy_dataset(4, seed=0)
        with pytest.raises(ValueError):
            evaluate(make_head("mse_binary", template, 4), np.zeros(16), dataset.subset(np.array([], dtype=int)))

    @pytest.mark.parametrize("loss", ["mse_binary", "ce_amplitude"])
    def test_one_chunked_pass_matches_per_example_predictions(self, loss, monkeypatch):
        template = build_ttn(BlockKind.SIMPLE_SU2)
        head = make_head(loss, template, 4)
        dataset = toy_dataset(EVAL_CHUNK + 88, seed=3)
        params = np.random.default_rng(1).uniform(0, 2 * np.pi, template.n_params)
        rows = []

        def counting_run_states(template, params, states):
            rows.append(len(states))
            return run_states(template, params, states)

        monkeypatch.setattr(training, "run_states", counting_run_states)
        acc, matrix = evaluate(head, params, dataset)
        assert rows == [EVAL_CHUNK, 88]  # every state simulated exactly once
        preds = head.predict(head.outputs(run_states(template, params, dataset.states)))
        expected = np.zeros((4, 4), dtype=int)
        for t, p in zip(dataset.labels, preds):
            expected[t, p] += 1
        assert np.array_equal(matrix, expected)
        assert acc == np.trace(expected) / len(dataset)


class TestSplit:
    def test_eleven_to_one_proportions(self):
        dataset = toy_dataset(120, seed=0)
        train_part, val_part = split_train_val(dataset, (11, 1), seed=0)
        assert len(val_part) == 10
        assert len(train_part) == 110

    def test_split_is_a_partition(self):
        dataset = toy_dataset(24, seed=0)
        train_part, val_part = split_train_val(dataset, (11, 1), seed=1)
        combined = np.concatenate([train_part.states, val_part.states])
        assert combined.shape[0] == 24
        # no example appears twice
        seen = {tuple(np.round(row, 12)) for row in combined}
        assert len(seen) == 24


class TestLogisticBaseline:
    def test_separable_toy_problem(self):
        rng = np.random.default_rng(0)
        x0 = rng.normal(loc=0.2, scale=0.05, size=(40, 8))
        x1 = rng.normal(loc=0.8, scale=0.05, size=(40, 8))
        x = np.vstack([x0, x1])
        y = np.array([0] * 40 + [1] * 40)
        assert logistic_baseline(x, y, x, y, 2) == 1.0

    def test_constant_features_predict_majority(self):
        x = np.full((30, 4), 0.5)
        y = np.array([0] * 20 + [1] * 10)
        acc = logistic_baseline(x, y, x, y, 2)
        assert acc == pytest.approx(20 / 30)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            logistic_baseline(np.zeros((4, 3)), [0, 1, 0, 1], np.zeros((2, 5)), [0, 1], 2)


class TestCheckpointPersistence:
    def make_checkpoint(self):
        template = build_ttn(BlockKind.SIMPLE_REAL)
        train_set, val_set = toy_dataset(12, seed=1), toy_dataset(6, seed=2)
        config = TrainConfig(batch_size=4, batches_per_epoch=2, max_epochs=3, patience=3, seed=9)
        checkpoint, history = train(template, config, train_set, val_set)
        checkpoint.dataset_fingerprints = ("abc123", "def456")
        return checkpoint, history

    def test_round_trip_is_bit_exact(self, tmp_path):
        checkpoint, _ = self.make_checkpoint()
        path = tmp_path / "model.checkpoint.json"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.params, checkpoint.params)
        assert loaded.descriptor == checkpoint.descriptor
        assert loaded.decoder == checkpoint.decoder
        assert loaded.config == checkpoint.config
        assert loaded.dataset_fingerprints == ("abc123", "def456")

    def test_corrupted_file_raises_distinct_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"version": 1, "descriptor": "ttn:simple-real"')
        with pytest.raises(CheckpointError, match="corrupted"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        checkpoint, _ = self.make_checkpoint()
        path = tmp_path / "model.json"
        save_checkpoint(checkpoint, path)
        blob = path.read_text().replace('"version": 2', '"version": 99')
        path.write_text(blob)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        # version 1 carried Adam moments and one fingerprint; it is not read
        checkpoint, _ = self.make_checkpoint()
        path = tmp_path / "model.json"
        save_checkpoint(checkpoint, path)
        path.write_text(path.read_text().replace('"version": 2', '"version": 1'))
        with pytest.raises(CheckpointError, match="version 1"):
            load_checkpoint(path)

    def test_unknown_decoder_rejected(self, tmp_path):
        checkpoint, _ = self.make_checkpoint()
        checkpoint.decoder = "ternary"
        path = tmp_path / "model.json"
        save_checkpoint(checkpoint, path)
        with pytest.raises(CheckpointError, match="decoder"):
            load_checkpoint(path)

    def test_parameter_length_mismatch_rejected(self, tmp_path):
        checkpoint, _ = self.make_checkpoint()
        checkpoint.params = checkpoint.params[:-1]
        path = tmp_path / "model.json"
        save_checkpoint(checkpoint, path)
        with pytest.raises(CheckpointError, match="parameters"):
            load_checkpoint(path)


def test_history_csv_format():
    from tnqc.training import EpochRecord

    text = history_csv([EpochRecord(1, 0.5, 0.25, 0.5, 0.01)])
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,train_loss,train_acc,val_acc,seconds"
    assert lines[1].startswith("1,0.5,0.25,0.5,")
