"""End-to-end quantum phase recognition at desk scale.

Generates a small dataset of VQE ground states, splits it 2:1 with label
stratification, trains a tree classifier on the prepared states (the
quantum data needs no encoding step), and reports test accuracy.  Scaled
down to run in about two minutes; accuracy improves with dataset size,
circuit expressivity, and patience.
"""
from tnqc import BlockKind, TrainConfig, build_ttn, evaluate, make_head, train
from tnqc.training import split_train_val
from tnqc.xxz import VqeConfig, dataset_summary, generate_dataset, split_records, states_from_records

print("generating VQE ground states across delta in [-2, 2] ...")
records = generate_dataset(
    count=45, layers=2,
    config=VqeConfig(iterations=250, warm_iterations=150, learning_rate=0.05, chains=4),
    seed=0,
)
summary = dataset_summary(records)
print(
    f"  {summary['count']} states (grid points landing exactly on the phase "
    f"boundaries are dropped), median relative energy error "
    f"{summary['median_relative_error']:.4f}, class counts {summary['class_counts']}"
)

train_records, test_records = split_records(records, (2, 1), seed=0)
train_full = states_from_records(train_records)
test_set = states_from_records(test_records)
train_set, val_set = split_train_val(train_full, (11, 1), seed=0)

template = build_ttn(BlockKind.SIMPLE_REAL)
config = TrainConfig(
    batch_size=8, batches_per_epoch=0, learning_rate=0.005,
    max_epochs=150, patience=60, seed=0, loss="mse_binary",
)
print(f"training {template.descriptor} ({template.n_params} parameters) ...")
checkpoint, history = train(template, config, train_set, val_set)
print(f"  stopped after {len(history)} epochs, best validation accuracy {checkpoint.best_val_accuracy:.3f}")

head = make_head(config.loss, template, test_set.n_classes)
accuracy, matrix = evaluate(head, checkpoint.params, test_set)
print(f"test accuracy: {accuracy:.3f} on {len(test_set)} held-out ground states")
print("confusion matrix (rows = true phase, columns = predicted):")
print(matrix)
