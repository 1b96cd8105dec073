"""Tensor-network quantum classifiers on a dense statevector simulator.

Multi-class variational classifiers shaped like tree tensor networks (TTN)
and MERAs, trained with adjoint gradients, plus the data pipelines they are
benchmarked on: PCA-compressed MNIST digits and VQE-made ground states of the
XXZ spin chain.
"""

__version__ = "0.1.0"

from .circuits import (
    CircuitTemplate,
    build_checkerboard,
    build_mera,
    build_ttn,
    from_descriptor,
    run,
    run_many,
    run_states,
)
from .encoding import binary_code, encode_dataset, softmax
from .gates import BlockKind, Gate, GateOp, block_matrix, expand_block
from .gradients import (
    batch_energy_and_grad,
    batch_loss_grad,
    diag_readout_projector,
    diag_z_half,
    make_head,
)
from .statevector import apply_1q, apply_2q, zero_state
from .training import (
    AdamState,
    Checkpoint,
    LabeledStates,
    TrainConfig,
    adam_step,
    evaluate,
    load_checkpoint,
    logistic_baseline,
    save_checkpoint,
    split_train_val,
    train,
)
from .xxz import (
    GroundStateRecord,
    VqeConfig,
    build_hamiltonian,
    energy_expectation,
    exact_ground_energy,
    generate_dataset,
    phase_label,
    vqe_optimize,
)
