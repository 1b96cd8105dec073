"""The three circuit families and their parameter budgets.

Hierarchical classifiers (TTN and MERA) merge eight wires down to two
readout wires; the checkerboard is a brick-wall state-preparation ansatz.
Each node is one of four two-qubit blocks compiled to rotations + CNOTs.
"""
import numpy as np

from tnqc import BlockKind, build_checkerboard, build_mera, build_ttn, make_head, run, zero_state
from tnqc.gates import PARAM_COUNT, Gate

print("block kinds (parameters each):")
for kind in BlockKind:
    print(f"  {kind.value:12s} {PARAM_COUNT[kind]:3d}")

print("\narchitecture parameter counts:")
for builder in (build_ttn, build_mera):
    for kind in BlockKind:
        template = builder(kind)
        cnots = sum(op.gate is Gate.CNOT for op in template.ops)
        print(
            f"  {template.descriptor:18s} params={template.n_params:4d} "
            f"gates={len(template.ops):4d} cnots={cnots:3d} readout={template.readout}"
        )
for layers in (1, 4):
    template = build_checkerboard(8, layers)
    print(f"  {template.descriptor:18s} params={template.n_params:4d} gates={len(template.ops):4d}")

# run a random instance and inspect the readout wires
rng = np.random.default_rng(0)
template = build_mera(BlockKind.GENERAL_SU4)
params = rng.uniform(0, 2 * np.pi, template.n_params)
out = run(template, params, zero_state(8))
print("\nrandom mera:su4 on |0...0>, norm:", np.linalg.norm(out))
head = make_head("mse_binary", template, 4)
print("readout wire |0>-probabilities:", np.round(head.outputs(out[None, :])[0], 4))
