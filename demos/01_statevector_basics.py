"""Statevector basics: gates, feature encoding, and readout.

The simulator stores an n-qubit state as a dense complex vector of length
2**n, with qubit 0 on the most significant bit of the index.  This script
walks through single- and two-qubit gates, encodes a classical feature
vector, and reads measurement statistics back out through the loss heads,
which are the classifiers' decoders.
"""
import numpy as np

from tnqc import (
    CircuitTemplate,
    apply_1q,
    apply_2q,
    diag_z_half,
    encode_dataset,
    make_head,
    zero_state,
)
from tnqc.gates import CNOT_CTRL_HI, ry
from tnqc.statevector import probabilities

# --- single-qubit rotations -------------------------------------------------
state = zero_state(1)
print("|0>            :", state)
print("RY(pi)|0>      :", np.round(apply_1q(state, ry(np.pi), 0), 12))
print("RY(pi/2)|0>    :", np.round(apply_1q(state, ry(np.pi / 2), 0), 6))

# --- entangling two qubits ----------------------------------------------------
bell = zero_state(2)
bell = apply_1q(bell, ry(np.pi / 2), 0)
bell = apply_2q(bell, CNOT_CTRL_HI, 0, 1)
print("\n(RY(pi/2) x I) then CNOT on |00>:", np.round(bell, 6))
print("joint outcome distribution:", np.round(probabilities(bell), 6))

# --- encoding classical features ---------------------------------------------
features = np.array([[0.0, 1.0, 0.5, 0.25, 0.75, 0.1, 0.9, 0.5]])
encoded = encode_dataset(features)  # one row per example
print("\nencoded 8 features; state norm:", np.linalg.norm(encoded[0]))
for qubit in range(3):
    print(f"  qubit {qubit}: P(|0>) = {probabilities(encoded[0]) @ diag_z_half(8, qubit):.4f}")

# --- the two multi-class decoders ---------------------------------------------
# a gate-free template lets the heads read the encoded state itself
readout = CircuitTemplate(8, (), 0, (2, 5), "identity")
binary = make_head("mse_binary", readout, 4)
outputs = binary.outputs(encoded)
print(f"\nqubit decoding on wires (2, 5): {np.round(outputs[0], 4)} -> class {binary.predict(outputs)[0]}")
for n_classes in (4, 3):
    amplitude = make_head("ce_amplitude", readout, n_classes)
    probs = amplitude.class_probs(amplitude.outputs(encoded))
    print(f"amplitude decoding, {n_classes} classes :", np.round(probs[0], 4))
