"""The XXZ chain: exact spectra across the anisotropy axis, then a VQE run.

Three phases over delta in [-2, 2]: z-ferromagnet, planar paramagnet,
z-antiferromagnet.  The variational eigensolver drives a 4-layer
checkerboard circuit toward the exact ground energy; relative errors of a
few percent are the expected regime at this depth.
"""
from tnqc import (
    VqeConfig,
    build_hamiltonian,
    exact_ground_energy,
    phase_label,
    vqe_optimize,
)
from tnqc.xxz import PHASE_NAMES

print("exact ground energies (8 sites, periodic):")
for delta in (-2.0, -1.2, -0.5, 0.0, 0.5, 1.2, 2.0):
    energy = exact_ground_energy(build_hamiltonian(delta))
    print(f"  delta={delta:+.1f}  E0={energy:+9.4f}  phase={PHASE_NAMES[phase_label(delta)]}")

print("\nVQE at delta = -0.5 (gapless phase, the hard region):")
config = VqeConfig(iterations=400, learning_rate=0.04)
params, energy, exact = vqe_optimize(-0.5, layers=4, config=config, seed=0)
print(f"  vqe energy  {energy:+.4f}")
print(f"  exact       {exact:+.4f}")
print(f"  relative error {abs(energy - exact) / abs(exact):.4f}")

print("\nwarm-starting the neighbouring point delta = -0.4:")
warm_params, warm_energy, exact = vqe_optimize(
    -0.4, layers=4, warm_start=params, config=config, seed=0
)
print(f"  vqe energy  {warm_energy:+.4f}  (relative error {abs(warm_energy - exact) / abs(exact):.4f})")
