"""Adjoint gradients of the classifier losses, checked by finite differences.

Training uses the adjoint sweep: one forward pass and one reverse pass give
the loss gradient for every angle at once, however many angles there are.
Here it is checked against central differences of the loss on a few angles;
the parameter-shift and full finite-difference oracles live in the tests.
"""
import time

import numpy as np

from tnqc import BlockKind, batch_loss_grad, build_mera, encode_dataset, make_head, run_states

rng = np.random.default_rng(7)
template = build_mera(BlockKind.GENERAL_SU4)
params = rng.uniform(0, 2 * np.pi, template.n_params)
states = encode_dataset(rng.uniform(0, 1, (1, 8)))
labels = np.array([2])
step = 1e-4

for loss_name in ("mse_binary", "ce_amplitude"):
    head = make_head(loss_name, template, 4)

    def loss_at(p):
        return head.losses(head.outputs(run_states(template, p, states)), labels)[0]

    tic = time.perf_counter()
    losses, grads, _ = batch_loss_grad(head, params, states, labels)
    t_adj = time.perf_counter() - tic

    tic = time.perf_counter()
    checked = rng.choice(template.n_params, size=5, replace=False)
    worst = 0.0
    for k in checked:
        shift = np.zeros(template.n_params)
        shift[k] = step
        fd = (loss_at(params + shift) - loss_at(params - shift)) / (2 * step)
        worst = max(worst, abs(fd - grads[0, k]))
    t_fd = (time.perf_counter() - tic) / len(checked)

    print(f"{loss_name}: loss {losses[0]:.6f}")
    print(f"  max |adjoint - fd| over angles {sorted(checked.tolist())} = {worst:.2e}")
    print(
        f"  adjoint {1e3 * t_adj:.1f} ms for all {template.n_params} angles vs "
        f"{1e3 * t_fd:.1f} ms per angle by finite differences"
    )
