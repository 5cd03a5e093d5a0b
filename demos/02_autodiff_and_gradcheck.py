#!/usr/bin/env python3
"""Differentiate a tiny two-layer network with the built-in reverse-mode engine.

Shows the tensor primitives, the backward pass, and the finite-difference
checker that guards every gradient in the package.
"""

import numpy as np

import dualmp.autodiff as ad
from dualmp.autodiff import ParamStore, backward, grad_check, tensor

rng = np.random.default_rng(0)

# Parameters live in a named store; inputs are plain constant tensors.
store = ParamStore()
w1 = store.add("w1", rng.normal(size=(4, 8)) * 0.5)
b1 = store.add("b1", np.zeros((1, 8)), decay=False)
w2 = store.add("w2", rng.normal(size=(8, 2)) * 0.5)

x = tensor(rng.normal(size=(16, 4)))
y = rng.integers(0, 2, size=16)


def forward():
    hidden = ad.leaky_relu(ad.add_bias(ad.matmul(x, w1), b1))
    # fused, numerically stable cross-entropy on the logits, summed over rows
    return ad.cross_entropy(ad.matmul(hidden, w2), y)


loss = forward()
print("loss:", round(loss.item(), 4))

store.zero_grads()
backward(loss)
for name, p in store.items():
    print(f"grad[{name}]: shape {p.grad.shape}, norm {np.linalg.norm(p.grad):.4f}")

# Central differences validate every recorded backward rule.
errors = grad_check(forward, store, probe=1e-3)
for name, err in errors.items():
    print(f"max relative error {name}: {err:.2e}")
assert max(errors.values()) < 1e-6
print("tape gradients agree with finite differences")
