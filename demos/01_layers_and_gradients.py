#!/usr/bin/env python3
"""Walk through the layer zoo: convolution, maxout, pooling, and the
finite-difference check that guards every hand-written backward pass."""

import numpy as np

from convctc import layers
from convctc.verify import central_diff, rel_error

rng = np.random.default_rng(0)

print("== 2D convolution keeps the time axis ==")
x = rng.standard_normal((3, 41, 50))          # channels x bands x frames
w = rng.standard_normal((16, 3, 3, 5)) * 0.1
out, tape = layers.conv2d_forward(x, w, np.zeros(16))
print(f"input  {x.shape}  ->  conv 16 maps, 3x5 filters  ->  {out.shape}")
print("time extent preserved:", out.shape[2] == x.shape[2])

print("\n== maxout picks the stronger of two candidate maps ==")
h1 = rng.standard_normal((4, 6))
h2 = rng.standard_normal((4, 6))
m, _ = layers.maxout2(h1, h2)
print("maxout >= both branches everywhere:", bool(np.all(m >= h1) and np.all(m >= h2)))

print("\n== frequency-only max pooling ==")
pooled, _ = layers.maxpool_freq(out, 3, 3)
print(f"{out.shape} -> pool 3, step 3 -> {pooled.shape}  (41 bands -> 13, frames kept)")

print("\n== every backward pass agrees with central finite differences ==")
xs = rng.standard_normal((2, 6, 8))
ws = rng.standard_normal((3, 2, 3, 3)) * 0.3
out_s, tape_s = layers.conv2d_forward(xs, ws, np.zeros(3))
proj = rng.standard_normal(out_s.shape)
_, gw, _ = layers.conv2d_backward(tape_s, proj, ws)


def objective(wv):
    return float((layers.conv2d_forward(xs, wv, np.zeros(3))[0] * proj).sum())


numeric = central_diff(objective, ws, h=1e-6)
print(f"conv weight-grad rel err over all {ws.size} weights: "
      f"{rel_error(gw, numeric):.2e}")

relu_in = rng.standard_normal(8) + 0.1
_, relu_tape = layers.relu(relu_in)
g = layers.relu_backward(relu_tape, np.ones(8))
num = central_diff(lambda v: float(layers.relu(v)[0].sum()), relu_in)
print(f"relu grad rel err: {rel_error(g, num):.2e}")

print("\nrun `convctc verify gradcheck` for the full sweep, including the")
print("end-to-end toy network with CTC on top.")
