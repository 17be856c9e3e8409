#!/usr/bin/env python3
"""From a static filterbank matrix to the 3-channel network input:
deltas, delta-deltas, and corpus normalization."""

import numpy as np

from convctc.features import assemble_input, compute_deltas, fit_normalization

rng = np.random.default_rng(7)

print("== deltas are regression slopes over a +/-2 frame window ==")
ramp = np.tile(np.arange(12.0), (3, 1))          # every band rises by 1/frame
d = compute_deltas(ramp)
print(f"linear ramp -> interior deltas all {d[0, 4]:.1f}")
print(f"edges replicate, so the first delta is damped: {d[0, 0]:.1f}")

const = np.full((3, 12), 5.0)
print(f"constant signal -> deltas identically zero: {not compute_deltas(const).any()}")

print("\n== normalization is fitted per (channel, band) over the train set ==")
train = [rng.normal(loc=3.0, scale=2.5, size=(41, rng.integers(30, 60)))
         for _ in range(10)]
stats = fit_normalization(train)
print(f"stats shapes: means {stats.means.shape}, stds {stats.stds.shape} "
      f"(3 channels x 41 bands = 123 dims)")

assembled = assemble_input(train[0], stats)
print(f"assembled input: {assembled.shape}  (static / delta / delta-delta channels)")

everything = np.concatenate([assemble_input(u, stats) for u in train], axis=2)
print(f"over the whole train set: |mean| <= {np.abs(everything.mean(axis=2)).max():.2e}, "
      f"|std - 1| <= {np.abs(everything.std(axis=2) - 1).max():.2e}")
