"""Per-utterance feature assembly: deltas, delta-deltas, normalization.

Utterances enter as precomputed static filterbank matrices [bands x frames]
(40 log-mel coefficients plus an energy row by convention, 41 bands).  This
module stacks static / delta / delta-delta into the 3-channel network input
and normalizes each (channel, band) dimension to zero mean and unit variance
using statistics fitted over the training set.
"""

from dataclasses import dataclass

import numpy as np

from .tensor import atomic_write, read_tensor, write_tensor

DELTA_WINDOW = 2
VARIANCE_FLOOR = 1e-8


def compute_deltas(static, window=DELTA_WINDOW):
    """Regression deltas with edge-frame replication.

    d_t = sum_{n=1..N} n * (c_{t+n} - c_{t-n}) / (2 * sum_{n=1..N} n^2)
    """
    static = np.asarray(static)
    if static.ndim != 2 or static.shape[1] < 1:
        raise ValueError(f"static features must be [bands x frames] with frames >= 1, "
                         f"got shape {static.shape}")
    if window < 1:
        raise ValueError(f"delta window must be >= 1, got {window}")
    padded = np.pad(static, ((0, 0), (window, window)), mode="edge")
    f = static.shape[1]
    num = np.zeros_like(static, dtype=np.result_type(static.dtype, np.float64))
    for n in range(1, window + 1):
        num += n * (padded[:, window + n:window + n + f] - padded[:, window - n:window - n + f])
    denom = 2.0 * sum(n * n for n in range(1, window + 1))
    return (num / denom).astype(static.dtype, copy=False)


@dataclass
class NormalizationStats:
    """Per-(channel, band) mean and standard deviation, shapes [3 x bands]."""

    means: np.ndarray
    stds: np.ndarray

    def apply(self, assembled):
        return (assembled - self.means[:, :, None]) / self.stds[:, :, None]


def stack_channels(static, window=DELTA_WINDOW):
    """Unnormalized [3 x bands x frames]: static, delta, delta-delta."""
    d = compute_deltas(static, window)
    dd = compute_deltas(d, window)
    return np.stack([static, d, dd])


def fit_normalization(static_matrices, window=DELTA_WINDOW):
    """Streaming mean/variance over every training frame, per (channel, band).

    Accepts any iterable of static [bands x frames] matrices; accumulation
    order follows the iterable, in float64.  Variances are floored at 1e-8
    before the square root so constant dimensions stay usable.
    """
    count = 0
    total = None
    total_sq = None
    bands = None
    for static in static_matrices:
        x = stack_channels(np.asarray(static, dtype=np.float64), window)
        if total is None:
            bands = x.shape[1]
            total = np.zeros((3, bands))
            total_sq = np.zeros((3, bands))
        elif x.shape[1] != bands:
            raise ValueError(f"band count changed mid-fit: {x.shape[1]} vs {bands}")
        count += x.shape[2]
        total += x.sum(axis=2)
        total_sq += (x * x).sum(axis=2)
    if count < 2:
        raise ValueError(f"normalization needs at least 2 training frames, saw {count}")
    means = total / count
    variances = np.maximum(total_sq / count - means * means, VARIANCE_FLOOR)
    return NormalizationStats(means, np.sqrt(variances))


def assemble_input(static, stats=None, window=DELTA_WINDOW, dtype=None):
    """Normalized 3-channel network input [3 x bands x frames]."""
    static = np.asarray(static)
    assembled = stack_channels(static, window)
    if stats is not None:
        if stats.means.shape[1] != static.shape[0]:
            raise ValueError(f"stats fitted for {stats.means.shape[1]} bands, "
                             f"features have {static.shape[0]}")
        assembled = stats.apply(assembled)
    if dtype is not None:
        assembled = assembled.astype(dtype, copy=False)
    return assembled


def write_stats(fh, stats):
    """Append the stats record, means then stds as f64 tensors, to `fh`."""
    write_tensor(fh, stats.means.astype(np.float64))
    write_tensor(fh, stats.stds.astype(np.float64))


def read_stats(fh, where):
    """Read the stats record at `fh`'s position: two [3 x bands] arrays of one
    shape, finite, with positive stds.  Otherwise raise ValueError naming `where`."""
    means, stds = read_tensor(fh), read_tensor(fh)
    if means.ndim != 2 or means.shape[0] != 3 or stds.shape != means.shape:
        raise ValueError(f"{where}: stats must be two [3 x bands] arrays of one shape, "
                         f"got {means.shape} and {stds.shape}")
    if not (np.isfinite(means).all() and np.isfinite(stds).all() and (stds > 0).all()):
        raise ValueError(f"{where}: stats must be finite, with positive stds")
    return NormalizationStats(means, stds)


def save_stats(path, stats):
    """Write atomically (see tensor.atomic_write): a failed save leaves the
    previous file whole."""
    with atomic_write(path) as fh:
        write_stats(fh, stats)


def load_stats(path):
    with open(path, "rb") as fh:
        return read_stats(fh, path)
