"""Forward and backward passes for every primitive layer operation.

Everything here is a pure function: ``*_forward`` returns the output plus a
tape of cached intermediates, and the matching ``*_backward`` consumes one
tape and the upstream gradient.  No autodiff -- each backward pass is the
hand-derived adjoint of its forward map.

Feature tensors are [channels x bands x frames] with time last; convolution
always zero-pads the time axis so the frame count survives every layer.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError


def _same_pad(size):
    left = (size - 1) // 2
    return left, size - 1 - left


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@dataclass
class ConvTape:
    padded: np.ndarray        # zero-padded input [c, b_pad, f_pad]
    weights: np.ndarray
    pads: tuple               # (freq_left, time_left)
    in_shape: tuple
    out_shape: tuple


def conv2d_forward(x, weights, biases, freq_padding="same"):
    """2D cross-channel correlation, stride 1.

    x [c x b x f], weights [k x c x m x n], biases [k] -> [k x b' x f].
    The time axis is always same-padded (output frame count equals input);
    the frequency axis follows freq_padding ("same" or "valid").
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    biases = np.asarray(biases)
    if x.ndim != 3:
        raise ShapeError(f"conv input must be [c x b x f], got shape {x.shape}")
    if weights.ndim != 4:
        raise ShapeError(f"conv weights must be [k x c x m x n], got shape {weights.shape}")
    c, bands, frames = x.shape
    k, wc, m, n = weights.shape
    if wc != c:
        raise ShapeError(f"conv expects {wc} input channels, got {c}")
    if biases.shape != (k,):
        raise ShapeError(f"conv biases must have shape ({k},), got {biases.shape}")

    if freq_padding == "same":
        fl, fr = _same_pad(m)
    elif freq_padding == "valid":
        fl = fr = 0
    else:
        raise ValueError(f"unknown freq_padding {freq_padding!r}")
    tl, tr = _same_pad(n)
    if bands + fl + fr < m:
        raise ShapeError(f"filter height {m} exceeds padded band count {bands + fl + fr}")

    padded = np.pad(x, ((0, 0), (fl, fr), (tl, tr)))
    out_b = padded.shape[1] - m + 1
    out_f = padded.shape[2] - n + 1
    patches = _patch_matrix(padded, m, n)                     # [c*m*n, out_b*out_f]
    out = weights.reshape(k, -1) @ patches + biases[:, None]
    out = out.reshape(k, out_b, out_f)
    tape = ConvTape(padded, weights, (fl, tl), x.shape, out.shape)
    return out, tape


def _patch_matrix(padded, m, n):
    c = padded.shape[0]
    win = sliding_window_view(padded, (m, n), axis=(1, 2))    # [c, b', f', m, n]
    return np.ascontiguousarray(win.transpose(0, 3, 4, 1, 2)).reshape(c * m * n, -1)


def conv2d_backward(tape, grad_out):
    """Gradients of conv2d_forward: (grad_x, grad_weights, grad_biases)."""
    grad_out = np.asarray(grad_out)
    if grad_out.shape != tape.out_shape:
        raise ShapeError(f"conv grad shape {grad_out.shape} does not match forward output {tape.out_shape}")
    k, c, m, n = tape.weights.shape
    _, out_b, out_f = tape.out_shape
    gy = grad_out.reshape(k, -1)

    grad_b = grad_out.sum(axis=(1, 2))
    patches = _patch_matrix(tape.padded, m, n)
    grad_w = (gy @ patches.T).reshape(k, c, m, n)

    grad_patches = (tape.weights.reshape(k, -1).T @ gy).reshape(c, m, n, out_b, out_f)
    grad_padded = np.zeros_like(tape.padded)
    for dm in range(m):
        for dn in range(n):
            grad_padded[:, dm:dm + out_b, dn:dn + out_f] += grad_patches[:, dm, dn]
    fl, tl = tape.pads
    _, bands, frames = tape.in_shape
    grad_x = grad_padded[:, fl:fl + bands, tl:tl + frames]
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

@dataclass
class ReluTape:
    mask: np.ndarray


def relu(h):
    h = np.asarray(h)
    mask = h > 0
    return np.where(mask, h, h.dtype.type(0)), ReluTape(mask)


def relu_backward(tape, grad_out):
    # subgradient 0 at exactly 0
    return grad_out * tape.mask


@dataclass
class PreluTape:
    h: np.ndarray
    alpha: np.ndarray
    mask: np.ndarray


def prelu(h, alpha):
    """Slope alpha on the negative side, one trainable scalar per feature map."""
    h = np.asarray(h)
    alpha = np.asarray(alpha)
    if alpha.shape != (h.shape[0],):
        raise ShapeError(f"prelu needs one alpha per map: got {alpha.shape} for {h.shape[0]} maps")
    a = alpha.reshape((-1,) + (1,) * (h.ndim - 1))
    mask = h > 0
    out = np.where(mask, h, a * h)
    return out.astype(h.dtype, copy=False), PreluTape(h, alpha, mask)


def prelu_backward(tape, grad_out):
    a = tape.alpha.reshape((-1,) + (1,) * (tape.h.ndim - 1))
    grad_h = grad_out * np.where(tape.mask, np.ones_like(a), a)
    neg = grad_out * tape.h * ~tape.mask
    grad_alpha = neg.reshape(tape.h.shape[0], -1).sum(axis=1)
    return grad_h, grad_alpha


@dataclass
class MaxoutTape:
    first_wins: np.ndarray


def maxout2(h1, h2):
    """Elementwise max of the two candidate maps; ties go to the first branch.

    A NaN in either map reaches the output.
    """
    h1 = np.asarray(h1)
    h2 = np.asarray(h2)
    if h1.shape != h2.shape:
        raise ShapeError(f"maxout candidates differ in shape: {h1.shape} vs {h2.shape}")
    return np.maximum(h1, h2), MaxoutTape(h1 >= h2)


def maxout2_backward(tape, grad_out):
    g1 = grad_out * tape.first_wins
    return g1, grad_out - g1


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

@dataclass
class PoolTape:
    x: np.ndarray             # the forward input itself, not a copy
    out: np.ndarray           # the pooled maxima the forward returned
    pool: int
    step: int


def _window_span(bands, pool, step):
    """Extent of the slice x[:, j:j + span:step] that holds band j of every window."""
    return (bands - pool) // step * step + 1


def maxpool_freq(x, pool, step):
    """Max over windows of `pool` adjacent bands, stepped by `step`.

    Time is untouched: every pooled value takes its window at a fixed frame.
    Trailing bands that do not fill a window are discarded, so the pooled
    band count is floor((b - pool) / step) + 1.  Windows may overlap
    (pool > step) or leave gaps (pool < step).  When a window holds several
    equal maxima, the backward pass routes its gradient to the first
    (lowest) of those bands, as argmax would.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"pool input must be [k x b x f], got shape {x.shape}")
    if pool < 1 or step < 1:
        raise ValueError(f"pool size and step must be >= 1, got {pool}, {step}")
    if x.shape[1] < pool:
        raise ShapeError(f"pool size {pool} exceeds band count {x.shape[1]}")
    span = _window_span(x.shape[1], pool, step)
    out = x[:, :span:step].copy()
    for j in range(1, pool):
        np.maximum(out, x[:, j:j + span:step], out=out)
    return out, PoolTape(x, out, pool, step)


def maxpool_freq_backward(tape, grad_out):
    grad_out = np.asarray(grad_out)
    if grad_out.shape != tape.out.shape:
        raise ShapeError(f"pool grad shape {grad_out.shape} does not match forward output "
                         f"{tape.out.shape}")
    x, step = tape.x, tape.step
    span = _window_span(x.shape[1], tape.pool, step)
    grad_x = np.zeros(x.shape, dtype=grad_out.dtype)
    unclaimed = np.ones(grad_out.shape, dtype=bool)     # windows whose winner is not yet found
    for j in range(tape.pool):
        wins = unclaimed & (x[:, j:j + span:step] == tape.out)
        grad_x[:, j:j + span:step] += grad_out * wins
        unclaimed &= ~wins
    return grad_x


# ---------------------------------------------------------------------------
# time-distributed dense
# ---------------------------------------------------------------------------

@dataclass
class DenseTape:
    x: np.ndarray
    weights: np.ndarray


def dense_forward(x, weights, biases):
    """Affine map applied independently at every frame: [d x f] -> [d' x f]."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim != 2:
        raise ShapeError(f"dense input must be [d x f], got shape {x.shape}")
    if weights.shape[1] != x.shape[0]:
        raise ShapeError(f"dense expects input width {weights.shape[1]}, got {x.shape[0]}")
    out = weights @ x + np.asarray(biases)[:, None]
    return out, DenseTape(x, weights)


def dense_backward(tape, grad_out):
    grad_x = tape.weights.T @ grad_out
    grad_w = grad_out @ tape.x.T
    grad_b = grad_out.sum(axis=1)
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

@dataclass
class DropoutTape:
    scale: np.ndarray | None   # None when the op was the identity


def dropout(x, rate, rng=None, training=False):
    """Inverted dropout: survivors scaled by 1/(1-rate); inference is identity."""
    x = np.asarray(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, DropoutTape(None)
    if rng is None:
        raise ValueError("dropout in training mode needs a seeded generator")
    keep = rng.random(x.shape) >= rate
    scale = keep.astype(x.dtype) / x.dtype.type(1.0 - rate)
    return x * scale, DropoutTape(scale)


def dropout_backward(tape, grad_out):
    if tape.scale is None:
        return grad_out
    return grad_out * tape.scale


# ---------------------------------------------------------------------------
# per-frame softmax
# ---------------------------------------------------------------------------

def log_softmax_frames(logits):
    """Max-shifted log-softmax of each time column of [A x f]."""
    logits = np.asarray(logits)
    m = logits.max(axis=0, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=0, keepdims=True))


def log_softmax_backward(log_probs, grad_log_probs):
    """Adjoint of log_softmax_frames; maps zero-column-sum grads to themselves."""
    y = np.exp(log_probs)
    return grad_log_probs - y * grad_log_probs.sum(axis=0, keepdims=True)
