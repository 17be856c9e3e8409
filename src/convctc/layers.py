"""Forward and backward passes for every primitive layer operation.

Everything here is a pure function: ``*_forward`` returns the output plus a
tape of cached intermediates, and the matching ``*_backward`` consumes one
tape and the upstream gradient.  No autodiff -- each backward pass is the
hand-derived adjoint of its forward map.  A tape holds no parameter: the
conv and dense backward passes take the forward's weights again, so a
caller that builds its weights for the call (maxout stacks two halves)
keeps no copy alive until the backward.

Feature tensors are [channels x bands x frames] with time last; convolution
always zero-pads the time axis so the frame count survives every layer.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import ShapeError


def _same_pad(size):
    left = (size - 1) // 2
    return left, size - 1 - left


# ---------------------------------------------------------------------------
# two-way row split of the big GEMMs
# ---------------------------------------------------------------------------

# A conv or dense GEMM of at least this many multiply-adds runs as two row
# parts at the same time, one on the calling thread and one on a worker.
# On a 2-core x86-64 VM with OpenBLAS at 1 thread, splitting the forward and
# backward of a 3x5 conv broke even between 1.6e7 and 3.2e7 multiply-adds
# with 32 input channels, and between 2.8e7 and 4.7e7 with 3; below that
# the hand-off costs more than the second core gains.
SPLIT_MIN_MULADDS = 5e7


def _blas_thread_vars():
    """The variables that set the thread count of numpy's BLAS, in the order
    that BLAS reads them; () for a BLAS whose variables are not known here."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (TypeError, KeyError, AttributeError):
        return ()
    if "openblas" in name:
        return ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    if "mkl" in name:
        return ("MKL_NUM_THREADS", "OMP_NUM_THREADS")
    return ()


def _blas_threads(environ, names):
    """The thread count that a BLAS reading the variables `names` takes from
    `environ`: the first one set to a positive integer wins.  None when none
    is, which leaves the count to the BLAS (every core, for OpenBLAS)."""
    for name in names:
        try:
            threads = int(environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


# Read once: the BLAS reads its thread count when it loads, which is when
# numpy is imported, and a variable set later does not change it.
_BLAS_PINNED = _blas_threads(os.environ, _blas_thread_vars()) == 1

_pool = None
_pool_pid = None
_pool_lock = threading.Lock()
_whole = threading.local()      # .on: this thread is one of run_items' two threads


def _halves_run_together():
    """True when both parts of a split get a core of their own: the process
    may use at least two cores and BLAS runs one thread.  An unpinned
    OpenBLAS already runs every GEMM on every core."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return _BLAS_PINNED and cores >= 2


def _parts(muladds, *arrays):
    """How many row parts, 2 or 1, a GEMM of `muladds` multiply-adds over
    `arrays` runs in.  Always 1 inside run_items, whose two threads already
    hold both cores."""
    split = (muladds >= SPLIT_MIN_MULADDS and len({a.dtype for a in arrays}) == 1
             and not getattr(_whole, "on", False) and _halves_run_together())
    return 2 if split else 1


def _executor():
    """The one-worker pool, made on first use and made again after a fork."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="convctc-gemm")
            _pool_pid = os.getpid()
        return _pool


def _in_parts(task, parts):
    """Run task(i, parts) for every part i of `parts` (1 or 2) and return when
    all are done.  Part 0 runs here and part 1 on the worker; an exception in
    either re-raises here.  Tasks call only numpy, which releases the
    interpreter lock in BLAS and ufunc loops, and write only into buffers the
    caller allocated."""
    future = _executor().submit(task, 1, parts) if parts == 2 else None
    try:
        task(0, parts)
    finally:
        if future is not None:
            future.result()


def run_items(work, here, there=None):
    """Return [work(i) for i in range(n)], where `here` orders those n indices.

    The calling thread takes the indices in the order of `here`.  When
    `there`, the same indices in another order, is given, there are at
    least two of them and two cores are free (_halves_run_together), a fresh
    "convctc-items" thread takes them in the order of `there` meanwhile, and
    each thread skips what the other has taken; no GEMM on either thread
    splits then, since the two threads already hold both cores and a split
    on the worker would wait on the split's own executor.  Once work(i)
    raises, no index above i is started, and when both threads are done the
    error of the lowest failing index is raised.
    """
    results = [None] * len(here)
    errors = {}
    taken = set()
    lock = threading.Lock()

    def walk(order):
        for i in order:
            with lock:
                if i in taken or any(f < i for f in errors):
                    continue
                taken.add(i)
            try:
                results[i] = work(i)
            except BaseException as e:       # raised below, the lowest index's
                with lock:
                    errors[i] = e

    def worker():
        _whole.on = True
        walk(there)

    if there is not None and len(here) >= 2 and _halves_run_together():
        thread = threading.Thread(target=worker, name="convctc-items", daemon=True)
        outer = getattr(_whole, "on", False)
        _whole.on = True
        thread.start()
        try:
            walk(here)
        finally:
            thread.join()
            _whole.on = outer
    else:
        walk(here)
    if errors:
        raise errors[min(errors)]
    return results


def _rows(n, i, parts):
    """Part `i` of range(n) cut into `parts` fixed slices; earlier parts get the odd rows."""
    return slice(-(-n * i // parts), -(-n * (i + 1) // parts))


def _affine(w, x, biases, parts):
    """w @ x + biases[:, None], its output rows computed in `parts` parts."""
    out = np.empty((w.shape[0], x.shape[1]), dtype=np.result_type(w, x, biases))

    def part(i, parts):
        r = _rows(w.shape[0], i, parts)
        np.matmul(w[r], x, out=out[r])
        out[r] += biases[r, None]

    _in_parts(part, parts)
    return out


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

@dataclass
class ConvTape:
    padded: np.ndarray        # zero-padded input [c, b_pad, f_pad]
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
    w2 = weights.reshape(k, -1)
    parts = _parts(w2.size * out_b * out_f, padded, weights, biases)
    patches = np.empty((w2.shape[1], out_b * out_f), dtype=padded.dtype)   # [c*m*n, out_b*out_f]
    _in_parts(lambda i, parts: _fill_patches(patches, padded, _rows(c, i, parts), m, n), parts)
    out = _affine(w2, patches, biases, parts).reshape(k, out_b, out_f)
    tape = ConvTape(padded, (fl, tl), x.shape, out.shape)
    return out, tape


def _channel_rows(ch, m, n):
    """The rows of a patch matrix that hold the input channels `ch`."""
    return slice(ch.start * m * n, ch.stop * m * n)


def _fill_patches(patches, padded, ch, m, n):
    """Write the rows of the im2col matrix [c*m*n, b'*f'] that hold the channels `ch`."""
    win = sliding_window_view(padded[ch], (m, n), axis=(1, 2))    # [c, b', f', m, n]
    rows = patches[_channel_rows(ch, m, n)]
    rows.reshape(win.shape[0], m, n, *win.shape[1:3])[...] = win.transpose(0, 3, 4, 1, 2)


def _col2im(grad_padded, grad_patches, m, n, out_b, out_f):
    """Add each patch-matrix row onto the padded input positions it was read from."""
    cols = grad_patches.reshape(grad_padded.shape[0], m, n, out_b, out_f)
    for dm in range(m):
        for dn in range(n):
            grad_padded[:, dm:dm + out_b, dn:dn + out_f] += cols[:, dm, dn]


def conv2d_backward(tape, grad_out, weights):
    """Gradients of conv2d_forward, given the weights it ran with:
    (grad_x, grad_weights, grad_biases).

    One patch matrix serves both GEMMs: it holds the forward's patches until
    grad_weights is computed from them, then the patch gradients that col2im
    scatters onto the input."""
    grad_out = np.asarray(grad_out)
    weights = np.asarray(weights)
    if grad_out.shape != tape.out_shape:
        raise ShapeError(f"conv grad shape {grad_out.shape} does not match forward output {tape.out_shape}")
    k, out_b, out_f = tape.out_shape
    c, pad_b, pad_f = tape.padded.shape
    if weights.shape != (k, c, pad_b - out_b + 1, pad_f - out_f + 1):
        raise ShapeError(f"conv weights {weights.shape} do not match the forward's "
                         f"input {tape.in_shape} and output {tape.out_shape}")
    m, n = weights.shape[2:]
    gy = grad_out.reshape(k, -1)

    grad_b = grad_out.sum(axis=(1, 2))
    w2 = weights.reshape(k, -1)
    grad_padded = np.zeros_like(tape.padded)
    parts = _parts(w2.size * gy.shape[1], tape.padded, weights, grad_out)
    patches = np.empty((w2.shape[1], gy.shape[1]), dtype=np.result_type(tape.padded, w2, gy))
    grad_w = np.empty(w2.shape, dtype=np.result_type(gy, patches))

    def fill(i, parts):
        _fill_patches(patches, tape.padded, _rows(c, i, parts), m, n)

    def maps(i, parts):
        r = _rows(k, i, parts)
        np.matmul(gy[r], patches.T, out=grad_w[r])

    def channels(i, parts):
        ch = _rows(c, i, parts)
        rows = _channel_rows(ch, m, n)
        np.matmul(w2[:, rows].T, gy, out=patches[rows])     # the patch gradients
        _col2im(grad_padded[ch], patches[rows], m, n, out_b, out_f)

    _in_parts(fill, parts)
    _in_parts(maps, parts)
    _in_parts(channels, parts)
    grad_w = grad_w.reshape(k, c, m, n)
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
    """max(h, 0); a NaN reaches the output and gets no gradient."""
    h = np.asarray(h)
    return np.maximum(h, h.dtype.type(0)), ReluTape(h > 0)


def relu_backward(tape, grad_out):
    # subgradient 0 at exactly 0
    return grad_out * tape.mask


@dataclass
class PreluTape:
    h: np.ndarray
    alpha: np.ndarray
    mask: np.ndarray


def prelu(h, alpha):
    """Slope alpha on the negative side, one trainable scalar per feature map.

    A NaN reaches the output.
    """
    h = np.asarray(h)
    alpha = np.asarray(alpha)
    if alpha.shape != (h.shape[0],):
        raise ShapeError(f"prelu needs one alpha per map: got {alpha.shape} for {h.shape[0]} maps")
    a = alpha.reshape((-1,) + (1,) * (h.ndim - 1))
    zero = h.dtype.type(0)
    # max(h, 0) + a * min(h, 0): one of the two terms is zero, so each
    # value is exactly h or a * h
    out = np.maximum(h, zero) + a * np.minimum(h, zero)
    return out.astype(h.dtype, copy=False), PreluTape(h, alpha, h > 0)


def prelu_backward(tape, grad_out):
    a = tape.alpha.reshape((-1,) + (1,) * (tape.h.ndim - 1))
    grad_neg = grad_out * ~tape.mask
    grad_h = grad_out * tape.mask + grad_neg * a
    grad_alpha = (grad_neg * tape.h).reshape(tape.h.shape[0], -1).sum(axis=1)
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
    beat: np.ndarray          # [pool - 1, *out_shape] bool: band j + 1 beat the running maximum
    in_shape: tuple
    out_shape: tuple
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
    (lowest) of those bands, as argmax would.  A NaN in a window reaches
    the output, and the backward routes that window's gradient to one band.
    The tape keeps one bool per output value and band after the first:
    whether that band was greater than the maximum of the bands before it.
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
    beat = np.empty((pool - 1,) + out.shape, dtype=bool)
    for j in range(1, pool):
        band = x[:, j:j + span:step]
        np.greater(band, out, out=beat[j - 1])
        np.maximum(out, band, out=out)
    return out, PoolTape(beat, x.shape, out.shape, step)


def maxpool_freq_backward(tape, grad_out):
    grad_out = np.asarray(grad_out)
    if grad_out.shape != tape.out_shape:
        raise ShapeError(f"pool grad shape {grad_out.shape} does not match forward output "
                         f"{tape.out_shape}")
    pool, step = len(tape.beat) + 1, tape.step
    span = _window_span(tape.in_shape[1], pool, step)
    # a window's first maximum is the last band that beat the bands before
    # it, or band 0 when none did
    wins = [None] * pool
    unclaimed = np.ones(grad_out.shape, dtype=bool)
    for j in range(pool - 1, 0, -1):
        wins[j] = unclaimed & tape.beat[j - 1]
        unclaimed &= ~wins[j]
    wins[0] = unclaimed
    grad_x = np.zeros(tape.in_shape, dtype=grad_out.dtype)
    for j in range(pool):
        grad_x[:, j:j + span:step] += grad_out * wins[j]
    return grad_x


# ---------------------------------------------------------------------------
# time-distributed dense
# ---------------------------------------------------------------------------

@dataclass
class DenseTape:
    x: np.ndarray


def dense_forward(x, weights, biases):
    """Affine map applied independently at every frame: [d x f] -> [d' x f]."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim != 2:
        raise ShapeError(f"dense input must be [d x f], got shape {x.shape}")
    if weights.shape[1] != x.shape[0]:
        raise ShapeError(f"dense expects input width {weights.shape[1]}, got {x.shape[0]}")
    biases = np.asarray(biases)
    out = _affine(weights, x, biases, _parts(weights.size * x.shape[1], x, weights, biases))
    return out, DenseTape(x)


def dense_backward(tape, grad_out, weights):
    """Gradients of dense_forward, given the weights it ran with:
    (grad_x, grad_weights, grad_biases)."""
    w, x = np.asarray(weights), tape.x
    if w.shape != (grad_out.shape[0], x.shape[0]):
        raise ShapeError(f"dense weights {w.shape} do not match the forward's input width "
                         f"{x.shape[0]} and gradient {grad_out.shape}")
    grad_x = np.empty(x.shape, dtype=np.result_type(w, grad_out))
    grad_w = np.empty(w.shape, dtype=np.result_type(grad_out, x))

    def part(i, parts):
        inputs, outputs = _rows(w.shape[1], i, parts), _rows(w.shape[0], i, parts)
        np.matmul(w[:, inputs].T, grad_out, out=grad_x[inputs])
        np.matmul(grad_out[outputs], x.T, out=grad_w[outputs])

    _in_parts(part, _parts(w.size * x.shape[1], x, w, grad_out))
    grad_b = grad_out.sum(axis=1)
    return grad_x, grad_w, grad_b


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

@dataclass
class DropoutTape:
    keep: np.ndarray | None    # bool mask of survivors; None when the op was the identity
    scale: np.generic | None   # 1/(1-rate) in the input's dtype


def dropout(x, rate, rng=None, training=False):
    """Inverted dropout: survivors scaled by 1/(1-rate); inference is identity.

    The tape keeps the bool mask, a quarter of a float32 scale map; both
    passes multiply by keep * scale, which is exactly scale or 0.
    """
    x = np.asarray(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, DropoutTape(None, None)
    if rng is None:
        raise ValueError("dropout in training mode needs a seeded generator")
    keep = rng.random(x.shape) >= rate
    scale = x.dtype.type(1.0) / x.dtype.type(1.0 - rate)
    return x * (keep * scale), DropoutTape(keep, scale)


def dropout_backward(tape, grad_out):
    if tape.keep is None:
        return grad_out
    return grad_out * (tape.keep * tape.scale)


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
