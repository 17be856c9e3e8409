import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from convctc import layers, verify
from convctc.tensor import ShapeError
from convctc.verify import GRAD_TOL, central_diff, rel_error


# The gather-based kernels that layers.maxout2 and layers.maxpool_freq
# replaced, kept as references for the differential tests below.

def reference_maxout2(h1, h2):
    first_wins = h1 >= h2
    return np.where(first_wins, h1, h2), first_wins


# The conv backward that kept two patch matrices, the forward's patches and
# their gradients, kept as the reference for the one-matrix backward.

def reference_conv2d_backward(tape, grad_out, weights):
    k, out_b, out_f = tape.out_shape
    m, n = weights.shape[2:]
    gy = grad_out.reshape(k, -1)
    w2 = weights.reshape(k, -1)
    patches = np.empty((w2.shape[1], gy.shape[1]), dtype=tape.padded.dtype)
    layers._fill_patches(patches, tape.padded, m, n)
    grad_padded = np.zeros_like(tape.padded)
    layers._col2im(grad_padded, w2.T @ gy, m, n, out_b, out_f)
    fl, tl = tape.pads
    _, bands, frames = tape.in_shape
    return (grad_padded[:, fl:fl + bands, tl:tl + frames], (gy @ patches.T).reshape(weights.shape),
            grad_out.sum(axis=(1, 2)))


# The conv set-up that np.pad and sliding_window_view made, kept as the
# reference for the one-copy padding and the one-call window view.

def reference_zero_pad(x, fl, fr, tl, tr):
    return np.pad(x, ((0, 0), (fl, fr), (tl, tr)))


def reference_fill_patches(patches, padded, m, n):
    win = sliding_window_view(padded, (m, n), axis=(1, 2))    # [c, b', f', m, n]
    patches.reshape(win.shape[0], m, n, *win.shape[1:3])[...] = win.transpose(0, 3, 4, 1, 2)


# The np.where kernels that layers.relu, layers.prelu and
# layers.prelu_backward replaced, kept as references.

def reference_relu(h):
    mask = h > 0
    return np.where(mask, h, h.dtype.type(0)), mask


def reference_prelu(h, alpha):
    a = alpha.reshape((-1,) + (1,) * (h.ndim - 1))
    return np.where(h > 0, h, a * h).astype(h.dtype, copy=False)


def reference_prelu_backward(h, alpha, grad_out):
    a = alpha.reshape((-1,) + (1,) * (h.ndim - 1))
    mask = h > 0
    grad_h = grad_out * np.where(mask, np.ones_like(a), a)
    neg = grad_out * h * ~mask
    return grad_h, neg.reshape(h.shape[0], -1).sum(axis=1)


def reference_maxpool_freq(x, pool, step):
    windows = sliding_window_view(x, pool, axis=1)[:, ::step]      # [k, r, f, pool]
    idx = np.argmax(windows, axis=3)
    return np.take_along_axis(windows, idx[..., None], axis=3)[..., 0], idx


def reference_maxpool_freq_backward(in_shape, step, idx, grad_out):
    k, r, f = grad_out.shape
    grad_x = np.zeros(in_shape, dtype=grad_out.dtype)
    ki, ri, fi = np.ogrid[:k, :r, :f]
    np.add.at(grad_x, (ki, ri * step + idx, fi), grad_out)
    return grad_x


@st.composite
def pool_cases(draw):
    """Shapes and (pool, step) with overlapping windows (pool > step), gaps
    (pool < step), pool == step and trailing bands that fill no window."""
    k = draw(st.integers(1, 3), label="k")
    bands = draw(st.integers(1, 13), label="bands")
    frames = draw(st.integers(1, 5), label="frames")
    pool = draw(st.integers(1, bands), label="pool")
    step = draw(st.integers(1, 5), label="step")
    dtype = draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    return (k, bands, frames), pool, step, dtype, np.random.default_rng(seed)


class TestConv2d:
    def test_same_padding_shape(self):
        x = np.zeros((3, 41, 100))
        w = np.zeros((128, 3, 3, 5))
        out, _ = layers.conv2d_forward(x, w, np.zeros(128))
        assert out.shape == (128, 41, 100)

    def test_identity_filter(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 6, 9))
        out, _ = layers.conv2d_forward(x, np.ones((1, 1, 1, 1)), np.zeros(1))
        np.testing.assert_array_equal(out, x)

    def test_hand_evaluated_window(self):
        # x = [[1,2],[3,4]], filter [[1,0],[0,1]]: the frame-0 window covers
        # the real input exactly and evaluates to 1*1 + 0*2 + 0*3 + 1*4 = 5;
        # frame 1 sees one zero-padded time column: 2*1 + 0 = 2.
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[None]
        w = np.array([[1.0, 0.0], [0.0, 1.0]])[None, None]
        out, _ = layers.conv2d_forward(x, w, np.zeros(1), freq_padding="valid")
        assert out.shape == (1, 1, 2)
        assert out[0, 0, 0] == 5.0
        assert out[0, 0, 1] == 2.0

    def test_time_extent_always_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = int(rng.integers(1, 201))
            n = int(rng.integers(1, 8))
            x = rng.standard_normal((2, 9, f))
            w = rng.standard_normal((4, 2, 3, n))
            out, _ = layers.conv2d_forward(x, w, np.zeros(4))
            assert out.shape == (4, 9, f)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            layers.conv2d_forward(np.zeros((2, 5, 5)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_filter_taller_than_input_rejected(self):
        with pytest.raises(ShapeError, match="exceeds"):
            layers.conv2d_forward(np.zeros((1, 2, 5)), np.zeros((1, 1, 4, 3)),
                                  np.zeros(1), freq_padding="valid")

    def test_backward_zero_grad(self):
        x = np.random.default_rng(2).standard_normal((2, 4, 6))
        w = np.ones((3, 2, 3, 3))
        out, tape = layers.conv2d_forward(x, w, np.zeros(3))
        gx, gw, gb = layers.conv2d_backward(tape, np.zeros_like(out), w)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_identity_filter(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 4, 6))
        w = np.ones((1, 1, 1, 1))
        _, tape = layers.conv2d_forward(x, w, np.zeros(1))
        gy = rng.standard_normal((1, 4, 6))
        gx, _, _ = layers.conv2d_backward(tape, gy, w)
        np.testing.assert_array_equal(gx, gy)

    def test_backward_matches_finite_differences_on_hand_case(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[None]
        w = np.array([[1.0, 0.0], [0.0, 1.0]])[None, None]
        out, tape = layers.conv2d_forward(x, w, np.zeros(1), freq_padding="valid")
        gy = np.ones_like(out)
        _, gw, _ = layers.conv2d_backward(tape, gy, w)
        numeric = central_diff(
            lambda wv: float(layers.conv2d_forward(x, wv, np.zeros(1), "valid")[0].sum()), w)
        assert np.max(np.abs(gw - numeric)) <= 1e-7

    def test_backward_rejects_weights_the_forward_did_not_use(self):
        x = np.ones((2, 5, 7))
        w = np.ones((3, 2, 3, 3))
        out, tape = layers.conv2d_forward(x, w, np.zeros(3))
        for other in (np.ones((3, 2, 3, 5)), np.ones((4, 2, 3, 3)), np.ones((3, 2, 9))):
            with pytest.raises(ShapeError, match="conv weights"):
                layers.conv2d_backward(tape, out, other)
        out, tape = layers.dense_forward(np.ones((5, 4)), np.ones((6, 5)), np.zeros(6))
        for other in (np.ones((6, 4)), np.ones((5, 5))):
            with pytest.raises(ShapeError, match="dense weights"):
                layers.dense_backward(tape, out, other)

    def test_bias_gradient_is_sum_over_positions(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 5, 7))
        w = rng.standard_normal((3, 2, 3, 3))
        out, tape = layers.conv2d_forward(x, w, rng.standard_normal(3))
        gy = rng.standard_normal(out.shape)
        _, _, gb = layers.conv2d_backward(tape, gy, w)
        np.testing.assert_allclose(gb, gy.sum(axis=(1, 2)), atol=1e-12)


    @pytest.mark.parametrize("c, bands, frames, k, padding", [
        (3, 41, 30, 64, "same"), (32, 13, 57, 64, "same"), (5, 9, 11, 7, "valid")])
    def test_backward_matches_the_two_matrix_reference(self, c, bands, frames, k, padding):
        x, w, b = conv_case(c, bands, frames, k, np.float32)
        out, tape = layers.conv2d_forward(x, w, b, padding)
        gy = np.random.default_rng(5).standard_normal(out.shape).astype(np.float32)
        for got, expected in zip(layers.conv2d_backward(tape, gy, w),
                                 reference_conv2d_backward(tape, gy, w)):
            assert got.dtype == expected.dtype == np.float32
            np.testing.assert_array_equal(got, expected)

    def test_backward_keeps_one_patch_matrix(self):
        # 64 channels x 15 taps by 13 x 200 positions: a 10 MB float32 patch
        # matrix, against 0.8 MB for every other array the backward makes
        x, w, b = conv_case(64, 13, 200, 8, np.float32)
        out, tape = layers.conv2d_forward(x, w, b)
        gy = np.ones_like(out)
        patch_bytes = 64 * 15 * 13 * 200 * 4
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            grads = layers.conv2d_backward(tape, gy, w)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert patch_bytes <= peak < 1.25 * patch_bytes, peak
        del grads


class TestActivations:
    def test_relu_values(self):
        out, _ = layers.relu(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_positive_identity(self):
        x = np.array([0.5, 3.0, 1e-9])
        out, _ = layers.relu(x)
        np.testing.assert_array_equal(out, x)

    def test_relu_backward_zero_at_kink(self):
        _, tape = layers.relu(np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(layers.relu_backward(tape, np.array([5.0, 7.0])),
                                      [0.0, 7.0])
        _, tape = layers.relu(np.array([0.0]))
        assert layers.relu_backward(tape, np.array([9.0]))[0] == 0.0

    def test_prelu_alpha_zero_is_relu(self):
        x = np.array([[-3.0], [4.0]])
        out, _ = layers.prelu(x, np.zeros(2))
        expected, _ = layers.relu(x)
        np.testing.assert_array_equal(out, expected)

    def test_prelu_default_init_slope(self):
        out, _ = layers.prelu(np.array([[-2.0]]), np.array([0.1]))
        assert out[0, 0] == pytest.approx(-0.2, abs=1e-15)

    def test_prelu_alpha_one_is_identity_both_precisions(self):
        for dtype in (np.float32, np.float64):
            x = np.linspace(-3, 3, 16).astype(dtype).reshape(4, 4)
            out, _ = layers.prelu(x, np.ones(4, dtype=dtype))
            np.testing.assert_array_equal(out, x)

    def test_prelu_alpha_count_mismatch(self):
        with pytest.raises(ShapeError):
            layers.prelu(np.zeros((3, 2)), np.zeros(2))

    def test_prelu_alpha_gradient(self):
        h = np.array([[-2.0, 1.0], [-1.0, -3.0]])
        _, tape = layers.prelu(h, np.array([0.1, 0.2]))
        gy = np.ones_like(h)
        _, galpha = layers.prelu_backward(tape, gy)
        # per-map sum of h * grad over the negative side
        np.testing.assert_allclose(galpha, [-2.0, -4.0], atol=1e-15)

    def test_maxout_basic(self):
        out, _ = layers.maxout2(np.array([2.0]), np.array([3.0]))
        np.testing.assert_array_equal(out, [3.0])

    def test_maxout_tie_routes_to_first_branch(self):
        h = np.array([1.0, -2.0])
        out, tape = layers.maxout2(h, h.copy())
        np.testing.assert_array_equal(out, h)
        g1, g2 = layers.maxout2_backward(tape, np.array([5.0, 7.0]))
        np.testing.assert_array_equal(g1, [5.0, 7.0])
        np.testing.assert_array_equal(g2, [0.0, 0.0])

    def test_maxout_dominates_both_branches(self):
        rng = np.random.default_rng(5)
        h1 = rng.standard_normal((6, 7))
        h2 = rng.standard_normal((6, 7))
        out, _ = layers.maxout2(h1, h2)
        assert np.all(out >= h1) and np.all(out >= h2)

    def test_maxout_shape_mismatch(self):
        with pytest.raises(ShapeError):
            layers.maxout2(np.zeros(3), np.zeros(4))

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_maxout_matches_where_reference_with_ties(self, shape, dtype, seed):
        rng = np.random.default_rng(seed)
        h1, h2 = (rng.integers(-2, 3, shape).astype(dtype) for _ in range(2))
        grad = rng.standard_normal(shape).astype(dtype)
        out, tape = layers.maxout2(h1, h2)
        expected, first_wins = reference_maxout2(h1, h2)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)
        g1, g2 = layers.maxout2_backward(tape, grad)
        np.testing.assert_array_equal(g1, grad * first_wins)
        np.testing.assert_array_equal(g2, grad * ~first_wins)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_relu_and_prelu_match_where_references(self, shape, dtype, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(shape).astype(dtype)
        h[rng.random(shape) < 0.3] = 0             # the kink is common
        alpha = rng.uniform(-0.5, 1.5, shape[0]).astype(dtype)
        grad = rng.standard_normal(shape).astype(dtype)

        out, tape = layers.relu(h)
        expected, mask = reference_relu(h)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)
        np.testing.assert_array_equal(layers.relu_backward(tape, grad), grad * mask)

        out, tape = layers.prelu(h, alpha)
        expected = reference_prelu(h, alpha)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)
        grad_h, grad_alpha = layers.prelu_backward(tape, grad)
        ref_h, ref_alpha = reference_prelu_backward(h, alpha, grad)
        np.testing.assert_array_equal(grad_h, ref_h)
        np.testing.assert_array_equal(grad_alpha, ref_alpha)

    def test_relu_and_prelu_let_nan_through(self):
        h = np.array([[1.0, np.nan, -2.0]])
        ones = np.ones_like(h)
        out, tape = layers.relu(h)
        assert np.isnan(out[0, 1])
        np.testing.assert_array_equal(out[0, [0, 2]], [1.0, 0.0])
        np.testing.assert_array_equal(layers.relu_backward(tape, ones), [[1.0, 0.0, 0.0]])

        out, tape = layers.prelu(h, np.array([0.25]))
        assert np.isnan(out[0, 1])
        np.testing.assert_array_equal(out[0, [0, 2]], [1.0, -0.5])
        grad_h, grad_alpha = layers.prelu_backward(tape, ones)
        np.testing.assert_array_equal(grad_h, [[1.0, 0.25, 0.25]])
        assert np.isnan(grad_alpha[0])

    @pytest.mark.parametrize("nan_in", [0, 1])
    def test_maxout_nan_in_either_half_reaches_output(self, nan_in):
        halves = [np.array([1.0, 2.0, -3.0]), np.array([0.0, 5.0, -4.0])]
        halves[nan_in][1] = np.nan
        out, _ = layers.maxout2(*halves)
        assert np.isnan(out[1])
        np.testing.assert_array_equal(out[[0, 2]], [1.0, -3.0])


class TestMaxpoolFreq:
    def test_single_window(self):
        x = np.array([1.0, 5.0, 3.0]).reshape(1, 3, 1)
        out, _ = layers.maxpool_freq(x, 3, 3)
        np.testing.assert_array_equal(out, [[[5.0]]])

    def test_41_bands_pool_to_13(self):
        out, _ = layers.maxpool_freq(np.zeros((2, 41, 100)), 3, 3)
        assert out.shape == (2, 13, 100)

    def test_time_extent_unchanged(self):
        out, _ = layers.maxpool_freq(np.zeros((1, 9, 100)), 3, 3)
        assert out.shape[2] == 100

    def test_matches_window_scan_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            k, b, f = (int(rng.integers(1, 4)) for _ in range(3))
            b = b + 3
            pool = int(rng.integers(1, b + 1))
            step = int(rng.integers(1, 4))
            x = rng.standard_normal((k, b, f))
            out, _ = layers.maxpool_freq(x, pool, step)
            r = (b - pool) // step + 1
            expected = np.empty((k, r, f))
            for i in range(r):
                expected[:, i] = x[:, i * step:i * step + pool].max(axis=1)
            np.testing.assert_array_equal(out, expected)

    def test_permutation_invariant_within_window(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 6, 4))
        shuffled = x.copy()
        shuffled[:, 0:3] = x[:, [2, 0, 1]]
        shuffled[:, 3:6] = x[:, [4, 5, 3]]
        a, _ = layers.maxpool_freq(x, 3, 3)
        b, _ = layers.maxpool_freq(shuffled, 3, 3)
        np.testing.assert_array_equal(a, b)

    def test_window_larger_than_bands_rejected(self):
        with pytest.raises(ShapeError):
            layers.maxpool_freq(np.zeros((1, 2, 3)), 3, 3)

    def test_backward_routes_to_argmax(self):
        x = np.array([1.0, 5.0, 3.0]).reshape(1, 3, 1)
        _, tape = layers.maxpool_freq(x, 3, 3)
        gx = layers.maxpool_freq_backward(tape, np.array([[[2.0]]]))
        np.testing.assert_array_equal(gx, [[[0.0], [2.0], [0.0]]])

    def test_backward_ties_go_to_first_band(self):
        # bands 1 and 2 tie in window 0 (bands 0-2) and window 1 (bands 2-4)
        x = np.array([0.0, 4.0, 4.0, 1.0, 4.0]).reshape(1, 5, 1)
        out, tape = layers.maxpool_freq(x, 3, 2)
        np.testing.assert_array_equal(out, [[[4.0], [4.0]]])
        gx = layers.maxpool_freq_backward(tape, np.array([[[2.0], [3.0]]]))
        np.testing.assert_array_equal(gx[0, :, 0], [0.0, 2.0, 3.0, 0.0, 0.0])

    def test_backward_grad_shape_mismatch_rejected(self):
        _, tape = layers.maxpool_freq(np.zeros((1, 6, 2)), 3, 3)
        with pytest.raises(ShapeError):
            layers.maxpool_freq_backward(tape, np.zeros((1, 1, 1)))

    @settings(max_examples=150, deadline=None)
    @given(case=pool_cases())
    def test_matches_argmax_reference_with_ties(self, case):
        # Integer-valued inputs make ties common.  The gradients are integer
        # valued too: where three or more overlapping windows route to one
        # band, the kernel and np.add.at sum in different orders, and small
        # integer sums are exact in any order, so only a routing difference
        # can make the results unequal.
        shape, pool, step, dtype, rng = case
        x = rng.integers(-2, 3, shape).astype(dtype)
        out, tape = layers.maxpool_freq(x, pool, step)
        expected, idx = reference_maxpool_freq(x, pool, step)
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)
        grad = rng.integers(-3, 4, out.shape).astype(dtype)
        gx = layers.maxpool_freq_backward(tape, grad)
        ref = reference_maxpool_freq_backward(x.shape, step, idx, grad)
        assert gx.dtype == ref.dtype
        np.testing.assert_array_equal(gx, ref)

    @settings(max_examples=60, deadline=None)
    @given(case=pool_cases())
    def test_matches_argmax_reference_on_real_values(self, case):
        shape, pool, step, dtype, rng = case
        x = rng.standard_normal(shape).astype(dtype)
        out, tape = layers.maxpool_freq(x, pool, step)
        expected, idx = reference_maxpool_freq(x, pool, step)
        np.testing.assert_array_equal(out, expected)
        grad = rng.standard_normal(out.shape).astype(dtype)
        gx = layers.maxpool_freq_backward(tape, grad)
        ref = reference_maxpool_freq_backward(x.shape, step, idx, grad)
        # summation order over overlapping windows may differ in the last bits
        tol = 4 * np.finfo(dtype).eps * max(1.0, float(np.abs(grad).max())) * pool
        np.testing.assert_allclose(gx, ref, rtol=0, atol=tol)

    @pytest.mark.parametrize("pool, step", [(1, 1), (2, 2), (3, 3), (3, 2), (4, 1), (2, 5)])
    def test_tape_keeps_pool_minus_one_bytes_per_output_value(self, pool, step):
        x = np.random.default_rng(23).standard_normal((4, 13, 50)).astype(np.float32)
        out, tape = layers.maxpool_freq(x, pool, step)
        arrays = [v for v in vars(tape).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= (pool - 1) * out.size
        assert not any(np.shares_memory(a, x) or np.shares_memory(a, out) for a in arrays)

    def test_backward_overlapping_windows_match_central_differences(self):
        rng = np.random.default_rng(19)
        # distinct values 0.1 apart: no ties, and no finite-difference step
        # moves a window's winner
        x = rng.permutation(2 * 9 * 3).reshape(2, 9, 3) * 0.1
        proj = rng.standard_normal((2, 4, 3))
        out, tape = layers.maxpool_freq(x, 3, 2)
        analytic = layers.maxpool_freq_backward(tape, proj)
        numeric = central_diff(lambda u: float((layers.maxpool_freq(u, 3, 2)[0] * proj).sum()), x)
        assert rel_error(analytic, numeric) <= GRAD_TOL
        assert np.count_nonzero(analytic) < x.size       # losers get no gradient


class TestDense:
    def test_identity_map(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((4, 9))
        out, _ = layers.dense_forward(x, np.eye(4), np.zeros(4))
        np.testing.assert_allclose(out, x, atol=1e-15)

    def test_single_frame_is_matrix_vector(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 1))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        out, _ = layers.dense_forward(x, w, b)
        np.testing.assert_allclose(out[:, 0], w @ x[:, 0] + b, atol=1e-12)

    def test_time_distribution_commutes_with_permutation(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 7))
        w = rng.standard_normal((3, 4))
        b = rng.standard_normal(3)
        perm = rng.permutation(7)
        out, _ = layers.dense_forward(x, w, b)
        out_perm, _ = layers.dense_forward(x[:, perm], w, b)
        np.testing.assert_array_equal(out_perm, out[:, perm])

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            layers.dense_forward(np.zeros((4, 2)), np.zeros((3, 5)), np.zeros(3))


def assert_split_matches(serial, split, dtype):
    """float32 row halves are bit-identical; float64 ones may differ in the
    last bits, because dgemm blocks a row slice differently."""
    for whole, halves in zip(serial, split):
        assert halves.dtype == whole.dtype and halves.shape == whole.shape
        if dtype == np.float32:
            np.testing.assert_array_equal(halves, whole)
        else:
            assert np.max(np.abs(halves - whole)) <= 1e-12 * np.max(np.abs(whole))


def conv_case(c, bands, frames, k, dtype, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((c, bands, frames)).astype(dtype)
    w = (rng.standard_normal((k, c, 3, 5)) * 0.1).astype(dtype)
    return x, w, rng.standard_normal(k).astype(dtype)


# (c, bands, frames, k, freq_padding), each at or above SPLIT_MIN_MULADDS
CONV_SPLIT_SHAPES = [
    (32, 13, 130, 64, "same"),
    (33, 13, 160, 65, "valid"),     # odd channel and map counts
    (3, 41, 400, 129, "same"),      # the input layer's three channels
    (1, 41, 1500, 64, "same"),      # one channel: one channel half is empty
]
# (d, d', frames) of a dense layer [d' x d] at or above SPLIT_MIN_MULADDS
DENSE_SPLIT_SHAPES = [(1025, 257, 200), (416, 2048, 61)]


class TestGemmSplit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c, bands, frames, k, padding", CONV_SPLIT_SHAPES)
    def test_conv_split_matches_whole(self, force_split, dtype, c, bands, frames, k, padding):
        x, w, b = conv_case(c, bands, frames, k, dtype)
        out_b = bands if padding == "same" else bands - 2
        assert k * c * 15 * out_b * frames >= layers.SPLIT_MIN_MULADDS
        gy = np.random.default_rng(1).standard_normal((k, out_b, frames)).astype(dtype)
        results = []
        for on in (False, True):
            dispatches = force_split(on)
            out, tape = layers.conv2d_forward(x, w, b, padding)
            results.append((out, *layers.conv2d_backward(tape, gy, w)))
        assert len(dispatches) == 3     # forward: maps; backward: maps, channels
        assert_split_matches(*results, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("d, d_out, frames", DENSE_SPLIT_SHAPES)
    def test_dense_split_matches_whole(self, force_split, dtype, d, d_out, frames):
        assert d * d_out * frames >= layers.SPLIT_MIN_MULADDS
        rng = np.random.default_rng(d)
        x = rng.standard_normal((d, frames)).astype(dtype)
        w = (rng.standard_normal((d_out, d)) * 0.05).astype(dtype)
        b = rng.standard_normal(d_out).astype(dtype)
        gy = rng.standard_normal((d_out, frames)).astype(dtype)
        results = []
        for on in (False, True):
            dispatches = force_split(on)
            out, tape = layers.dense_forward(x, w, b)
            results.append((out, *layers.dense_backward(tape, gy, w)))
        assert len(dispatches) == 2
        assert_split_matches(*results, dtype)

    def test_below_the_threshold_nothing_is_dispatched(self, force_split):
        dispatches = force_split(True)
        x, w, b = conv_case(32, 13, 60, 64, np.float32)
        out, tape = layers.conv2d_forward(x, w, b)
        layers.conv2d_backward(tape, np.ones_like(out), w)
        w = np.ones((256, 416), np.float32)
        x = np.ones((416, 60), np.float32)
        out, tape = layers.dense_forward(x, w, np.ones(256, np.float32))
        layers.dense_backward(tape, out, w)
        assert dispatches == []

    def test_gradcheck_with_every_gemm_split(self, force_split, monkeypatch):
        monkeypatch.setattr(layers, "SPLIT_MIN_MULADDS", 0)
        dispatches = force_split(True)
        ok, worst, details = verify.gradcheck_suite(seed=0)
        assert ok, details
        assert worst <= GRAD_TOL and dispatches

    @pytest.mark.parametrize("failing", [0, 1])
    def test_error_in_a_half_reraises_after_both_halves_end(self, force_split, failing):
        finished = []

        def task(i, parts):
            if i == failing:
                raise RuntimeError(f"half {i} failed")
            time.sleep(0.05)
            finished.append(i)

        with pytest.raises(RuntimeError, match=f"half {failing} failed"):
            layers._in_parts(task, 2)
        assert finished == [1 - failing]
        # the pool still works
        force_split(True)
        x, w, b = conv_case(32, 13, 130, 64, np.float32)
        split, _ = layers.conv2d_forward(x, w, b)
        force_split(False)
        np.testing.assert_array_equal(split, layers.conv2d_forward(x, w, b)[0])

    def test_concurrent_callers_get_exact_results(self, force_split):
        cases = [conv_case(32, 13, 130, 64, np.float32, seed) for seed in range(3)]
        force_split(False)
        expected = [layers.conv2d_forward(*case)[0] for case in cases]
        dispatches = force_split(True)
        results, errors = {}, []

        def work(i):
            try:
                results[i] = [layers.conv2d_forward(*cases[i])[0] for _ in range(3)]
            except Exception as err:     # reported below
                errors.append(err)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(dispatches) == 3 * len(cases)
        for i, outs in results.items():
            for out in outs:
                np.testing.assert_array_equal(out, expected[i])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 64, 65])
    def test_parts_cover_the_rows_in_order(self, n):
        assert layers._rows(n, 0, 1) == slice(0, n)
        first, second = layers._rows(n, 0, 2), layers._rows(n, 1, 2)
        assert (first.start, first.stop, second.stop) == (0, second.start, n)
        assert first.stop - first.start == (n + 1) // 2

    @pytest.mark.parametrize("env, threads", [
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "3"}, 3),
        ({"MKL_NUM_THREADS": "1"}, None),
    ])
    def test_openblas_thread_count_from_the_environment(self, env, threads):
        names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        assert layers._blas_threads(env, names) == threads

    @pytest.mark.parametrize("env, pinned", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"MKL_NUM_THREADS": "1"}, False),          # OpenBLAS does not read it
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    ])
    def test_pin_is_read_from_the_variables_numpys_openblas_reads(self, env, pinned):
        if layers._blas_thread_vars()[:1] != ("OPENBLAS_NUM_THREADS",):
            pytest.skip("numpy is not built with OpenBLAS")
        clean = {k: v for k, v in os.environ.items()
                 if not k.endswith("_NUM_THREADS")}
        src = os.path.dirname(os.path.dirname(os.path.abspath(layers.__file__)))
        clean["PYTHONPATH"] = os.pathsep.join(filter(None, [src, clean.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", "from convctc import layers; print(layers._BLAS_PINNED)"],
            env={**clean, **env}, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == str(pinned)

    @pytest.mark.parametrize("cores, pinned, engaged", [
        ({0}, True, False),
        ({0, 1}, False, False),
        ({0, 1}, True, True),
    ])
    def test_halves_run_together_needs_two_cores_and_one_blas_thread(
            self, monkeypatch, cores, pinned, engaged):
        monkeypatch.setattr(layers, "_BLAS_PINNED", pinned)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)
        assert layers._halves_run_together() is engaged

    @pytest.mark.parametrize("cores, pinned", [({0}, True), ({0, 1}, False)])
    def test_one_core_or_unpinned_blas_starts_no_thread(self, monkeypatch, cores, pinned):
        monkeypatch.setattr(layers, "_BLAS_PINNED", pinned)
        # set after numpy loaded, so BLAS did not read it: changes nothing
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores)

        def no_pool():
            raise AssertionError("a GEMM asked for the worker pool")

        monkeypatch.setattr(layers, "_executor", no_pool)
        threads = threading.active_count()
        x, w, b = conv_case(32, 13, 130, 64, np.float32)
        out, tape = layers.conv2d_forward(x, w, b)
        layers.conv2d_backward(tape, np.ones_like(out), w)
        w = np.ones((257, 1025), np.float32)
        x = np.ones((1025, 200), np.float32)
        out, tape = layers.dense_forward(x, w, np.ones(257, np.float32))
        layers.dense_backward(tape, out, w)
        assert threading.active_count() == threads

    def test_pool_is_made_again_in_a_new_process(self, monkeypatch):
        first = layers._executor()
        assert layers._executor() is first
        monkeypatch.setattr(layers, "_pool_pid", -1)        # as after a fork
        second = layers._executor()
        first.shutdown()
        assert second is not first
        assert second.submit(lambda: 7).result(timeout=10) == 7


class TestConvSetup:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("c", [1, 5])             # one channel: one split part is empty
    @pytest.mark.parametrize("transposed", [False, True])
    def test_bytes_match_the_pad_and_window_view_reference(self, force_split, monkeypatch,
                                                           dtype, padding, split, c,
                                                           transposed):
        rng = np.random.default_rng(c)
        bands, frames, k = 9, 23, 7
        if transposed:      # a view whose bands are its last axis in memory
            x = rng.standard_normal((c, frames, bands)).astype(dtype).transpose(0, 2, 1)
            assert not x.flags.c_contiguous
        else:
            x = rng.standard_normal((c, bands, frames)).astype(dtype)
        w = (rng.standard_normal((k, c, 3, 5)) * 0.1).astype(dtype)
        b = rng.standard_normal(k).astype(dtype)
        out_b = bands if padding == "same" else bands - 2
        gy = rng.standard_normal((k, out_b, frames)).astype(dtype)
        monkeypatch.setattr(layers, "SPLIT_MIN_MULADDS", 0)
        dispatches = force_split(split)

        def run():
            out, tape = layers.conv2d_forward(x, w, b, padding)
            return (tape.padded, out, *layers.conv2d_backward(tape, gy, w))

        got = run()
        with monkeypatch.context() as m:
            m.setattr(layers, "_zero_pad", reference_zero_pad)
            m.setattr(layers, "_fill_patches", reference_fill_patches)
            expected = run()
        assert len(dispatches) == (6 if split else 0)     # 3 per run
        for a, e in zip(got, expected):
            assert a.dtype == e.dtype == dtype and a.shape == e.shape
            assert a.tobytes() == e.tobytes()


class TestRunItems:
    def test_sides_run_here_and_on_a_worker_with_whole_gemms(self, force_split, monkeypatch):
        force_split(True)

        def no_pool():
            raise AssertionError("run_items used the split's executor")

        monkeypatch.setattr(layers, "_executor", no_pool)
        big = np.ones(1, np.float32)
        assert layers._parts(layers.SPLIT_MIN_MULADDS, big) == 2
        # each side's first index waits for the other's, so both take one
        both_started = threading.Barrier(2, timeout=10)
        seen = {}

        def work(i):
            if i in (0, 3):
                both_started.wait()
            seen[i] = (threading.current_thread().name,
                       layers._parts(layers.SPLIT_MIN_MULADDS, big))
            return 10 * i

        assert layers.run_items(work, [0, 1, 2, 3], [3, 2, 1, 0]) == [0, 10, 20, 30]
        assert seen[0] == (threading.current_thread().name, 1)
        assert seen[3] == ("convctc-items", 1)
        assert sorted(seen) == [0, 1, 2, 3] and {parts for _, parts in seen.values()} == {1}
        assert layers._parts(layers.SPLIT_MIN_MULADDS, big) == 2      # restored

    @pytest.mark.parametrize("on", [False, True])
    def test_results_come_back_by_index(self, force_split, on):
        force_split(on)
        assert layers.run_items(lambda i: i * i, [2, 0, 3, 1], [1, 3, 0, 2]) == [0, 1, 4, 9]
        assert layers.run_items(lambda i: i, [], []) == []

    @pytest.mark.parametrize("there", ["same", "reversed"])
    def test_each_index_runs_once_on_two_threads(self, force_split, there):
        force_split(True)
        n = 400
        calls = []

        def work(i):
            calls.append((i, threading.current_thread().name))
            np.add(np.ones(64), i)          # a call that may give up the interpreter lock
            return i

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            order = range(n) if there == "same" else range(n - 1, -1, -1)
            results = layers.run_items(work, range(n), order)
        finally:
            sys.setswitchinterval(switch)
        assert results == list(range(n))
        assert sorted(i for i, _ in calls) == list(range(n))
        assert {name for _, name in calls} <= {threading.current_thread().name, "convctc-items"}

    @pytest.mark.parametrize("n, there, on", [(4, None, True), (1, [0], True),
                                              (4, [3, 2, 1, 0], False)],
                             ids=["no-there", "one-item", "no-two-cores"])
    def test_the_calling_thread_alone_runs_everything(self, force_split, n, there, on):
        force_split(on)
        big = np.ones(1, np.float32)
        threads = threading.active_count()
        seen = []

        def work(i):
            seen.append((i, threading.current_thread().name,
                         layers._parts(layers.SPLIT_MIN_MULADDS, big)))
            assert threading.active_count() == threads

        layers.run_items(work, range(n), there)
        # in the order of `here`, and a GEMM may split as it would outside
        assert seen == [(i, threading.current_thread().name, 2 if on else 1)
                        for i in range(n)]

    @pytest.mark.parametrize("failing, started, raised", [
        ({1}, [3, 1, 0], 1), ({3, 1}, [3, 1, 0], 1), ({0}, [3, 1, 0], 0), ({4}, [3, 1, 0, 2, 4], 4)])
    def test_no_index_above_a_failing_one_is_started_here(self, force_split, failing, started,
                                                           raised):
        force_split(False)
        seen = []

        def work(i):
            seen.append(i)
            if i in failing:
                raise RuntimeError(str(i))

        with pytest.raises(RuntimeError, match=f"^{raised}$"):
            layers.run_items(work, [3, 1, 0, 2, 4], [4, 2, 0, 1, 3])
        assert seen == started

    def test_no_index_above_a_failing_one_is_started_on_two_threads(self, force_split):
        # both threads in item order: each takes one of 0 and 1, and 0 fails
        # while 1 still runs; 1 finishes, and nothing after it starts
        force_split(True)
        both_started = threading.Barrier(2, timeout=10)
        seen = []

        def work(i):
            seen.append((i, threading.current_thread().name))
            if i in (0, 1):
                both_started.wait()
            if i == 0:
                raise RuntimeError("0")
            time.sleep(0.05)

        with pytest.raises(RuntimeError, match="^0$"):
            layers.run_items(work, range(6), range(6))
        assert sorted(i for i, _ in seen) == [0, 1]
        assert {name for _, name in seen} == {threading.current_thread().name, "convctc-items"}

    @pytest.mark.parametrize("lower", ["here", "there"])
    @pytest.mark.parametrize("lower_fails_first", [True, False])
    def test_the_lowest_failing_index_is_raised_on_either_side(self, force_split, lower,
                                                               lower_fails_first):
        # each side fails on its first index, 0 on the `lower` side and 3 on
        # the other, in the order given; with the lower one failing first,
        # 1 and 2 are never started
        force_split(True)
        both_started = threading.Barrier(2, timeout=10)
        first_failed = threading.Event()
        seen = []

        def work(i):
            seen.append(i)
            if i in (0, 3):
                both_started.wait()
                if (i == 0) != lower_fails_first:
                    assert first_failed.wait(10)
                    time.sleep(0.05)
                else:
                    first_failed.set()
                raise RuntimeError(str(i))

        ascending, descending = [0, 1, 2, 3], [3, 2, 1, 0]
        here, there = (ascending, descending) if lower == "here" else (descending, ascending)
        with pytest.raises(RuntimeError, match="^0$"):
            layers.run_items(work, here, there)
        if lower_fails_first:
            assert sorted(seen) == [0, 3]

    @pytest.mark.parametrize("failing, raised", [({"there"}, "there"), ({"here"}, "here"),
                                                 ({"here", "there"}, "here")])
    def test_an_error_on_either_side_reraises_after_both_end(self, force_split, failing,
                                                             raised):
        # index 0 runs here and index 1 there; the side that does not fail
        # finishes after the other has failed
        force_split(True)
        both_started = threading.Barrier(2, timeout=10)
        side = {0: "here", 1: "there"}
        finished = []

        def work(i):
            both_started.wait()
            if side[i] in failing:
                raise RuntimeError(side[i])
            time.sleep(0.05)
            finished.append(side[i])

        with pytest.raises(RuntimeError, match=f"^{raised}$"):
            layers.run_items(work, [0, 1], [1, 0])
        assert finished == sorted({"here", "there"} - failing)
        assert not getattr(layers._whole, "on", False)


class TestDropout:
    def test_rate_zero_identity_both_modes(self):
        x = np.random.default_rng(11).standard_normal((3, 4))
        rng = np.random.default_rng(0)
        for training in (False, True):
            out, _ = layers.dropout(x, 0.0, rng, training=training)
            np.testing.assert_array_equal(out, x)

    def test_inference_is_exact_identity(self):
        x = np.random.default_rng(12).standard_normal((5, 5))
        out, tape = layers.dropout(x, 0.3, None, training=False)
        assert out is x
        np.testing.assert_array_equal(layers.dropout_backward(tape, x), x)

    def test_inverted_scaling_preserves_expectation(self):
        # Monte-Carlo oracle: mean over 1e5 seeded draws of a unit input
        rng = np.random.default_rng(13)
        out, _ = layers.dropout(np.ones(100_000), 0.3, rng, training=True)
        assert abs(out.mean() - 1.0) <= 0.01

    def test_backward_reuses_mask(self):
        rng = np.random.default_rng(14)
        x = np.ones((4, 4))
        out, tape = layers.dropout(x, 0.5, rng, training=True)
        gx = layers.dropout_backward(tape, np.ones_like(x))
        np.testing.assert_array_equal(gx, out)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.3, 0.5, 0.9])
    def test_bool_mask_matches_float_scale_bits(self, dtype, rate):
        # the reference is the float scale map the tape used to keep
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 400)).astype(dtype)
        g = rng.standard_normal((3, 400)).astype(dtype)
        special = np.tile([np.nan, np.inf, -np.inf, -0.0, 0.0], 80)
        x[0] = g[1] = x[2] = g[2] = special
        keep = np.random.default_rng(17).random(x.shape) >= rate
        for v in range(5):      # each special value is both kept and dropped
            assert 0 < keep[:, v::5].sum() < keep[:, v::5].size
        scale = keep.astype(dtype) / dtype(1.0 - rate)
        with np.errstate(invalid="ignore"):       # inf * 0
            out, tape = layers.dropout(x, rate, np.random.default_rng(17), training=True)
            grad = layers.dropout_backward(tape, g)
            assert out.dtype == dtype and out.tobytes() == (x * scale).tobytes()
            assert grad.dtype == dtype and grad.tobytes() == (g * scale).tobytes()
        assert tape.keep.dtype == bool

    def test_invalid_rate_rejected(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                layers.dropout(np.ones(3), rate, None, training=True)

    def test_training_mode_requires_generator(self):
        with pytest.raises(ValueError, match="generator"):
            layers.dropout(np.ones(3), 0.3, None, training=True)

    def test_preserves_dtype(self):
        rng = np.random.default_rng(15)
        out, _ = layers.dropout(np.ones(8, dtype=np.float32), 0.3, rng, training=True)
        assert out.dtype == np.float32


def softmax_frames(logits):
    return np.exp(layers.log_softmax_frames(logits))


class TestSoftmaxFrames:
    def test_uniform_logits(self):
        out = softmax_frames(np.zeros((4, 3)))
        np.testing.assert_allclose(out, 0.25, atol=1e-15)

    def test_shift_invariance_per_column(self):
        rng = np.random.default_rng(16)
        logits = rng.standard_normal((5, 4))
        shifted = logits.copy()
        shifted[:, 2] += 7.5
        np.testing.assert_allclose(softmax_frames(shifted),
                                   softmax_frames(logits), atol=1e-12)

    def test_two_to_one_ratio(self):
        out = softmax_frames(np.log([[2.0], [1.0]]))
        np.testing.assert_allclose(out[:, 0], [2 / 3, 1 / 3], atol=1e-15)

    def test_log_softmax_columns_normalize(self):
        rng = np.random.default_rng(17)
        lp = layers.log_softmax_frames(rng.standard_normal((6, 9)) * 10)
        np.testing.assert_allclose(np.exp(lp).sum(axis=0), 1.0, atol=1e-12)

    def test_log_softmax_backward_finite_differences(self):
        rng = np.random.default_rng(18)
        logits = rng.standard_normal((4, 3))
        proj = rng.standard_normal((4, 3))
        lp = layers.log_softmax_frames(logits)
        analytic = layers.log_softmax_backward(lp, proj)
        numeric = central_diff(
            lambda u: float((layers.log_softmax_frames(u) * proj).sum()), logits)
        assert rel_error(analytic, numeric) <= 1e-6
