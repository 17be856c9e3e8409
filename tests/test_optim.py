import re

import numpy as np
import pytest

from convctc.optim import (adam_step, global_norm_clip, init_uniform,
                           make_optimizer, sgd_step, step)
from convctc.tensor import ShapeError

SPECS = [("layer.w", (400,), "weight"), ("layer.b", (7,), "bias"),
         ("layer.alpha", (7,), "alpha")]


class TestInitUniform:
    def test_draws_stay_inside_interval(self):
        rng = np.random.default_rng(0)
        params = init_uniform([("w", (1_000_000,), "weight")], rng, dtype=np.float64)
        w = params["w"]
        assert w.min() >= -0.05 and w.max() <= 0.05
        # mean of U[-0.05, 0.05]: sigma/sqrt(n) = 0.1/sqrt(12e6)
        assert abs(w.mean()) <= 3 * 0.1 / np.sqrt(12e6)

    def test_same_seed_bit_identical(self):
        a = init_uniform(SPECS, np.random.default_rng(42))
        b = init_uniform(SPECS, np.random.default_rng(42))
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_bias_zero_alpha_tenth(self):
        params = init_uniform(SPECS, np.random.default_rng(1))
        assert not params["layer.b"].any()
        np.testing.assert_array_equal(params["layer.alpha"], np.full(7, 0.1, np.float32))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.5, -2.0])}
        state = make_optimizer("adam", [("w", (2,), "weight")], lr=1e-4, dtype=np.float64)
        adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(params["w"], [1.5, -2.0])
        assert state.t == 1

    def test_first_step_with_unit_gradient(self):
        # m_hat = v_hat = 1, so the step is -lr / (1 + eps)
        lr = 1e-4
        params = {"w": np.array([0.0])}
        state = make_optimizer("adam", [("w", (1,), "weight")], lr=lr, dtype=np.float64)
        adam_step(params, {"w": np.array([1.0])}, state)
        assert params["w"][0] == pytest.approx(-lr / (1 + 1e-8), rel=1e-12)

    def test_trajectories_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            params = init_uniform([("w", (20,), "weight")], rng, dtype=np.float64)
            state = make_optimizer("adam", [("w", (20,), "weight")], lr=1e-3, dtype=np.float64)
            for _ in range(25):
                adam_step(params, {"w": params["w"] - 3.0}, state)
            return params["w"]
        np.testing.assert_array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        state = make_optimizer("adam", [("w", (3,), "weight")], lr=1e-4)
        with pytest.raises(ShapeError):
            adam_step(params, {"w": np.zeros(4)}, state)


class TestSgd:
    def test_zero_gradient_zero_l2(self):
        params = {"w": np.array([2.0])}
        state = make_optimizer("sgd", [("w", (1,), "weight")], lr=1e-5, l2=0.0)
        sgd_step(params, {"w": np.zeros(1)}, state)
        assert params["w"][0] == 2.0

    def test_pure_l2_shrinkage(self):
        # p=1, g=0, lr=1e-5, l2=1e-5  ->  p = 1 - 1e-10
        params = {"w": np.array([1.0])}
        state = make_optimizer("sgd", [("w", (1,), "weight")], lr=1e-5, l2=1e-5)
        sgd_step(params, {"w": np.zeros(1)}, state)
        assert params["w"][0] == 1.0 - 1e-5 * 1e-5 * 1.0

    def test_matches_hand_gradient_descent_when_l2_zero(self):
        rng = np.random.default_rng(3)
        p0 = rng.standard_normal(10)
        g = rng.standard_normal(10)
        params = {"w": p0.copy()}
        state = make_optimizer("sgd", [("w", (10,), "weight")], lr=0.01, l2=0.0)
        sgd_step(params, {"w": g}, state)
        np.testing.assert_allclose(params["w"], p0 - 0.01 * g, atol=1e-15)

    def test_l2_never_touches_bias_or_alpha(self):
        for kind in ("adam", "sgd"):
            params = {"layer.w": np.ones(400), "layer.b": np.ones(7),
                      "layer.alpha": np.full(7, 0.1)}
            state = make_optimizer(kind, SPECS, lr=1e-3, l2=0.5)
            zeros = {name: np.zeros_like(p) for name, p in params.items()}
            step(params, zeros, state)
            assert not np.array_equal(params["layer.w"], np.ones(400))
            np.testing.assert_array_equal(params["layer.b"], np.ones(7))
            np.testing.assert_array_equal(params["layer.alpha"], np.full(7, 0.1))


class TestMakeOptimizer:
    def test_state_carries_the_papers_adam_constants(self):
        state = make_optimizer("adam", SPECS, lr=1e-4)
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    @pytest.mark.parametrize("rate", ["lr", "l2"])
    def test_a_rate_the_dtype_cannot_hold_is_refused(self, kind, rate):
        rates = {"lr": 1e-4, "l2": 0.0}
        for value, dtype in ((1e39, np.float32), (float("nan"), np.float64),
                             (-float("inf"), np.float64)):
            with pytest.raises(ValueError, match=re.escape(
                    f"{rate} {value!r} is not finite in {np.dtype(dtype).name}")):
                make_optimizer(kind, SPECS, **{**rates, rate: value}, dtype=dtype)
        state = make_optimizer(kind, SPECS, **{**rates, rate: 1e39}, dtype=np.float64)
        assert getattr(state, rate) == 1e39


class TestConvexQuadratic:
    # sanity property: monotone loss decrease after a short burn-in
    @pytest.mark.parametrize("kind,lr", [("adam", 1e-4), ("sgd", 1e-5)])
    def test_monotone_decrease(self, kind, lr):
        rng = np.random.default_rng(4)
        target = rng.standard_normal(30)
        params = {"w": np.zeros(30)}
        state = make_optimizer(kind, [("w", (30,), "weight")], lr=lr, dtype=np.float64)
        losses = []
        for _ in range(60):
            diff = params["w"] - target
            losses.append(0.5 * float(diff @ diff))
            step(params, {"w": diff}, state)
        for i in range(10, 59):
            assert losses[i + 1] <= losses[i] + 1e-15
        assert losses[-1] < losses[10]


class TestClip:
    def test_large_gradients_scaled_to_max_norm(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        clipped = global_norm_clip(grads, 1.0)
        total = sum(float(np.sum(g ** 2)) for g in clipped.values())
        assert np.sqrt(total) == pytest.approx(1.0, rel=1e-12)

    def test_small_gradients_untouched(self):
        grads = {"a": np.array([0.1, 0.2])}
        assert global_norm_clip(grads, 10.0)["a"] is grads["a"]
