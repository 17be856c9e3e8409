import dataclasses
import os
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from convctc import layers, optim
from convctc.layers import log_softmax_frames
from convctc.network import (ConvSpec, DenseSpec, DropoutSpec, Network, NetworkConfig,
                             PoolSpec, figure3_config)
from convctc.tensor import ShapeError
from convctc.train import GradientSum
from convctc.verify import (GRAD_TOL, central_diff, network_loss_and_grads, rel_error,
                            toy_network)


REDUCED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs", "synthetic-reduced.json")


def small_net(alphabet_size=4):
    config = NetworkConfig(channels=2, bands=7, alphabet_size=alphabet_size, layers=[
        ConvSpec(3, 3, 3), PoolSpec(2, 2), DenseSpec(5),
    ])
    return Network(config)


def activation_net(activation):
    return Network(NetworkConfig(channels=2, bands=7, alphabet_size=4, layers=[
        ConvSpec(3, 3, 3, activation=activation), DenseSpec(5, activation=activation),
    ]))


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        config = figure3_config()
        path = tmp_path / "net.json"
        config.to_file(path)
        assert NetworkConfig.from_file(path) == config

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            NetworkConfig.from_json({"input": {"channels": 1, "bands": 4},
                                     "alphabet_size": 3,
                                     "layers": [{"kind": "recurrent"}]})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig.from_json({"alphabet_size": 3, "layers": []})

    @pytest.mark.parametrize("doc, problem", [
        ([], "no 'input' object"),
        ({"input": 3, "alphabet_size": 3, "layers": []}, "no 'input' object"),
        ({"input": {"channels": 1, "bands": 4}, "alphabet_size": 3}, "'layers' is NoneType"),
        ({"input": {"channels": 1, "bands": 4}, "alphabet_size": 3, "layers": 5},
         "'layers' is int, expected a list"),
        ({"input": {"bands": 4}, "alphabet_size": 3, "layers": []},
         "missing field 'channels'"),
        ({"input": {"channels": 1, "bands": "four"}, "alphabet_size": 3, "layers": []},
         "field 'bands'"),
        ({"input": {"channels": 1, "bands": 4}, "layers": []}, "missing field 'alphabet_size'"),
    ], ids=["list", "input-int", "no-layers", "layers-int", "no-channels", "bands-str",
            "no-alphabet-size"])
    def test_malformed_config_raises_value_error(self, doc, problem):
        with pytest.raises(ValueError, match="config") as err:
            NetworkConfig.from_json(doc)
        assert problem in str(err.value)

    @pytest.mark.parametrize("entry, problem", [
        ({"kind": "conv", "maps": None, "filter_freq": 3, "filter_time": 5},
         "layer 1 (conv) field 'maps'"),
        ({"kind": "conv", "maps": float("inf"), "filter_freq": 3, "filter_time": 5},
         "layer 1 (conv) field 'maps'"),
        ({"kind": "conv", "maps": 2, "filter_freq": 3, "filter_time": 5, "activation": 5},
         "layer 1 (conv) field 'activation' is int, expected str"),
        ({"kind": "dropout", "rate": [1]}, "layer 1 (dropout) field 'rate'"),
        ({"kind": "pool", "size": 2}, "layer 1 (pool) is missing field 'step'"),
        ({"kind": ["conv"], "maps": 2}, "layer 1: unknown layer kind ['conv']"),
        (5, "layer 1 is int, expected an object"),
        ("dense", "layer 1 is str, expected an object"),
    ], ids=["maps-null", "maps-inf", "activation-int", "rate-list", "no-step", "kind-list",
            "entry-int", "entry-str"])
    def test_malformed_layer_raises_value_error_naming_layer_and_field(self, entry, problem):
        doc = {"input": {"channels": 1, "bands": 4}, "alphabet_size": 3,
               "layers": [{"kind": "dropout", "rate": 0.1}, entry]}
        with pytest.raises(ValueError) as err:
            NetworkConfig.from_json(doc)
        assert problem in str(err.value)

    def test_fields_are_coerced_defaulted_and_extra_keys_ignored(self):
        doc = {"input": {"channels": "2", "bands": 7.0, "note": "x"}, "alphabet_size": 4,
               "comment": "extra", "layers": [
                   {"kind": "conv", "maps": "3", "filter_freq": 3.9, "filter_time": True,
                    "extra": [1]},
                   {"kind": "pool", "size": 2, "step": 2},
                   {"kind": "dropout", "rate": "0.25"},
                   {"kind": "dense", "width": 5, "activation": "relu"}]}
        config = NetworkConfig.from_json(doc)
        assert config == NetworkConfig(2, 7, 4, [ConvSpec(3, 3, 1), PoolSpec(2, 2),
                                                 DropoutSpec(0.25), DenseSpec(5, "relu")])
        assert type(config.channels) is int and type(config.layers[2].rate) is float
        assert config.to_json()["layers"][0] == {
            "kind": "conv", "maps": 3, "filter_freq": 3, "filter_time": 1,
            "activation": "maxout", "freq_padding": "same"}

    def test_figure3_structure(self):
        config = figure3_config()
        convs = [s for s in config.layers if isinstance(s, ConvSpec)]
        pools = [s for s in config.layers if isinstance(s, PoolSpec)]
        denses = [s for s in config.layers if isinstance(s, DenseSpec)]
        drops = [s for s in config.layers if isinstance(s, DropoutSpec)]
        assert [c.maps for c in convs] == [128] * 4 + [256] * 6
        assert all((c.filter_freq, c.filter_time) == (3, 5) for c in convs)
        assert all(c.activation == "maxout" for c in convs)
        assert [(p.size, p.step) for p in pools] == [(3, 3)]
        assert config.layers.index(pools[0]) == 1   # directly after conv layer 1
        assert [d.width for d in denses] == [1024] * 3
        assert all(d.rate == 0.3 for d in drops)
        assert len(drops) == 13                     # every hidden layer
        assert (config.channels, config.bands, config.alphabet_size) == (3, 41, 62)

    def test_shipped_config_files_parse(self):
        import os
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        fig3 = NetworkConfig.from_file(os.path.join(root, "figure3.json"))
        assert fig3 == figure3_config()
        reduced = NetworkConfig.from_file(os.path.join(root, "synthetic-reduced.json"))
        assert reduced.alphabet_size == 6
        assert len([s for s in reduced.layers if isinstance(s, ConvSpec)]) == 4
        Network(reduced)          # geometry must build


class TestBuild:
    def test_param_names_are_stable_and_ordered(self):
        net = small_net()
        names = [name for name, _, _ in net.param_specs()]
        assert names == ["conv1.w1", "conv1.b1", "conv1.w2", "conv1.b2",
                         "dense1.w1", "dense1.b1", "dense1.w2", "dense1.b2",
                         "output.w", "output.b"]
        assert [n for n, _, _ in activation_net("relu").param_specs()] == [
            "conv1.w", "conv1.b", "dense1.w", "dense1.b", "output.w", "output.b"]
        assert activation_net("prelu").param_specs() == [
            ("conv1.w", (3, 2, 3, 3), "weight"), ("conv1.b", (3,), "bias"),
            ("conv1.alpha", (3,), "alpha"),
            ("dense1.w", (5, 21), "weight"), ("dense1.b", (5,), "bias"),
            ("dense1.alpha", (5,), "alpha"),
            ("output.w", (4, 5), "weight"), ("output.b", (4,), "bias")]

    @pytest.mark.parametrize("layer, match", [
        (ConvSpec(2, 3, 3, activation="tanh"), "layer 0: activation 'tanh'"),
        (DenseSpec(4, activation="maxuot"), "layer 0: activation 'maxuot'"),
        (ConvSpec(2, 3, 3, freq_padding="Same"), "layer 0: freq_padding 'Same'"),
    ])
    def test_bad_layer_values_rejected_at_build(self, layer, match):
        with pytest.raises(ValueError, match=match):
            Network(NetworkConfig(1, 5, 3, [layer]))

    def test_maxout_conv_stores_two_filter_banks(self):
        net = Network(NetworkConfig(1, 5, 3, [ConvSpec(4, 3, 3)]))
        shapes = dict((n, s) for n, s, _ in net.param_specs())
        assert shapes["conv1.w1"] == shapes["conv1.w2"] == (4, 1, 3, 3)
        rng = np.random.default_rng(0)
        params = optim.init_uniform(net.param_specs(), rng)
        out, _ = net.forward(rng.standard_normal((1, 5, 6)).astype(np.float32), params)
        assert out.shape == (3, 6)        # k maps in, alphabet out, time kept

    def test_pool_after_dense_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            Network(NetworkConfig(1, 6, 3, [DenseSpec(4), PoolSpec(2, 2)]))

    def test_pool_bigger_than_bands_rejected(self):
        with pytest.raises(ValueError, match="pool size"):
            Network(NetworkConfig(1, 2, 3, [PoolSpec(3, 3)]))

    def test_flatten_is_map_major_band_minor(self):
        net = Network(NetworkConfig(1, 3, 3, [ConvSpec(2, 1, 1, activation="relu")]))
        params = {name: np.zeros(shape) for name, shape, _ in net.param_specs()}
        params["conv1.w"] = np.array([[[[1.0]]], [[[2.0]]]])
        x = np.array([[[1.0], [2.0], [3.0]]])
        # peel off the stack up to the flatten stage
        h = x
        for name, stage in net.stack:
            h, _ = stage.forward(h, net._stage_params(name, stage, params), False, None)
            if name == "flatten1":
                break
        np.testing.assert_array_equal(h[:, 0], [1, 2, 3, 2, 4, 6])


class TestForward:
    def test_default_config_emits_62_by_f(self):
        net = Network(figure3_config())
        rng = np.random.default_rng(1)
        params = optim.init_uniform(net.param_specs(), rng, dtype=np.float32)
        for f in (1, 7):
            out, _ = net.forward(rng.standard_normal((3, 41, f)).astype(np.float32), params)
            assert out.shape == (62, f)

    def test_default_stack_preserves_time_at_random_f(self):
        from convctc.verify import shapes_suite
        ok, _, details = shapes_suite(seed=123, frame_counts=(1,), random_frames=2)
        assert ok, details

    def test_bias_only_net_reproduces_softmax_of_bias(self):
        # zero weights everywhere: the output is log-softmax of the output
        # bias at every frame
        net = Network(NetworkConfig(1, 1, 4, []))
        params = {name: np.zeros(shape) for name, shape, _ in net.param_specs()}
        bias = np.array([0.5, -1.0, 2.0, 0.0])
        params["output.b"] = bias
        out, _ = net.forward(np.random.default_rng(2).standard_normal((1, 1, 5)), params)
        expected = log_softmax_frames(bias[:, None])
        for t in range(5):
            np.testing.assert_allclose(out[:, t], expected[:, 0], atol=1e-12)

    def test_geometry_mismatch_rejected(self):
        net = small_net()
        params = optim.init_uniform(net.param_specs(), np.random.default_rng(3))
        with pytest.raises(ShapeError, match="geometry"):
            net.forward(np.zeros((2, 8, 5)), params)

    def test_layer_errors_carry_layer_index(self):
        net = small_net()
        params = optim.init_uniform(net.param_specs(), np.random.default_rng(4))
        params["dense1.w1"] = np.zeros((5, 99))
        with pytest.raises(ShapeError, match=r"dense1"):
            net.forward(np.zeros((2, 7, 5)), params)

    def test_missing_parameter_named(self):
        net = small_net()
        params = optim.init_uniform(net.param_specs(), np.random.default_rng(5))
        del params["conv1.b2"]
        with pytest.raises(KeyError, match="conv1.b2"):
            net.forward(np.zeros((2, 7, 5)), params)

    def test_output_columns_are_log_distributions(self):
        net = small_net()
        rng = np.random.default_rng(6)
        params = optim.init_uniform(net.param_specs(), rng, dtype=np.float64)
        out, _ = net.forward(rng.standard_normal((2, 7, 9)), params)
        np.testing.assert_allclose(np.exp(out).sum(axis=0), 1.0, atol=1e-12)


def traced(fn):
    """(fn(), peak bytes above the start, bytes still held above the start) under tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - start, held - start


GEMM_STACKS = {
    "reduced": NetworkConfig.from_file(REDUCED),
    "figure3": figure3_config(),
    "relu-valid-gapped-pool": NetworkConfig(channels=3, bands=20, alphabet_size=5, layers=[
        ConvSpec(8, 3, 5, "relu", "valid"), PoolSpec(2, 3), ConvSpec(6, 3, 3, "relu", "valid"),
        DenseSpec(16, "relu")]),
    "prelu": NetworkConfig(channels=3, bands=11, alphabet_size=4, layers=[
        ConvSpec(5, 3, 5, "prelu"), PoolSpec(3, 2), DenseSpec(12, "prelu")]),
    "dense-only": NetworkConfig(channels=2, bands=6, alphabet_size=9, layers=[
        DenseSpec(20), DenseSpec(30, "linear")]),
}


class TestLargestGemm:
    @pytest.mark.parametrize("frames", [1, 7, 55])
    @pytest.mark.parametrize("stack", sorted(GEMM_STACKS))
    def test_the_batch_rule_and_the_split_count_a_gemm_alike(self, monkeypatch, stack, frames):
        # batch_gradients runs items on two threads by net.largest_gemm, and
        # each GEMM splits by the count it passes to layers._parts
        net = Network(GEMM_STACKS[stack])
        counted = []
        real = layers._parts

        def recording(muladds, *arrays):
            counted.append(muladds)
            return real(muladds, *arrays)

        monkeypatch.setattr(layers, "_parts", recording)
        rng = np.random.default_rng(frames)
        params = optim.init_uniform(net.param_specs(), rng)
        x = rng.standard_normal((net.config.channels, net.config.bands, frames))
        out, tapes = net.forward(x.astype(np.float32), params, train=True, rng=rng)
        net.backward(tapes, np.ones_like(out))
        assert len(counted) == 2 * sum(name.startswith(("conv", "dense", "output"))
                                       for name, _ in net.stack)
        assert max(counted) == net.largest_gemm(frames)


class TestInfer:
    @pytest.mark.parametrize("dtype, split", [(np.float32, False), (np.float32, True),
                                              (np.float64, False)])
    def test_infer_gives_the_bytes_of_forward(self, force_split, monkeypatch, dtype, split):
        net = Network(NetworkConfig.from_file(REDUCED))
        rng = np.random.default_rng(20)
        params = optim.init_uniform(net.param_specs(), rng, dtype=dtype)
        x = rng.standard_normal((3, 41, 37)).astype(dtype)
        monkeypatch.setattr(layers, "SPLIT_MIN_MULADDS", 0)
        dispatches = force_split(split)
        out = net.infer(x, params)
        assert bool(dispatches) is split
        assert out.dtype == dtype
        assert out.tobytes() == net.forward(x, params)[0].tobytes()

    def test_infer_peaks_lower_and_holds_only_its_output(self, monkeypatch):
        monkeypatch.setattr(layers, "_halves_run_together", lambda: False)
        net = Network(NetworkConfig.from_file(REDUCED))
        rng = np.random.default_rng(21)
        params = optim.init_uniform(net.param_specs(), rng)
        x = rng.standard_normal((3, 41, 200)).astype(np.float32)
        out, infer_peak, infer_held = traced(lambda: net.infer(x, params))
        (_, tapes), forward_peak, forward_held = traced(lambda: net.forward(x, params))
        assert infer_held <= out.nbytes + 16384            # a few small Python objects
        assert forward_held > 100 * out.nbytes             # the tapes
        assert infer_peak < 0.9 * forward_peak

    def test_infer_rejects_a_geometry_mismatch(self):
        net = small_net()
        params = optim.init_uniform(net.param_specs(), np.random.default_rng(22))
        with pytest.raises(ShapeError, match="geometry"):
            net.infer(np.zeros((2, 8, 5)), params)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        net = small_net()
        rng = np.random.default_rng(7)
        params = optim.init_uniform(net.param_specs(), rng, dtype=np.float64)
        out, tapes = net.forward(rng.standard_normal((2, 7, 6)), params)
        grads = net.backward(tapes, np.zeros_like(out))
        assert all(not g.any() for g in grads.values())

    def test_gradients_add_over_batch_items(self):
        net = small_net()
        rng = np.random.default_rng(8)
        params = optim.init_uniform(net.param_specs(), rng, dtype=np.float64)
        x = rng.standard_normal((2, 7, 6))
        target = [1, 2]
        _, single = network_loss_and_grads(net, params, x, target)
        total = None
        for _ in range(2):
            _, g = network_loss_and_grads(net, params, x, target)
            total = g if total is None else {k: total[k] + g[k] for k in g}
        for name in single:
            np.testing.assert_allclose(total[name], 2 * single[name], atol=1e-12)

    def test_grads_cover_every_parameter_in_order(self):
        net = toy_network()
        rng = np.random.default_rng(9)
        params = optim.init_uniform(net.param_specs(), rng, dtype=np.float64)
        _, grads = network_loss_and_grads(net, params, rng.standard_normal((3, 9, 12)), [1])
        assert list(grads.keys()) == [name for name, _, _ in net.param_specs()]
        assert all(grads[n].shape == s for n, s, _ in net.param_specs())

    def test_tape_count_mismatch_rejected(self):
        net = small_net()
        rng = np.random.default_rng(10)
        params = optim.init_uniform(net.param_specs(), rng)
        out, tapes = net.forward(rng.standard_normal((2, 7, 4)).astype(np.float32), params)
        with pytest.raises(ValueError, match="tapes"):
            net.backward(tapes[:-1], np.zeros_like(out))

    @pytest.mark.parametrize("activation", ["relu", "prelu"])
    def test_backward_matches_finite_differences(self, activation, monkeypatch):
        net = activation_net(activation)
        rng = np.random.default_rng(14)
        params = {name: rng.standard_normal(shape) * 0.5
                  for name, shape, _ in net.param_specs()}
        for name, shape, kind in net.param_specs():
            if kind == "alpha":
                params[name] = rng.uniform(0.05, 0.5, shape)
        x = rng.standard_normal((2, 7, 6))
        target = [1, 2]
        # finite differences are only valid off the kink at 0
        seen = []
        original = getattr(layers, activation)

        def recording(h, *args):
            seen.append(h)
            return original(h, *args)

        with monkeypatch.context() as m:
            m.setattr(layers, activation, recording)
            net.forward(x, params)
        assert len(seen) == 2 and min(np.abs(h).min() for h in seen) > 1e-4
        _, grads = network_loss_and_grads(net, params, x, target)
        for name in grads:
            def objective(v, name=name):
                return network_loss_and_grads(net, {**params, name: v}, x, target)[0]
            numeric = central_diff(objective, params[name])
            assert rel_error(grads[name], numeric) <= GRAD_TOL, name

    def test_backward_consumes_its_tapes(self):
        net = small_net()
        rng = np.random.default_rng(15)
        params = optim.init_uniform(net.param_specs(), rng)
        out, tapes = net.forward(rng.standard_normal((2, 7, 6)).astype(np.float32), params)
        padded = weakref.ref(tapes[0][0].padded)
        net.backward(tapes, np.ones_like(out))
        assert tapes == [None] * len(net.stack)
        assert padded() is None
        with pytest.raises(ValueError, match="already consumed"):
            net.backward(tapes, np.ones_like(out))

    def test_no_tape_holds_a_stacked_weight_copy(self):
        net = Network(NetworkConfig(channels=2, bands=7, alphabet_size=4, layers=[
            ConvSpec(3, 3, 3), DropoutSpec(0.3), DenseSpec(5), DropoutSpec(0.3)]))
        rng = np.random.default_rng(16)
        params = optim.init_uniform(net.param_specs(), rng)
        _, tapes = net.forward(rng.standard_normal((2, 7, 6)).astype(np.float32), params,
                               train=True, rng=rng)
        held = list(_arrays(tapes))
        for name in ("conv1", "dense1"):
            w1 = params[f"{name}.w1"]
            stacked = (2 * w1.shape[0],) + w1.shape[1:]
            assert not any(a.shape == stacked for a in held), name
            assert any(a is w1 for a in held) and any(a is params[f"{name}.w2"] for a in held)

    def test_adding_into_gives_the_bits_of_a_sum(self):
        net = toy_network()
        rng = np.random.default_rng(17)
        params = optim.init_uniform(net.param_specs(), rng)
        xs = [rng.standard_normal((3, 9, f)).astype(np.float32) for f in (12, 7)]
        upstream = [rng.standard_normal((4, f)).astype(np.float32) for f in (12, 7)]

        def backward(i, into=None):
            _, tapes = net.forward(xs[i], params, train=True, rng=np.random.default_rng(i))
            return net.backward(tapes, upstream[i], into=into)

        first, second = backward(0), backward(1)
        total = GradientSum(len(net.stack))
        assert backward(0, into=partial(total.add, 0)) is None
        arrays = dict(total.grads)
        assert backward(1, into=partial(total.add, 1)) is None
        assert sorted(total.grads) == sorted(name for name, _, _ in net.param_specs())
        for name, g in total.grads.items():
            assert g is arrays[name]
            assert g.tobytes() == (first[name] + second[name]).tobytes(), name

    def test_upstream_shape_mismatch_rejected(self):
        net = small_net()
        rng = np.random.default_rng(11)
        params = optim.init_uniform(net.param_specs(), rng)
        _, tapes = net.forward(rng.standard_normal((2, 7, 4)).astype(np.float32), params)
        before = list(tapes)
        with pytest.raises(ShapeError):
            net.backward(tapes, np.zeros((4, 9)))
        assert all(t is b for t, b in zip(tapes, before))   # the rejected call consumed nothing
        with pytest.raises(ShapeError):                     # and a retry sees the same cause
            net.backward(tapes, np.zeros((4, 9)))


def _arrays(obj):
    """Every array reachable from a tape through tuples, lists and dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


class TestDropoutInStack:
    def test_train_mode_consumes_rng_and_infer_does_not(self):
        config = NetworkConfig(1, 4, 3, [ConvSpec(2, 3, 3), DropoutSpec(0.5)])
        net = Network(config)
        rng = np.random.default_rng(12)
        params = optim.init_uniform(net.param_specs(), rng, dtype=np.float64)
        x = np.random.default_rng(13).standard_normal((1, 4, 6))
        r1 = np.random.default_rng(99)
        out_a, _ = net.forward(x, params, train=True, rng=r1)
        out_b, _ = net.forward(x, params, train=True, rng=np.random.default_rng(99))
        np.testing.assert_array_equal(out_a, out_b)
        eval_a, _ = net.forward(x, params)
        eval_b, _ = net.forward(x, params)
        np.testing.assert_array_equal(eval_a, eval_b)
        assert not np.array_equal(out_a, eval_a)
