import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convctc import checkpoint
from convctc.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from convctc.ctc import Alphabet
from convctc.features import NormalizationStats
from convctc.network import ConvSpec, DenseSpec, Network, NetworkConfig
from convctc.optim import adam_step, init_uniform, make_optimizer
from convctc.tensor import ShapeError


def build_checkpoint(dtype=np.float32, with_moments=True):
    config = NetworkConfig(2, 6, 3, [ConvSpec(3, 3, 3), DenseSpec(4)])
    net = Network(config)
    rng = np.random.default_rng(0)
    params = init_uniform(net.param_specs(), rng, dtype=dtype)
    opt = make_optimizer("adam", net.param_specs(), lr=1e-4, dtype=dtype)
    if with_moments:
        grads = {k: rng.standard_normal(v.shape).astype(dtype) for k, v in params.items()}
        adam_step(params, grads, opt)
    stats = NormalizationStats(rng.standard_normal((3, 6)), np.abs(rng.standard_normal((3, 6))) + 0.5)
    meta = {"epoch": 3, "stage": "adam", "best_dev_ler": 0.25, "bad_evals": 1,
            "rng_state": rng.bit_generator.state}
    return Checkpoint(config, Alphabet(["<blank>", "x", "y"]), params, opt, stats, meta)


class TestRoundTrip:
    def test_tensors_bit_exact(self, tmp_path):
        ckpt = build_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.config == ckpt.config
        assert back.alphabet.symbols == ckpt.alphabet.symbols
        for name, p in ckpt.params.items():
            assert back.params[name].dtype == p.dtype
            np.testing.assert_array_equal(back.params[name], p)
        assert back.optimizer.t == 1
        for name in ckpt.params:
            np.testing.assert_array_equal(back.optimizer.m[name], ckpt.optimizer.m[name])
            np.testing.assert_array_equal(back.optimizer.v[name], ckpt.optimizer.v[name])
        np.testing.assert_array_equal(back.stats.means, ckpt.stats.means)
        assert back.meta == ckpt.meta

    def test_save_load_save_is_byte_identical(self, tmp_path):
        ckpt = build_checkpoint()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, ckpt)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_f64_params_roundtrip(self, tmp_path):
        ckpt = build_checkpoint(dtype=np.float64)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert all(v.dtype == np.float64 for v in back.params.values())

    def test_rng_state_restores_generator(self, tmp_path):
        ckpt = build_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt)
        state = load_checkpoint(path).meta["rng_state"]
        r1 = np.random.default_rng(123)
        r1.bit_generator.state = state
        r2 = np.random.default_rng(456)
        r2.bit_generator.state = ckpt.meta["rng_state"]
        np.testing.assert_array_equal(r1.random(16), r2.random(16))


class TestValidation:
    def test_wrong_parameter_shape_rejected(self, tmp_path):
        ckpt = build_checkpoint()
        ckpt.params["dense1.b1"] = np.zeros(99, dtype=np.float32)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(ShapeError, match="dense1.b1"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        ckpt = build_checkpoint()
        del ckpt.params["output.w"]
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(ShapeError, match="output.w"):
            load_checkpoint(path)

    def test_malformed_stats_raise_value_error_naming_the_file(self, tmp_path):
        ckpt = build_checkpoint()
        ckpt.stats = NormalizationStats(np.zeros(6), np.ones(6))
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(ValueError, match=r"stats must be two \[3 x bands\] arrays") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(path)


def rewrite_header(path, edit):
    """Replace the JSON header of the checkpoint at `path` with edit(header)."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[8:16])
    blob = json.dumps(edit(json.loads(raw[16:16 + n]))).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])


def _drop_optimizer_lr(header):
    del header["optimizer"]["lr"]
    return header


def _conv_maps_list(header):
    header["config"]["layers"][0]["maps"] = []
    return header


class TestCorruptHeader:
    def test_flipped_key_raises_value_error_naming_the_file(self, tmp_path):
        path = tmp_path / "flipped.ckpt"
        save_checkpoint(path, build_checkpoint())
        raw = path.read_bytes()
        assert raw.count(b'"params"') == 1
        path.write_bytes(raw.replace(b'"params"', b'"barams"'))
        with pytest.raises(ValueError, match="missing field 'params'") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    def test_unknown_optimizer_kind_raises_value_error_naming_the_file(self, tmp_path):
        # a resume from this file would otherwise drop the Adam moments
        path = tmp_path / "kind.ckpt"
        save_checkpoint(path, build_checkpoint())
        raw = path.read_bytes()
        assert raw.count(b'"kind":"adam"') == 1
        path.write_bytes(raw.replace(b'"kind":"adam"', b'"kind":"adbm"'))
        with pytest.raises(ValueError, match="unknown optimizer kind 'adbm'") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("edit, problem", [
        (lambda h: [h], "the header is list, expected an object"),
        (lambda h: "checkpoint", "the header is str, expected an object"),
        (lambda h: {**h, "params": 7}, "'params' is int, expected list"),
        (lambda h: {**h, "alphabet": 3}, "'alphabet' is int, expected list"),
        (lambda h: {**h, "meta": []}, "'meta' is list, expected dict"),
        (lambda h: {**h, "optimizer": "adam"}, "'optimizer' is str, expected dict"),
        (_drop_optimizer_lr, "'optimizer' is missing field 'lr'"),
        (lambda h: {**h, "optimizer": {**h["optimizer"], "kinds": []}},
         "'optimizer' field 'kinds' is list, expected dict"),
        (_conv_maps_list, "config layer 0 (conv) field 'maps'"),
        (lambda h: {**h, "config": {**h["config"], "layers": 5}}, "'layers' is int"),
        (lambda h: {**h, "alphabet": [[s] for s in h["alphabet"]]},
         "'alphabet' must list unique strings"),
        (lambda h: {**h, "alphabet": list(range(len(h["alphabet"])))},
         "'alphabet' must list unique strings"),
        (lambda h: {**h, "params": [[n] for n in h["params"]]},
         "'params' must list unique strings"),
        (lambda h: {**h, "params": h["params"] + h["params"][:1]},
         "'params' must list unique strings"),
    ], ids=["list", "string", "params-int", "alphabet-int", "meta-list", "optimizer-string",
            "optimizer-no-lr", "optimizer-kinds-list", "config-maps-list", "config-layers-int",
            "alphabet-lists", "alphabet-ints", "params-lists", "params-repeated"])
    def test_malformed_header_raises_value_error(self, tmp_path, edit, problem):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, build_checkpoint())
        rewrite_header(path, edit)
        with pytest.raises(ValueError, match="corrupt checkpoint header") as err:
            load_checkpoint(path)
        assert problem in str(err.value)
        assert str(path) in str(err.value)

    def test_rewritten_unchanged_header_still_loads(self, tmp_path):
        path = tmp_path / "same.ckpt"
        save_checkpoint(path, build_checkpoint())
        rewrite_header(path, lambda h: h)
        assert load_checkpoint(path).optimizer.lr == 1e-4


class TestCrashSafety:
    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, build_checkpoint())
        before = path.read_bytes()
        real_write = checkpoint.write_tensor
        calls = []

        def failing_write(fh, arr):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return real_write(fh, arr)

        monkeypatch.setattr(checkpoint, "write_tensor", failing_write)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, build_checkpoint(dtype=np.float64))
        assert path.read_bytes() == before
        assert load_checkpoint(path).params["conv1.w1"].dtype == np.float32
        assert os.listdir(tmp_path) == ["last.ckpt"]


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(path / "full.ckpt", build_checkpoint())
    return path


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_prefix_of_a_checkpoint_raises_value_error(ckpt_dir, data):
    full = (ckpt_dir / "full.ckpt").read_bytes()
    cut = data.draw(st.integers(0, len(full) - 1), label="cut")
    path = ckpt_dir / "cut.ckpt"
    path.write_bytes(full[:cut])
    with pytest.raises(ValueError):
        load_checkpoint(path)
