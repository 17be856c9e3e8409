import ast
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

import convctc.train
from convctc import layers
from convctc.checkpoint import load_checkpoint
from convctc.ctc import Alphabet
from convctc.data import (Batch, TaskSpec, Utterance, generate_synthetic, load_manifest,
                          make_batches)
from convctc.network import ConvSpec, DenseSpec, DropoutSpec, Network, NetworkConfig, PoolSpec
from convctc.optim import init_uniform
from convctc.tensor import save_tensor
from convctc.train import GradientSum, batch_gradients, train
from test_checkpoint import rewrite_header


def tiny_net(bands=6, alphabet_size=3):
    config = NetworkConfig(3, bands, alphabet_size, [ConvSpec(4, 3, 3), DenseSpec(6)])
    return Network(config)


class TestBatchGradients:
    def test_sum_loss_gradients_add_over_items(self):
        # one batch of two equals the sum of two singletons, bit for bit
        rng = np.random.default_rng(0)
        net = tiny_net()
        params = init_uniform(net.param_specs(), rng, dtype=np.float64)
        u1 = Utterance("a", rng.standard_normal((3, 6, 8)), [1])
        u2 = Utterance("b", rng.standard_normal((3, 6, 11)), [2, 1])
        both = make_batches([u1, u2], 2)[0]
        g_both, loss_both, n_both, _ = batch_gradients(net, params, both,
                                                       train=False, dtype=np.float64)
        singles = make_batches([u1, u2], 1)
        g_sum = None
        loss_sum = 0.0
        for b in singles:
            g, l, n, _ = batch_gradients(net, params, b, train=False, dtype=np.float64)
            loss_sum += l
            g_sum = g if g_sum is None else {k: g_sum[k] + g[k] for k in g}
        assert n_both == 2
        assert loss_both == loss_sum
        for name in g_both:
            np.testing.assert_array_equal(g_both[name], g_sum[name])

    def test_infeasible_items_are_skipped_not_fatal(self):
        rng = np.random.default_rng(1)
        net = tiny_net()
        params = init_uniform(net.param_specs(), rng, dtype=np.float64)
        good = Utterance("good", rng.standard_normal((3, 6, 9)), [1])
        bad = Utterance("bad", rng.standard_normal((3, 6, 2)), [1, 1, 2])  # needs 4 frames
        batch = make_batches([good, bad], 2)[0]
        grads, _, counted, skipped = batch_gradients(net, params, batch,
                                                     train=False, dtype=np.float64)
        assert (counted, skipped) == (1, 1)
        assert grads is not None

    def test_non_finite_loss_names_the_utterance(self):
        rng = np.random.default_rng(2)
        net = tiny_net()
        params = init_uniform(net.param_specs(), rng, dtype=np.float64)
        poisoned = Utterance("utt-nan", np.full((3, 6, 8), np.nan), [1])
        batch = make_batches([poisoned], 1)[0]
        with pytest.raises(RuntimeError, match="utt-nan"):
            batch_gradients(net, params, batch, train=False, dtype=np.float64)


def dropout_net(dtype=np.float32):
    config = NetworkConfig(3, 6, 3, [ConvSpec(4, 3, 3), DropoutSpec(0.3), DenseSpec(6),
                                     DropoutSpec(0.3)])
    net = Network(config)
    return net, init_uniform(net.param_specs(), np.random.default_rng(3), dtype=dtype)


def mixed_batch(dtype=np.float32, nan=None):
    """Six items of 2-14 frames; item 2 is too short for its target.  `nan`
    maps an item index to the uid of a NaN-filled item put in its place."""
    nan = nan or {}
    rng = np.random.default_rng(4)
    items = []
    for i, (frames, target) in enumerate([(9, [1]), (14, [2, 1]), (2, [1, 1, 2]), (11, [2]),
                                          (7, [1, 2]), (12, [1, 1])]):
        x = rng.standard_normal((3, 6, frames)).astype(dtype)
        if i in nan:
            items.append(Utterance(nan[i], np.full_like(x, np.nan), target))
        else:
            items.append(Utterance(f"u{i}", x, target))
    return make_batches(items, len(items))[0]


@pytest.fixture
def item_threads(monkeypatch):
    """item_threads(on) lets batch_gradients run its items on two threads
    (on=True) or not, whatever the cores and BLAS threads.  It returns the
    names of the threads that ran ctc_loss, one per item that got that far."""
    names = []
    real = convctc.train.ctc_loss

    def recording(*args):
        names.append(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(convctc.train, "ctc_loss", recording)

    def force(on):
        monkeypatch.setattr(layers, "_halves_run_together", lambda: on)
        names.clear()
        return names

    return force


def within(seconds, fn):
    """fn() on a thread: {"result": ...} or {"error": ...}; fails if fn has
    not returned after `seconds`, so that a batch whose items wait for each
    other forever fails the test instead of hanging the suite."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as e:       # handed to the test
            outcome["error"] = e

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return outcome


class TestGradientSum:
    ITEMS, STAGES = 24, 4
    RELEASED = {0, 5, 6, 17}      # items that add nothing: skipped or failed

    def _values(self):
        # magnitudes from 1e-4 to 1e4, so that float32 sums depend on the order
        rng = np.random.default_rng(18)
        return [[(rng.standard_normal(256) * 10.0 ** rng.integers(-4, 5)).astype(np.float32)
                 for _ in range(self.STAGES)] for _ in range(self.ITEMS)]

    def _hand_over(self, total, j, values, stages=None):
        for stage in reversed(range(self.STAGES)) if stages is None else stages:
            total.add(j, stage, {f"stage{stage}": values[j][stage].copy()})

    def _add(self, total, j, values):
        if j not in self.RELEASED:
            self._hand_over(total, j, values)
        total.release(j)

    def _serial(self, values, items):
        """The sum over `items` in item order, added stage by stage."""
        sums = {}
        for j in items:
            for stage in range(self.STAGES):
                name = f"stage{stage}"
                if name in sums:
                    sums[name] += values[j][stage]
                else:
                    sums[name] = values[j][stage].copy()
        return sums

    def _assert_bytes(self, total, expected):
        assert sorted(total.grads) == sorted(expected)
        for name, g in expected.items():
            assert total.grads[name].tobytes() == g.tobytes(), name

    def test_many_threads_add_in_item_order(self):
        values = self._values()
        serial = GradientSum(self.STAGES)
        for j in range(self.ITEMS):
            self._add(serial, j, values)
        self._assert_bytes(serial, self._serial(
            values, [j for j in range(self.ITEMS) if j not in self.RELEASED]))
        threads_n = 6
        total = GradientSum(self.STAGES)
        threads = [threading.Thread(target=lambda t: [self._add(total, j, values) for j in
                                                      range(t, self.ITEMS, threads_n)],
                                    args=(t,), daemon=True) for t in range(threads_n)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        self._assert_bytes(total, serial.grads)

    def test_a_later_item_hands_over_before_an_earlier_one_adds(self):
        # on one thread: waiting for item 0 here would never end
        values = self._values()

        def scenario():
            total = GradientSum(self.STAGES)
            self._hand_over(total, 1, values)
            total.release(1)
            assert total.grads == {}
            self._hand_over(total, 0, values)
            total.release(0)
            self._assert_bytes(total, self._serial(values, [0, 1]))

        def reversed_items():
            total = GradientSum(self.STAGES)
            for j in reversed(range(6)):
                self._hand_over(total, j, values)
                total.release(j)
            self._assert_bytes(total, self._serial(values, range(6)))

        assert within(30, scenario) == {"result": None}
        assert within(30, reversed_items) == {"result": None}

    def test_held_stages_of_a_released_item_are_still_added(self):
        values = self._values()

        def scenario():
            total = GradientSum(self.STAGES)
            self._hand_over(total, 0, values, stages=[0])     # then item 0 fails
            self._hand_over(total, 1, values)
            total.release(1)                                    # done, every stage held
            self._hand_over(total, 2, values, stages=[3, 2])
            total.release(0)        # passes stages 1-3 on through item 1's held gradients
            self._hand_over(total, 2, values, stages=[1, 0])
            total.release(2)
            expected = self._serial(values, [1, 2])
            expected["stage0"] = self._serial(values, [0, 1, 2])["stage0"]
            self._assert_bytes(total, expected)

        assert within(30, scenario) == {"result": None}

    def test_no_thread_waits_on_a_condition(self):
        names = {node.attr if isinstance(node, ast.Attribute) else node.id
                 for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(GradientSum))))
                 if isinstance(node, (ast.Attribute, ast.Name))}
        assert "_lock" in names
        assert not names & {"Condition", "wait", "wait_for", "Event", "Semaphore"}


class TestItemThreads:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_threads_give_the_serial_bits(self, item_threads, dtype):
        net, params = dropout_net(dtype)
        batch = mixed_batch(dtype)
        results = {}
        for on in (False, True):
            names = item_threads(on)
            grads, loss, counted, skipped = within(30, lambda: batch_gradients(
                net, params, batch, rng=np.random.default_rng(5), dtype=dtype))["result"]
            results[on] = ({k: g.tobytes() for k, g in grads.items()}, loss, counted, skipped)
            assert ("convctc-items" in names) is on
            assert len(names) == 6
        assert results[True] == results[False]
        assert results[True][2:] == (5, 1)
        assert list(results[True][0]) == [name for name, _, _ in net.param_specs()]

    def test_items_draw_their_generators_in_item_order(self, item_threads):
        # the batch generator advances by one draw per item, whatever ran where
        net, params = dropout_net()
        for on in (False, True):
            item_threads(on)
            rng = np.random.default_rng(6)
            within(30, lambda: batch_gradients(net, params, mixed_batch(), rng=rng))
            expected = np.random.default_rng(6)
            expected.integers(2**63, size=6)
            assert rng.bit_generator.state == expected.bit_generator.state

    def test_a_gemm_that_would_split_keeps_the_items_on_one_thread(self, item_threads,
                                                                     monkeypatch):
        net, params = dropout_net()
        batch = mixed_batch()
        largest = net.largest_gemm(14)
        for threshold, threaded in ((largest, False), (largest + 1, True)):
            monkeypatch.setattr(layers, "SPLIT_MIN_MULADDS", threshold)
            names = item_threads(True)
            within(30, lambda: batch_gradients(net, params, batch, rng=np.random.default_rng(5)))
            assert ("convctc-items" in names) is threaded

    @pytest.mark.parametrize("on", [False, True])
    def test_nan_item_on_the_worker_raises_its_uid(self, item_threads, on):
        net, params = dropout_net()
        item_threads(on)
        outcome = within(30, lambda: batch_gradients(net, params, mixed_batch(nan={3: "utt-nan"}),
                                                     rng=np.random.default_rng(5)))
        assert isinstance(outcome.get("error"), RuntimeError)
        assert "utt-nan" in str(outcome["error"])

    def test_the_first_failing_item_is_raised(self, item_threads):
        net, params = dropout_net()
        item_threads(True)
        batch = mixed_batch(nan={1: "first-nan", 4: "second-nan"})
        outcome = within(30, lambda: batch_gradients(net, params, batch,
                                                     rng=np.random.default_rng(5)))
        assert "first-nan" in str(outcome["error"])

    @pytest.mark.parametrize("on", [False, True])
    def test_an_empty_batch_adds_nothing(self, item_threads, on):
        net, params = dropout_net()
        item_threads(on)
        assert batch_gradients(net, params, Batch([]), rng=np.random.default_rng(5)) == (
            None, 0.0, 0, 0)

    def test_infeasible_item_on_the_worker_is_skipped(self, item_threads):
        net, params = dropout_net()
        batch = mixed_batch()
        batch.utterances[1], batch.utterances[2] = batch.utterances[2], batch.utterances[1]
        item_threads(True)
        outcome = within(30, lambda: batch_gradients(net, params, batch,
                                                     rng=np.random.default_rng(5)))
        assert outcome["result"][2:] == (5, 1)

    def test_a_backward_that_raises_on_the_worker_releases_its_turns(self, item_threads,
                                                                     monkeypatch):
        # the worker's first item fails inside its backward, after the
        # output stage has added: the items after it must not wait for it
        net, params = dropout_net()
        real = layers.conv2d_backward

        def failing(*args):
            if threading.current_thread().name == "convctc-items":
                raise RuntimeError("conv backward failed")
            return real(*args)

        monkeypatch.setattr(layers, "conv2d_backward", failing)
        item_threads(True)
        outcome = within(30, lambda: batch_gradients(net, params, mixed_batch(),
                                                     rng=np.random.default_rng(5)))
        assert str(outcome.get("error")) == "conv backward failed"


_CORES_CHILD = """
import os, sys
os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(",")})
from convctc import layers
from convctc.ctc import Alphabet
from convctc.data import load_manifest
from convctc.network import NetworkConfig
from convctc.train import train
task, config, out = sys.argv[2:5]
alphabet = Alphabet.from_file(os.path.join(task, "alphabet.txt"))
train(NetworkConfig.from_file(config), alphabet,
      load_manifest(os.path.join(task, "train.tsv"), alphabet, "train"),
      load_manifest(os.path.join(task, "dev.tsv"), alphabet, "dev"),
      out, seed=2, epochs=2, batch_size=4, log_timing=False, quiet=True)
print(layers._halves_run_together())
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two usable cores")
def test_one_core_and_two_give_the_same_run_bytes(small_task, tmp_path):
    config = NetworkConfig(3, 8, 3, [ConvSpec(4, 3, 5), PoolSpec(2, 2), DropoutSpec(0.3),
                                     DenseSpec(8), DropoutSpec(0.3)])
    config.to_file(tmp_path / "net.json")
    two = sorted(os.sched_getaffinity(0))[:2]
    src = os.path.dirname(os.path.dirname(os.path.abspath(layers.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    runs = {}
    for cores in (two[:1], two):
        out = tmp_path / f"cores{len(cores)}"
        child = subprocess.run(
            [sys.executable, "-c", _CORES_CHILD, ",".join(map(str, cores)),
             str(small_task["dir"]), str(tmp_path / "net.json"), str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        runs[len(cores)] = (child.stdout.strip(), (out / "metrics.jsonl").read_bytes(),
                            (out / "last.ckpt").read_bytes())
    assert (runs[1][0], runs[2][0]) == ("False", "True")
    assert runs[1][1:] == runs[2][1:]


@pytest.fixture(scope="module")
def small_task(tmp_path_factory):
    root = tmp_path_factory.mktemp("task")
    task = TaskSpec(symbols=2, bands=8, min_frames=12, max_frames=24, noise_std=0.05,
                    counts={"train": 10, "dev": 4, "test": 0}, seed=3)
    paths = generate_synthetic(task, str(root))
    alphabet = Alphabet.from_file(paths["alphabet"])
    return {"alphabet": alphabet,
            "train": load_manifest(paths["train"], alphabet, "train"),
            "dev": load_manifest(paths["dev"], alphabet, "dev"),
            "dir": root}


def small_config(bands=8, alphabet_size=3):
    return NetworkConfig(3, bands, alphabet_size,
                         [ConvSpec(4, 3, 5), PoolSpec(2, 2), DenseSpec(8)])


class TestTrainLoop:
    def test_non_finite_abort_carries_epoch_batch_ids(self, small_task, tmp_path):
        # poison one feature file so the first forward pass emits NaN
        corrupted = tmp_path / "corrupt"
        corrupted.mkdir()
        feat = corrupted / "bad.tnsr"
        save_tensor(feat, np.full((8, 15), np.nan, dtype=np.float32))
        manifest_path = tmp_path / "bad.tsv"
        manifest_path.write_text(f"bad-000\t{feat}\ts1\n")
        alphabet = small_task["alphabet"]
        bad_manifest = load_manifest(manifest_path, alphabet, "train")
        with pytest.raises(RuntimeError, match=r"epoch 1, batch 0.*bad-000"):
            train(small_config(), alphabet, bad_manifest, small_task["dev"],
                  str(tmp_path / "run"), epochs=1, batch_size=2,
                  stats=_unit_stats(), quiet=True)

    def test_non_finite_gradient_stops_before_the_step(self, small_task, tmp_path, monkeypatch):
        original = GradientSum.add

        def injecting(self, j, stage, grads):
            # every item hands over a non-finite value in two parameters
            poison = {"output.w": (0, 0, np.inf), "dense1.w2": (1, 1, -np.inf)}
            for name, (row, col, value) in poison.items():
                if name in grads:
                    grads[name][row, col] = value
            original(self, j, stage, grads)

        steps = []
        monkeypatch.setattr(GradientSum, "add", injecting)
        monkeypatch.setattr(convctc.train, "step", lambda *args: steps.append(args))
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match=r"epoch 1, batch 0, ids \[.+\]: "
                                               r"non-finite gradient for dense1\.w2$"):
            train(small_config(), small_task["alphabet"], small_task["train"],
                  small_task["dev"], str(out), epochs=1, batch_size=4, quiet=True)
        assert steps == []
        assert sorted(p.name for p in out.iterdir()) == ["metrics.jsonl"]
        assert (out / "metrics.jsonl").read_bytes() == b""

    def test_non_finite_parameter_stops_before_any_log_or_checkpoint(self, small_task,
                                                                       tmp_path, monkeypatch):
        real = convctc.train.step

        def overflowing(params, grads, opt):
            real(params, grads, opt)
            params["conv1.w1"][0, 0, 0, 0] = np.inf

        monkeypatch.setattr(convctc.train, "step", overflowing)
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match=r"epoch 1, batch 0, ids \[.+\]: non-finite "
                                               r"parameter conv1\.w1 after the step$"):
            train(small_config(), small_task["alphabet"], small_task["train"],
                  small_task["dev"], str(out), epochs=1, batch_size=4, stage="sgd",
                  quiet=True)
        assert sorted(p.name for p in out.iterdir()) == ["metrics.jsonl"]
        assert (out / "metrics.jsonl").read_bytes() == b""

    def test_fresh_run_refuses_a_used_directory(self, small_task, tmp_path):
        def run(out):
            return train(small_config(), small_task["alphabet"], small_task["train"],
                         small_task["dev"], str(out), epochs=1, batch_size=4, quiet=True)

        out = tmp_path / "run"
        run(out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["best.ckpt", "last.ckpt", "metrics.jsonl"]
        message = f"{out} already holds a run (metrics.jsonl)"
        with pytest.raises(ValueError, match=re.escape(message)):
            run(out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        for name in ("metrics.jsonl", "last.ckpt", "best.ckpt"):
            used = tmp_path / f"used-{name}"
            used.mkdir()
            (used / name).write_bytes(b"")
            with pytest.raises(ValueError, match=re.escape(f"({name})")):
                run(used)
            assert [p.name for p in used.iterdir()] == [name]

    def test_infeasible_utterance_warned_and_skipped(self, small_task, tmp_path, capsys):
        # 2 frames cannot host the target (s1, s1), which needs s1,-,s1
        feat = tmp_path / "short.tnsr"
        save_tensor(feat, np.zeros((8, 2), dtype=np.float32))
        manifest_path = tmp_path / "mix.tsv"
        lines = [f"short-000\t{feat}\ts1 s1"]
        for e in small_task["train"].entries[:4]:
            lines.append(f"{e.uid}\t{e.resolved}\t{' '.join(e.labels)}")
        manifest_path.write_text("\n".join(lines) + "\n")
        alphabet = small_task["alphabet"]
        manifest = load_manifest(manifest_path, alphabet, "train")
        train(small_config(), alphabet, manifest, small_task["dev"],
              str(tmp_path / "run"), epochs=1, batch_size=2, quiet=False)
        err = capsys.readouterr().err
        assert "skipped 1 infeasible" in err

    def test_auto_finetune_switches_stage_on_plateau(self, small_task, tmp_path):
        out = tmp_path / "run"
        train(small_config(), small_task["alphabet"], small_task["train"],
              small_task["dev"], str(out), epochs=6, batch_size=4, patience=1,
              auto_finetune=True, log_timing=False, quiet=True)
        stages = [json.loads(l)["stage"] for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert stages[0] == "adam"
        assert "sgd" in stages
        # once switched, it stays switched until the run ends
        first_sgd = stages.index("sgd")
        assert all(s == "sgd" for s in stages[first_sgd:])

    def test_target_ler_stops_early(self, small_task, tmp_path):
        out = tmp_path / "run"
        result = train(small_config(), small_task["alphabet"], small_task["train"],
                       small_task["dev"], str(out), epochs=50, batch_size=4,
                       target_ler=2.0, quiet=True)     # any LER satisfies 2.0
        assert result.epochs_run == 1

    def test_mean_batch_loss_runs(self, small_task, tmp_path):
        result = train(small_config(), small_task["alphabet"], small_task["train"],
                       small_task["dev"], str(tmp_path / "run"), epochs=1,
                       batch_size=4, batch_loss="mean", quiet=True)
        assert result.epochs_run == 1

    def test_grad_clip_runs(self, small_task, tmp_path):
        result = train(small_config(), small_task["alphabet"], small_task["train"],
                       small_task["dev"], str(tmp_path / "run"), epochs=1,
                       batch_size=4, clip=1.0, quiet=True)
        assert result.epochs_run == 1

    def test_resume_without_improvement_still_writes_best(self, small_task, tmp_path):
        import os
        first = train(small_config(), small_task["alphabet"], small_task["train"],
                      small_task["dev"], str(tmp_path / "a"), epochs=1,
                      batch_size=4, quiet=True)
        # fine-tune into a fresh directory; one SGD epoch will not beat the
        # inherited best metric, but best.ckpt must exist anyway
        resumed = train(None, None, small_task["train"], small_task["dev"],
                        str(tmp_path / "b"), resume=first.best_path, stage="sgd",
                        epochs=1, batch_size=4, quiet=True)
        assert os.path.exists(resumed.best_path)
        ck = load_checkpoint(resumed.best_path)
        assert ck.meta["best_dev_ler"] == pytest.approx(resumed.best_dev_ler)

    def test_dropout_override_applies_on_resume(self, small_task, tmp_path):
        config = NetworkConfig(3, 8, 3, [ConvSpec(4, 3, 5), DropoutSpec(0.3), DenseSpec(8),
                                         DropoutSpec(0.3)])
        first = train(config, small_task["alphabet"], small_task["train"], small_task["dev"],
                      str(tmp_path / "a"), epochs=1, batch_size=4, quiet=True)
        resumed = train(None, None, small_task["train"], small_task["dev"],
                        str(tmp_path / "b"), resume=first.last_path, dropout=0.0,
                        epochs=1, batch_size=4, quiet=True)
        for path, rate in ((resumed.last_path, 0.0), (resumed.best_path, 0.0),
                           (first.last_path, 0.3)):
            layers = load_checkpoint(path).config.layers
            rates = [spec.rate for spec in layers if isinstance(spec, DropoutSpec)]
            assert rates == [rate, rate], path

    def test_unknown_stage_argument_raises(self, small_task, tmp_path):
        with pytest.raises(ValueError, match="unknown training stage 'Adam'"):
            train(small_config(), small_task["alphabet"], small_task["train"],
                  small_task["dev"], str(tmp_path / "run"), stage="Adam", epochs=1,
                  batch_size=4, quiet=True)

    def test_unknown_stage_in_checkpoint_meta_raises(self, small_task, tmp_path):
        first = train(small_config(), small_task["alphabet"], small_task["train"],
                      small_task["dev"], str(tmp_path / "a"), epochs=1,
                      batch_size=4, quiet=True)
        path = tmp_path / "a" / "last.ckpt"
        raw = path.read_bytes()
        assert raw.count(b'"stage":"adam"') == 1
        path.write_bytes(raw.replace(b'"stage":"adam"', b'"stage":"adbm"'))
        with pytest.raises(ValueError, match="unknown training stage 'adbm'"):
            train(None, None, small_task["train"], small_task["dev"], str(tmp_path / "b"),
                  resume=first.last_path, epochs=1, batch_size=4, quiet=True)

    def test_resume_trims_a_torn_last_log_line(self, small_task, tmp_path):
        def run(out, epochs, resume=None):
            return train(small_config(), small_task["alphabet"], small_task["train"],
                         small_task["dev"], str(out), seed=4, epochs=epochs, batch_size=4,
                         patience=10, resume=resume, log_timing=False, quiet=True)

        full = run(tmp_path / "full", 2)
        part = run(tmp_path / "part", 1)
        with open(part.log_path, "a", encoding="utf-8") as log:
            log.write('{"epoch": 2, "sta')          # a crash mid-append
        resumed = run(tmp_path / "part", 1, resume=part.last_path)
        lines = [json.loads(l) for l in Path(resumed.log_path).read_text().splitlines()]
        assert [l["epoch"] for l in lines] == [1, 2]
        assert Path(resumed.log_path).read_bytes() == Path(full.log_path).read_bytes()


@pytest.fixture(scope="module")
def one_epoch_run(small_task, tmp_path_factory):
    out = tmp_path_factory.mktemp("one-epoch")
    return train(small_config(), small_task["alphabet"], small_task["train"], small_task["dev"],
                 str(out / "run"), epochs=1, batch_size=4, quiet=True)


def _edit_meta(**entries):
    return lambda h: {**h, "meta": {**h["meta"], **entries}}


def _edit_optimizer(drop=(), **entries):
    def edit(h):
        opt = {k: v for k, v in h["optimizer"].items() if k not in drop}
        return {**h, "optimizer": {**opt, **entries}}
    return edit


class TestResumeFaults:
    """A malformed header or meta fails the resume with ValueError naming the
    checkpoint and the field, never TypeError or a crash in the first step."""

    @staticmethod
    def _edited_copy(run, tmp_path, edit):
        path = tmp_path / "edited.ckpt"
        shutil.copyfile(run.last_path, path)
        rewrite_header(path, edit)
        return path

    @staticmethod
    def _resume(small_task, tmp_path, path):
        return train(None, None, small_task["train"], small_task["dev"], str(tmp_path / "b"),
                     resume=path, epochs=1, batch_size=4, quiet=True)

    @pytest.mark.parametrize("edit, field", [
        (_edit_meta(epoch=[]), "'epoch'"),
        (_edit_meta(best_dev_ler="x"), "'best_dev_ler'"),
        (_edit_meta(bad_evals=None), "'bad_evals'"),
        (_edit_meta(stage=3), "'stage'"),
        (_edit_meta(rng_state=5), "'rng_state'"),
        (_edit_meta(rng_state={"bit_generator": "PCG64", "state": 5}), "'rng_state'"),
        (_edit_meta(rng_state={"bit_generator": "MT19937"}), "'rng_state'"),
    ], ids=["epoch-list", "best-dev-ler-string", "bad-evals-null", "stage-int",
            "rng-state-int", "rng-state-bad-state", "rng-state-other-generator"])
    def test_malformed_meta_fails_resume(self, small_task, tmp_path, one_epoch_run, edit, field):
        path = self._edited_copy(one_epoch_run, tmp_path, edit)
        load_checkpoint(path)       # the meta is a free dict until a resume reads it
        with pytest.raises(ValueError, match=field) as err:
            self._resume(small_task, tmp_path, path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("edit, field", [
        (_edit_optimizer(lr="abc"), "'lr'"),
        (_edit_optimizer(drop=("t",)), "'t'"),
        (_edit_optimizer(drop=("beta1",)), "'beta1'"),
    ], ids=["lr-string", "no-t", "no-beta1"])
    def test_malformed_optimizer_fails_load(self, small_task, tmp_path, one_epoch_run, edit,
                                            field):
        path = self._edited_copy(one_epoch_run, tmp_path, edit)
        for call in (load_checkpoint, lambda p: self._resume(small_task, tmp_path, p)):
            with pytest.raises(ValueError, match=f"corrupt checkpoint header.*{field}") as err:
                call(path)
            assert str(path) in str(err.value)

    @pytest.mark.parametrize("rate", ["lr", "l2"])
    def test_rate_the_dtype_cannot_hold_fails_load(self, tmp_path, one_epoch_run, rate):
        path = self._edited_copy(one_epoch_run, tmp_path, _edit_optimizer(**{rate: 1e39}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: checkpoint optimizer: "
                                                       f"{rate} 1e+39 is not finite in float32")):
            load_checkpoint(path)

    @pytest.mark.parametrize("rate", ["lr", "l2"])
    def test_resumed_stage_rate_the_dtype_cannot_hold_is_refused(self, small_task, tmp_path,
                                                                 one_epoch_run, rate):
        out = tmp_path / "b"
        with pytest.raises(ValueError, match=re.escape(f"{rate} 1e+39 is not finite in float32")):
            train(None, None, small_task["train"], small_task["dev"], str(out),
                  resume=one_epoch_run.last_path, epochs=1, batch_size=4, quiet=True,
                  **{rate: 1e39})
        assert not out.exists() or list(out.iterdir()) == []


def _unit_stats():
    from convctc.features import NormalizationStats
    return NormalizationStats(np.zeros((3, 8)), np.ones((3, 8)))
