import json
import re
from pathlib import Path

import numpy as np
import pytest

from convctc.ctc import Alphabet
from convctc.data import (TaskSpec, Utterance, generate_synthetic, load_manifest,
                          make_batches)
from convctc.network import (ConvSpec, DenseSpec, DropoutSpec, Network, NetworkConfig,
                             PoolSpec)
from convctc.optim import init_uniform
from convctc.tensor import save_tensor
from convctc.train import batch_gradients, train


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
        import convctc.train
        original = Network.backward

        def injecting(self, tapes, grad_log_probs, into=None):
            grads = original(self, tapes, grad_log_probs, into=into)
            grads["output.w"][0, 0] = np.inf
            grads["dense1.w2"][1, 1] = -np.inf
            return grads

        steps = []
        monkeypatch.setattr(Network, "backward", injecting)
        monkeypatch.setattr(convctc.train, "step", lambda *args: steps.append(args))
        out = tmp_path / "run"
        with pytest.raises(RuntimeError, match=r"epoch 1, batch 0, ids \[.+\]: "
                                               r"non-finite gradient for dense1\.w2$"):
            train(small_config(), small_task["alphabet"], small_task["train"],
                  small_task["dev"], str(out), epochs=1, batch_size=4, quiet=True)
        assert steps == []
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
        from convctc.checkpoint import load_checkpoint
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
        from convctc.checkpoint import load_checkpoint
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


def _unit_stats():
    from convctc.features import NormalizationStats
    return NormalizationStats(np.zeros((3, 8)), np.ones((3, 8)))
