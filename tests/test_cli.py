import json
import os

import numpy as np
import pytest

import convctc.layers
from convctc import verify
from convctc.checkpoint import load_checkpoint
from convctc.cli import main
from convctc.data import TaskSpec, generate_synthetic
from convctc.features import load_stats
from convctc.network import ConvSpec, DenseSpec, DropoutSpec, NetworkConfig, PoolSpec


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    spec = TaskSpec(symbols=3, bands=12, min_frames=16, max_frames=32, noise_std=0.05,
                    counts={"train": 16, "dev": 6, "test": 6}, seed=21)
    paths = generate_synthetic(spec, str(root))
    config = NetworkConfig(channels=3, bands=12, alphabet_size=4, layers=[
        ConvSpec(6, 3, 5), PoolSpec(3, 3), DropoutSpec(0.1),
        ConvSpec(6, 3, 5), DropoutSpec(0.1), DenseSpec(16),
    ])
    config_path = str(root / "net.json")
    config.to_file(config_path)
    return {"root": str(root), "config": config_path, **paths}


def run_training(corpus, out_dir, epochs=2, extra=()):
    argv = ["train", "--config", corpus["config"], "--alphabet", corpus["alphabet"],
            "--train", corpus["train"], "--dev", corpus["dev"], "--out", out_dir,
            "--epochs", str(epochs), "--batch", "4", "--seed", "3", "--no-timing",
            *extra]
    return main(argv)


class TestTrainCommand:
    def test_writes_checkpoints_and_parseable_log(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run_training(corpus, out) == 0
        assert os.path.exists(os.path.join(out, "best.ckpt"))
        assert os.path.exists(os.path.join(out, "last.ckpt"))
        with open(os.path.join(out, "metrics.jsonl")) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines, 1):
            doc = json.loads(line)
            assert list(doc) == ["epoch", "stage", "train_loss", "dev_ler", "seconds"]
            assert doc["epoch"] == i
            assert doc["stage"] == "adam"
            assert doc["seconds"] == 0.0

    def test_log_appends_on_resume(self, corpus, tmp_path):
        out = str(tmp_path / "run")
        run_training(corpus, out, epochs=2)
        run_training(corpus, out, epochs=1,
                     extra=["--resume", os.path.join(out, "last.ckpt")])
        with open(os.path.join(out, "metrics.jsonl")) as fh:
            lines = fh.read().splitlines()
        assert [json.loads(l)["epoch"] for l in lines] == [1, 2, 3]

    def test_stage_switch_on_resume(self, corpus, tmp_path):
        out = str(tmp_path / "run")
        run_training(corpus, out, epochs=1)
        out2 = str(tmp_path / "finetune")
        run_training(corpus, out2, epochs=1,
                     extra=["--resume", os.path.join(out, "best.ckpt"), "--stage", "sgd"])
        with open(os.path.join(out2, "metrics.jsonl")) as fh:
            doc = json.loads(fh.readline())
        assert doc["stage"] == "sgd"
        ck = load_checkpoint(os.path.join(out2, "last.ckpt"))
        assert ck.optimizer.kind == "sgd"
        assert ck.optimizer.lr == 1e-5
        assert ck.optimizer.l2 == 1e-5

    def test_dropout_flag_overrides_config(self, corpus, tmp_path):
        out = str(tmp_path / "run")
        run_training(corpus, out, epochs=1, extra=["--dropout", "0.0"])
        ck = load_checkpoint(os.path.join(out, "last.ckpt"))
        rates = [s.rate for s in ck.config.layers if isinstance(s, DropoutSpec)]
        assert rates == [0.0, 0.0]

    def test_alphabet_config_size_mismatch_rejected(self, corpus, tmp_path):
        bad = NetworkConfig(channels=3, bands=12, alphabet_size=9, layers=[DenseSpec(4)])
        bad_path = str(tmp_path / "bad.json")
        bad.to_file(bad_path)
        with pytest.raises(ValueError, match="alphabet"):
            main(["train", "--config", bad_path, "--alphabet", corpus["alphabet"],
                  "--train", corpus["train"], "--dev", corpus["dev"],
                  "--out", str(tmp_path / "x"), "--epochs", "1"])


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("trained"))
    run_training(corpus, out, epochs=2)
    return os.path.join(out, "best.ckpt")


class TestEvalAndDecode:
    def test_eval_reports_rate_and_writes_json(self, corpus, trained, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        assert main(["eval", "--checkpoint", trained, "--test", corpus["test"],
                     "--report", report_path]) == 0
        printed = capsys.readouterr().out
        assert "label error rate" in printed
        with open(report_path) as fh:
            doc = json.load(fh)
        assert doc["total_reference_length"] > 0
        assert len(doc["utterances"]) == 6

    def test_eval_with_mapping(self, corpus, trained, tmp_path, capsys):
        fold = tmp_path / "fold.map"
        fold.write_text("s1 g\ns2 g\ns3 g\n")
        assert main(["eval", "--checkpoint", trained, "--test", corpus["test"],
                     "--map", str(fold)]) == 0

    def test_decode_is_deterministic(self, corpus, trained, capsys):
        feature_file = os.path.join(corpus["root"], "features", "test-0000.tnsr")
        main(["decode", "--checkpoint", trained, feature_file])
        first = capsys.readouterr().out
        main(["decode", "--checkpoint", trained, feature_file])
        assert capsys.readouterr().out == first

    def test_decode_rejects_wrong_geometry(self, corpus, trained, tmp_path):
        from convctc.tensor import save_tensor
        bad = str(tmp_path / "bad.tnsr")
        save_tensor(bad, np.ones((5, 4), dtype=np.float32))
        with pytest.raises(SystemExit, match="bands|expects"):
            main(["decode", "--checkpoint", trained, bad])


class TestVerifyCommand:
    def test_suites_pass(self, capsys):
        assert main(["verify", "ctc-oracle", "--instances", "60"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_corrupted_backward_fails_gradcheck(self, monkeypatch):
        # fault injection: negate the weight gradient
        original = convctc.layers.conv2d_backward

        def corrupted(tape, grad_out, weights):
            gx, gw, gb = original(tape, grad_out, weights)
            return gx, -gw, gb

        monkeypatch.setattr(convctc.layers, "conv2d_backward", corrupted)
        ok, worst, _ = verify.gradcheck_suite(seed=0)
        assert not ok
        assert worst > verify.GRAD_TOL

    def test_unknown_suite_lists_only_real_names(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unknown suite 'bogus' (choose from gradcheck, ctc-oracle, shapes)" in err
        assert "[]" not in err

    def test_cli_exit_code_on_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "GRAD_TOL", 0.0)
        monkeypatch.setitem(verify.SUITES, "gradcheck", verify.gradcheck_suite)
        assert main(["verify", "gradcheck"]) == 1


class TestGenerateAndStats:
    def test_gen_synthetic_with_task_file(self, tmp_path, capsys):
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"symbols": 2, "bands": 6, "min_frames": 12,
                                    "max_frames": 20, "noise_std": 0.0,
                                    "counts": {"train": 3, "dev": 1, "test": 1},
                                    "seed": 4}))
        out = tmp_path / "data"
        assert main(["gen-synthetic", "--task", str(task), "--out", str(out)]) == 0
        assert (out / "alphabet.txt").exists()
        assert (out / "train.tsv").exists()

    def test_fit_stats_writes_loadable_file(self, corpus, tmp_path, capsys):
        stats_path = str(tmp_path / "stats.tnsr")
        assert main(["fit-stats", "--alphabet", corpus["alphabet"],
                     "--train", corpus["train"], "--out", stats_path]) == 0
        stats = load_stats(stats_path)
        assert stats.means.shape == (3, 12)

    def test_train_accepts_precomputed_stats(self, corpus, tmp_path):
        stats_path = str(tmp_path / "stats.tnsr")
        main(["fit-stats", "--alphabet", corpus["alphabet"],
              "--train", corpus["train"], "--out", stats_path])
        out = str(tmp_path / "run")
        assert run_training(corpus, out, epochs=1, extra=["--stats", stats_path]) == 0
