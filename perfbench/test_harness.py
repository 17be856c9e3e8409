"""Fast tests of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_harness.py
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from convctc import ctc, data, evaluate, layers, network, optim, train  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", ["train-reduced", "train-figure3", "decode-long"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    assert json.loads(env_line)["env"]["blas_threads"] == 1
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def _tiny_net():
    config = network.NetworkConfig.from_file(os.path.join(ROOT, "configs", "synthetic-reduced.json"))
    net = network.Network(config)
    rng = np.random.default_rng(0)
    params = optim.init_uniform(net.param_specs(), rng, dtype=np.float64)
    return net, params, rng.standard_normal((3, 41, 12)), [1, 2, 2]


def test_tracer_replaces_every_lookup_name_and_restores_them():
    originals = (ctc.ctc_loss, train.ctc_loss, evaluate.best_path_decode,
                 layers.conv2d_forward, network.Network.forward)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert train.ctc_loss.__wrapped__ is originals[0]
        assert evaluate.best_path_decode is ctc.best_path_decode
        assert layers.conv2d_forward.__wrapped__ is originals[3]
        net, params, x, target = _tiny_net()
        batch = data.make_batches([data.Utterance("u", x, target)], 1)[0]
        train.batch_gradients(net, params, batch, rng=np.random.default_rng(0), dtype=np.float64)
    finally:
        tracer.uninstall()
    assert (ctc.ctc_loss, train.ctc_loss, evaluate.best_path_decode,
            layers.conv2d_forward, network.Network.forward) == originals
    assert tracer.calls["layers.conv2d_forward"] == 4
    assert tracer.calls["ctc.ctc_loss"] == 1
    assert tracer.blind_spots({"ctc.ctc_grad", "evaluate.evaluate"}) == ["evaluate.evaluate"]
    metrics = tracer.report(rounds=1)
    assert metrics["ctc.lattice_cells"][0] == 7 * 12
    assert metrics["data.make_batches.useful_frac"][0] == 1.0
    assert metrics["layers.conv2d.gflop"][0] > 0


def test_gradient_check_catches_a_wrong_backward(monkeypatch):
    net, params, x, target = _tiny_net()
    assert checks.check_gradient(net, params, x, target, seed=0) == []
    right = layers.maxout2_backward
    monkeypatch.setattr(layers, "maxout2_backward", lambda tape, g: right(tape, g)[::-1])
    assert checks.check_gradient(net, params, x, target, seed=0)


def test_decode_and_normalisation_checks_are_independent():
    assert checks.edit_distance("kitten", "sitting") == 3
    log_probs = np.log(np.array([[0.7, 0.1, 0.1, 0.6, 0.1],
                                 [0.2, 0.8, 0.8, 0.2, 0.1],
                                 [0.1, 0.1, 0.1, 0.2, 0.8]]))
    assert checks.greedy_decode(log_probs) == [1, 2]
    report = evaluate.EvalReport(decodes={"u": ["a", "b"]}, counts=evaluate.EditCounts(1),
                                 total_ref_len=3)
    assert checks.check_decodes({"u": log_probs}, {"u": [1, 1, 2]}, ["-", "a", "b"], report) == []
    report.decodes["u"] = ["a"]
    assert checks.check_decodes({"u": log_probs}, {"u": [1, 1, 2]}, ["-", "a", "b"], report)
    assert checks.check_normalized({"u": log_probs}) == []
    assert checks.check_normalized({"u": log_probs + 1e-3})
