"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-5 are fast (oracle equivalence, gradient fidelity, geometry,
collapse conformance, decoding caveat).  Criteria 6-9 train real models on
the seeded synthetic task and dominate the runtime: expect ~15 minutes on
one desktop core.  Run `pytest tests/test_acceptance.py -v -s` to watch.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from convctc.ctc import best_path_decode, collapse, enumerate_oracle
from convctc.data import TaskSpec, generate_synthetic, load_manifest
from convctc.ctc import Alphabet
from convctc.network import (ConvSpec, DenseSpec, DropoutSpec, NetworkConfig,
                             PoolSpec)
from convctc.train import train
from convctc.verify import ctc_oracle_suite, gradcheck_suite, shapes_suite

A_, B_, C_ = 1, 2, 3
BLANK = 0


def report(number, name, ok, detail=""):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def reduced_config(alphabet_size, dropout=0.3):
    """4 maxout conv layers of 32 maps + 1 dense 128, pool 3x1 after layer 1."""
    def drop():
        return [DropoutSpec(dropout)] if dropout else []
    specs = [ConvSpec(32, 3, 5), PoolSpec(3, 3), *drop()]
    for _ in range(3):
        specs += [ConvSpec(32, 3, 5), *drop()]
    specs += [DenseSpec(128), *drop()]
    return NetworkConfig(channels=3, bands=41, alphabet_size=alphabet_size, layers=specs)


def synthetic_task(noise_std):
    return TaskSpec(symbols=5, bands=41, min_frames=30, max_frames=80,
                    noise_std=noise_std,
                    counts={"train": 500, "dev": 50, "test": 50}, seed=0)


def run_task(task, out_dir, data_dir, target_ler, epochs=100):
    paths = generate_synthetic(task, str(data_dir))
    alphabet = Alphabet.from_file(paths["alphabet"])
    tm = load_manifest(paths["train"], alphabet, "train")
    dm = load_manifest(paths["dev"], alphabet, "dev")
    t0 = time.monotonic()
    result = train(reduced_config(alphabet.size), alphabet, tm, dm, str(out_dir),
                   seed=0, epochs=epochs, batch_size=20, target_ler=target_ler,
                   patience=epochs, quiet=True)
    return result, time.monotonic() - t0, paths


@pytest.fixture(scope="module")
def noisy_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("noisy")
    result, elapsed, paths = run_task(synthetic_task(0.1), root / "run",
                                      root / "data", target_ler=0.05)
    return result, elapsed, paths


def test_1_ctc_oracle_equivalence():
    t0 = time.monotonic()
    ok, worst, details = ctc_oracle_suite(instances=1000, seed=0)
    elapsed = time.monotonic() - t0
    report(1, "CTC oracle equivalence", ok and elapsed <= 60,
           f"{details[0]}, {elapsed:.1f}s")


def test_2_gradient_fidelity():
    # (a) CTC gradient w.r.t. logits and (b) every parameter of the toy
    # 2-conv-maxout / 1-dense / softmax / CTC network, input 3x9x12
    t0 = time.monotonic()
    ok, worst, details = gradcheck_suite(seed=0)
    elapsed = time.monotonic() - t0
    report(2, "gradient fidelity", ok and elapsed <= 300,
           f"max rel err {worst:.3e} (tol 1e-4), {elapsed:.1f}s")


def test_3_shape_conformance():
    ok, _, details = shapes_suite(seed=0, frame_counts=(1, 7, 100, 313),
                                  random_frames=0)
    report(3, "default-config geometry", ok,
           "62 x f log-probs at f in {1,7,100,313}; 13 pooled bands")


def test_4_sigma_collapse_conformance():
    worked = [
        (A_, B_, C_, BLANK, BLANK),
        (A_, B_, BLANK, C_, C_),
        (A_, A_, B_, B_, C_),
        (BLANK, A_, BLANK, B_, C_),
        (BLANK, BLANK, A_, B_, C_),
    ]
    ok = all(collapse(path, 4) == (A_, B_, C_) for path in worked)
    report(4, "sigma collapse on the worked examples", ok,
           "all five collapse to (a,b,c)")


def test_5_best_path_caveat():
    lp = np.log(np.array([[0.6, 0.6], [0.4, 0.4]]))
    decoded = best_path_decode(lp)
    pr_empty = enumerate_oracle(lp, [])
    pr_a = enumerate_oracle(lp, [A_])
    ok = (decoded == () and abs(pr_empty - 0.36) <= 1e-12
          and abs(pr_a - 0.64) <= 1e-12 and pr_a > pr_empty)
    report(5, "greedy decoding caveat", ok,
           f"decodes to () with Pr {pr_empty:.2f} while Pr((a)) = {pr_a:.2f}")


def test_6_end_to_end_learnability(noisy_run, tmp_path_factory):
    result, elapsed, _ = noisy_run
    noisy_ok = result.best_dev_ler <= 0.05 and result.epochs_run <= 100 and elapsed <= 1200
    detail = (f"noise 0.1: dev LER {result.best_dev_ler:.4f} after "
              f"{result.epochs_run} epochs in {elapsed:.0f}s")

    root = tmp_path_factory.mktemp("noiseless")
    clean, clean_elapsed, _ = run_task(synthetic_task(0.0), root / "run",
                                       root / "data", target_ler=0.02)
    clean_ok = clean.best_dev_ler <= 0.02 and clean.epochs_run <= 100 and clean_elapsed <= 1200
    detail += (f"; noiseless: dev LER {clean.best_dev_ler:.4f} after "
               f"{clean.epochs_run} epochs in {clean_elapsed:.0f}s")
    report(6, "end-to-end learnability", noisy_ok and clean_ok, detail)


def test_7_two_stage_recipe_regression_guard(noisy_run, tmp_path_factory):
    result, _, paths = noisy_run
    alphabet = Alphabet.from_file(paths["alphabet"])
    tm = load_manifest(paths["train"], alphabet, "train")
    dm = load_manifest(paths["dev"], alphabet, "dev")
    out = tmp_path_factory.mktemp("finetune")
    ft = train(None, None, tm, dm, str(out), resume=result.best_path,
               stage="sgd", epochs=10, batch_size=20, patience=100, quiet=True)
    lines = [json.loads(l) for l in Path(ft.log_path).read_text().splitlines()]
    assert len(lines) == 10 and all(l["stage"] == "sgd" for l in lines)
    worst = max(l["dev_ler"] for l in lines)
    ok = worst <= result.best_dev_ler + 0.01
    report(7, "SGD fine-tune never regresses past 1%", ok,
           f"start {result.best_dev_ler:.4f}, worst over 10 epochs {worst:.4f}")


# -- small deterministic task shared by criteria 8 and 9 ---------------------

def tiny_run(root, epochs, resume=None):
    task = TaskSpec(symbols=3, bands=10, min_frames=14, max_frames=28,
                    noise_std=0.05, counts={"train": 30, "dev": 8, "test": 0},
                    seed=13)
    data_dir = root / "data"
    if not (data_dir / "alphabet.txt").exists():
        generate_synthetic(task, str(data_dir))
    alphabet = Alphabet.from_file(str(data_dir / "alphabet.txt"))
    tm = load_manifest(str(data_dir / "train.tsv"), alphabet, "train")
    dm = load_manifest(str(data_dir / "dev.tsv"), alphabet, "dev")
    config = NetworkConfig(channels=3, bands=10, alphabet_size=4, layers=[
        ConvSpec(6, 3, 5), PoolSpec(3, 3), DropoutSpec(0.2), DenseSpec(12),
        DropoutSpec(0.2),
    ])
    return train(config, alphabet, tm, dm, str(root / "run"), seed=5,
                 epochs=epochs, batch_size=8, patience=100, resume=resume,
                 log_timing=False, quiet=True)


def test_8_determinism(tmp_path_factory):
    a_root = tmp_path_factory.mktemp("det_a")
    b_root = tmp_path_factory.mktemp("det_b")
    ra = tiny_run(a_root, epochs=3)
    rb = tiny_run(b_root, epochs=3)
    log_same = Path(ra.log_path).read_bytes() == Path(rb.log_path).read_bytes()
    last_same = Path(ra.last_path).read_bytes() == Path(rb.last_path).read_bytes()
    best_same = Path(ra.best_path).read_bytes() == Path(rb.best_path).read_bytes()
    report(8, "same seed, byte-identical logs and checkpoints",
           log_same and last_same and best_same,
           f"log {log_same}, last.ckpt {last_same}, best.ckpt {best_same}")


def test_9_checkpoint_roundtrip_resume(tmp_path_factory):
    full_root = tmp_path_factory.mktemp("resume_full")
    part_root = tmp_path_factory.mktemp("resume_part")
    full = tiny_run(full_root, epochs=3)
    part = tiny_run(part_root, epochs=2)
    resumed = tiny_run(part_root, epochs=1, resume=part.last_path)

    full_lines = Path(full.log_path).read_text().splitlines()
    part_lines = Path(resumed.log_path).read_text().splitlines()
    line_ok = len(part_lines) == 3 and part_lines[2] == full_lines[2]
    ckpt_ok = Path(full.last_path).read_bytes() == Path(resumed.last_path).read_bytes()
    report(9, "resume reproduces the uninterrupted run", line_ok and ckpt_ok,
           f"epoch-3 metrics line identical: {line_ok}; last.ckpt identical: {ckpt_ok}")
