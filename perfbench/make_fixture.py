"""Remake the `decode-long` fixture: a params-only reduced checkpoint.

    python3 perfbench/make_fixture.py

Trains `configs/synthetic-reduced.json` with seed 0 on the default seed-0
synthetic task (5 symbols, 500/50 train/dev utterances of 30-80 frames,
noise 0.1) until dev LER <= 0.05, at one BLAS thread, then writes the best
parameters with the normalisation statistics, but without optimizer
moments, to `perfbench/fixtures/reduced-seed0.ckpt`.  The epochs taken,
the dev LER and the wall time are printed and stored in the checkpoint meta.
"""

import os
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
FIXTURE = os.path.join(BENCH_DIR, "fixtures", "reduced-seed0.ckpt")
TARGET_LER = 0.05


def main():
    sys.path.insert(0, BENCH_DIR)
    from env import pin_environment
    pin_environment()
    from convctc import checkpoint, data, network, train
    from convctc.ctc import Alphabet

    root = os.path.dirname(BENCH_DIR)
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH_DIR, "out")) as work:
        paths = data.generate_synthetic(data.TaskSpec(symbols=5, seed=0), os.path.join(work, "task"))
        alphabet = Alphabet.from_file(paths["alphabet"])
        config = network.NetworkConfig.from_file(
            os.path.join(root, "configs", "synthetic-reduced.json"))
        t0 = time.perf_counter()
        result = train.train(config, alphabet,
                             data.load_manifest(paths["train"], alphabet),
                             data.load_manifest(paths["dev"], alphabet, split="dev"),
                             os.path.join(work, "run"), seed=0, epochs=100, patience=100,
                             target_ler=TARGET_LER, log_timing=False, quiet=True)
        seconds = time.perf_counter() - t0
        if result.best_dev_ler > TARGET_LER:
            sys.exit(f"seed 0 did not reach dev LER {TARGET_LER} in 100 epochs "
                     f"(best {result.best_dev_ler})")
        best = checkpoint.load_checkpoint(result.best_path)
        meta = {"epochs": result.epochs_run, "dev_ler": result.best_dev_ler,
                "train_seconds": round(seconds, 1), "seed": 0}
        os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
        checkpoint.save_checkpoint(FIXTURE, checkpoint.Checkpoint(
            best.config, best.alphabet, best.params, None, best.stats, meta))
    print(f"{FIXTURE}: {meta}")


if __name__ == "__main__":
    main()
