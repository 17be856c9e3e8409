"""The benchmark's three workloads.

Every workload has the same life cycle, driven by run.py:

* `prepare()` makes inputs that are not part of set-up (untimed);
* `setup()` is the timed set-up, repeated `SETUP_REPS` times;
* `warmup()` runs a little of the round's work, untimed;
* `round()` is one whole round of the timed work; every round of a run
  repeats the same operations, so per-round counts repeat exactly;
* `check()` recomputes the outputs of the last round independently.

Inputs come only from the seed.  A set-up or training round that writes
files writes into a fresh directory, and run.py deletes superseded
directories between the timed parts.  On some filesystems rewriting a file that was
just written blocks for tens of milliseconds, and deleting files after the
kernel has written them back is far slower than deleting them before, so
both would make the timings measure the disk instead of convctc.
"""

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from convctc import checkpoint, ctc, data, evaluate, features, network, optim, train
from convctc.ctc import Alphabet

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REDUCED_CONFIG = os.path.join(ROOT, "configs", "synthetic-reduced.json")
FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "reduced-seed0.ckpt")
DECODE_LONG_MAX_LER = 0.10

FORWARD = {"network.Network.forward", "layers.conv2d_forward", "layers.maxout2",
           "layers.maxpool_freq", "layers.dense_forward", "layers.dropout",
           "layers.log_softmax_frames"}
TRAINING = FORWARD | {
    "network.Network.backward", "layers.conv2d_backward", "layers.maxout2_backward",
    "layers.maxpool_freq_backward", "layers.dense_backward", "layers.dropout_backward",
    "layers.log_softmax_backward", "ctc.ctc_loss", "ctc.ctc_grad", "optim.step",
    "train.batch_gradients", "data.make_batches", "data.load_dataset",
    "data.generate_synthetic", "features.fit_normalization", "features.assemble_input"}
DECODING = {"ctc.best_path_decode", "evaluate.evaluate", "evaluate.levenshtein"}


@dataclass
class Round:
    frames: int                    # input frames of the throughput part
    seconds: float                 # wall time of the throughput part
    operations: int
    decode_ms: list = field(default_factory=list)


def stratified(lengths, n, rng):
    """One index from each of n equal-count strata of `lengths`, shortest
    stratum first.  The length distribution of the picks hardly varies with
    the seed, and the ascending order keeps the process's peak RSS from
    depending on the order in which short and long utterances arrive."""
    by_length = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    return [int(rng.choice(stratum)) for stratum in np.array_split(by_length, n)]


def timed_decodes(net, params, dataset):
    """Per-utterance latency of the `convctc decode` path without the file
    load: Network.forward + best_path_decode.  Returns (ms list, hyps)."""
    latencies, hyps = [], {}
    for utt in dataset:
        t0 = time.perf_counter()
        log_probs, _ = net.forward(utt.features, params)
        hyps[utt.uid] = ctc.best_path_decode(log_probs)
        latencies.append((time.perf_counter() - t0) * 1e3)
    return latencies, hyps


def output_checks(net, params, dataset, alphabet):
    """Decode, LER and normalisation checks on `dataset` (untimed)."""
    log_probs = {u.uid: net.forward(u.features, params)[0] for u in dataset}
    report = evaluate.evaluate(net, params, dataset, alphabet)
    refs = {u.uid: u.target for u in dataset}
    return (checks.check_decodes(log_probs, refs, alphabet.symbols, report)
            + checks.check_normalized(log_probs)), report


class Workload:
    MIN_DECODES = 0

    def __init__(self, work, seed, size):
        self.work = work
        self.seed = seed
        self.size = self.SIZES[size]
        self._newest = {}             # prefix -> newest directory
        self._stale = []

    def fresh_dir(self, prefix):
        """A new empty directory; the previous one with this prefix becomes stale."""
        if prefix in self._newest:
            self._stale.append(self._newest[prefix])
        self._newest[prefix] = tempfile.mkdtemp(prefix=prefix, dir=self.work)
        return self._newest[prefix]

    def remove_stale(self):
        while self._stale:
            shutil.rmtree(self._stale.pop())

    def prepare(self):
        pass


class TrainReduced(Workload):
    """convctc.train.train for a fixed number of epochs from a fresh
    initialisation, then timed decodes of training utterances with the
    result, picked by length strata."""

    NAME = "train-reduced"
    SETUP_REPS = 9
    SIZES = {"full": {"train": 500, "dev": 50, "epochs": 2, "decode": 100},
             "tiny": {"train": 12, "dev": 4, "epochs": 2, "decode": 4}}
    EXPECTED = (TRAINING - {"data.generate_synthetic"}) | DECODING | {
        "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"}

    def prepare(self):
        """Write the task once, untimed: the time to write its 550 files
        followed the disk's writeback state (0.04-0.15 s) more than convctc."""
        spec = data.TaskSpec(symbols=5, seed=self.seed,
                             counts={"train": self.size["train"], "dev": self.size["dev"]})
        self.paths = data.generate_synthetic(spec, os.path.join(self.work, "task"))

    def setup(self):
        self.alphabet = Alphabet.from_file(self.paths["alphabet"])
        self.train_manifest = data.load_manifest(self.paths["train"], self.alphabet)
        self.dev_manifest = data.load_manifest(self.paths["dev"], self.alphabet, split="dev")
        self.config = network.NetworkConfig.from_file(REDUCED_CONFIG)
        self.stats = features.fit_normalization(data.iter_static(self.train_manifest))
        self.decode_set = None

    def warmup(self):
        dev = data.load_dataset(self.dev_manifest, self.stats)
        net = network.Network(self.config)
        params = optim.init_uniform(net.param_specs(), np.random.default_rng(self.seed))
        batch = data.make_batches(dev, len(dev))[0]
        train.batch_gradients(net, params, batch, rng=np.random.default_rng(self.seed))
        timed_decodes(net, params, dev)

    def round(self):
        self.out = self.fresh_dir("run")
        epochs = self.size["epochs"]
        t0 = time.perf_counter()
        result = train.train(self.config, self.alphabet, self.train_manifest, self.dev_manifest,
                             self.out, seed=self.seed, epochs=epochs, patience=epochs + 1,
                             stats=self.stats, log_timing=False, quiet=True)
        seconds = time.perf_counter() - t0
        if self.decode_set is None:
            lengths = [s.shape[1] for s in data.iter_static(self.train_manifest)]
            picks = stratified(lengths, self.size["decode"], np.random.default_rng(self.seed))
            subset = data.Manifest([self.train_manifest.entries[i] for i in picks])
            self.decode_set = data.load_dataset(subset, self.stats)
            self.epoch_frames = sum(lengths) + sum(s.shape[1] for s in
                                                   data.iter_static(self.dev_manifest))
        ck = checkpoint.load_checkpoint(result.last_path)
        self.net, self.params = network.Network(ck.config), ck.params
        decode_ms, _ = timed_decodes(self.net, self.params, self.decode_set)
        utterances = len(self.train_manifest) + len(self.dev_manifest)
        return Round(epochs * self.epoch_frames, seconds,
                     epochs * utterances + len(self.decode_set), decode_ms)

    def check(self):
        with open(os.path.join(self.out, "metrics.jsonl"), encoding="utf-8") as fh:
            log = [json.loads(line) for line in fh]
        failures = []
        if not log[-1]["train_loss"] < log[0]["train_loss"]:
            failures.append(f"train loss did not fall: {log[0]['train_loss']} -> "
                            f"{log[-1]['train_loss']}")
        dev = data.load_dataset(self.dev_manifest, self.stats)
        found, report = output_checks(self.net, self.params, dev, self.alphabet)
        if report.label_error_rate != log[-1]["dev_ler"]:
            failures.append(f"logged dev LER {log[-1]['dev_ler']} != {report.label_error_rate}")
        utt = dev[0]
        return failures + found + checks.check_gradient(
            self.net, self.params, utt.features, utt.target, self.seed)


class TrainFigure3(Workload):
    """batch_gradients + optim.step over a fixed set of batches on the
    paper's figure3_config() stack, then a timed decode of two utterances.
    Every utterance has the same TIMIT-like length, so that neither the
    decode latency nor the working set depends on the seed."""

    NAME = "train-figure3"
    SETUP_REPS = 9
    SIZES = {"full": {"utterances": 4, "batch": 2, "decode": 2, "frames": 250},
             "tiny": {"utterances": 2, "batch": 1, "decode": 1, "frames": 20}}
    EXPECTED = TRAINING | {"ctc.best_path_decode"}
    FD_FRAMES = 30

    def setup(self):
        s = self.size
        spec = data.TaskSpec(symbols=61, min_frames=s["frames"], max_frames=s["frames"],
                             counts={"train": s["utterances"]}, seed=self.seed)
        paths = data.generate_synthetic(spec, self.fresh_dir("task"))
        self.alphabet = Alphabet.from_file(paths["alphabet"])
        manifest = data.load_manifest(paths["train"], self.alphabet)
        stats = features.fit_normalization(data.iter_static(manifest))
        self.dataset = data.load_dataset(manifest, stats)
        self.net = network.Network(network.figure3_config())
        rng = np.random.default_rng(self.seed)
        self.params = optim.init_uniform(self.net.param_specs(), rng)
        self.opt = optim.make_optimizer("adam", self.net.param_specs(), lr=train.ADAM_LR)
        self.batches = data.make_batches(self.dataset, s["batch"])
        self.rng = rng

    def warmup(self):
        train.batch_gradients(self.net, self.params, self.batches[0], rng=self.rng)

    def round(self):
        t0 = time.perf_counter()
        for batch in self.batches:
            grads, *_ = train.batch_gradients(self.net, self.params, batch, rng=self.rng)
            optim.step(self.params, grads, self.opt)
        seconds = time.perf_counter() - t0
        decode_ms, _ = timed_decodes(self.net, self.params, self.dataset[:self.size["decode"]])
        frames = sum(sum(b.lengths) for b in self.batches)
        return Round(frames, seconds, len(self.dataset) + self.size["decode"], decode_ms)

    def check(self):
        found, _ = output_checks(self.net, self.params, self.dataset[:self.size["decode"]],
                                 self.alphabet)
        utt = self.dataset[0]
        x = utt.features[:, :, :self.FD_FRAMES]
        return found + checks.check_gradient(self.net, self.params, x, utt.target[:3],
                                             self.seed)


class DecodeLong(Workload):
    """Inference with the committed reduced checkpoint over held-out
    utterances of 200-400 frames: per-utterance decodes, then one evaluate()."""

    NAME = "decode-long"
    SETUP_REPS = 50
    MIN_DECODES = 100
    SIZES = {"full": {"pool": 200, "utterances": 50, "min_frames": 200, "max_frames": 400},
             "tiny": {"pool": 8, "utterances": 4, "min_frames": 30, "max_frames": 60}}
    EXPECTED = FORWARD | DECODING | {"data.load_dataset", "features.assemble_input",
                                     "checkpoint.load_checkpoint"}

    def prepare(self):
        """Draw the held-out utterances from a pool generated with task seed
        0, whose symbol templates the fixture was trained on.  The workload
        seed picks one utterance from each of `utterances` equal-count
        length strata of the pool, so every seed decodes a different set
        with nearly the same length distribution."""
        s = self.size
        spec = data.TaskSpec(symbols=5, min_frames=s["min_frames"], max_frames=s["max_frames"],
                             counts={"test": s["pool"]}, seed=0)
        paths = data.generate_synthetic(spec, os.path.join(self.work, "pool"))
        pool = data.load_manifest(paths["test"], Alphabet.from_file(paths["alphabet"]), split="test")
        lengths = [static.shape[1] for static in data.iter_static(pool)]
        picks = stratified(lengths, s["utterances"], np.random.default_rng(self.seed))
        self.manifest_path = os.path.join(os.path.dirname(paths["test"]), "held-out.tsv")
        data.write_manifest(self.manifest_path, data.Manifest([pool.entries[i] for i in picks]))

    def setup(self):
        ck = checkpoint.load_checkpoint(FIXTURE)
        self.alphabet = ck.alphabet
        manifest = data.load_manifest(self.manifest_path, ck.alphabet, split="test")
        dtype = next(iter(ck.params.values())).dtype
        self.dataset = data.load_dataset(manifest, ck.stats, dtype=dtype)
        self.net, self.params = network.Network(ck.config), ck.params

    def warmup(self):
        timed_decodes(self.net, self.params, self.dataset[:5])

    def round(self):
        decode_ms, self.hyps = timed_decodes(self.net, self.params, self.dataset)
        t0 = time.perf_counter()
        self.report = evaluate.evaluate(self.net, self.params, self.dataset, self.alphabet)
        seconds = time.perf_counter() - t0
        frames = sum(u.features.shape[2] for u in self.dataset)
        return Round(frames, seconds, 2 * len(self.dataset), decode_ms)

    def check(self):
        failures, report = output_checks(self.net, self.params, self.dataset, self.alphabet)
        for uid, hyp in self.hyps.items():
            if self.alphabet.decode(hyp) != report.decodes[uid]:
                failures.append(f"{uid}: timed decode differs from evaluate()")
        if self.report.decodes != report.decodes:
            failures.append("evaluate() hypotheses changed between the timed and checked passes")
        if not report.label_error_rate <= DECODE_LONG_MAX_LER:
            failures.append(f"LER {report.label_error_rate:.4f} on held-out long utterances "
                            f"exceeds {DECODE_LONG_MAX_LER}")
        return failures


WORKLOADS = {w.NAME: w for w in (TrainReduced, TrainFigure3, DecodeLong)}
