"""The two-stage training recipe with early stopping and checkpointing.

Main stage: Adam at 1e-4.  Fine-tune stage: SGD at 1e-5 with L2 1e-5 on
weights.  Every epoch runs shuffled batches of summed-CTC-loss updates,
evaluates the dev label error rate, appends one JSON metrics line, and
saves a resumable checkpoint; the best-on-dev checkpoint is kept
separately.  When the dev metric plateaus for `patience` evaluations the
run either switches to the fine-tune stage (from the best parameters so
far, if auto_finetune is set) or stops.

Everything is driven by one seeded generator whose state is stored in
every checkpoint, so identical seeds give byte-identical logs and
checkpoints, and a resumed run continues the exact trajectory of an
uninterrupted one.
"""

import json
import os
import sys
import threading
import time
from copy import deepcopy
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import layers
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .ctc import ctc_grad, ctc_loss
from .data import iter_static, load_dataset, make_batches
from .evaluate import evaluate
from .features import fit_normalization
from .network import DropoutSpec, Network, _from_json
from .optim import check_rates, global_norm_clip, init_uniform, make_optimizer, step
from .tensor import DTYPES

ADAM_LR = 1e-4
STAGE_DEFAULTS = {"adam": (ADAM_LR, 0.0), "sgd": (1e-5, 1e-5)}   # stage -> default (lr, l2)


@dataclass
class RunMeta:
    """The run state a checkpoint's meta carries from one epoch to the next."""
    epoch: int = 0
    stage: str = "adam"
    best_dev_ler: float = float("inf")
    bad_evals: int = 0
    rng_state: dict | None = None


@dataclass
class TrainResult:
    epochs_run: int
    best_dev_ler: float
    log_path: str
    best_path: str
    last_path: str


def override_dropout(config, rate):
    """Config copy with every dropout layer forced to `rate` (0 disables)."""
    config = deepcopy(config)
    for spec in config.layers:
        if isinstance(spec, DropoutSpec):
            spec.rate = rate
    return config


class GradientSum:
    """One gradient set that the items of a batch add into, from one thread or
    two, with the bits of the serial sum over the items in order.

    Item j's backward takes `into=partial(total.add, j)` and hands each
    stage's gradients over as soon as it has them.  Each stage has a turn,
    which goes from item to item in item order.  Item j adds a stage at once
    when the turn is its own, and otherwise leaves the gradients held for
    its turn and goes on; whoever adds a stage then passes its turn on,
    adding the held gradients of the items after it, and skipping the
    released ones that hold none, until it reaches an item that has not
    handed that stage over yet.  So no thread waits for another item, and
    each array receives its items in item order.  An item that will hand
    over nothing more, because it is done, was skipped or failed, must be
    released, or the turns stop at it and the items after it are never
    added.

    One lock guards the turns and the held gradients; the adds run outside
    it, each stage's only on the thread that holds that stage's turn.
    """

    def __init__(self, stages):
        self.grads = {}
        self._lock = threading.Lock()
        self._turn = [0] * stages            # per stage, the item whose turn it is
        self._held = {}                      # (stage, item) -> its gradients
        self._released = set()

    def add(self, j, stage, grads):
        """Hand over item j's gradients of `stage`, {full name: array}: they
        are added now if it is item j's turn, and held for it otherwise.  A
        name not yet in the sum takes the array handed over."""
        with self._lock:
            if self._turn[stage] != j:
                self._held[stage, j] = grads
                return
        self._pass_on(stage, j, grads)

    def release(self, j):
        """Item j hands over nothing more: pass on every turn it still has."""
        with self._lock:
            self._released.add(j)
            turns = [stage for stage, item in enumerate(self._turn) if item == j]
        for stage in turns:
            self._pass_on(stage, j, None)

    def _pass_on(self, stage, j, grads):
        """Add `grads`, item j's at `stage` in its turn, then pass the turn on."""
        while True:
            if grads is not None:
                for name, g in grads.items():
                    if name in self.grads:
                        self.grads[name] += g
                    else:
                        self.grads[name] = g
            with self._lock:
                j += 1
                # a released item may still hold gradients: look for them first
                grads = self._held.pop((stage, j), None)
                if grads is None and j not in self._released:
                    self._turn[stage] = j
                    return


def batch_gradients(net, params, batch, train=True, rng=None, dtype=np.float32):
    """Accumulate per-item CTC gradients over a batch, in fixed item order.

    Returns (grads or None, summed loss, counted items, skipped items).
    Infeasibly short utterances are skipped; a non-finite loss on a feasible
    one raises with the utterance id.  Each item runs with its own generator,
    seeded from `rng` in item order.

    The items run through layers.run_items in item order, on this thread
    and, when two cores are free for it and no GEMM of the longest item is
    large enough to split, on a worker as well, each thread taking the first
    item not yet taken.  Either way every item's backward hands each stage's
    gradients to one GradientSum, through into=partial(total.add, j), which
    adds them a stage at a time in item order, so the bits are those of the
    serial sum, and frees the item's tapes as it goes; no thread waits for
    another's item.  Each item that starts is released when it ends,
    whether it handed over every stage, was infeasible or failed, and every
    gradient handed over is added by the time run_items returns.  A failing
    item stops the items after it that have not started; since both
    threads take items in item order, every started item comes before
    every unstarted one, so no turn stops at an item that never started.
    The batch raises the first failing item's error.
    """
    items = batch.utterances
    seeds = [None] * len(items) if rng is None else rng.integers(2**63, size=len(items))
    total = GradientSum(len(net.stack))

    def one(j):
        utt = items[j]
        item_rng = None if seeds[j] is None else np.random.default_rng(seeds[j])
        try:
            log_probs, tapes = net.forward(utt.features, params, train=train, rng=item_rng)
            if np.isnan(log_probs).any():
                raise RuntimeError(f"non-finite network output for utterance {utt.uid}")
            loss, lattice = ctc_loss(log_probs, utt.target)
            if not lattice.feasible:
                return None
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite loss for utterance {utt.uid}")
            net.backward(tapes, ctc_grad(lattice, log_probs).astype(dtype),
                         into=partial(total.add, j))
            return float(loss)
        finally:
            total.release(j)

    whole = len(items) > 1 and (
        net.largest_gemm(max(u.features.shape[-1] for u in items)) < layers.SPLIT_MIN_MULADDS)
    losses = layers.run_items(one, range(len(items)), range(len(items)) if whole else None)

    counted = [loss for loss in losses if loss is not None]
    loss_sum = 0.0
    for loss in counted:     # in item order; sum() compensates from Python 3.12 on
        loss_sum += loss
    grads = {name: total.grads[name] for name, _, _ in net.param_specs()} if counted else None
    return grads, loss_sum, len(counted), len(items) - len(counted)


def train(config, alphabet, train_manifest, dev_manifest, out_dir, seed=0,
          precision="f32", stage=None, lr=None, batch_size=20, epochs=100,
          patience=5, l2=None, dropout=None, batch_loss="sum",
          auto_finetune=False, clip=None, target_ler=None, stats=None,
          resume=None, log_timing=True, quiet=False):
    """Run `epochs` training epochs; returns a TrainResult.

    `resume` is a checkpoint path: parameters, optimizer state, stats, rng
    state, and epoch numbering continue from it.  Passing a different
    `stage` than the checkpoint's re-creates the optimizer (the manual
    Adam -> SGD fine-tune trigger); otherwise the stored state is reused.
    A fresh run (no `resume`) refuses an `out_dir` that already holds a
    run's log or checkpoints, and writes nothing there.

    Raises RuntimeError, naming the epoch, batch and parameter, when a batch
    gradient is not finite, leaving the parameters as they were, or when a
    parameter is not finite after the step; either way before that epoch
    writes its log line or a checkpoint.
    """
    log_path = os.path.join(out_dir, "metrics.jsonl")
    best_path = os.path.join(out_dir, "best.ckpt")
    last_path = os.path.join(out_dir, "last.ckpt")
    if resume is None:
        for path in (log_path, last_path, best_path):
            if os.path.exists(path):
                raise ValueError(f"{out_dir} already holds a run ({os.path.basename(path)}); "
                                 f"resume from its last.ckpt or choose another directory")
    os.makedirs(out_dir, exist_ok=True)
    if batch_loss not in ("sum", "mean"):
        raise ValueError(f"batch_loss must be 'sum' or 'mean', got {batch_loss!r}")

    rng = np.random.default_rng(seed)
    params, opt, prior = None, None, RunMeta()
    if resume is not None:
        ck = load_checkpoint(resume)
        config, alphabet, stats, params = ck.config, ck.alphabet, ck.stats, ck.params
        opt, prior = ck.optimizer, _from_json(RunMeta, ck.meta, f"{resume}: checkpoint meta")
        if prior.rng_state:
            try:
                rng.bit_generator.state = prior.rng_state
            except (TypeError, KeyError, ValueError) as e:
                raise ValueError(f"{resume}: checkpoint meta field 'rng_state': {e!r}") from e
    elif alphabet.size != config.alphabet_size:
        raise ValueError(f"alphabet has {alphabet.size} symbols, config expects "
                         f"{config.alphabet_size}")
    if dropout is not None:
        config = override_dropout(config, dropout)
    net = Network(config)
    dtype = DTYPES[precision] if params is None else next(iter(params.values())).dtype
    start_epoch, best_ler, bad_evals = prior.epoch, prior.best_dev_ler, prior.bad_evals
    stage = stage or prior.stage
    if opt is not None and opt.kind == stage:
        if lr is not None:
            opt.lr = lr
        if l2 is not None:
            opt.l2 = l2
        check_rates(dtype, opt.lr, opt.l2)
    else:
        opt = _fresh_optimizer(stage, net, lr, l2, dtype)
    if params is None:
        if stats is None:
            stats = fit_normalization(iter_static(train_manifest))
        params = init_uniform(net.param_specs(), rng, dtype=dtype)

    def meta(epoch):
        return asdict(RunMeta(epoch, stage, best_ler, bad_evals, rng.bit_generator.state))

    train_set = load_dataset(train_manifest, stats, dtype=dtype)
    dev_set = load_dataset(dev_manifest, stats, dtype=dtype)
    if not train_set:
        raise ValueError("empty training manifest")

    best_params = None
    if best_ler < float("inf"):
        # resumed run: recover the best-so-far parameters for a later
        # fine-tune switch, falling back to the checkpoint we resumed from
        src = load_checkpoint(best_path).params if os.path.exists(best_path) else params
        best_params = {k: v.copy() for k, v in src.items()}
    final_epoch = start_epoch

    if os.path.exists(log_path):     # cut a last line torn by a crash mid-append
        with open(log_path, "rb+") as fh:
            fh.truncate(fh.read().rfind(b"\n") + 1)
    with open(log_path, "a", encoding="utf-8") as log:
        for epoch in range(start_epoch + 1, start_epoch + epochs + 1):
            t0 = time.monotonic()
            batches = make_batches(train_set, batch_size, rng, shuffle=True)
            loss_total = 0.0
            counted_total = 0
            skipped_total = 0
            for bi, batch in enumerate(batches):
                grads = None     # the last batch's gradients are not alive through this one's
                try:
                    grads, loss_sum, counted, skipped = batch_gradients(
                        net, params, batch, train=True, rng=rng, dtype=dtype)
                except RuntimeError as e:
                    raise RuntimeError(f"epoch {epoch}, batch {bi}, ids {batch.ids}: {e}") from e
                loss_total += loss_sum
                counted_total += counted
                skipped_total += skipped
                if grads is None:
                    continue
                bad = _non_finite(grads)
                if bad is not None:
                    raise RuntimeError(f"epoch {epoch}, batch {bi}, ids {batch.ids}: "
                                       f"non-finite gradient for {bad}")
                if batch_loss == "mean":
                    for g in grads.values():
                        g /= counted
                if clip is not None:
                    grads = global_norm_clip(grads, clip)
                step(params, grads, opt)
                bad = _non_finite(params)
                if bad is not None:
                    raise RuntimeError(f"epoch {epoch}, batch {bi}, ids {batch.ids}: "
                                       f"non-finite parameter {bad} after the step")

            if skipped_total and not quiet:
                print(f"warning: epoch {epoch}: skipped {skipped_total} infeasible "
                      f"utterance(s)", file=sys.stderr)

            report = evaluate(net, params, dev_set, alphabet)
            dev_ler = report.label_error_rate
            train_loss = loss_total / max(1, counted_total)
            seconds = round(time.monotonic() - t0, 3) if log_timing else 0.0
            line = {"epoch": epoch, "stage": stage, "train_loss": train_loss,
                    "dev_ler": dev_ler, "seconds": seconds}
            log.write(json.dumps(line) + "\n")
            log.flush()
            if not quiet:
                print(f"epoch {epoch} [{stage}] loss {train_loss:.4f} dev_ler {dev_ler:.4f}")

            improved = dev_ler < best_ler
            if improved:
                best_ler = dev_ler
                bad_evals = 0
                best_params = {k: v.copy() for k, v in params.items()}
            else:
                bad_evals += 1

            ckpt = Checkpoint(config, alphabet, params, opt, stats, meta(epoch))
            save_checkpoint(last_path, ckpt)
            if improved:
                save_checkpoint(best_path, ckpt)
            final_epoch = epoch

            if target_ler is not None and dev_ler <= target_ler:
                break
            if bad_evals >= patience:
                if auto_finetune and stage == "adam":
                    stage = "sgd"
                    params = {k: v.copy() for k, v in best_params.items()}
                    opt = _fresh_optimizer("sgd", net, None, None, dtype)
                    bad_evals = 0
                    if not quiet:
                        print(f"epoch {epoch}: plateau, switching to SGD fine-tuning")
                else:
                    break

    if not os.path.exists(best_path):
        # a resumed run may never beat the inherited best metric; still
        # materialize best.ckpt here with the best-known parameters
        save_checkpoint(best_path, Checkpoint(config, alphabet, best_params or params,
                                              opt, stats, meta(final_epoch)))

    return TrainResult(final_epoch - start_epoch, best_ler, log_path, best_path, last_path)


def _non_finite(arrays):
    """The name of the first array of `arrays` that holds a NaN or an inf, else None."""
    return next((name for name, a in arrays.items() if not np.isfinite(a).all()), None)


def _fresh_optimizer(stage, net, lr, l2, dtype):
    if stage not in STAGE_DEFAULTS:
        raise ValueError(f"unknown training stage {stage!r}, expected one of {list(STAGE_DEFAULTS)}")
    default_lr, default_l2 = STAGE_DEFAULTS[stage]
    return make_optimizer(stage, net.param_specs(),
                          lr=default_lr if lr is None else lr,
                          l2=default_l2 if l2 is None else l2, dtype=dtype)
