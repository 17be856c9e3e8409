"""Spans and counts at the boundaries of convctc's public functions.

`Tracer.install` wraps each traced function and puts the wrapper under every
name by which convctc code or the benchmark looks it up: `train.py` imports
`ctc_loss` by name, so `convctc.train.ctc_loss` is replaced as well as
`convctc.ctc.ctc_loss`; `network.py` reaches `layers.*` through the module,
so the module attribute is replaced.  Nothing in convctc's source changes,
and `uninstall` puts every original back.

Each call records a span.  Its self time is its duration minus the time of
the spans it caused, so nested functions are not counted twice.  Spans are
aggregated as they end into per-function self seconds and call counts, plus
the counts below, derived from argument and result shapes.
"""

import functools
import os
import sys
import time
from collections import defaultdict

# label -> (module, attribute path inside it)
TRACED = {
    "network.Network.forward": ("convctc.network", "Network.forward"),
    "network.Network.backward": ("convctc.network", "Network.backward"),
    "layers.conv2d_forward": ("convctc.layers", "conv2d_forward"),
    "layers.conv2d_backward": ("convctc.layers", "conv2d_backward"),
    "layers.maxout2": ("convctc.layers", "maxout2"),
    "layers.maxout2_backward": ("convctc.layers", "maxout2_backward"),
    "layers.maxpool_freq": ("convctc.layers", "maxpool_freq"),
    "layers.maxpool_freq_backward": ("convctc.layers", "maxpool_freq_backward"),
    "layers.dense_forward": ("convctc.layers", "dense_forward"),
    "layers.dense_backward": ("convctc.layers", "dense_backward"),
    "layers.dropout": ("convctc.layers", "dropout"),
    "layers.dropout_backward": ("convctc.layers", "dropout_backward"),
    "layers.log_softmax_frames": ("convctc.layers", "log_softmax_frames"),
    "layers.log_softmax_backward": ("convctc.layers", "log_softmax_backward"),
    "ctc.ctc_loss": ("convctc.ctc", "ctc_loss"),
    "ctc.ctc_grad": ("convctc.ctc", "ctc_grad"),
    "ctc.best_path_decode": ("convctc.ctc", "best_path_decode"),
    "optim.step": ("convctc.optim", "step"),
    "train.batch_gradients": ("convctc.train", "batch_gradients"),
    "evaluate.evaluate": ("convctc.evaluate", "evaluate"),
    "evaluate.levenshtein": ("convctc.evaluate", "levenshtein"),
    "data.make_batches": ("convctc.data", "make_batches"),
    "data.load_dataset": ("convctc.data", "load_dataset"),
    "data.generate_synthetic": ("convctc.data", "generate_synthetic"),
    "features.fit_normalization": ("convctc.features", "fit_normalization"),
    "features.assemble_input": ("convctc.features", "assemble_input"),
    "checkpoint.save_checkpoint": ("convctc.checkpoint", "save_checkpoint"),
    "checkpoint.load_checkpoint": ("convctc.checkpoint", "load_checkpoint"),
}

# count name -> unit; each repeats exactly for a given seed.  All are totals
# per round except useful_frac, the ratio of real to padded frames.
COUNTS = {
    "layers.conv2d.gflop": "GFLOP",
    "layers.conv2d.patch_mb": "MB",
    "data.make_batches.useful_frac": "frac",
    "ctc.lattice_cells": "count",
    "train.skipped": "count",
    "evaluate.hyp_symbols": "count",
    "checkpoint.save_checkpoint.bytes": "bytes",
}


def _conv_counts(counts, out_elems, weight_shape, itemsize, passes):
    """A conv lowered to im2col: `passes` GEMMs against a patch matrix of
    (out_elems / k) columns by c*m*n rows; backward also rebuilds it."""
    k, c, m, n = weight_shape
    counts["layers.conv2d.gflop"] += 2.0 * passes * out_elems * c * m * n / 1e9
    counts["layers.conv2d.patch_mb"] += out_elems // k * c * m * n * itemsize / 1e6


def _count(label, args, result, counts, real_padded):
    if label == "layers.conv2d_forward":
        out = result[0]
        _conv_counts(counts, out.size, args[1].shape, out.itemsize, passes=1)
    elif label == "layers.conv2d_backward":
        grad_out, grad_w = args[1], result[1]
        _conv_counts(counts, grad_out.size, grad_w.shape, grad_w.itemsize, passes=2)
    elif label == "data.make_batches":
        for b in result:
            real_padded[0] += sum(b.lengths)
            real_padded[1] += len(b.lengths) * max(b.lengths)
    elif label == "ctc.ctc_loss":
        log_probs, target = args[0], args[1]
        counts["ctc.lattice_cells"] += (2 * len(target) + 1) * log_probs.shape[-1]
    elif label == "train.batch_gradients":
        counts["train.skipped"] += result[3]
    elif label == "evaluate.evaluate":
        counts["evaluate.hyp_symbols"] += sum(len(h) for h in result.decodes.values())
    elif label == "checkpoint.save_checkpoint":
        counts["checkpoint.save_checkpoint.bytes"] += os.path.getsize(args[0])


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._real_padded = [0, 0]
        self._stack = []              # child seconds of each open span
        self._patched = []            # (namespace, attribute, original)

    def _wrap(self, label, fn):
        stack, self_s, calls = self._stack, self.self_s, self.calls
        counts, real_padded = self.counts, self._real_padded
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                self_s[label] += duration - children
                calls[label] += 1
            _count(label, args, result, counts, real_padded)
            return result

        return traced

    def install(self):
        """Replace every traced function under each name convctc binds it to.

        Raises AttributeError when a traced function no longer exists, so a
        rename cannot silently drop a layer from the trace.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "convctc" or name.startswith("convctc."))]
        for label, (module_name, path) in TRACED.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original)
            self._patch(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, namespace, attr, original, wrapper):
        setattr(namespace, attr, wrapper)
        self._patched.append((namespace, attr, original))

    def uninstall(self):
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def report(self, rounds):
        """Every per-layer metric except the overhead, as totals per round."""
        metrics = {}
        for label in TRACED:
            metrics[f"{label}.self_s"] = (self.self_s[label] / rounds, "s")
            metrics[f"{label}.calls"] = (self.calls[label] / rounds, "count")
        for name, unit in COUNTS.items():
            metrics[name] = (self.counts[name] / rounds, unit)
        real, padded = self._real_padded
        metrics["data.make_batches.useful_frac"] = (real / padded if padded else 0.0, "frac")
        return metrics

    def blind_spots(self, expected):
        """Labels a workload is expected to call that recorded no call."""
        return sorted(label for label in expected if self.calls[label] == 0)
