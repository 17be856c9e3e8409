"""Declarative layer stacks: configuration, parameter naming, composition.

A NetworkConfig lists conv / pool / dense / dropout stages in order, plus the
input geometry and alphabet size.  Building a Network resolves the geometry
(channel and band counts through the stack, the conv-to-dense flatten width)
and assigns every trainable tensor a stable dotted name -- the same ordering
checkpoints and optimizer state rely on.

Conv and dense layers are one kind of stage: an affine map (``conv2d`` or
``dense``) followed by maxout, ReLU, PReLU or, for the output projection,
nothing.  Building a Network rejects an unknown activation or frequency
padding and names the layer index.  Stages reach ``layers.*`` through the
module at call time, so a wrapper set on a module attribute sees every call.

The built network always ends with an implicit linear projection to the
alphabet ("output") followed by a per-frame log-softmax, so ``forward``
returns log-probabilities [A x f] ready for the ctc module.

Config files are JSON:

    {
      "input": {"channels": 3, "bands": 41},
      "alphabet_size": 62,
      "layers": [
        {"kind": "conv", "maps": 128, "filter_freq": 3, "filter_time": 5,
         "activation": "maxout", "freq_padding": "same"},
        {"kind": "pool", "size": 3, "step": 3},
        {"kind": "dropout", "rate": 0.3},
        {"kind": "dense", "width": 1024, "activation": "maxout"}
      ]
    }
"""

import contextlib
import json
import math
import threading
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import layers
from .tensor import ShapeError


@dataclass
class ConvSpec:
    maps: int
    filter_freq: int
    filter_time: int
    activation: str = "maxout"      # maxout | relu | prelu
    freq_padding: str = "same"      # same | valid


@dataclass
class PoolSpec:
    size: int
    step: int


@dataclass
class DenseSpec:
    width: int
    activation: str = "maxout"      # maxout | relu | prelu | linear


@dataclass
class DropoutSpec:
    rate: float


_KINDS = {"conv": ConvSpec, "pool": PoolSpec, "dense": DenseSpec, "dropout": DropoutSpec}


def _from_json(cls, doc, where):
    """The `cls` dataclass read from the JSON object `doc`.

    Each field present is read as its declared type: int and float fields
    through int() and float(), the others as they are, if of that type.  An
    absent field takes the dataclass default, and keys that are not fields
    are ignored.  A missing or malformed value raises ValueError naming
    `where` and the field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is {type(doc).__name__}, expected an object")
    values = {}
    for f in fields(cls):
        if f.name not in doc:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{where} is missing field {f.name!r}")
            continue
        value = doc[f.name]
        if f.type in (int, float):
            try:
                value = f.type(value)
            except (TypeError, ValueError, OverflowError) as e:
                raise ValueError(f"{where} field {f.name!r}: {e}") from e
        elif not isinstance(value, f.type):
            raise ValueError(f"{where} field {f.name!r} is {type(value).__name__}, "
                             f"expected {getattr(f.type, '__name__', f.type)}")
        values[f.name] = value
    return cls(**values)


@dataclass
class NetworkConfig:
    channels: int
    bands: int
    alphabet_size: int
    layers: list = field(default_factory=list)

    def to_json(self):
        kinds = {spec_cls: kind for kind, spec_cls in _KINDS.items()}
        return {"input": {"channels": self.channels, "bands": self.bands},
                "alphabet_size": self.alphabet_size,
                "layers": [{"kind": kinds[type(spec)], **asdict(spec)} for spec in self.layers]}

    @classmethod
    def from_json(cls, doc):
        geometry = doc.get("input") if isinstance(doc, dict) else None
        if not isinstance(geometry, dict):
            raise ValueError("config has no 'input' object")
        entries = doc.get("layers")
        if not isinstance(entries, list):
            raise ValueError(f"config 'layers' is {type(entries).__name__}, expected a list")
        specs = []
        for i, entry in enumerate(entries):
            where = f"config layer {i}"
            if not isinstance(entry, dict):
                raise ValueError(f"{where} is {type(entry).__name__}, expected an object")
            kind = entry.get("kind")
            if not isinstance(kind, str) or kind not in _KINDS:
                raise ValueError(f"{where}: unknown layer kind {kind!r}")
            specs.append(_from_json(_KINDS[kind], entry, f"{where} ({kind})"))
        top = {key: geometry[key] for key in ("channels", "bands") if key in geometry}
        if "alphabet_size" in doc:
            top["alphabet_size"] = doc["alphabet_size"]
        return _from_json(cls, {**top, "layers": specs}, "config")

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def figure3_config():
    """The shipped default stack: 10 conv 3x5 maxout (128 maps in the first
    four, 256 in the rest), 3x1 frequency pooling after layer 1, three
    1024-wide maxout dense layers, dropout 0.3 after every hidden layer."""
    specs = [ConvSpec(128, 3, 5), PoolSpec(3, 3), DropoutSpec(0.3)]
    for _ in range(3):
        specs += [ConvSpec(128, 3, 5), DropoutSpec(0.3)]
    for _ in range(6):
        specs += [ConvSpec(256, 3, 5), DropoutSpec(0.3)]
    for _ in range(3):
        specs += [DenseSpec(1024), DropoutSpec(0.3)]
    return NetworkConfig(channels=3, bands=41, alphabet_size=62, layers=specs)


# ---------------------------------------------------------------------------
# stages: thin wrappers pairing each spec with its params and backward route
# ---------------------------------------------------------------------------

class _AffineStage:
    """A conv or dense layer: the affine map, then its activation.

    Maxout runs the affine map at double width, w1 and w2 stacked, and keeps
    the larger of the two halves; "linear" is the output projection.
    """

    def __init__(self, spec, weight_shape, bands=1):
        self.spec = spec
        self.weight_shape = weight_shape     # [k x c x m x n] conv, [k x d] dense
        # multiply-adds per frame of each of its GEMMs, over `bands` output bands
        halves = 2 if spec.activation == "maxout" else 1
        self.muladds_per_frame = halves * math.prod(weight_shape) * bands

    def param_specs(self):
        w = self.weight_shape
        b = w[:1]
        if self.spec.activation == "maxout":
            return [("w1", w, "weight"), ("b1", b, "bias"),
                    ("w2", w, "weight"), ("b2", b, "bias")]
        if self.spec.activation == "prelu":
            return [("w", w, "weight"), ("b", b, "bias"), ("alpha", b, "alpha")]
        return [("w", w, "weight"), ("b", b, "bias")]

    def forward(self, x, p, train, rng):
        s = self.spec
        if s.activation == "maxout":
            weights = (p["w1"], p["w2"])
            w = np.concatenate(weights)
            b = np.concatenate([p["b1"], p["b2"]])
        else:
            weights = w = p["w"]
            b = p["b"]
        if isinstance(s, ConvSpec):
            h, affine_tape = layers.conv2d_forward(x, w, b, s.freq_padding)
        else:
            h, affine_tape = layers.dense_forward(x, w, b)
        k = self.weight_shape[0]
        if s.activation == "maxout":
            out, act_tape = layers.maxout2(h[:k], h[k:])
        elif s.activation == "prelu":
            out, act_tape = layers.prelu(h, p["alpha"])
        elif s.activation == "relu":
            out, act_tape = layers.relu(h)
        else:
            out, act_tape = h, None
        # the caller's weight arrays, not the stacked copy w
        return out, (affine_tape, act_tape, weights)

    def backward(self, grad, tape):
        s = self.spec
        affine_tape, act_tape, weights = tape
        local = {}
        if s.activation == "maxout":
            grad = np.concatenate(layers.maxout2_backward(act_tape, grad))
        elif s.activation == "prelu":
            grad, local["alpha"] = layers.prelu_backward(act_tape, grad)
        elif s.activation == "relu":
            grad = layers.relu_backward(act_tape, grad)
        w = np.concatenate(weights) if s.activation == "maxout" else weights
        if isinstance(s, ConvSpec):
            gx, gw, gb = layers.conv2d_backward(affine_tape, grad, w)
        else:
            gx, gw, gb = layers.dense_backward(affine_tape, grad, w)
        k = self.weight_shape[0]
        if s.activation == "maxout":
            return gx, {"w1": gw[:k], "b1": gb[:k], "w2": gw[k:], "b2": gb[k:]}
        return gx, {"w": gw, "b": gb, **local}


class _PoolStage:
    def __init__(self, spec):
        self.spec = spec

    def param_specs(self):
        return []

    def forward(self, x, p, train, rng):
        return layers.maxpool_freq(x, self.spec.size, self.spec.step)

    def backward(self, grad, tape):
        return layers.maxpool_freq_backward(tape, grad), {}


class _DropoutStage:
    def __init__(self, spec):
        self.spec = spec

    def param_specs(self):
        return []

    def forward(self, x, p, train, rng):
        return layers.dropout(x, self.spec.rate, rng, training=train)

    def backward(self, grad, tape):
        return layers.dropout_backward(tape, grad), {}


class _FlattenStage:
    """[c x b x f] -> [c*b x f], map-major band-minor; checkpoints depend on
    this order."""

    def param_specs(self):
        return []

    def forward(self, x, p, train, rng):
        c, b, f = x.shape
        return x.reshape(c * b, f), (c, b)

    def backward(self, grad, tape):
        c, b = tape
        return grad.reshape(c, b, -1), {}


class _LogSoftmaxStage:
    def param_specs(self):
        return []

    def forward(self, x, p, train, rng):
        out = layers.log_softmax_frames(x)
        return out, out

    def backward(self, grad, tape):
        if grad.shape != tape.shape:
            raise ShapeError(f"gradient shape {grad.shape} does not match log-probs {tape.shape}")
        return layers.log_softmax_backward(tape, grad), {}


def _require(i, field, value, allowed):
    if value not in allowed:
        raise ValueError(f"layer {i}: {field} {value!r} is not one of {'|'.join(allowed)}")


class Network:
    """A built layer stack with named parameters and hand-chained backprop."""

    def __init__(self, config):
        self.config = config
        if config.alphabet_size < 2:
            raise ValueError("alphabet_size must be at least 2 (blank plus one label)")
        self.stack = []          # (name, stage)
        counts = {}

        def push(kind, stage):
            counts[kind] = counts.get(kind, 0) + 1
            self.stack.append((f"{kind}{counts[kind]}", stage))

        channels, bands = config.channels, config.bands
        flat_width = None
        for i, spec in enumerate(config.layers):
            if isinstance(spec, ConvSpec):
                if flat_width is not None:
                    raise ValueError(f"layer {i}: conv cannot follow a dense layer")
                _require(i, "activation", spec.activation, ("maxout", "relu", "prelu"))
                _require(i, "freq_padding", spec.freq_padding, ("same", "valid"))
                weight_shape = (spec.maps, channels, spec.filter_freq, spec.filter_time)
                channels = spec.maps
                if spec.freq_padding == "valid":
                    bands = bands - spec.filter_freq + 1
                    if bands < 1:
                        raise ValueError(f"layer {i}: filter height {spec.filter_freq} "
                                         f"exceeds band count")
                push("conv", _AffineStage(spec, weight_shape, bands))
            elif isinstance(spec, PoolSpec):
                if flat_width is not None:
                    raise ValueError(f"layer {i}: pool cannot follow a dense layer")
                if bands < spec.size:
                    raise ValueError(f"layer {i}: pool size {spec.size} exceeds "
                                     f"{bands} bands")
                push("pool", _PoolStage(spec))
                bands = (bands - spec.size) // spec.step + 1
            elif isinstance(spec, DenseSpec):
                _require(i, "activation", spec.activation,
                         ("maxout", "relu", "prelu", "linear"))
                if flat_width is None:
                    flat_width = channels * bands
                    push("flatten", _FlattenStage())
                push("dense", _AffineStage(spec, (spec.width, flat_width)))
                flat_width = spec.width
            elif isinstance(spec, DropoutSpec):
                push("dropout", _DropoutStage(spec))
            else:
                raise TypeError(f"unknown layer spec {spec!r}")

        if flat_width is None:
            flat_width = channels * bands
            push("flatten", _FlattenStage())
        output = DenseSpec(config.alphabet_size, "linear")
        self.stack.append(("output", _AffineStage(output, (output.width, flat_width))))
        self.stack.append(("softmax", _LogSoftmaxStage()))

        self.param_list = []     # (full name, shape, kind) in stack order
        for name, stage in self.stack:
            for local, shape, kind in stage.param_specs():
                self.param_list.append((f"{name}.{local}", shape, kind))

    def param_specs(self):
        return list(self.param_list)

    def largest_gemm(self, frames):
        """Multiply-adds of the stack's largest conv or dense GEMM over `frames` frames."""
        return frames * max(stage.muladds_per_frame for _, stage in self.stack
                            if isinstance(stage, _AffineStage))

    def _stage_params(self, name, stage, params):
        out = {}
        for local, shape, _ in stage.param_specs():
            full = f"{name}.{local}"
            if full not in params:
                raise KeyError(f"missing parameter {full}")
            if params[full].shape != shape:
                raise ShapeError(f"parameter {full} has shape {params[full].shape}, expected {shape}")
            out[local] = params[full]
        return out

    def forward(self, x, params, train=False, rng=None):
        """Run the stack on [channels x bands x f]; returns (log_probs [A x f], tapes)."""
        tapes = []
        return self._run(x, params, train, rng, tapes.append), tapes

    def infer(self, x, params):
        """The inference log-probs [A x f] of `x`, keeping no tape: each
        stage's intermediates are freed as soon as the next stage starts."""
        return self._run(x, params, False, None, lambda tape: None)

    def _run(self, x, params, train, rng, keep):
        """The stack's output for `x`; each stage's tape goes to keep(tape)."""
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[:2] != (self.config.channels, self.config.bands):
            raise ShapeError(f"input shape {x.shape} does not match configured geometry "
                             f"({self.config.channels}, {self.config.bands}, f)")
        h = x
        for i, (name, stage) in enumerate(self.stack):
            try:
                h, tape = stage.forward(h, self._stage_params(name, stage, params), train, rng)
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({name}): {e}") from e
            keep(tape)
            del tape            # not held through the next stage
        return h

    def backward(self, tapes, grad_log_probs, into=None):
        """Chain the stack's backward passes; returns grads for every parameter.

        Consumes `tapes`: each entry is set to None as soon as its stage's
        backward has returned, so a stage's intermediates are freed before
        the stage below it runs, and a consumed list raises ValueError.  A
        stage that raises leaves its own tape, and those below it, in place.
        With `into`, one item's share of a GradientSum, each stage's
        gradients are added in place into that sum's arrays as soon as the
        stage is done, in the item's turn (a name not yet in it takes this
        pass's array), and the sum's arrays are returned.
        """
        if len(tapes) != len(self.stack):
            raise ValueError(f"got {len(tapes)} tapes for {len(self.stack)} stages")
        if any(tape is None for tape in tapes):
            raise ValueError("these tapes were already consumed by a backward pass")
        if into is None:
            into = GradientSum(len(self.stack)).item(0)
        g = np.asarray(grad_log_probs)
        for i in range(len(self.stack) - 1, -1, -1):
            name, stage = self.stack[i]
            try:
                g, local = stage.backward(g, tapes[i])
            except ShapeError as e:
                raise ShapeError(f"layer {i} ({name}): {e}") from e
            tapes[i] = None
            if not local:
                continue
            with into.adding(i) as grads:
                for ln, gv in local.items():
                    full = f"{name}.{ln}"
                    if full in grads:
                        grads[full] += gv
                    else:
                        grads[full] = gv
        grads = into.total.grads
        return {name: grads[name] for name, _, _ in self.param_list}


class GradientSum:
    """One gradient set that the items of a batch add into, from one thread or
    two, with the bits of the serial sum over the items in order.

    Item j's backward takes `into=total.item(j)`, and adds a stage's
    gradients only after every item before it has added that stage or has
    been released.  An item that will add nothing more, because it was
    skipped or failed, must be released, or the items after it wait for it
    forever; releasing an item that has added every stage changes nothing.
    """

    def __init__(self, stages):
        self.grads = {}
        self._turns = threading.Condition()
        self._next = [0] * stages            # per stage, the item whose turn it is
        self._released = set()

    def item(self, j):
        return ItemGradients(self, j)

    def release(self, j):
        with self._turns:
            self._released.add(j)
            for stage, item in enumerate(self._next):
                self._next[stage] = self._unreleased(item)
            self._turns.notify_all()

    def _unreleased(self, j):
        """The first item from j on that was not released."""
        while j in self._released:
            j += 1
        return j

    @contextlib.contextmanager
    def _turn(self, j, stage):
        with self._turns:
            self._turns.wait_for(lambda: self._next[stage] == j)
        yield self.grads
        with self._turns:
            self._next[stage] = self._unreleased(j + 1)
            self._turns.notify_all()


@dataclass(frozen=True)
class ItemGradients:
    """Item `index`'s share of a GradientSum, for Network.backward's `into`."""
    total: GradientSum
    index: int

    def adding(self, stage):
        """Context in which this item adds the gradients of `stage`: it waits its turn."""
        return self.total._turn(self.index, stage)
