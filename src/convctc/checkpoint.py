"""Versioned checkpoint bundles.

One file carries everything needed to resume or evaluate a run: the network
config, alphabet, every parameter tensor (in the network's stable name
order), optimizer state including Adam moments, normalization statistics,
and training metadata (epoch, best dev metric, rng state).

Layout: magic "CCKP" | container version u32 | header length u64 | header
JSON (canonical: sorted keys, no whitespace) | tensor records in the order
the header lists them.  The canonical header and fixed tensor order make
save -> load -> save byte-identical.  Saves are atomic, and a truncated
file, or a header missing an entry that loading reads, fails to load with
ValueError.
"""

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .ctc import Alphabet
from .features import NormalizationStats
from .network import Network, NetworkConfig
from .optim import OPTIMIZER_KINDS, OptimizerState
from .tensor import ShapeError, atomic_write, read_tensor, write_tensor

_MAGIC = b"CCKP"
CONTAINER_VERSION = 1


@dataclass
class Checkpoint:
    config: NetworkConfig
    alphabet: Alphabet
    params: dict
    optimizer: OptimizerState | None = None
    stats: NormalizationStats | None = None
    meta: dict | None = None


def save_checkpoint(path, ckpt):
    """Write atomically (see tensor.atomic_write): a crash mid-save leaves
    the previous file whole."""
    names = list(ckpt.params.keys())
    header = {
        "config": ckpt.config.to_json(),
        "alphabet": ckpt.alphabet.symbols,
        "params": names,
        "meta": ckpt.meta or {},
        "has_stats": ckpt.stats is not None,
    }
    if ckpt.optimizer is not None:
        opt = ckpt.optimizer
        header["optimizer"] = {
            "kind": opt.kind, "lr": opt.lr, "beta1": opt.beta1, "beta2": opt.beta2,
            "eps": opt.eps, "l2": opt.l2, "t": opt.t, "kinds": opt.kinds,
            "has_moments": bool(opt.m),
        }
    else:
        header["optimizer"] = None

    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", CONTAINER_VERSION, len(blob)))
        fh.write(blob)
        for name in names:
            write_tensor(fh, ckpt.params[name])
        if ckpt.optimizer is not None and ckpt.optimizer.m:
            for name in names:
                write_tensor(fh, ckpt.optimizer.m[name])
            for name in names:
                write_tensor(fh, ckpt.optimizer.v[name])
        if ckpt.stats is not None:
            write_tensor(fh, ckpt.stats.means.astype(np.float64))
            write_tensor(fh, ckpt.stats.stds.astype(np.float64))


_HEADER_TYPES = {"config": dict, "alphabet": list, "params": list}
_OPTIMIZER_KEYS = ("kind", "lr", "beta1", "beta2", "eps", "l2", "t", "kinds")


def _check_header(path, header):
    """Raise ValueError naming `path` unless the decoded header holds every
    entry load_checkpoint reads, each of the JSON type it expects."""
    def corrupt(problem):
        return ValueError(f"{path}: corrupt checkpoint header: {problem}")

    def expect(name, value, kind):
        if not isinstance(value, kind):
            raise corrupt(f"{name} is {type(value).__name__}, expected {kind.__name__}")

    expect("the header", header, dict)
    for key, kind in _HEADER_TYPES.items():
        if key not in header:
            raise corrupt(f"missing {key!r}")
        expect(repr(key), header[key], kind)
    expect("'meta'", header.get("meta", {}), dict)
    opt = header.get("optimizer")
    if opt is None:
        return
    expect("'optimizer'", opt, dict)
    missing = [key for key in _OPTIMIZER_KEYS if key not in opt]
    if missing:
        raise corrupt(f"'optimizer' is missing {', '.join(missing)}")
    if opt["kind"] not in OPTIMIZER_KINDS:
        raise corrupt(f"unknown optimizer kind {opt['kind']!r}")
    expect("'optimizer.kinds'", opt["kinds"], dict)


def load_checkpoint(path):
    """Load and validate: parameter names and shapes must match the config."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[:4] != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint (magic {head[:4]!r})")
        if len(head) < 16:
            raise ValueError(f"{path}: truncated checkpoint header")
        version, header_len = struct.unpack("<IQ", head[4:])
        if version != CONTAINER_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        left = os.fstat(fh.fileno()).st_size - 16
        if header_len > left:
            raise ValueError(f"{path}: truncated checkpoint: header of {header_len} bytes, "
                             f"{left} left")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        _check_header(path, header)

        try:
            config = NetworkConfig.from_json(header["config"])
        except ValueError as e:
            raise ValueError(f"{path}: corrupt checkpoint header: {e}") from e
        alphabet = Alphabet(header["alphabet"])
        expected = {name: shape for name, shape, _ in Network(config).param_specs()}
        names = header["params"]
        if set(names) != set(expected):
            raise ShapeError(f"{path}: parameter names do not match the config: "
                             f"{sorted(set(names) ^ set(expected))}")
        params = {}
        for name in names:
            t = read_tensor(fh)
            if t.shape != expected[name]:
                raise ShapeError(f"{path}: parameter {name} has shape {t.shape}, "
                                 f"config expects {expected[name]}")
            params[name] = t

        optimizer = None
        opt_doc = header.get("optimizer")
        if opt_doc is not None:
            optimizer = OptimizerState(
                kind=opt_doc["kind"], lr=opt_doc["lr"], beta1=opt_doc["beta1"],
                beta2=opt_doc["beta2"], eps=opt_doc["eps"], l2=opt_doc["l2"],
                t=opt_doc["t"], kinds=dict(opt_doc["kinds"]))
            if opt_doc.get("has_moments"):
                for name in names:
                    optimizer.m[name] = read_tensor(fh)
                for name in names:
                    optimizer.v[name] = read_tensor(fh)

        stats = None
        if header.get("has_stats"):
            stats = NormalizationStats(read_tensor(fh), read_tensor(fh))

    return Checkpoint(config, alphabet, params, optimizer, stats, header.get("meta", {}))
