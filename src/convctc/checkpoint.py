"""Versioned checkpoint bundles.

One file carries everything needed to resume or evaluate a run: the network
config, alphabet, every parameter tensor (in the network's stable name
order), optimizer state including Adam moments, normalization statistics,
and training metadata (epoch, best dev metric, rng state).

Layout: magic "CCKP" | container version u32 | header length u64 | header
JSON (canonical: sorted keys, no whitespace) | tensor records in the order
the header lists them.  The canonical header and fixed tensor order make
save -> load -> save byte-identical.  Saves are atomic, and a truncated
file, or a header with an entry missing or malformed, fails to load with
ValueError naming the file.
"""

import json
import os
import struct
from dataclasses import dataclass, field, fields

from .ctc import Alphabet
from .features import NormalizationStats, read_stats, write_stats
from .network import Network, NetworkConfig, _from_json
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


@dataclass
class _Header:
    """The JSON header; absent meta, has_stats and optimizer take these defaults."""
    config: dict
    alphabet: list
    params: list
    meta: dict = field(default_factory=dict)
    has_stats: bool = False
    optimizer: dict | None = None


def save_checkpoint(path, ckpt):
    """Write atomically (see tensor.atomic_write): a crash mid-save leaves
    the previous file whole."""
    names = list(ckpt.params.keys())
    opt = ckpt.optimizer
    header = {
        "config": ckpt.config.to_json(),
        "alphabet": ckpt.alphabet.symbols,
        "params": names,
        "meta": ckpt.meta or {},
        "has_stats": ckpt.stats is not None,
        "optimizer": None if opt is None else {
            **{f.name: getattr(opt, f.name) for f in fields(opt) if f.name not in ("m", "v")},
            "has_moments": bool(opt.m)},
    }

    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", CONTAINER_VERSION, len(blob)))
        fh.write(blob)
        for name in names:
            write_tensor(fh, ckpt.params[name])
        if opt is not None and opt.m:
            for name in names:
                write_tensor(fh, opt.m[name])
            for name in names:
                write_tensor(fh, opt.v[name])
        if ckpt.stats is not None:
            write_stats(fh, ckpt.stats)


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
        try:
            header = _from_json(_Header, json.loads(fh.read(header_len).decode("utf-8")),
                                "the header")
            for key in ("alphabet", "params"):
                listed = getattr(header, key)
                if not all(isinstance(n, str) for n in listed) or len(set(listed)) != len(listed):
                    raise ValueError(f"{key!r} must list unique strings")
            config = NetworkConfig.from_json(header.config)
            alphabet = Alphabet(header.alphabet)
            optimizer = None
            if header.optimizer is not None:
                optimizer = _from_json(OptimizerState, header.optimizer, "'optimizer'")
                if optimizer.kind not in OPTIMIZER_KINDS:
                    raise ValueError(f"unknown optimizer kind {optimizer.kind!r}")
        except ValueError as e:
            raise ValueError(f"{path}: corrupt checkpoint header: {e}") from e

        expected = {name: shape for name, shape, _ in Network(config).param_specs()}
        names = header.params
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
        if optimizer is not None and header.optimizer.get("has_moments"):
            for name in names:
                optimizer.m[name] = read_tensor(fh)
            for name in names:
                optimizer.v[name] = read_tensor(fh)
        stats = read_stats(fh, path) if header.has_stats else None

    return Checkpoint(config, alphabet, params, optimizer, stats, header.meta)
