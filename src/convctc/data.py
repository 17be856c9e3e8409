"""Dataset manifests, batching, and the synthetic sequence task.

A manifest is UTF-8 text, one utterance per line:

    <id>\\t<feature-file path>\\t<space-separated label symbols>

Feature paths are resolved relative to the manifest's directory.  Feature
files are rank-2 tensors [bands x frames] in the binary tensor container.

The synthetic task stands in for a licensed speech corpus at desk scale:
each symbol is a fixed random band-pattern template held for 3-10 frames,
separated by short silences (mandatory between repeated symbols, so every
utterance is decodable even without noise), plus optional Gaussian noise.
"""

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .ctc import Alphabet, min_feasible_length
from .features import assemble_input
from .network import _from_json
from .tensor import load_tensor, save_tensor


@dataclass
class ManifestEntry:
    uid: str
    path: str            # as written in the manifest
    resolved: str        # absolute-ish path used for loading
    labels: list         # symbol strings
    label_ids: list      # alphabet indices


@dataclass
class Manifest:
    entries: list
    split: str = "train"

    def __len__(self):
        return len(self.entries)


def load_manifest(path, alphabet, split="train"):
    """Parse and fully validate a manifest: unique ids, known symbols,
    existing feature files."""
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
            uid, feat_path, label_text = parts
            if uid in seen:
                raise ValueError(f"{path}:{lineno}: duplicate utterance id {uid!r}")
            seen.add(uid)
            labels = label_text.split()
            try:
                ids = alphabet.encode(labels)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: utterance {uid!r}: {e}") from e
            resolved = feat_path if os.path.isabs(feat_path) else os.path.join(base, feat_path)
            if not os.path.exists(resolved):
                raise FileNotFoundError(f"{path}:{lineno}: utterance {uid!r}: "
                                        f"feature file not found: {resolved}")
            entries.append(ManifestEntry(uid, feat_path, resolved, labels, ids))
    return Manifest(entries, split)


def write_manifest(path, manifest):
    with open(path, "w", encoding="utf-8") as fh:
        for e in manifest.entries:
            fh.write(f"{e.uid}\t{e.path}\t{' '.join(e.labels)}\n")


def iter_static(manifest):
    """Yield each utterance's static feature matrix in manifest order."""
    for e in manifest.entries:
        yield load_tensor(e.resolved)


@dataclass
class Utterance:
    uid: str
    features: np.ndarray     # assembled [3 x bands x frames]
    target: list             # label ids


def load_dataset(manifest, stats, dtype=np.float32):
    """Load and assemble every utterance up front; datasets here are small."""
    return [Utterance(e.uid, assemble_input(load_tensor(e.resolved), stats, dtype=dtype), e.label_ids)
            for e in manifest.entries]


@dataclass
class Batch:
    utterances: list         # the Utterance objects themselves, in batch order

    @property
    def ids(self):
        return [u.uid for u in self.utterances]

    @property
    def lengths(self):               # frame counts
        return [u.features.shape[2] for u in self.utterances]


def make_batches(items, batch_size, rng=None, shuffle=False):
    """Group utterances into batches; the final short batch is kept.

    Shuffling permutes the item order with the supplied generator, so batch
    composition is reproducible from the seed.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = rng.permutation(len(items)) if shuffle else range(len(items))
    return [Batch([items[i] for i in order[start:start + batch_size]])
            for start in range(0, len(items), batch_size)]


# ---------------------------------------------------------------------------
# synthetic task
# ---------------------------------------------------------------------------

@dataclass
class TaskSpec:
    symbols: int
    bands: int = 41
    min_frames: int = 30
    max_frames: int = 80
    noise_std: float = 0.1
    counts: dict = field(default_factory=lambda: {"train": 500, "dev": 50, "test": 50})
    seed: int = 0

    def validate(self):
        if self.symbols < 1:
            raise ValueError("task needs at least 1 symbol")
        if self.bands < 1:
            raise ValueError("task needs at least 1 band")
        if self.min_frames < 12:
            raise ValueError("min_frames must be >= 12 (room for one symbol plus silences)")
        if self.max_frames < self.min_frames:
            raise ValueError("max_frames must be >= min_frames")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, doc):
        spec = _from_json(cls, doc, "task")
        try:
            spec.counts = {split: int(n) for split, n in spec.counts.items()}
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"task field 'counts': {e}") from e
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _render_utterance(spec, templates, rng):
    """One utterance: (static [bands x frames], label id sequence)."""
    target_len = int(rng.integers(spec.min_frames, spec.max_frames + 1))
    blocks = []                       # (symbol id or 0 for silence, duration)
    labels = []
    total = int(rng.integers(0, 3))   # leading silence
    if total:
        blocks.append((0, total))
    prev = None
    while True:
        sym = int(rng.integers(1, spec.symbols + 1))
        dur = int(rng.integers(3, 11))
        # silence separates symbols; mandatory between repeats, else optional
        gap = int(rng.integers(2, 5)) if sym == prev else int(rng.integers(0, 3))
        need = dur + (gap if prev is not None else 0)
        if labels and total + need > target_len:
            break
        if prev is not None and gap:
            blocks.append((0, gap))
        blocks.append((sym, dur))
        labels.append(sym)
        total += need if prev is not None else dur
        prev = sym
    static = np.zeros((spec.bands, target_len))
    t = 0
    for sym, dur in blocks:
        if sym:
            static[:, t:t + dur] = templates[sym - 1][:, None]
        t += dur
    if spec.noise_std > 0:
        static += rng.normal(0.0, spec.noise_std, static.shape)
    assert target_len >= min_feasible_length(labels)
    return static.astype(np.float32), labels


def synthetic_alphabet(spec):
    return Alphabet(["<blank>"] + [f"s{i}" for i in range(1, spec.symbols + 1)])


def generate_synthetic(spec, out_dir):
    """Write feature files, per-split manifests, and the alphabet under
    out_dir; fully determined by spec.seed.  Returns the written paths."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    alphabet = synthetic_alphabet(spec)
    templates = rng.normal(0.0, 1.0, (spec.symbols, spec.bands))

    feat_dir = os.path.join(out_dir, "features")
    os.makedirs(feat_dir, exist_ok=True)
    paths = {"alphabet": os.path.join(out_dir, "alphabet.txt")}
    alphabet.to_file(paths["alphabet"])
    with open(os.path.join(out_dir, "task.json"), "w", encoding="utf-8") as fh:
        json.dump(spec.to_json(), fh, indent=2)
        fh.write("\n")

    for split in ("train", "dev", "test"):
        lines = []
        for i in range(spec.counts.get(split, 0)):
            uid = f"{split}-{i:04d}"
            static, labels = _render_utterance(spec, templates, rng)
            rel = os.path.join("features", f"{uid}.tnsr")
            save_tensor(os.path.join(out_dir, rel), static)
            lines.append(f"{uid}\t{rel}\t{' '.join(alphabet.symbols[s] for s in labels)}")
        manifest_path = os.path.join(out_dir, f"{split}.tsv")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        paths[split] = manifest_path
    return paths
