from pathlib import Path

import numpy as np
import pytest

from convctc.ctc import Alphabet, min_feasible_length
from convctc.data import (TaskSpec, Utterance, generate_synthetic,
                          load_dataset, load_manifest, make_batches,
                          synthetic_alphabet, write_manifest)
from convctc.features import fit_normalization
from convctc.tensor import load_tensor, save_tensor


@pytest.fixture
def alphabet():
    return Alphabet(["<blank>", "s1", "s2", "s3"])


@pytest.fixture
def tiny_corpus(tmp_path, alphabet):
    rng = np.random.default_rng(0)
    lines = []
    for i in range(5):
        uid = f"utt-{i}"
        save_tensor(tmp_path / f"{uid}.tnsr", rng.standard_normal((4, 10 + i)).astype(np.float32))
        labels = ["s1", "s2"] if i % 2 else ["s3"]
        lines.append(f"{uid}\t{uid}.tnsr\t{' '.join(labels)}")
    path = tmp_path / "train.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestManifest:
    def test_roundtrip(self, tmp_path, tiny_corpus, alphabet):
        manifest = load_manifest(tiny_corpus, alphabet)
        out = tmp_path / "copy.tsv"
        write_manifest(out, manifest)
        again = load_manifest(out, alphabet)
        assert [(e.uid, e.path, e.labels) for e in again.entries] == \
               [(e.uid, e.path, e.labels) for e in manifest.entries]

    def test_empty_manifest_is_valid(self, tmp_path, alphabet):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        assert len(load_manifest(path, alphabet)) == 0

    def test_unknown_symbol_names_utterance_and_symbol(self, tmp_path, alphabet):
        save_tensor(tmp_path / "u.tnsr", np.ones((4, 5)))
        path = tmp_path / "bad.tsv"
        path.write_text("utt-x\tu.tnsr\ts1 zz\n")
        with pytest.raises(ValueError, match=r"utt-x.*'zz'"):
            load_manifest(path, alphabet)

    def test_missing_feature_file_names_path(self, tmp_path, alphabet):
        path = tmp_path / "bad.tsv"
        path.write_text("utt-x\tnowhere.tnsr\ts1\n")
        with pytest.raises(FileNotFoundError, match="nowhere.tnsr"):
            load_manifest(path, alphabet)

    def test_duplicate_id_rejected(self, tmp_path, alphabet):
        save_tensor(tmp_path / "u.tnsr", np.ones((4, 5)))
        path = tmp_path / "dup.tsv"
        path.write_text("utt-x\tu.tnsr\ts1\nutt-x\tu.tnsr\ts2\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(path, alphabet)


def fake_items(rng, n, bands=4):
    items = []
    for i in range(n):
        f = int(rng.integers(5, 15))
        items.append(Utterance(f"u{i}", rng.standard_normal((3, bands, f)).astype(np.float32),
                               [1, 2]))
    return items


class TestBatches:
    def test_sizes_with_short_final_batch(self):
        rng = np.random.default_rng(1)
        batches = make_batches(fake_items(rng, 45), 20)
        assert [len(b.ids) for b in batches] == [20, 20, 5]

    def test_same_seed_same_composition(self):
        rng = np.random.default_rng(2)
        items = fake_items(rng, 13)
        a = make_batches(items, 4, np.random.default_rng(5), shuffle=True)
        b = make_batches(items, 4, np.random.default_rng(5), shuffle=True)
        assert [x.ids for x in a] == [x.ids for x in b]

    def test_epoch_covers_every_item_exactly_once(self):
        rng = np.random.default_rng(3)
        items = fake_items(rng, 23)
        batches = make_batches(items, 7, np.random.default_rng(0), shuffle=True)
        seen = [uid for b in batches for uid in b.ids]
        assert sorted(seen) == sorted(u.uid for u in items)

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_batches_hold_the_input_utterances_in_order(self, shuffle):
        # utterance i has 5 + i frames; batches keep the objects, not copies
        items = [Utterance(f"u{i}", np.zeros((3, 4, 5 + i), np.float32), [1])
                 for i in range(11)]
        batches = make_batches(items, 4, np.random.default_rng(6), shuffle=shuffle)
        order = list(np.random.default_rng(6).permutation(11)) if shuffle else list(range(11))
        assert (order != list(range(11))) == shuffle
        assert [len(b.utterances) for b in batches] == [4, 4, 3]
        held = [u for b in batches for u in b.utterances]
        assert all(u is items[i] for u, i in zip(held, order, strict=True))
        assert [uid for b in batches for uid in b.ids] == [f"u{i}" for i in order]
        assert [n for b in batches for n in b.lengths] == [5 + i for i in order]

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            make_batches([], 0)


class TestSyntheticTask:
    def test_same_seed_byte_identical_files(self, tmp_path):
        spec = TaskSpec(symbols=3, bands=8, min_frames=15, max_frames=30,
                        counts={"train": 6, "dev": 2, "test": 2}, seed=11)
        a = generate_synthetic(spec, tmp_path / "a")
        b = generate_synthetic(spec, tmp_path / "b")
        for split in ("train", "dev", "test"):
            assert Path(a[split]).read_text() == Path(b[split]).read_text()
        fa = sorted((tmp_path / "a" / "features").iterdir())
        fb = sorted((tmp_path / "b" / "features").iterdir())
        assert [p.name for p in fa] == [p.name for p in fb]
        for pa, pb in zip(fa, fb):
            assert pa.read_bytes() == pb.read_bytes()

    def test_every_utterance_is_ctc_feasible(self, tmp_path):
        for seed in (0, 1, 2):
            spec = TaskSpec(symbols=4, bands=6, min_frames=12, max_frames=40,
                            counts={"train": 25, "dev": 0, "test": 0}, seed=seed)
            paths = generate_synthetic(spec, tmp_path / f"s{seed}")
            alphabet = Alphabet.from_file(paths["alphabet"])
            manifest = load_manifest(paths["train"], alphabet)
            for e in manifest.entries:
                frames = load_tensor(e.resolved).shape[1]
                assert frames >= min_feasible_length(e.label_ids)
                assert spec.min_frames <= frames <= spec.max_frames

    def test_noiseless_task_is_template_decodable(self, tmp_path):
        # nearest-template matching per frame recovers every target exactly,
        # so a label error rate of 0 is achievable by construction
        spec = TaskSpec(symbols=1, bands=10, min_frames=20, max_frames=50,
                        noise_std=0.0, counts={"train": 30, "dev": 0, "test": 0}, seed=3)
        paths = generate_synthetic(spec, tmp_path / "clean")
        alphabet = Alphabet.from_file(paths["alphabet"])
        manifest = load_manifest(paths["train"], alphabet)
        templates = np.random.default_rng(spec.seed).normal(0.0, 1.0, (spec.symbols, spec.bands))
        for e in manifest.entries:
            static = load_tensor(e.resolved)
            decoded = []
            for t in range(static.shape[1]):
                col = static[:, t]
                if not col.any():
                    decoded.append(0)
                else:
                    decoded.append(1 + int(np.argmin(
                        ((templates - col[None]) ** 2).sum(axis=1))))
            merged = [s for i, s in enumerate(decoded)
                      if s != 0 and (i == 0 or decoded[i - 1] != s)]
            assert merged == e.label_ids

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            TaskSpec(symbols=0).validate()
        with pytest.raises(ValueError):
            TaskSpec(symbols=2, min_frames=5).validate()
        with pytest.raises(ValueError):
            TaskSpec(symbols=2, noise_std=-1.0).validate()

    def test_task_json_roundtrip(self, tmp_path):
        spec = TaskSpec(symbols=5, seed=9)
        assert TaskSpec.from_json(spec.to_json()) == spec

    def test_task_fields_are_coerced_defaulted_and_extra_keys_ignored(self):
        spec = TaskSpec.from_json({"symbols": "3", "noise_std": 0, "counts": {"train": "4"},
                                   "seed": 2.0, "note": "extra"})
        assert spec == TaskSpec(symbols=3, noise_std=0.0, counts={"train": 4}, seed=2)
        assert type(spec.noise_std) is float and type(spec.counts["train"]) is int
        assert TaskSpec.from_json({"symbols": 5}) == TaskSpec(symbols=5)

    @pytest.mark.parametrize("doc, problem", [
        ({}, "missing field 'symbols'"),
        ([5], "task is list"),
        ({"symbols": None}, "field 'symbols'"),
        ({"symbols": 5, "counts": [1]}, "field 'counts' is list, expected dict"),
        ({"symbols": 5, "counts": {"train": None}}, "field 'counts'"),
        ({"symbols": 5, "noise_std": "loud"}, "field 'noise_std'"),
    ], ids=["empty", "list", "symbols-null", "counts-list", "count-null", "noise-str"])
    def test_malformed_task_raises_value_error(self, doc, problem):
        with pytest.raises(ValueError) as err:
            TaskSpec.from_json(doc)
        assert problem in str(err.value)

    def test_load_dataset_assembles_channels(self, tmp_path):
        spec = TaskSpec(symbols=2, bands=7, min_frames=12, max_frames=20,
                        counts={"train": 4, "dev": 0, "test": 0}, seed=5)
        paths = generate_synthetic(spec, tmp_path)
        manifest = load_manifest(paths["train"], synthetic_alphabet(spec))
        stats = fit_normalization(load_tensor(e.resolved) for e in manifest.entries)
        items = load_dataset(manifest, stats)
        assert all(u.features.shape[:2] == (3, 7) for u in items)
        assert all(u.features.dtype == np.float32 for u in items)
