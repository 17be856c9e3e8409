import weakref

import numpy as np
import pytest

from convctc.ctc import Alphabet
from convctc.data import Utterance
from convctc.evaluate import EditCounts, evaluate, levenshtein, load_mapping
from convctc.network import ConvSpec, DenseSpec, Network, NetworkConfig
from convctc.optim import init_uniform


class TestLevenshtein:
    def test_equal_sequences(self):
        c = levenshtein(["a", "b", "c"], ["a", "b", "c"])
        assert (c.distance, c.substitutions, c.insertions, c.deletions) == (0, 0, 0, 0)

    def test_single_substitution(self):
        c = levenshtein(["a", "b", "c"], ["a", "b", "d"])
        assert (c.distance, c.substitutions) == (1, 1)

    def test_insertion_and_deletion(self):
        assert levenshtein(["a"], ["a", "b"]).insertions == 1
        assert levenshtein(["a", "b"], ["a"]).deletions == 1

    def test_empty_cases(self):
        assert levenshtein([], []).distance == 0
        assert levenshtein(["a", "b"], []).distance == 2
        assert levenshtein([], ["x"]).distance == 1

    def test_counts_sum_to_distance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ref = list(rng.integers(0, 4, size=rng.integers(0, 10)))
            hyp = list(rng.integers(0, 4, size=rng.integers(0, 10)))
            c = levenshtein(ref, hyp)
            assert c.distance == c.substitutions + c.insertions + c.deletions

    def test_matches_bruteforce_on_short_sequences(self):
        # recursive definition as an oracle
        import functools

        @functools.cache
        def brute(ref, hyp):
            if not ref:
                return len(hyp)
            if not hyp:
                return len(ref)
            return min(brute(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
                       brute(ref[1:], hyp) + 1,
                       brute(ref, hyp[1:]) + 1)

        rng = np.random.default_rng(1)
        for _ in range(60):
            ref = tuple(rng.integers(0, 3, size=rng.integers(0, 6)))
            hyp = tuple(rng.integers(0, 3, size=rng.integers(0, 6)))
            assert levenshtein(ref, hyp).distance == brute(ref, hyp)

    def test_matches_edit_counts_reference(self):
        rng = np.random.default_rng(2)
        pairs = [([], []), ([], ["a"]), (["a", "b"], [])]
        for _ in range(500):
            ref = [f"s{v}" for v in rng.integers(0, 4, size=rng.integers(0, 12))]
            hyp = [f"s{v}" for v in rng.integers(0, 4, size=rng.integers(0, 12))]
            pairs.append((ref, hyp))
        for ref, hyp in pairs:
            assert levenshtein(ref, hyp) == reference_levenshtein(ref, hyp), (ref, hyp)


def reference_levenshtein(ref, hyp):
    """The EditCounts-per-cell DP that levenshtein replaced, kept as its reference."""
    ref = list(ref)
    hyp = list(hyp)
    prev = [EditCounts(j, 0, j, 0) for j in range(len(hyp) + 1)]
    for i in range(1, len(ref) + 1):
        row = [EditCounts(i, 0, 0, i)]
        for j in range(1, len(hyp) + 1):
            if ref[i - 1] == hyp[j - 1]:
                best = prev[j - 1]
            else:
                best = EditCounts(prev[j - 1].distance + 1, prev[j - 1].substitutions + 1,
                                  prev[j - 1].insertions, prev[j - 1].deletions)
            if prev[j].distance + 1 < best.distance:
                best = EditCounts(prev[j].distance + 1, prev[j].substitutions,
                                  prev[j].insertions, prev[j].deletions + 1)
            if row[j - 1].distance + 1 < best.distance:
                best = EditCounts(row[j - 1].distance + 1, row[j - 1].substitutions,
                                  row[j - 1].insertions + 1, row[j - 1].deletions)
            row.append(best)
        prev = row
    return prev[-1]


class TestMapping:
    def test_merging_symbols_zeroes_distance(self, tmp_path):
        alphabet = Alphabet(["<blank>", "a", "b", "c"])
        path = tmp_path / "fold.map"
        path.write_text("b merged\nc merged\n")
        mapping = load_mapping(path, alphabet)
        ref = [mapping.get(s, s) for s in ["a", "b"]]
        hyp = [mapping.get(s, s) for s in ["a", "c"]]
        assert levenshtein(ref, hyp).distance == 0

    def test_unknown_symbol_rejected(self, tmp_path):
        path = tmp_path / "fold.map"
        path.write_text("zz a\n")
        with pytest.raises(ValueError, match="'zz'"):
            load_mapping(path, Alphabet(["<blank>", "a"]))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "fold.map"
        path.write_text("# fold\n\na a2\n")
        assert load_mapping(path, Alphabet(["<blank>", "a"])) == {"a": "a2"}


def bias_dominant_net(alphabet_size, bias_symbol):
    """A net whose output is decided purely by the output bias."""
    net = Network(NetworkConfig(1, 2, alphabet_size, [DenseSpec(3, activation="linear")]))
    params = {name: np.zeros(shape) for name, shape, _ in net.param_specs()}
    params["output.b"][bias_symbol] = 5.0
    return net, params


class TestEvaluate:
    def test_perfect_decode_zero_rate(self):
        alphabet = Alphabet(["<blank>", "a", "b"])
        net, params = bias_dominant_net(3, 1)
        items = [Utterance("u0", np.ones((1, 2, 4)), [1])]
        report = evaluate(net, params, items, alphabet)
        assert report.label_error_rate == 0.0
        assert report.decodes["u0"] == ["a"]

    def test_rate_is_distance_over_reference_length(self):
        alphabet = Alphabet(["<blank>", "a", "b"])
        net, params = bias_dominant_net(3, 1)             # always decodes (a)
        items = [Utterance("u0", np.ones((1, 2, 4)), [1, 2, 2])]
        report = evaluate(net, params, items, alphabet)
        assert report.counts.distance == 2
        assert report.total_ref_len == 3
        assert report.label_error_rate == pytest.approx(2 / 3)

    def test_mapping_applied_to_both_sides(self, tmp_path):
        alphabet = Alphabet(["<blank>", "a", "b"])
        net, params = bias_dominant_net(3, 1)
        path = tmp_path / "fold.map"
        path.write_text("a x\nb x\n")
        mapping = load_mapping(path, alphabet)
        items = [Utterance("u0", np.ones((1, 2, 4)), [2])]
        report = evaluate(net, params, items, alphabet, mapping)
        assert report.label_error_rate == 0.0

    def test_tapes_are_released_before_the_next_forward(self, monkeypatch):
        rng = np.random.default_rng(3)
        net = Network(NetworkConfig(3, 5, 3, [ConvSpec(2, 3, 3)]))
        params = init_uniform(net.param_specs(), rng)
        items = [Utterance(f"u{i}", rng.standard_normal((3, 5, 6)).astype(np.float32), [1])
                 for i in range(3)]
        real_forward = Network.forward
        previous = []            # a weakref to the last call's padded conv input
        alive_at_start = []

        def forward(self, *args, **kwargs):
            alive_at_start.extend(ref() is not None for ref in previous)
            out = real_forward(self, *args, **kwargs)
            previous[:] = [weakref.ref(out[1][0][0].padded)]
            return out

        monkeypatch.setattr(Network, "forward", forward)
        evaluate(net, params, items, Alphabet(["<blank>", "a", "b"]))
        assert alive_at_start == [False, False]

    def test_report_json_fields(self):
        alphabet = Alphabet(["<blank>", "a"])
        net, params = bias_dominant_net(2, 1)
        report = evaluate(net, params, [Utterance("u", np.ones((1, 2, 3)), [1])], alphabet)
        doc = report.to_json()
        assert set(doc) >= {"label_error_rate", "total_edit_distance",
                            "substitutions", "insertions", "deletions", "utterances"}

    def test_relabeling_bijection_leaves_rate_invariant(self):
        # permuting symbols consistently across alphabet, references, and the
        # output layer must not change any score
        rng = np.random.default_rng(2)
        config = NetworkConfig(2, 5, 4, [DenseSpec(6)])
        net = Network(config)
        params = init_uniform(net.param_specs(), rng, dtype=np.float64)
        alphabet = Alphabet(["<blank>", "p", "q", "r"])
        items = [Utterance(f"u{i}", rng.standard_normal((2, 5, int(rng.integers(4, 9)))),
                           list(rng.integers(1, 4, size=rng.integers(1, 4))))
                 for i in range(6)]
        base = evaluate(net, params, items, alphabet)

        perm = [0, 3, 1, 2]                    # new index -> old index
        inv = {old: new for new, old in enumerate(perm)}
        alphabet2 = Alphabet([alphabet.symbols[old] for old in perm])
        params2 = {k: v.copy() for k, v in params.items()}
        params2["output.w"] = params["output.w"][perm]
        params2["output.b"] = params["output.b"][perm]
        items2 = [Utterance(u.uid, u.features, [inv[z] for z in u.target]) for u in items]
        permuted = evaluate(net, params2, items2, alphabet2)

        assert permuted.label_error_rate == base.label_error_rate
        assert permuted.counts == base.counts
        assert permuted.decodes == base.decodes
