import sys
import threading

import numpy as np
import pytest

from convctc import layers
from convctc.ctc import Alphabet
from convctc.data import Utterance
from convctc.evaluate import EditCounts, evaluate, levenshtein, load_mapping
from convctc.network import ConvSpec, DenseSpec, Network, NetworkConfig
from convctc.optim import init_uniform
from test_train import within


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

    def test_evaluate_never_calls_network_forward(self, monkeypatch):
        # Network.forward keeps tapes; evaluate decodes through Network.infer
        net, params = conv_net()

        def forward(*args, **kwargs):
            raise AssertionError("evaluate called Network.forward")

        monkeypatch.setattr(Network, "forward", forward)
        for on in (False, True):
            monkeypatch.setattr(layers, "_halves_run_together", lambda: on)
            report = evaluate(net, params, unsorted_items(), ALPHABET)
            assert len(report.per_utterance) == len(FRAMES)

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


ALPHABET = Alphabet(["<blank>", "a", "b"])
FRAMES = [9, 4, 15, 6, 12, 5, 8]        # not sorted: the longest and shortest are inside


def conv_net():
    net = Network(NetworkConfig(3, 5, 3, [ConvSpec(2, 3, 3), DenseSpec(4)]))
    return net, init_uniform(net.param_specs(), np.random.default_rng(3))


def unsorted_items():
    rng = np.random.default_rng(4)
    return [Utterance(f"u{i}", rng.standard_normal((3, 5, f)).astype(np.float32),
                      list(rng.integers(1, 3, size=2)))
            for i, f in enumerate(FRAMES)]


@pytest.fixture
def eval_threads(monkeypatch):
    """eval_threads(on) lets evaluate run on two threads (on=True) or not,
    whatever the cores and BLAS threads.  It returns the (thread name,
    frames) of every Network.infer call, in call order."""
    calls = []
    real = Network.infer

    def recording(self, x, params):
        calls.append((threading.current_thread().name, x.shape[-1]))
        return real(self, x, params)

    monkeypatch.setattr(Network, "infer", recording)

    def force(on):
        monkeypatch.setattr(layers, "_halves_run_together", lambda: on)
        calls.clear()
        return calls

    return force


class TestEvaluateThreads:
    def test_two_threads_give_the_serial_report(self, eval_threads):
        net, params = conv_net()
        items = unsorted_items()
        reports = {}
        for on in (False, True):
            calls = eval_threads(on)
            reports[on] = within(30, lambda: evaluate(net, params, items, ALPHABET))["result"]
            threads = {name for name, _ in calls}
            assert ("convctc-items" in threads) is on
            assert sorted(f for _, f in calls) == sorted(FRAMES)
        assert reports[True].to_json() == reports[False].to_json()
        assert reports[True].decodes == reports[False].decodes
        assert [u["id"] for u in reports[True].per_utterance] == [u.uid for u in items]

    def test_the_caller_takes_the_longest_and_the_worker_the_shortest(self, eval_threads,
                                                                       monkeypatch):
        net, params = conv_net()
        calls = eval_threads(True)
        # each thread's first utterance waits for the other's, so both take one
        both_started = threading.Barrier(2, timeout=10)
        recording = Network.infer

        def infer(self, x, params):
            if threading.current_thread().name not in {name for name, _ in calls}:
                both_started.wait()
            return recording(self, x, params)

        monkeypatch.setattr(Network, "infer", infer)
        within(30, lambda: evaluate(net, params, unsorted_items(), ALPHABET))
        caller = [f for name, f in calls if name != "convctc-items"]
        worker = [f for name, f in calls if name == "convctc-items"]
        assert caller[0] == max(FRAMES) and caller == sorted(caller, reverse=True)
        assert worker[0] == min(FRAMES) and worker == sorted(worker)
        assert sorted(caller + worker) == sorted(FRAMES)

    def test_one_utterance_runs_here(self, eval_threads):
        net, params = conv_net()
        calls = eval_threads(True)
        evaluate(net, params, unsorted_items()[:1], ALPHABET)
        assert [name for name, _ in calls] == [threading.current_thread().name]

    @pytest.mark.parametrize("on", [False, True])
    @pytest.mark.parametrize("bad", [{1}, {2}, {1, 2}, {0, 1, 2, 6}],
                             ids=["shortest", "longest", "both", "many"])
    def test_the_first_failing_utterance_in_dataset_order_is_raised(self, eval_threads,
                                                                    monkeypatch, on, bad):
        # dataset index 1 is the shortest utterance and 2 the longest, so
        # with two threads the worker meets one and the caller the other
        net, params = conv_net()
        failing = {FRAMES[i] for i in bad}
        calls = eval_threads(on)
        recording = Network.infer

        def infer(self, x, params):
            out = recording(self, x, params)
            if x.shape[-1] in failing:
                raise RuntimeError(f"failed at {x.shape[-1]} frames")
            return out

        monkeypatch.setattr(Network, "infer", infer)
        outcome = within(30, lambda: evaluate(net, params, unsorted_items(), ALPHABET))
        assert str(outcome.get("error")) == f"failed at {FRAMES[min(bad)]} frames"
        assert ("convctc-items" in {name for name, _ in calls}) is on
        if not on:
            # longest first, and after a failure only utterances before it in dataset order
            expected, first = [], len(FRAMES)
            for i in sorted(range(len(FRAMES)), key=FRAMES.__getitem__, reverse=True):
                if i < first:
                    expected.append(FRAMES[i])
                    first = min(first, i) if i in bad else first
            assert [f for _, f in calls] == expected

    def test_concurrent_evaluations_decode_each_utterance_once(self, eval_threads):
        # three evaluations at once: six threads taking from three queues
        net, params = conv_net()
        rng = np.random.default_rng(5)
        items = [Utterance(f"u{i}", rng.standard_normal((3, 5, int(f))).astype(np.float32), [1])
                 for i, f in enumerate(rng.integers(3, 30, size=40))]
        eval_threads(False)
        serial = evaluate(net, params, items, ALPHABET).to_json()
        calls = eval_threads(True)
        reports, threads = {}, []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for k in range(3):
                def work(k=k):
                    reports[k] = evaluate(net, params, items, ALPHABET).to_json()
                threads.append(threading.Thread(target=work))
                threads[-1].start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert reports == {k: serial for k in range(3)}
        assert sorted(f for _, f in calls) == sorted(3 * [u.features.shape[-1] for u in items])

    def test_no_gemm_splits_inside_the_threads(self, eval_threads, force_split, monkeypatch):
        monkeypatch.setattr(layers, "SPLIT_MIN_MULADDS", 0)
        net, params = conv_net()
        items = unsorted_items()
        dispatches = force_split(True)
        calls = eval_threads(True)
        within(30, lambda: evaluate(net, params, items, ALPHABET))
        assert "convctc-items" in {name for name, _ in calls}
        assert dispatches == []
        net.infer(items[0].features, params)       # outside evaluate the same GEMMs split
        assert dispatches
