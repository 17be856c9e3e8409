import numpy as np
import pytest

from convctc.ctc import (Alphabet, augment_target, best_path_decode, collapse,
                         ctc_grad, ctc_loss, enumerate_oracle, min_feasible_length)
from convctc.layers import log_softmax_frames
from convctc.tensor import logsumexp
from convctc.verify import central_diff, random_ctc_instance, rel_error

A_, B_, C_ = 1, 2, 3       # readable symbol ids; 0 is the blank
BLANK = 0


def uniform_log_probs(alphabet_size, frames):
    return np.full((alphabet_size, frames), -np.log(alphabet_size))


def reference_lattice(log_probs, target):
    """The column-at-a-time alpha and beta loops that ctc_loss replaced, kept
    as the reference for its row-at-a-time loops: (alpha, beta, log-likelihood)."""
    aug = augment_target(target)
    S, T = len(aug), log_probs.shape[1]
    can_skip = np.zeros(S, dtype=bool)
    if S >= 4:
        can_skip[3::2] = aug[3::2] != aug[1:-2:2]
    emit = log_probs[aug, :]
    neg = -np.inf
    alpha = np.full((S, T), neg)
    alpha[0, 0] = emit[0, 0]
    if S > 1:
        alpha[1, 0] = emit[1, 0]
    for t in range(1, T):
        prev = alpha[:, t - 1]
        acc = prev.copy()
        acc[1:] = np.logaddexp(acc[1:], prev[:-1])
        acc[2:] = np.logaddexp(acc[2:], np.where(can_skip[2:], prev[:-2], neg))
        alpha[:, t] = acc + emit[:, t]
    if S > 1:
        log_likelihood = float(np.logaddexp(alpha[-1, -1], alpha[-2, -1]))
    else:
        log_likelihood = float(alpha[0, -1])
    beta = np.full((S, T), neg)
    beta[-1, -1] = 0.0
    if S > 1:
        beta[-2, -1] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = beta[:, t + 1] + emit[:, t + 1]
        acc = nxt.copy()
        acc[:-1] = np.logaddexp(acc[:-1], nxt[1:])
        acc[:-2] = np.logaddexp(acc[:-2], np.where(can_skip[2:], nxt[2:], neg))
        beta[:, t] = acc
    return alpha, beta, log_likelihood


class TestCollapse:
    # all five worked sigma examples collapse to (a, b, c)
    @pytest.mark.parametrize("path", [
        (A_, B_, C_, BLANK, BLANK),
        (A_, B_, BLANK, C_, C_),
        (A_, A_, B_, B_, C_),
        (BLANK, A_, BLANK, B_, C_),
        (BLANK, BLANK, A_, B_, C_),
    ])
    def test_sigma_examples(self, path):
        assert collapse(path, 4) == (A_, B_, C_)

    def test_all_blank(self):
        assert collapse((BLANK, BLANK, BLANK), 2) == ()

    def test_blank_separates_repeats(self):
        assert collapse((A_, BLANK, A_), 2) == (A_, A_)

    def test_idempotent_on_blank_free_repetition_free_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            # build a sequence with no blanks and no adjacent repeats
            seq = []
            for s in rng.integers(1, 4, size=rng.integers(0, 9)):
                if not seq or seq[-1] != s:
                    seq.append(int(s))
            assert collapse(seq, 4) == tuple(seq)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            collapse((0, 5), 4)


class TestAugmentedTarget:
    def test_interleaving(self):
        np.testing.assert_array_equal(augment_target([A_, B_]), [0, A_, 0, B_, 0])

    def test_length(self):
        for L in range(5):
            assert len(augment_target([A_] * L)) == 2 * L + 1

    def test_min_feasible_length(self):
        assert min_feasible_length([]) == 0
        assert min_feasible_length([A_]) == 1
        assert min_feasible_length([A_, A_]) == 3
        assert min_feasible_length([A_, B_, B_, B_]) == 6


class TestCtcLoss:
    def test_single_frame_single_path(self):
        lp = np.log([[0.4], [0.6]])
        loss, lattice = ctc_loss(lp, [A_])
        assert loss == pytest.approx(-np.log(0.6), abs=1e-12)
        assert lattice.feasible

    def test_two_frame_uniform_against_enumeration(self):
        # paths aa, a-, -a of the 4 length-2 paths collapse to (a)
        lp = uniform_log_probs(2, 2)
        pr = enumerate_oracle(lp, [A_])
        assert pr == pytest.approx(0.75, abs=1e-15)
        loss, _ = ctc_loss(lp, [A_])
        assert loss == pytest.approx(-np.log(pr), abs=1e-12)

    def test_repeat_needs_separating_blank(self):
        loss, lattice = ctc_loss(uniform_log_probs(2, 2), [A_, A_])
        assert loss == np.inf
        assert not lattice.feasible

    def test_empty_target(self):
        lp = np.log(np.array([[0.7, 0.5], [0.3, 0.5]]))
        loss, _ = ctc_loss(lp, [])
        assert loss == pytest.approx(-np.log(0.7 * 0.5), abs=1e-12)

    def test_blank_in_target_rejected(self):
        with pytest.raises(ValueError):
            ctc_loss(uniform_log_probs(2, 3), [0])

    def test_nan_log_probs_rejected(self):
        lp = uniform_log_probs(2, 3)
        lp[0, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ctc_loss(lp, [A_])

    def test_feasibility_monotone_in_length(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            target = list(rng.integers(1, 3, size=rng.integers(0, 4)))
            previous_feasible = False
            for T in range(1, min_feasible_length(target) + 3):
                _, lattice = ctc_loss(uniform_log_probs(3, T), target)
                assert not (previous_feasible and not lattice.feasible)
                previous_feasible = lattice.feasible

    def test_lattice_alpha_beta_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            logits, target = random_ctc_instance(rng)
            lp = log_softmax_frames(logits)
            loss, lattice = ctc_loss(lp, target)
            for t in range(lp.shape[1]):
                total = logsumexp(lattice.alpha[:, t] + lattice.beta[:, t])
                assert abs(total - lattice.log_likelihood) <= 1e-9
            assert np.all(lattice.alpha <= 1e-12)
            assert np.all(lattice.beta <= 1e-12)


    def test_lattice_matches_the_column_loops(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            A = int(rng.integers(2, 7))
            target = list(rng.integers(1, A, size=rng.integers(0, 9)))
            if len(target) > 1 and rng.random() < 0.3:
                target[1::2] = [target[0]] * len(target[1::2])   # repeats: no skips
            lp = log_softmax_frames(3 * rng.standard_normal((A, int(rng.integers(1, 60)))))
            if rng.random() < 0.2:
                lp[int(rng.integers(A))] = -np.inf                 # a symbol never emitted
            loss, lattice = ctc_loss(lp, target)
            if not lattice.feasible:
                continue
            alpha, beta, log_likelihood = reference_lattice(lp, target)
            assert lattice.alpha.shape == lattice.beta.shape == alpha.shape
            np.testing.assert_array_equal(lattice.alpha, alpha)
            np.testing.assert_array_equal(lattice.beta, beta)
            assert lattice.log_likelihood == log_likelihood and loss == -log_likelihood


class TestOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            logits, target = random_ctc_instance(rng)
            lp = log_softmax_frames(logits)
            loss, _ = ctc_loss(lp, target)
            assert abs(loss - (-np.log(enumerate_oracle(lp, target)))) <= 1e-9

    def test_partition_over_all_targets(self):
        # total enumerated probability over every collapsed target is 1
        import itertools
        rng = np.random.default_rng(4)
        A, T = 3, 3
        lp = log_softmax_frames(rng.standard_normal((A, T)))
        targets = {collapse(path, A) for path in itertools.product(range(A), repeat=T)}
        total = sum(enumerate_oracle(lp, list(t)) for t in sorted(targets))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_single_frame_empty_target_is_blank_mass(self):
        lp = np.log([[0.35], [0.65]])
        assert enumerate_oracle(lp, []) == pytest.approx(0.35, abs=1e-15)

    def test_guard_rejects_huge_enumerations(self):
        with pytest.raises(ValueError, match="guard"):
            enumerate_oracle(uniform_log_probs(3, 20), [A_])


class TestCtcGrad:
    def test_zero_at_certainty(self):
        lp = np.array([[-np.inf], [0.0]])
        loss, lattice = ctc_loss(lp, [A_])
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(ctc_grad(lattice, lp), 0.0, atol=1e-12)

    def test_columns_sum_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits, target = random_ctc_instance(rng)
            lp = log_softmax_frames(logits)
            _, lattice = ctc_loss(lp, target)
            g = ctc_grad(lattice, lp)
            np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            logits, target = random_ctc_instance(rng, max_t=6, max_a=3, max_l=2)
            lp = log_softmax_frames(logits)
            _, lattice = ctc_loss(lp, target)
            analytic = ctc_grad(lattice, lp)
            numeric = central_diff(
                lambda u: ctc_loss(log_softmax_frames(u), target)[0], logits)
            assert rel_error(analytic, numeric) <= 1e-5

    def test_infeasible_rejected(self):
        _, lattice = ctc_loss(uniform_log_probs(2, 1), [A_, A_])
        with pytest.raises(ValueError):
            ctc_grad(lattice, uniform_log_probs(2, 1))


class TestBestPathDecode:
    def test_collapses_frame_argmaxes(self):
        # frame winners a, a, -, b
        lp = np.log(np.array([
            [0.1, 0.2, 0.8, 0.1],
            [0.8, 0.7, 0.1, 0.2],
            [0.1, 0.1, 0.1, 0.7],
        ]))
        assert best_path_decode(lp) == (A_, B_)

    def test_all_blank_decodes_empty(self):
        lp = np.log(np.array([[0.9, 0.9], [0.1, 0.1]]))
        assert best_path_decode(lp) == ()

    def test_greedy_misses_most_probable_sequence(self):
        # per-frame blank wins (0.6), so the greedy path collapses to ();
        # yet the sequence (a) carries more total mass: 0.64 vs 0.36
        lp = np.log(np.array([[0.6, 0.6], [0.4, 0.4]]))
        assert best_path_decode(lp) == ()
        assert enumerate_oracle(lp, []) == pytest.approx(0.36, abs=1e-12)
        assert enumerate_oracle(lp, [A_]) == pytest.approx(0.64, abs=1e-12)

    def test_ties_pick_lowest_index(self):
        lp = np.log(np.full((3, 2), 1 / 3))
        assert best_path_decode(lp) == ()

    def test_output_never_contains_blank_or_frame_repeats(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            logits, _ = random_ctc_instance(rng)
            lp = log_softmax_frames(logits)
            out = best_path_decode(lp)
            assert BLANK not in out
            # repetition-free decodes are fixed points of the collapse map;
            # adjacent duplicates can only come from blank-separated runs
            if all(a != b for a, b in zip(out, out[1:])):
                assert collapse(out, logits.shape[0]) == out
            picks = list(np.argmax(lp, axis=0))
            assert collapse(picks, logits.shape[0]) == out

    def test_blank_separated_repeat_survives_decode(self):
        lp = np.log(np.array([[0.1, 0.8, 0.1], [0.9, 0.2, 0.9]]))
        assert best_path_decode(lp) == (A_, A_)


class TestAlphabet:
    def test_file_roundtrip(self, tmp_path):
        alphabet = Alphabet(["<blank>", "ah", "k", "s"])
        path = tmp_path / "alphabet.txt"
        alphabet.to_file(path)
        back = Alphabet.from_file(path)
        assert back.symbols == alphabet.symbols
        assert back.size == 4

    def test_first_line_must_be_blank_token(self, tmp_path):
        path = tmp_path / "alphabet.txt"
        path.write_text("ah\n<blank>\n")
        with pytest.raises(ValueError, match="<blank>"):
            Alphabet.from_file(path)

    def test_encode_decode(self):
        alphabet = Alphabet(["<blank>", "x", "y"])
        assert alphabet.encode(["y", "x"]) == [2, 1]
        assert alphabet.decode([2, 1]) == ["y", "x"]

    def test_encode_rejects_unknown_and_blank(self):
        alphabet = Alphabet(["<blank>", "x"])
        with pytest.raises(ValueError, match="'z'"):
            alphabet.encode(["z"])
        with pytest.raises(ValueError, match="blank"):
            alphabet.encode(["<blank>"])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Alphabet(["<blank>", "x", "x"])
