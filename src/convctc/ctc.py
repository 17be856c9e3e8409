"""CTC distribution over label sequences.

A network emits one log-distribution over the alphabet (blank at index 0)
per frame, shape [A x T].  A latent path assigns one symbol per frame; the
collapse map sigma merges consecutive repeats and deletes blanks.  The
probability of a target is the sum of path probabilities over all paths
collapsing to it, computed here with the standard log-domain alpha/beta
dynamic program over the blank-interleaved target.

``enumerate_oracle`` computes the same probability by literal enumeration
of every path (linear-domain arithmetic, no DP) and is the differential
test oracle for ``ctc_loss``.
"""

import itertools
from dataclasses import dataclass

import numpy as np

BLANK = 0


class Alphabet:
    """Ordered output symbol inventory; index 0 is the reserved blank."""

    def __init__(self, symbols):
        symbols = list(symbols)
        if len(symbols) < 2:
            raise ValueError("alphabet needs the blank plus at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be unique")
        self.symbols = symbols
        self.index = {s: i for i, s in enumerate(symbols)}

    @property
    def size(self):
        return len(self.symbols)

    def encode(self, labels):
        """Map label symbols to indices; the blank is not a valid label."""
        ids = []
        for s in labels:
            i = self.index.get(s)
            if i is None:
                raise ValueError(f"symbol {s!r} is not in the alphabet")
            if i == BLANK:
                raise ValueError(f"blank symbol {s!r} cannot appear in a target")
            ids.append(i)
        return ids

    def decode(self, ids):
        return [self.symbols[i] for i in ids]

    @classmethod
    def from_file(cls, path):
        """Load from UTF-8 text, one symbol per line, line 1 == "<blank>"."""
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        if not lines or lines[0] != "<blank>":
            raise ValueError(f"{path}: first alphabet line must be the literal token '<blank>'")
        return cls(lines)

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.symbols) + "\n")


def collapse(path, alphabet_size):
    """Apply sigma: merge consecutive repeats, then drop blanks.

    (a,-,a) stays (a,a) -- the blank is what separates true repeats.
    """
    out = []
    prev = -1
    for s in path:
        s = int(s)
        if not 0 <= s < alphabet_size:
            raise ValueError(f"path symbol {s} outside alphabet of size {alphabet_size}")
        if s != prev and s != BLANK:
            out.append(s)
        prev = s
    return tuple(out)


def augment_target(target):
    """Blank-interleave a target: (z1,..,zL) -> (-,z1,-,z2,..,zL,-), length 2L+1."""
    aug = np.full(2 * len(target) + 1, BLANK, dtype=np.int64)
    aug[1::2] = target
    return aug


def min_feasible_length(target):
    """Shortest T that admits any path: L plus one blank per adjacent repeat."""
    target = list(target)
    repeats = sum(1 for a, b in zip(target, target[1:]) if a == b)
    return len(target) + repeats


@dataclass
class CtcLattice:
    """Log-domain alpha/beta tables over the augmented target.

    beta excludes the emission at its own frame, so for every t
    logsumexp(alpha[:, t] + beta[:, t]) equals the total log-likelihood.
    """

    alpha: np.ndarray          # [2L+1, T]
    beta: np.ndarray           # [2L+1, T]
    augmented: np.ndarray      # [2L+1]
    log_likelihood: float
    feasible: bool


def _validate_target(target, alphabet_size):
    target = [int(z) for z in target]
    for z in target:
        if not 1 <= z < alphabet_size:
            raise ValueError(f"target symbol {z} outside [1, {alphabet_size - 1}]")
    return target


def ctc_loss(log_probs, target):
    """Negative log-likelihood of a target under per-frame log-probs [A x T].

    Returns (loss, lattice).  An infeasibly short input (T below the
    minimum admissible path length) gives loss +inf with the lattice
    flagged infeasible -- never NaN.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if log_probs.ndim != 2:
        raise ValueError(f"log_probs must be [A x T], got shape {log_probs.shape}")
    if np.isnan(log_probs).any():
        raise ValueError("log_probs contain NaN")
    A, T = log_probs.shape
    target = _validate_target(target, A)
    aug = augment_target(target)
    S = len(aug)

    if T < min_feasible_length(target):
        empty = np.full((S, T), -np.inf)
        lattice = CtcLattice(empty, empty.copy(), aug, -np.inf, feasible=False)
        return np.inf, lattice

    # skip transition s-2 -> s permitted only onto a label differing from
    # the one two slots back (blanks are never skip destinations); added to
    # a log-probability, the mask keeps it (0) or makes it impossible (-inf);
    # skip_into[s] is the mask of s-2 -> s, two -inf slots past the end
    neg = -np.inf
    skip_into = np.full(S + 2, neg)
    skip_into[3:S:2][aug[3::2] != aug[1:-2:2]] = 0.0

    # Rows are frames.  Two -inf slots pad the alpha rows before the lattice
    # and the beta loop's successor row after it, so every shifted read is in
    # range and reads -inf where no transition exists.
    emit = log_probs[aug, :].T                   # [T, S]
    a = np.full((T, S + 2), neg)
    alpha = a[:, 2:]
    alpha[0, :2] = emit[0, :2]
    skip = np.empty(S)
    for t in range(1, T):
        prev, row = a[t - 1], alpha[t]
        np.logaddexp(prev[2:], prev[1:-1], out=row)
        np.add(prev[:-2], skip_into[:S], out=skip)
        np.logaddexp(row, skip, out=row)
        row += emit[t]

    if S > 1:
        log_likelihood = float(np.logaddexp(alpha[-1, -1], alpha[-1, -2]))
    else:
        log_likelihood = float(alpha[-1, 0])

    beta = np.full((T, S), neg)
    beta[-1, -2:] = 0.0
    nxt = np.full(S + 2, neg)
    for t in range(T - 2, -1, -1):
        row = beta[t]
        np.add(beta[t + 1], emit[t + 1], out=nxt[:S])
        np.logaddexp(nxt[:S], nxt[1:-1], out=row)
        np.add(nxt[2:], skip_into[2:], out=skip)
        np.logaddexp(row, skip, out=row)
    alpha, beta = alpha.T, beta.T                # [S, T]

    lattice = CtcLattice(alpha, beta, aug, log_likelihood, feasible=True)
    return -log_likelihood, lattice


def ctc_grad(lattice, log_probs):
    """Gradient of the loss w.r.t. pre-softmax logits: y - posterior.

    y is the softmax output (exp of the normalized log-probs) and the
    posterior is the alpha.beta occupancy of each symbol at each frame.
    Every column sums to zero.
    """
    if not lattice.feasible:
        raise ValueError("no gradient for an infeasible target length")
    log_probs = np.asarray(log_probs, dtype=np.float64)
    A, T = log_probs.shape
    gamma = lattice.alpha + lattice.beta - lattice.log_likelihood   # [S, T]
    occupancy = np.zeros((A, T))
    np.add.at(occupancy, lattice.augmented, np.exp(gamma))
    return np.exp(log_probs) - occupancy


def best_path_decode(log_probs):
    """Greedy decode: per-frame argmax (ties -> lowest index), then sigma.

    This is the most probable *path* collapsed, not the most probable
    label sequence.
    """
    log_probs = np.asarray(log_probs)
    picks = np.argmax(log_probs, axis=0)
    return collapse(picks, log_probs.shape[0])


def enumerate_oracle(log_probs, target):
    """Pr(target) by brute force over all A**T paths, linear-domain sums.

    Ground truth for ctc_loss; guarded to A**T <= 10**6.
    """
    log_probs = np.asarray(log_probs, dtype=np.float64)
    A, T = log_probs.shape
    target = tuple(_validate_target(target, A))
    if A ** T > 10 ** 6:
        raise ValueError(f"enumeration of {A}**{T} paths exceeds the 10^6 guard")
    frame_probs = np.exp(log_probs).T.tolist()   # [T][A] python floats
    total = 0.0
    for path in itertools.product(range(A), repeat=T):
        if collapse(path, A) != target:
            continue
        p = 1.0
        for t, s in enumerate(path):
            p *= frame_probs[t][s]
        total += p
    return total
