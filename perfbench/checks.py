"""Output checks that recompute convctc's results independently.

Each check returns a list of failure messages; an empty list means pass.
None of them reuses convctc's decoding, scoring or log-sum-exp code.
"""

from itertools import groupby

import numpy as np
from convctc import ctc

LOGSUMEXP_TOL = {np.dtype(np.float32): 1e-5, np.dtype(np.float64): 1e-12}
# A wrong backward pass disagrees at every step; a step that straddles a
# maxout or max-pool switch disagrees at that step only, so the check passes
# when either step agrees.  Below 1e-7 float64 rounding reaches the tolerance.
FD_STEPS = (1e-6, 1e-7)
FD_RTOL = 1e-4


def greedy_decode(log_probs):
    """Frame argmax, merge runs, drop blanks (index 0)."""
    picks = np.argmax(np.asarray(log_probs), axis=0)
    return [int(s) for s, _ in groupby(picks.tolist()) if s != 0]


def edit_distance(ref, hyp):
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        prev_diag, row[0] = row[0], i
        for j, h in enumerate(hyp, 1):
            prev_diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev_diag + (r != h))
    return row[-1]


def check_decodes(log_probs, refs, symbols, report):
    """The program's hypotheses and LER against an independent greedy decode
    and edit distance.  log_probs and refs are keyed by utterance id."""
    failures = []
    distance = ref_len = 0
    for uid, lp in log_probs.items():
        ours = [symbols[s] for s in greedy_decode(lp)]
        if report.decodes.get(uid) != ours:
            failures.append(f"{uid}: hypothesis {report.decodes.get(uid)} != greedy {ours}")
        ref = [symbols[s] for s in refs[uid]]
        distance += edit_distance(ref, ours)
        ref_len += len(ref)
    if (report.counts.distance, report.total_ref_len) != (distance, ref_len):
        failures.append(f"LER {report.counts.distance}/{report.total_ref_len} != "
                        f"independent {distance}/{ref_len}")
    return failures


def check_normalized(log_probs):
    """Every frame's log-probabilities must log-sum-exp to 0."""
    failures = []
    for uid, lp in log_probs.items():
        lp64 = np.asarray(lp, dtype=np.float64)
        top = lp64.max(axis=0)
        lse = top + np.log(np.exp(lp64 - top).sum(axis=0))
        worst = float(np.abs(lse).max())
        if not worst <= LOGSUMEXP_TOL[lp.dtype]:
            failures.append(f"{uid}: a frame's logsumexp is {worst:.3g} away from 0")
    return failures


def check_gradient(net, params, x, target, seed):
    """Directional central difference of the float64 CTC loss against
    Network.backward + ctc_grad, along one random unit direction, dropout off."""
    p64 = {k: v.astype(np.float64) for k, v in params.items()}
    x64 = np.asarray(x, dtype=np.float64)
    rng = np.random.default_rng(seed)
    direction = {k: rng.standard_normal(v.shape) for k, v in p64.items()}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))

    def loss_at(h):
        shifted = {k: p64[k] + (h / norm) * direction[k] for k in p64}
        return ctc.ctc_loss(net.forward(x64, shifted)[0], target)[0]

    log_probs, tapes = net.forward(x64, p64)
    _, lattice = ctc.ctc_loss(log_probs, target)
    grads = net.backward(tapes, ctc.ctc_grad(lattice, log_probs))
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in p64) / norm
    misses = []
    for h in FD_STEPS:
        numeric = (loss_at(h) - loss_at(-h)) / (2 * h)
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
        if err <= FD_RTOL:
            return []
        misses.append(f"{numeric:.10g} at step {h} (relative error {err:.3g})")
    return [f"directional derivative {analytic:.10g} vs finite differences "
            f"{'; '.join(misses)}: all above {FD_RTOL}"]
