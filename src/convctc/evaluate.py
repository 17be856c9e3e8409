"""Decoding-based evaluation: edit distances and the corpus label error rate.

Scoring optionally folds symbols through a user-supplied mapping file (one
"<symbol> <scoring-symbol>" pair per line, e.g. the conventional 61-to-39
phone fold); the map is applied to hypothesis and reference alike before
the distance is computed.
"""

import threading
from dataclasses import dataclass, field

from . import layers
from .ctc import best_path_decode


@dataclass
class EditCounts:
    distance: int = 0
    substitutions: int = 0
    insertions: int = 0
    deletions: int = 0

    def __add__(self, other):
        return EditCounts(self.distance + other.distance,
                          self.substitutions + other.substitutions,
                          self.insertions + other.insertions,
                          self.deletions + other.deletions)


def levenshtein(ref, hyp):
    """Edit distance with operation counts.

    Ties resolve match/substitution first, then deletion, then insertion,
    so the reported S/I/D split is deterministic.
    """
    hyp = list(hyp)
    # cells are (distance, substitutions, insertions, deletions) tuples
    prev = [(j, 0, j, 0) for j in range(len(hyp) + 1)]
    for i, r in enumerate(ref, 1):
        left = (i, 0, 0, i)
        row = [left]
        for j, h in enumerate(hyp, 1):
            best = prev[j - 1]
            if r != h:
                best = (best[0] + 1, best[1] + 1, best[2], best[3])
            up = prev[j]
            if up[0] + 1 < best[0]:
                best = (up[0] + 1, up[1], up[2], up[3] + 1)
            if left[0] + 1 < best[0]:
                best = (left[0] + 1, left[1], left[2] + 1, left[3])
            row.append(best)
            left = best
        prev = row
    return EditCounts(*prev[-1])


def load_mapping(path, alphabet):
    """Scoring map: every mapped symbol must exist in the alphabet; symbols
    not listed map to themselves."""
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected '<symbol> <scoring-symbol>'")
            src, dst = parts
            if src not in alphabet.index:
                raise ValueError(f"{path}:{lineno}: unknown symbol {src!r}")
            mapping[src] = dst
    return mapping


@dataclass
class EvalReport:
    per_utterance: list = field(default_factory=list)
    counts: EditCounts = field(default_factory=EditCounts)
    total_ref_len: int = 0
    decodes: dict = field(default_factory=dict)

    @property
    def label_error_rate(self):
        if self.total_ref_len == 0:
            return 0.0 if self.counts.distance == 0 else float("inf")
        return self.counts.distance / self.total_ref_len

    def to_json(self):
        return {
            "label_error_rate": self.label_error_rate,
            "total_edit_distance": self.counts.distance,
            "total_reference_length": self.total_ref_len,
            "substitutions": self.counts.substitutions,
            "insertions": self.counts.insertions,
            "deletions": self.counts.deletions,
            "utterances": self.per_utterance,
        }


def evaluate(net, params, dataset, alphabet, mapping=None):
    """Best-path decode every utterance and score against its reference.

    The utterances run through Network.infer, which keeps no tapes.  When
    there are two of them or more and two cores are free
    (layers._halves_run_together), they run on two threads
    (layers.run_items): this one takes the longest utterance left and the
    worker the shortest, until they meet; the worker's malloc arena keeps
    its own high-water mark, so it gets the short ones.  The report is in dataset order
    either way.  A failing utterance stops every utterance after it in
    dataset order, and the first one's error is raised once both threads
    are done.
    """
    order = sorted(range(len(dataset)), key=lambda i: dataset[i].features.shape[-1])
    scored = [None] * len(dataset)
    errors = [None] * len(dataset)
    shortest, longest = 0, len(order)    # order[shortest:longest] is not taken yet
    first_error = len(dataset)           # the dataset index of the first failure so far
    lock = threading.Lock()

    def take(from_longest):
        nonlocal shortest, longest
        with lock:
            while shortest < longest:
                if from_longest:
                    longest -= 1
                    i = order[longest]
                else:
                    i = order[shortest]
                    shortest += 1
                if i < first_error:
                    return i
        return None

    def run(from_longest):
        nonlocal first_error
        while (i := take(from_longest)) is not None:
            utt = dataset[i]
            try:
                hyp = alphabet.decode(best_path_decode(net.infer(utt.features, params)))
                ref = alphabet.decode(utt.target)
                if mapping:
                    hyp = [mapping.get(s, s) for s in hyp]
                    ref = [mapping.get(s, s) for s in ref]
                scored[i] = hyp, ref, levenshtein(ref, hyp)
            except BaseException as e:       # re-raised below, in dataset order
                errors[i] = e
                with lock:
                    first_error = min(first_error, i)

    if len(dataset) > 1 and layers._halves_run_together():
        layers.run_items(run, True, False)
    else:
        run(True)
    if first_error < len(dataset):
        raise errors[first_error]

    report = EvalReport()
    for utt, (hyp, ref, counts) in zip(dataset, scored):
        report.per_utterance.append({"id": utt.uid, "distance": counts.distance,
                                     "ref_len": len(ref)})
        report.counts = report.counts + counts
        report.total_ref_len += len(ref)
        report.decodes[utt.uid] = hyp
    return report
