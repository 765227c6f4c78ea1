"""Pair-based validation of overlapping clusterings.

Two points are a linked pair when they share at least one cluster.  With
NCILP / NILP / NTLP the counts of correctly-identified, identified, and
true linked pairs:

    precision = NCILP / NILP
    recall    = NCILP / NTLP
    f_measure = harmonic mean of precision and recall

Degenerate denominators: an empty predicted pair set scores precision 1
against an empty true pair set (perfect agreement) and 0 otherwise, and
symmetrically for recall, so the metrics are total.

`pair_metrics` counts linked pairs from 0/1 membership matrices: the
pairs of a covering are the strict upper triangle of (M M^T) > 0.  It
works in row blocks, so memory stays O(block * n) rather than n^2, and
the counts are exact integers.  `linked_pairs` enumerates the pairs
themselves and is the reference for those counts.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .linalg import row_blocks


@dataclass(frozen=True)
class LabeledCovering:
    """Ground truth: one non-empty set of category ids per point."""

    label_sets: tuple

    def __post_init__(self):
        sets = tuple(frozenset(s) for s in self.label_sets)
        if any(len(s) == 0 for s in sets):
            raise ValueError("every point needs at least one label")
        object.__setattr__(self, "label_sets", sets)

    @property
    def n(self):
        return len(self.label_sets)


@dataclass(frozen=True)
class PairMetrics:
    ncilp: int
    nilp: int
    ntlp: int
    precision: float
    recall: float
    f_measure: float


def _membership_sets(c):
    if hasattr(c, "label_sets"):
        return c.label_sets
    if hasattr(c, "assignments"):
        return c.assignments
    return tuple(frozenset(s) for s in c)


def linked_pairs(c) -> set:
    """All unordered index pairs (i, j), i < j, sharing a cluster.

    Accepts a Covering, a LabeledCovering, or any sequence of sets.
    """
    sets = _membership_sets(c)
    n = len(sets)
    pairs = set()
    for i in range(n):
        si = sets[i]
        for j in range(i + 1, n):
            if si & sets[j]:
                pairs.add((i, j))
    return pairs


def _membership_matrix(sets) -> np.ndarray:
    """(n, m) 0/1 matrix of n sets over their m distinct members.

    Members may be any hashable (cluster ids, label strings); columns are
    numbered by first appearance, so no ordering between them is needed.
    """
    column = {member: j for j, member in enumerate(dict.fromkeys(chain.from_iterable(sets)))}
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    ids = np.fromiter(map(column.__getitem__, chain.from_iterable(sets)), dtype=np.intp,
                      count=int(sizes.sum()))
    matrix = np.zeros((len(sets), len(column)))
    matrix[np.repeat(np.arange(len(sets)), sizes), ids] = 1.0
    return matrix


def _linked_pair_counts(pred, true):
    """(NCILP, NILP, NTLP) for two membership matrices over the same n points."""
    n = len(pred)
    ncilp = nilp = ntlp = 0
    for start, stop in row_blocks(n, n):
        # Rows start..stop against columns start..n; keep column > row.
        upper = np.arange(start, n)[None, :] > np.arange(start, stop)[:, None]
        linked_pred = (pred[start:stop] @ pred[start:].T > 0.0) & upper
        linked_true = (true[start:stop] @ true[start:].T > 0.0) & upper
        nilp += int(np.count_nonzero(linked_pred))
        ntlp += int(np.count_nonzero(linked_true))
        ncilp += int(np.count_nonzero(linked_pred & linked_true))
    return ncilp, nilp, ntlp


def pair_metrics(predicted, truth) -> PairMetrics:
    """Precision / recall / F over linked pairs of `predicted` vs `truth`."""
    pred_sets = _membership_sets(predicted)
    true_sets = _membership_sets(truth)
    if len(pred_sets) != len(true_sets):
        raise ValueError(
            f"point counts differ: predicted {len(pred_sets)}, truth {len(true_sets)}"
        )

    ncilp, nilp, ntlp = _linked_pair_counts(_membership_matrix(pred_sets),
                                            _membership_matrix(true_sets))

    if nilp > 0:
        precision = ncilp / nilp
    else:
        precision = 1.0 if ntlp == 0 else 0.0
    if ntlp > 0:
        recall = ncilp / ntlp
    else:
        recall = 1.0 if nilp == 0 else 0.0
    if precision + recall > 0:
        f_measure = 2.0 * precision * recall / (precision + recall)
    else:
        f_measure = 0.0
    return PairMetrics(ncilp=ncilp, nilp=nilp, ntlp=ntlp,
                       precision=precision, recall=recall, f_measure=f_measure)
