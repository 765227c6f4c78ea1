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

`pair_metrics` counts linked pairs from bool membership matrices: a
`Covering` and a `LabeledCovering` carry theirs, and a plain sequence of
sets goes through `linalg.membership_matrix`.  Points with the same
(predicted, true) membership pattern link alike, so it counts between
the G distinct patterns, each weighted by its number of points: pattern
a and b link when (P P^T)_ab > 0, for w_a * w_b pairs across two
patterns and w_a (w_a - 1) / 2 within one.  That takes O(n + G^2) time
and, in row blocks over the patterns, O(n + block * G) memory, with
exact int64 counts; G is at most n and usually tiny.  `linked_pairs`
enumerates the pairs themselves and is the reference for those counts.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import distinct_rows, membership_matrix, row_blocks


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

    @cached_property
    def memberships(self) -> np.ndarray:
        """Read-only (n, m) bool matrix over the m distinct labels, built on first use."""
        return membership_matrix(self.label_sets)


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


def _memberships(c) -> np.ndarray:
    """The bool membership matrix of a Covering, a LabeledCovering or a sequence of sets."""
    if hasattr(c, "memberships"):
        return c.memberships
    return membership_matrix(_membership_sets(c))


def _linked_pair_counts(pred, true):
    """(NCILP, NILP, NTLP) for two bool membership matrices over the same n points."""
    first, _, weights = distinct_rows(np.concatenate([pred, true], axis=1))
    pred = pred[first].astype(float)
    true = true[first].astype(float)
    weights = weights.astype(np.int64)
    g = len(first)
    ncilp = nilp = ntlp = 0
    for start, stop in row_blocks(g, g):
        # Point pairs between pattern rows start..stop and columns start..g:
        # w_a * w_b above the diagonal, w_a (w_a - 1) / 2 on it, none below.
        pairs = np.triu(np.multiply.outer(weights[start:stop], weights[start:]), 1)
        diagonal = np.arange(stop - start)
        pairs[diagonal, diagonal] = weights[start:stop] * (weights[start:stop] - 1) // 2
        linked_pred = pred[start:stop] @ pred[start:].T > 0.0
        linked_true = true[start:stop] @ true[start:].T > 0.0
        nilp += int(pairs.sum(where=linked_pred))
        ntlp += int(pairs.sum(where=linked_true))
        ncilp += int(pairs.sum(where=linked_pred & linked_true))
    return ncilp, nilp, ntlp


def pair_metrics(predicted, truth) -> PairMetrics:
    """Precision / recall / F over linked pairs of `predicted` vs `truth`.

    Each side is a Covering, a LabeledCovering or a sequence of sets;
    the first two bring their membership matrices.
    """
    pred = _memberships(predicted)
    true = _memberships(truth)
    if len(pred) != len(true):
        raise ValueError(
            f"point counts differ: predicted {len(pred)}, truth {len(true)}"
        )

    ncilp, nilp, ntlp = _linked_pair_counts(pred, true)

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
