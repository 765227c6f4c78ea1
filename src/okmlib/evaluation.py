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

`pair_metrics` keys each point by one integer, its true memberships in
the low bits and its predicted ones above them, and counts pairs between
the G distinct keys, each weighted by its number of points: a sort of
the n keys plus O(G^2) time and, in row blocks, O(n + block * G) memory,
with exact int64 counts.  `linked_pairs` enumerates the pairs themselves
and is the reference for those counts.  Each side of either is a
Covering, a LabeledCovering, an (n, k) bool membership matrix or a
sequence of sets.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import membership_matrix, membership_sets, row_blocks


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


def _memberships(c) -> np.ndarray:
    """The bool membership matrix of a pair-metric input; any other ndarray raises ValueError."""
    if hasattr(c, "memberships"):
        return c.memberships
    if isinstance(c, np.ndarray):
        if c.ndim != 2 or c.dtype != bool:
            raise ValueError(f"an array must be an (n, k) bool membership matrix, "
                             f"got {c.dtype} of shape {c.shape}")
        return c
    return membership_matrix([frozenset(s) for s in c])


def linked_pairs(c) -> set:
    """All unordered index pairs (i, j), i < j, sharing a cluster."""
    sets = membership_sets(_memberships(c))
    n = len(sets)
    pairs = set()
    for i in range(n):
        si = sets[i]
        for j in range(i + 1, n):
            if si & sets[j]:
                pairs.add((i, j))
    return pairs


def _linked_pair_counts(pred, true):
    """(NCILP, NILP, NTLP) for two bool membership matrices over the same n points."""
    # The key bits' weights: int64 below 63 bits, Python ints from there on.
    bits = 1 << np.arange(true.shape[1] + pred.shape[1], dtype=object)
    if len(bits) < 63:
        bits = bits.astype(np.int64)
    keys, weights = np.unique(np.concatenate([true, pred], axis=1) @ bits, return_counts=True)
    true_bits = (1 << true.shape[1]) - 1
    g = len(keys)
    ncilp = nilp = ntlp = 0
    for start, stop in row_blocks(g, g):
        # Point pairs between pattern rows start..stop and columns start..g:
        # w_a * w_b above the diagonal, w_a (w_a - 1) / 2 on it, none below.
        pairs = np.triu(np.multiply.outer(weights[start:stop], weights[start:]), 1)
        diagonal = np.arange(stop - start)
        pairs[diagonal, diagonal] = weights[start:stop] * (weights[start:stop] - 1) // 2
        shared = keys[start:stop, None] & keys[start:]
        linked_pred = shared > true_bits  # a shared bit above the true ones
        linked_true = (shared & true_bits) != 0
        nilp += int(pairs.sum(where=linked_pred))
        ntlp += int(pairs.sum(where=linked_true))
        ncilp += int(pairs.sum(where=linked_pred & linked_true))
    return ncilp, nilp, ntlp


def pair_metrics(predicted, truth) -> PairMetrics:
    """Precision / recall / F over linked pairs of `predicted` vs `truth`."""
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
