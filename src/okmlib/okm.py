"""Overlapping k-means: points may belong to several clusters at once.

Each point is matched against its *image*, the componentwise mean of the
prototypes of every cluster it belongs to, and the criterion

    J = sum_i  dissim(x_i, image(x_i))

is minimized by alternating two steps:

  * assignment: clusters sorted by prototype dissimilarity; starting
    from the nearest, further clusters are added greedily while the
    image keeps improving.  From the second iteration on, a point keeps
    its previous cluster set whenever that set beats the fresh greedy
    one, which makes the per-point criterion non-increasing.
  * prototype update: each cluster moves to the weighted mean of its
    members' residual targets (weight 1/|A_i|^2, residual |A_i| x_i
    minus the other assigned prototypes), updated sequentially in
    cluster order using the freshest values.  For squared Euclidean
    this is the exact coordinate minimizer, so J never increases; for
    the other measures a revert-and-stop safeguard handles the rare
    non-monotone step.

Empty clusters keep their previous prototype.  Runs are deterministic
in the seed: initial prototypes are k distinct data rows sampled
uniformly without replacement.

Batched design: memberships are an (n, k) bool matrix and every phase
works on all points at once through `dissim_rows`.  Assignment grows
every point's set together in at most k masked steps, the update does
one vectorized step per cluster, and the objective is one call.  Python
loops run only over clusters, and memory is O(n * k * p) per iteration.
Sums keep the per-point reference order (images add prototypes in
cluster-id order, the update adds members in index order), so coverings
are the same as a point-by-point evaluation gives.  `assign_point`,
`image`, `update_prototypes` and `objective` are one-point or
`Covering` wrappers over the same functions.

The per-point values of an iteration's objective serve the next
assignment as the previous sets' dissimilarities, so they are not
computed twice.  Cluster-id sets become membership rows, and are
validated, only in `_cluster_matrix` (over `linalg.membership_matrix`).
A `Covering` keeps its matrix (`Covering.memberships`), which
`update_prototypes`, `objective` and `evaluation.pair_metrics` read.
"""

from dataclasses import dataclass, field

import numpy as np

from .divergences import Dissimilarity, DissimilarityKind, dissim_rows
from .errors import DimensionMismatch, EmptyAssignment, InsufficientData, InvalidSpec
from .linalg import distinct_rows, membership_matrix

_REL_TOL_GUARD = 1e-12


@dataclass(frozen=True)
class OkmConfig:
    k: int
    dissimilarity: Dissimilarity
    max_iter: int = 100
    rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InvalidSpec(f"k must be >= 1, got {self.k}")
        if self.max_iter < 1:
            raise InvalidSpec(f"max_iter must be >= 1, got {self.max_iter}")
        if not (np.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise InvalidSpec(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass(frozen=True)
class Covering:
    """k possibly-overlapping clusters over n points, plus the final J.

    `prototypes` is a (k, p) array.  `memberships` is the read-only
    (n, k) bool matrix of `assignments`.
    """

    k: int
    assignments: tuple
    prototypes: np.ndarray
    objective: float
    n_iter: int
    memberships: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.objective < 0:
            raise ValueError(f"objective must be nonnegative, got {self.objective}")
        shape = np.shape(self.prototypes)
        if len(shape) != 2 or shape[0] != self.k:
            raise ValueError(f"prototypes must be a ({self.k}, p) array, got shape {shape}")
        sets = tuple(map(frozenset, self.assignments))
        memberships = _cluster_matrix(sets, self.k)
        object.__setattr__(self, "assignments", sets)
        object.__setattr__(self, "memberships", memberships)


def _cluster_matrix(sets, k) -> np.ndarray:
    """(n, k) bool matrix of n cluster-id sets.

    Each set must be non-empty and hold only ids in 0..k-1; the first
    point that is not is reported.
    """
    try:
        matrix = membership_matrix(sets, range(k))
    except KeyError:  # an id outside 0..k-1, found below
        pass
    else:
        if matrix.any(axis=1).all():
            return matrix
    for i, assigned in enumerate(sets):
        if not assigned:
            raise EmptyAssignment(f"point {i} has no cluster")
        if not all(c in range(k) for c in assigned):
            raise ValueError(f"point {i} references a cluster outside 0..{k - 1}")


def _assignment_sets(memberships) -> tuple:
    """One frozenset of cluster ids per row of a membership matrix."""
    first, group, _ = distinct_rows(memberships)
    sets = [frozenset(np.flatnonzero(memberships[i]).tolist()) for i in first.tolist()]
    return tuple(map(sets.__getitem__, group.tolist()))


def _images(memberships, prototypes) -> np.ndarray:
    """Each row's image: its prototypes added in cluster-id order, over |A|."""
    total = np.zeros((len(memberships), prototypes.shape[1]))
    for c, prototype in enumerate(prototypes):
        np.add(total, prototype, out=total, where=memberships[:, c, None])
    return total / memberships.sum(axis=1)[:, None]


def image(assigned, prototypes) -> np.ndarray:
    """Mean of the prototypes of the clusters in `assigned`."""
    prototypes = np.asarray(prototypes, dtype=float)
    return _images(_cluster_matrix([assigned], len(prototypes)), prototypes)[0]


def _assign(values, prototypes, d: Dissimilarity, previous=None, previous_dists=None) -> np.ndarray:
    """Greedy cluster sets of all points at once, as an (n, k) bool matrix.

    Step t offers every still-growing point its (t+1)-th nearest cluster
    (ties by id); a point keeps growing while the image dissimilarity
    strictly improves.  Rows of `previous` that strictly beat the greedy
    result are kept instead.  `previous_dists`, if given, are the points'
    dissimilarities to the images of `previous` at these prototypes.
    """
    n = len(values)
    dists = dissim_rows(d, values[:, None, :], prototypes[None, :, :])
    order = np.argsort(dists, axis=1, kind="stable")
    chosen = np.zeros(dists.shape, dtype=bool)
    chosen[np.arange(n), order[:, 0]] = True
    best = np.take_along_axis(dists, order[:, :1], axis=1)[:, 0]  # a 1-set's image is its prototype
    growing = np.arange(n)
    for step in range(1, len(prototypes)):
        if not growing.size:
            break
        candidate = chosen[growing]
        candidate[np.arange(growing.size), order[growing, step]] = True
        dist = dissim_rows(d, values[growing], _images(candidate, prototypes))
        improved = dist < best[growing]
        growing = growing[improved]
        chosen[growing] = candidate[improved]
        best[growing] = dist[improved]
    if previous is not None:
        if previous_dists is None:
            previous_dists = dissim_rows(d, values, _images(previous, prototypes))
        kept = previous_dists < best
        chosen[kept] = previous[kept]
    return chosen


def assign_point(x, prototypes, d: Dissimilarity, previous=None) -> frozenset:
    """Greedy cluster-set choice for one point at fixed prototypes.

    Scans clusters in order of increasing prototype dissimilarity (ties
    by id), growing the set while the image dissimilarity improves and
    stopping at the first candidate that does not.  If `previous` beats
    the greedy result it is returned unchanged.
    """
    x = np.asarray(x, dtype=float)
    prototypes = np.asarray(prototypes, dtype=float)
    if x.ndim != 1 or prototypes.ndim != 2 or x.shape[0] != prototypes.shape[1]:
        raise DimensionMismatch(f"incompatible shapes: point {x.shape}, prototypes {prototypes.shape}")
    if previous is not None:
        previous = _cluster_matrix([previous], len(prototypes))
    chosen = _assign(x[None, :], prototypes, d, previous)[0]
    return frozenset(np.flatnonzero(chosen).tolist())


def _update_prototypes(memberships, prototypes, values, nonneg=False):
    new = prototypes.copy()
    sizes = memberships.sum(axis=1)
    for c in range(len(new)):
        members = memberships[:, c]
        if not members.any():
            continue
        a = sizes[members][:, None]
        in_cluster = memberships[members]
        # Each member's other prototypes, freshest values, in cluster-id order.
        others = np.zeros((len(a), new.shape[1]))
        for other in range(len(new)):
            if other != c:
                np.add(others, new[other], out=others, where=in_cluster[:, other, None])
        # cumsum adds the members one after another, as the reference does.
        num = np.cumsum((a * values[members] - others) / (a * a), axis=0)[-1]
        den = np.cumsum(1.0 / (a * a))[-1]
        moved = num / den
        if nonneg:
            moved = np.maximum(moved, 0.0)
        new[c] = moved
    return new


def update_prototypes(cov: Covering, data) -> np.ndarray:
    """Recompute all k prototypes for fixed assignments."""
    values = np.asarray(getattr(data, "values", data), dtype=float)
    return _update_prototypes(cov.memberships, cov.prototypes, values)


def _objective(memberships, prototypes, values, d):
    """J and the per-point values it adds up."""
    point_values = dissim_rows(d, values, _images(memberships, prototypes))
    # A sequential sum of the per-point values, as the reference adds them.
    return sum(point_values.tolist()), point_values


def objective(cov: Covering, d: Dissimilarity, data) -> float:
    """Recompute J for a covering from scratch."""
    values = np.asarray(getattr(data, "values", data), dtype=float)
    return _objective(cov.memberships, cov.prototypes, values, d)[0]


def run_okm(data, config: OkmConfig, on_iteration=None) -> Covering:
    """One clustering run: initialize, alternate assign/update, stop.

    Stops when assignments repeat, the relative improvement of J falls
    below `rel_tol`, `max_iter` is reached, or J increases (the state
    then reverts to the previous iteration).  `on_iteration(i, J)`, if
    given, is called after each completed iteration.
    """
    values = np.ascontiguousarray(getattr(data, "values", data), dtype=float)
    n = len(values)
    if n < config.k:
        raise InsufficientData(f"{n} points cannot seed {config.k} clusters")
    d = config.dissimilarity
    nonneg = d.kind == DissimilarityKind.I_DIVERGENCE

    rng = np.random.default_rng(config.seed)
    idx = rng.choice(n, size=config.k, replace=False)
    prototypes = values[idx].copy()

    memberships = point_values = None
    current_j = None
    iterations = 0
    for _ in range(config.max_iter):
        # The last objective's per-point values are the previous sets' dissimilarities.
        new_memberships = _assign(values, prototypes, d, memberships, point_values)
        new_prototypes = _update_prototypes(new_memberships, prototypes, values, nonneg)
        new_j, new_point_values = _objective(new_memberships, new_prototypes, values, d)
        if current_j is not None and new_j > current_j:
            break  # safeguard: keep the previous (better) state
        unchanged = memberships is not None and np.array_equal(new_memberships, memberships)
        improvement = None if current_j is None else (current_j - new_j) / max(current_j, _REL_TOL_GUARD)
        memberships, prototypes, current_j = new_memberships, new_prototypes, new_j
        point_values = new_point_values
        iterations += 1
        if on_iteration is not None:
            on_iteration(iterations, current_j)
        if unchanged or (improvement is not None and improvement < config.rel_tol):
            break

    return Covering(k=config.k, assignments=_assignment_sets(memberships), prototypes=prototypes,
                    objective=current_j, n_iter=iterations)
