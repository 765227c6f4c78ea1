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

Every phase works on all points at once, with Python loops only over
clusters; memory is O(n * k * p) per iteration.  `run_okm` runs under
`linalg.unbuffered()`.

Images and the update's "other prototypes" are subset sums, each added
in the per-point reference order, so all give the bits of a
point-by-point evaluation.  `run_okm` builds a subset table when
2^k <= n, and `_distance`, which builds each prototype set's distances,
picks one of three image paths from that table and the run's shape: it
is the one place that tells them apart.  A point's cluster set is an
integer code, bit c set for cluster c, on the subset table's paths, and
a row of an (n, k) bool matrix, the `Covering`'s layout, otherwise; the
update reads the table or masked sums to match, refreshing the table's
blocks c and c + 2 up after cluster c.  The greedy assignment
grows both forms alike, by or-ing in the run's singletons.

`run_okm` checks the i-divergence's sign on the data once (prototypes
start as data rows and the update clamps them at 0) and evaluates the
data's K(x, x) once (`kernels.self_kernel`).  The measures decide their
own shortcuts, so `okm` names no kernel kind.  It builds the point ids
and singleton sets (`_run_ids`) once, and holds the update's (p + 1, n)
stack for the whole run.  Per update, the stack's rows are |A_i| x_i
over a row of ones; each cluster gathers its members' columns, takes the
other prototypes off the first p rows, divides by |A_i|^2, and one
`np.add.accumulate` along the members gives the numerator and the
denominator together, in member order.  The objective's per-point values
serve the next assignment as the previous sets' dissimilarities.

`assign_point`, `image`, `update_prototypes` and `objective` are the
public, checked wrappers over the same functions, on masked sums.
"""

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .dataio import data_values
from .divergences import (Dissimilarity, DissimilarityKind, check_domain, dissim_rows,
                          unchecked_dissim_rows)
from .errors import DimensionMismatch, DomainError, EmptyAssignment, InsufficientData, InvalidSpec
from .kernels import self_kernel
from .linalg import membership_matrix, membership_sets, sequential_sum, unbuffered

_REL_TOL_GUARD = 1e-12
_SUBSET_DISTS_MAX_ELEMENTS = 1 << 13  # n * 2^k * p; see `_uses_subset_dists`


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
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, eq=False)
class Covering:
    """k possibly-overlapping clusters over n points, plus the final J.

    `memberships` is an (n, k) bool matrix, row i marking point i's
    clusters, stored as a read-only copy.  `prototypes` is a (k, p) array.
    """

    memberships: np.ndarray
    prototypes: np.ndarray
    objective: float
    n_iter: int

    def __post_init__(self):
        if not (np.isfinite(self.objective) and self.objective >= 0):
            raise ValueError(f"objective must be finite and nonnegative, got {self.objective}")
        if self.n_iter < 0:
            raise ValueError(f"n_iter must be nonnegative, got {self.n_iter}")
        memberships = np.array(self.memberships)
        if memberships.dtype != bool or memberships.ndim != 2:
            raise ValueError(f"memberships must be an (n, k) bool array, got {memberships.dtype} "
                             f"of shape {memberships.shape}")
        k, shape = memberships.shape[1], np.shape(self.prototypes)
        if len(shape) != 2 or shape[0] != k:
            raise ValueError(f"prototypes must be a ({k}, p) array, got shape {shape}")
        covered = memberships.any(axis=1)
        if not covered.all():
            raise EmptyAssignment(f"point {covered.argmin()} has no cluster")
        memberships.flags.writeable = False
        object.__setattr__(self, "memberships", memberships)

    @property
    def k(self) -> int:
        return len(self.prototypes)

    @cached_property
    def assignments(self) -> tuple:
        """One frozenset of cluster ids per point, built on first use."""
        return membership_sets(self.memberships)


def _cluster_matrix(sets, k) -> np.ndarray:
    """(n, k) bool matrix of n cluster-id sets.

    Each set must be non-empty and hold only ids in 0..k-1; the first
    point that is not is reported.
    """
    for i, assigned in enumerate(sets):
        if not assigned:
            raise EmptyAssignment(f"point {i} has no cluster")
        if not all(c in range(k) for c in assigned):
            raise ValueError(f"point {i} references a cluster outside 0..{k - 1}")
    return membership_matrix(sets, range(k))


def _uses_table(n, k) -> bool:
    """Whether the sets of n points are codes that read their sums from a `_subset_sums` table.

    The table has 2^k columns, so with 2^k <= n it is never bigger than
    one (p, n) temporary.
    """
    return 1 << k <= n


def _subset_sums(prototypes, sums=None, blocks=None) -> np.ndarray:
    """The sums of all 2^k subsets of the prototypes, column s for code s: (p, 2^k).

    Column s adds the prototypes whose bit is set in s in cluster-id
    order, from +0.0, as `_masked_sums` does.  Block c holds the codes
    whose highest bit is c, columns 2^c to 2^(c+1) - 1, each the column
    2^c lower plus prototype c.  Given `sums`, it recomputes only
    `blocks`, in the order given, in place, and returns it.
    """
    k, p = prototypes.shape
    if sums is None:
        sums = np.zeros((p, 1 << k))
    for c in range(k) if blocks is None else blocks:
        np.add(sums[:, :1 << c], prototypes[c, :, None], out=sums[:, 1 << c:2 << c])
    return sums


def _uses_subset_dists(n, k, p) -> bool:
    """Given a subset table, whether `_distance` takes the all-subset path.

    It costs one (n, 2^k, p) batch per prototype set over all 2^k images,
    and spares the greedy steps and the objective their dissimilarity
    calls; up to about 2^13 elements the calls spared cost more.
    """
    return n * p << k <= _SUBSET_DISTS_MAX_ELEMENTS


@cache
def _subset_sizes(k) -> np.ndarray:
    """|A| of every subset code below 2^k, read-only; the empty set, which no row is, reads 1."""
    sizes = _subset_sums(np.ones((k, 1)))[0]
    sizes[0] = 1.0
    sizes.flags.writeable = False
    return sizes


def _masked_sums(sets, prototypes) -> np.ndarray:
    """Each point's prototypes added in cluster-id order, from +0.0: (p, n).

    `sets` is an (n, k) bool matrix, column c marking cluster c's points.
    """
    total = np.zeros((prototypes.shape[1], len(sets)))
    for cluster, prototype in zip(sets.T, prototypes[:, :, None]):
        np.add(total, prototype, out=total, where=cluster)
    return total


def _images(sets, prototypes) -> np.ndarray:
    """Each point's image, its `_masked_sums` over |A|: (p, n) for an (n, k) bool `sets`.

    |A| is added up with the sums, as a column of ones on the prototypes:
    a bool reduction would cast in 16-element buffers (`run_okm`'s).
    """
    counted = np.ones((len(prototypes), prototypes.shape[1] + 1))
    counted[:, :-1] = prototypes
    total = _masked_sums(sets, counted)
    return total[:-1] / total[-1]


def image(assigned, prototypes) -> np.ndarray:
    """Mean of the prototypes of the clusters in `assigned`."""
    prototypes = np.asarray(prototypes, dtype=float)
    return _images(_cluster_matrix([assigned], len(prototypes)), prototypes)[:, 0]


def _run_ids(n, k):
    """A run's point ids 0..n-1 and singletons: codes 1 << c given `_uses_table`, else eye rows."""
    singletons = 1 << np.arange(k) if _uses_table(n, k) else np.eye(k, dtype=bool)
    ids = np.arange(n), singletons
    for array in ids:
        array.flags.writeable = False
    return ids


def _assign(nearest, dist, previous=None, previous_dists=None, ids=None) -> np.ndarray:
    """Greedy cluster sets of all points at once, in the form of the run's singletons.

    `nearest` and `dist` are the prototypes' `_distance`, and `ids` the
    run's `_run_ids`, made here when not given; the sets are codes or
    (n, k) bool rows as its singletons are.  Step t offers every
    still-growing point its (t+1)-th nearest cluster (ties by id); a
    point keeps growing while its image dissimilarity strictly improves.
    Sets of `previous` that strictly beat the greedy result are kept
    instead, given `previous_dists`, their dissimilarities to the images
    of `previous` at these prototypes.
    """
    dists = nearest()  # (k, n): one row per cluster
    k, n = dists.shape
    order = dists.argsort(axis=0, kind="stable")
    point_ids, singletons = _run_ids(n, k) if ids is None else ids
    best = dists[order[0], point_ids]  # a 1-set's image is its prototype
    chosen = singletons.take(order[0], axis=0)
    growing = np.s_[:]  # every point tries a second cluster
    for step in range(1, k):
        candidate = chosen[growing] | singletons.take(order[step][growing], axis=0)
        tried = dist(growing, candidate)
        improved = tried < best[growing]
        growing = improved.nonzero()[0] if step == 1 else growing[improved]
        chosen[growing] = candidate[improved]
        best[growing] = tried[improved]
        if not growing.size:
            break
    if previous is not None:
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
    check_domain(d, x, prototypes)  # the images are means of the prototypes
    nearest, dist = _distance(d, x[None, :], prototypes)
    previous_dists = None if previous is None else _objective(previous, dist)[1]
    chosen = _assign(nearest, dist, previous, previous_dists)[0]
    return frozenset(np.flatnonzero(chosen).tolist())


def _update_prototypes(sets, prototypes, values, nonneg=False, sums=None, stack=None):
    """The prototypes after one pass over the clusters in id order, freshest values first.

    `sets` are the points' codes given `sums`, the prototypes'
    `_subset_sums` table, and otherwise their (n, k) bool matrix; `sums`
    is updated in place to the returned prototypes' table, blocks c and
    c + 2 up after each cluster c, moved or empty.  `stack` is a
    (p + 1, n) buffer whose last row is ones, held by a run for all its
    updates; without it one is made.
    """
    new = prototypes.copy()
    if stack is None:
        stack = np.ones((values.shape[1] + 1, len(values)))
    # Counted in floats: a bool reduction would cast in 16-element buffers (`run_okm`'s).
    sizes = sets.astype(float).sum(axis=1) if sums is None else _subset_sizes(len(new)).take(sets)
    np.multiply(sizes, values.T, out=stack[:-1])  # |A_i| x_i over a row of ones
    squares = sizes * sizes
    for c in range(len(new)):
        bit = 1 << c
        members = (sets[:, c] if sums is None else sets & bit).nonzero()[0]
        if members.size:
            # Each member's other prototypes, freshest values, in cluster-id order: (p, m).
            if sums is not None:
                others = sums.take(sets.take(members) & ~bit, axis=1)
            else:
                others = sets.take(members, axis=0)
                others[:, c] = False
                others = _masked_sums(others, new)
            # The terms (|A_i| x_i - others) / |A_i|^2 over 1 / |A_i|^2, the members added one after
            # another, in index order, as the reference does: the last column holds num over den.
            terms = stack.take(members, axis=1)
            terms[:-1] -= others
            terms /= squares.take(members)
            total = np.add.accumulate(terms, axis=1)[:, -1]
            moved = np.divide(total[:-1], total[-1], out=new[c])
            if nonneg:
                np.maximum(moved, 0.0, out=moved)
        if sums is not None:
            # Cluster c + 1 reads no code with bit c + 1, so block c + 1 waits for its refresh.
            _subset_sums(new, sums, (c, *range(c + 2, len(new))))
    return new


def _covering_values(cov: Covering, data) -> np.ndarray:
    """The values of `data`, whose points and features must be those of `cov`."""
    values = data_values(data)
    if values.shape != (len(cov.memberships), cov.prototypes.shape[1]):
        raise DimensionMismatch(f"covering with memberships {cov.memberships.shape} and prototypes "
                                f"{cov.prototypes.shape} does not fit data of shape {values.shape}")
    return values


def update_prototypes(cov: Covering, data) -> np.ndarray:
    """Recompute all k prototypes for fixed assignments."""
    values = _covering_values(cov, data)
    return _update_prototypes(cov.memberships, cov.prototypes, values)


def _objective(sets, dist):
    """J and the per-point values it adds up, each point's `dist` to the image of its set."""
    point_values = dist(np.s_[:], sets)
    return sequential_sum(point_values), point_values  # as the reference adds them


def _distance(d: Dissimilarity, values, prototypes, x_self=None, sums=None, ids=None):
    """`nearest, dist`: how far the data rows `values` are from the images of `prototypes`.

    `nearest()` gives each point's distance to each prototype as the C
    (k, n) array the assignment's sort reads, from a (k, n, p) batch whose
    points are innermost, as the data's are.  `dist(at, sets)` gives each
    point `values[at]`'s distance to the image of its set in `sets`; `at`
    is a slice or an index array.  Values are `unchecked_dissim_rows`:
    the caller has checked the signs.  `x_self`, the rows' K(x, x)
    (`kernels.self_kernel`), is read at `at` too, and `ids`, the run's
    `_run_ids`, by the all-subset path.  There are three image paths:

      * the subset table (`_uses_table`): `sums` is the prototypes'
        `_subset_sums` and `sets` are codes, read from one image table,
        column s the sum at code s over its size.
      * the all-subset distances: with `sums`, where `_uses_subset_dists`
        holds for n, k and p, each point's distance to the image of every
        code is one (n, 2^k) array, from which both functions gather.  If
        some image gives a fractional polynomial degree a negative base,
        the subset table's path is taken instead, which raises only where
        a step's sets reach such a base.
      * masked sums: without `sums`, `sets` are an (m, k) bool matrix and
        each call builds its `_images`.
    """
    k = len(prototypes)
    image_table = None if sums is None else sums / _subset_sizes(k)
    points = values.T  # (p, n), gathered along the point axis

    def against(at, Y):
        rows = points.take(at, axis=1).T if isinstance(at, np.ndarray) else values[at]
        return unchecked_dissim_rows(d, rows, Y, None if x_self is None else x_self[at])

    def nearest():
        try:
            return against(np.s_[None, :], prototypes[:, None, :])
        except DomainError:
            # Raised again point by point, so the error names the base the reference meets first.
            against(np.s_[:, None], prototypes[None])
            raise

    def dist(at, sets):
        images = _images(sets, prototypes) if sums is None else image_table.take(sets, axis=1)
        return against(at, images.T)

    if sums is None or not _uses_subset_dists(len(values), k, values.shape[1]):
        return nearest, dist
    try:
        # C rows, so the (n, 2^k, p) temporaries run over contiguous points, as the data do.
        every = against(np.s_[:, None], np.ascontiguousarray(image_table.T)[None])
    except DomainError:
        return nearest, dist
    point_ids, singletons = (np.arange(len(values)), 1 << np.arange(k)) if ids is None else ids
    return (lambda: every.take(singletons, axis=1).T,
            lambda at, sets: every[at if isinstance(at, np.ndarray) else point_ids[at], sets])


def objective(cov: Covering, d: Dissimilarity, data) -> float:
    """Recompute J for a covering from scratch."""
    values = _covering_values(cov, data)
    return sequential_sum(dissim_rows(d, values, _images(cov.memberships, cov.prototypes).T))


@unbuffered()
@np.errstate(over="ignore", invalid="ignore")  # overflow is caught as a non-finite J
def run_okm(data, config: OkmConfig, on_iteration=None) -> Covering:
    """One clustering run: initialize, alternate assign/update, stop.

    Stops when assignments repeat, the relative improvement of J falls
    below `rel_tol`, `max_iter` is reached, or J increases (the state
    then reverts to the previous iteration).  `on_iteration(i, J)`, if
    given, is called after each completed iteration, inside the run's
    `linalg.unbuffered()` and error state.  Raises DomainError at the
    first J that is not finite: the data overflow the measure.
    """
    values = data_values(data)
    n = len(values)
    if n < config.k:
        raise InsufficientData(f"{n} points cannot seed {config.k} clusters")
    d = config.dissimilarity
    nonneg = d.kind == DissimilarityKind.I_DIVERGENCE
    check_domain(d, values)

    rng = np.random.default_rng(config.seed)
    idx = rng.choice(n, size=config.k, replace=False)
    prototypes = values[idx]
    sums = _subset_sums(prototypes) if _uses_table(n, config.k) else None
    x_self = self_kernel(d.kernel, values) if d.kind == DissimilarityKind.KERNEL_INDUCED else None
    ids = _run_ids(n, config.k)
    stack = np.ones((values.shape[1] + 1, n))  # the update's rows, over a row of ones
    nearest, dist = _distance(d, values, prototypes, x_self, sums, ids)

    sets = point_values = None
    current_j = None
    iterations = 0
    for _ in range(config.max_iter):
        new_sets = _assign(nearest, dist, sets, point_values, ids)
        new_prototypes = _update_prototypes(new_sets, prototypes, values, nonneg, sums, stack)
        nearest, dist = _distance(d, values, new_prototypes, x_self, sums, ids)
        new_j, new_point_values = _objective(new_sets, dist)
        if not math.isfinite(new_j):
            raise DomainError(f"J is {new_j}: the data overflow this measure")
        if current_j is not None and new_j > current_j:
            break  # safeguard: keep the previous (better) state
        unchanged = sets is not None and bool((new_sets == sets).all())
        improvement = None if current_j is None else (current_j - new_j) / max(current_j, _REL_TOL_GUARD)
        sets, prototypes, current_j = new_sets, new_prototypes, new_j
        point_values = new_point_values
        iterations += 1
        if on_iteration is not None:
            on_iteration(iterations, current_j)
        if unchanged or (improvement is not None and improvement < config.rel_tol):
            break

    if sums is not None:
        sets = (sets[:, None] & ids[1]) != 0
    return Covering(memberships=sets, prototypes=prototypes, objective=current_j, n_iter=iterations)
