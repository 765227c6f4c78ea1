import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from okmlib import (
    Covering,
    DimensionMismatch,
    Dissimilarity,
    DissimilarityKind,
    EmptyAssignment,
    InsufficientData,
    KernelKind,
    KernelSpec,
    OkmConfig,
    SyntheticSpec,
    assign_point,
    dissim,
    generate_synthetic,
    image,
    objective,
    run_okm,
    update_prototypes,
)
from okmlib import divergences, kernels, okm
from okmlib.errors import DomainError, InvalidSpec, NegativeInput
from okmlib.linalg import row_sum
from okmlib.okm import _assign, _cluster_matrix, _distance, _objective, _update_prototypes

SQ = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
IDIV = Dissimilarity(DissimilarityKind.I_DIVERGENCE)
RBF1 = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF, sigma=1.0))
POLY025 = Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                        kernel=KernelSpec(KernelKind.POLYNOMIAL, degree=0.25))


def codes_of(memberships):
    """Each row of an (n, k) bool matrix as its subset code, bit c set for cluster c."""
    return memberships @ (1 << np.arange(memberships.shape[1]))


def run_ids(n, k, table):
    """`okm._run_ids(n, k)` as a run with (codes) or without (bool rows) the subset table has them."""
    with pytest.MonkeyPatch.context() as forced:
        forced.setattr(okm, "_uses_table", lambda n, k: table)
        return okm._run_ids(n, k)


def make_covering(assignments, prototypes):
    prototypes = np.asarray(prototypes, dtype=float)
    return Covering(memberships=_cluster_matrix(assignments, len(prototypes)),
                    prototypes=prototypes, objective=0.0, n_iter=0)


# -------------------------------------------------------------------- Covering


def test_covering_reports_the_first_bad_point():
    for first in (0, 1, 4):
        memberships = np.ones((6, 2), dtype=bool)
        memberships[first::2] = False
        with pytest.raises(EmptyAssignment, match=f"^point {first} has no cluster$"):
            Covering(memberships=memberships, prototypes=np.zeros((2, 1)), objective=0.0, n_iter=0)


def test_covering_requires_k_by_p_prototypes():
    two = np.array([[True, False], [False, True]])
    three = np.ones((2, 3), dtype=bool)
    for memberships, prototypes, k in ((two, np.zeros((3, 1)), 2),
                                       (two, np.zeros(2), 2),
                                       (two, np.zeros((2, 1, 1)), 2),
                                       (three, np.zeros((2, 1)), 3)):
        with pytest.raises(ValueError, match=rf"prototypes must be a \({k}, p\) array") as exc:
            Covering(memberships=memberships, prototypes=prototypes, objective=0.0, n_iter=0)
        assert not isinstance(exc.value, EmptyAssignment)


@pytest.mark.parametrize("memberships, message", [
    (np.array([[0], [1]], dtype=np.int64), "int64 of shape (2, 1)"),
    (np.ones(2, dtype=bool), "bool of shape (2,)"),
    (np.ones((2, 2, 1), dtype=bool), "bool of shape (2, 2, 1)"),
], ids=["cluster-ids", "one-row", "three-axes"])
def test_covering_requires_an_n_by_k_bool_matrix(memberships, message):
    with pytest.raises(ValueError, match=f"^memberships must be an \\(n, k\\) bool array, got "
                                         f"{re.escape(message)}$"):
        Covering(memberships=memberships, prototypes=np.zeros((2, 1)), objective=0.0, n_iter=0)


def test_covering_keeps_a_read_only_copy_of_the_memberships():
    memberships = np.array([[True, False], [True, True]])
    cov = Covering(memberships=memberships, prototypes=np.zeros((2, 1)), objective=0.0, n_iter=0)
    assert not cov.memberships.flags.writeable
    with pytest.raises(ValueError):
        cov.memberships[0, 1] = True
    memberships[0, 1] = True  # the caller's array stays the caller's
    memberships[1] = False
    assert np.array_equal(cov.memberships, [[True, False], [True, True]])
    assert cov.assignments == (frozenset({0}), frozenset({0, 1}))
    assert cov.k == 2


@pytest.mark.parametrize("objective, n_iter, message", [
    (math.nan, 0, "objective must be finite and nonnegative, got nan"),
    (math.inf, 0, "objective must be finite and nonnegative, got inf"),
    (-1.0, 0, "objective must be finite and nonnegative, got -1.0"),
    (0.0, -3, "n_iter must be nonnegative, got -3"),
    (math.nan, -3, "objective must be finite and nonnegative, got nan"),
], ids=["nan", "inf", "negative", "negative-n_iter", "both"])
def test_covering_rejects_a_non_finite_objective_or_a_negative_n_iter(objective, n_iter, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Covering(memberships=np.ones((1, 1), dtype=bool), prototypes=np.zeros((1, 1)),
                 objective=objective, n_iter=n_iter)


def test_invalid_cluster_ids_raise_alike_wherever_they_enter():
    protos = np.array([[0.0], [1.0], [2.0]])
    x = np.array([0.5])
    entries = (
        lambda ids: image(ids, protos),
        lambda ids: assign_point(x, protos, SQ, previous=ids),
        # The cluster ids are checked before the sign of the point.
        lambda ids: assign_point(-x, protos, IDIV, previous=ids),
    )
    for enter in entries:
        with pytest.raises(EmptyAssignment, match="has no cluster"):
            enter(set())
        for ids in ({-1}, {3}, {0, 3}, {1.5}):
            with pytest.raises(ValueError, match=r"references a cluster outside 0\.\.2") as exc:
                enter(ids)
            assert not isinstance(exc.value, EmptyAssignment)


# Coverings that do not fit 6 x 4 data: too few points, too many, too few features.
MISFITS = {"one-point": ([{0, 1}], np.zeros((2, 4))), "five-points": ([{0}] * 5, np.zeros((2, 4))),
           "three-features": ([{0}] * 6, np.zeros((2, 3)))}


@pytest.mark.parametrize("misfit", sorted(MISFITS))
@pytest.mark.parametrize("step", [update_prototypes, lambda cov, data: objective(cov, SQ, data)],
                         ids=["update_prototypes", "objective"])
def test_a_covering_that_does_not_fit_the_data_is_rejected(step, misfit):
    cov = make_covering(*MISFITS[misfit])
    message = (f"covering with memberships {cov.memberships.shape} and prototypes "
               f"{cov.prototypes.shape} does not fit data of shape (6, 4)")
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        step(cov, np.arange(24.0).reshape(6, 4))


def test_covering_memberships_and_assignment_sets_round_trip():
    rng = np.random.default_rng(64)
    for k in (1, 2, 3, 7, 8, 9, 16, 31, 32, 33, 63, 64, 65, 80):
        n = int(rng.integers(1, 60))
        sets = tuple(frozenset(rng.choice(k, size=int(rng.integers(1, min(k, 5) + 1)),
                                          replace=False).tolist()) for _ in range(n))
        expected = np.array([[c in s for c in range(k)] for s in sets])
        assert np.array_equal(_cluster_matrix(sets, k), expected)
        cov = Covering(memberships=expected, prototypes=np.zeros((k, 2)), objective=0.0, n_iter=0)
        assert cov.memberships.dtype == bool and cov.memberships.shape == (n, k)
        assert np.array_equal(cov.memberships, expected)
        assert not cov.memberships.flags.writeable
        assert cov.k == k
        assert cov.assignments == sets
        assert cov.assignments is cov.assignments  # built once
        assert np.array_equal(make_covering(cov.assignments, np.zeros((k, 2))).memberships, expected)


# ----------------------------------------------------------------------- image


def test_image_single_cluster_is_prototype():
    protos = np.array([[3.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(image({0}, protos), [3.0, 1.0])


def test_image_two_clusters_is_midpoint():
    protos = np.array([[0.0, 0.0], [2.0, 2.0]])
    assert np.array_equal(image({0, 1}, protos), [1.0, 1.0])


def test_image_three_clusters_symmetric_mean():
    protos = np.array([[0.0], [3.0], [6.0]])
    assert np.array_equal(image({0, 1, 2}, protos), [3.0])


def test_image_rejects_empty_set():
    with pytest.raises(EmptyAssignment):
        image(set(), np.array([[0.0]]))


# ------------------------------------------------------------------- objective


def test_objective_zero_when_points_equal_images():
    data = np.array([[2.0], [2.0]])
    cov = make_covering([{0}, {0}], [[2.0]])
    assert objective(cov, SQ, data) == 0.0


def test_objective_hand_evaluation():
    data = np.array([[0.0], [2.0]])
    cov = make_covering([{0}, {0}], [[1.0]])
    assert objective(cov, SQ, data) == 2.0
    # same instance under the rbf-induced distance: 2 * (2 - 2 e^{-1})
    assert objective(cov, RBF1, data) == pytest.approx(4.0 - 4.0 / math.e, abs=1e-12)


def test_objective_adds_the_points_left_to_right():
    # Point values 1e16, 1, 1: a sequential sum rounds each 1 away, a
    # compensated one (the builtin sum() from Python 3.12 on) keeps both.
    data = np.array([[1e8], [1.0], [1.0]])
    cov = make_covering([{0}, {0}, {0}], [[0.0]])
    assert objective(cov, SQ, data) == 1e16 != math.fsum([1e16, 1.0, 1.0])
    assert _objective(cov.memberships[:0], _distance(SQ, data[:0], cov.prototypes)[1])[0] == 0.0


# ---------------------------------------------------------------- assign_point


def test_assign_point_rejects_a_point_that_does_not_fit_the_prototypes():
    protos = np.zeros((2, 4))
    for x, prototypes in ((np.zeros(3), protos), (np.zeros((1, 4)), protos), (np.zeros(4), np.zeros(4))):
        with pytest.raises(DimensionMismatch, match="^incompatible shapes: point "):
            assign_point(x, prototypes, SQ)


def test_assign_single_cluster_forced():
    assert assign_point(np.array([5.0]), np.array([[0.0]]), SQ) == frozenset({0})


def test_assign_does_not_add_worsening_cluster():
    chosen = assign_point(np.array([0.0]), np.array([[0.0], [10.0]]), SQ)
    assert chosen == frozenset({0})


def test_assign_takes_both_when_image_improves():
    chosen = assign_point(np.array([1.0]), np.array([[0.0], [2.0]]), SQ)
    assert chosen == frozenset({0, 1})


def test_assign_previous_wins_when_strictly_better():
    protos = np.array([[0.0], [2.0], [10.0]])
    x = np.array([3.5])
    # greedy stops at {1}: adding cluster 0 moves the image to 1.0 and worsens
    assert assign_point(x, protos, SQ) == frozenset({1})
    # the full set has image 4.0, strictly better for x=3.5, so it is kept
    kept = assign_point(x, protos, SQ, previous=frozenset({0, 1, 2}))
    assert kept == frozenset({0, 1, 2})


def test_assign_never_worse_than_previous():
    rng = np.random.default_rng(14)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        protos = rng.standard_normal((k, 2))
        x = rng.standard_normal(2)
        previous = frozenset(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
        result = assign_point(x, protos, SQ, previous=previous)
        d_result = dissim(SQ, x, image(result, protos))
        d_previous = dissim(SQ, x, image(previous, protos))
        assert d_result <= d_previous


def test_assign_matches_exhaustive_search_for_middle_point():
    # prototypes near the two outer points of {0, 2, 4}
    protos = np.array([[0.5], [3.5]])
    x = np.array([2.0])
    subsets = [frozenset(s) for r in (1, 2) for s in itertools.combinations(range(2), r)]
    best = min(subsets, key=lambda s: dissim(SQ, x, image(s, protos)))
    assert assign_point(x, protos, SQ) == best == frozenset({0, 1})


def reference_assign_point(x, prototypes, d, previous=None):
    """The per-point greedy assignment, one scalar dissim call at a time."""
    def img(ids):
        return prototypes[sorted(ids)].mean(axis=0)

    k = len(prototypes)
    order = sorted(range(k), key=lambda c: (dissim(d, x, prototypes[c]), c))
    chosen = [order[0]]
    best = dissim(d, x, img(chosen))
    for c in order[1:]:
        candidate = chosen + [c]
        dist = dissim(d, x, img(candidate))
        if dist < best:
            chosen = candidate
            best = dist
        else:
            break
    if previous is not None:
        if dissim(d, x, img(previous)) < best:
            return frozenset(previous)
    return frozenset(chosen)


def test_batched_assignment_matches_per_point_reference(monkeypatch):
    # Small integer grids make exact ties common: equal prototype
    # distances (ordered by id) and candidates that tie the best image.
    # The codes run on the subset table and on the all-subset distances,
    # each forced, whatever n, k and p would pick.
    rng = np.random.default_rng(61)
    for d in (SQ, IDIV, RBF1, POLY025):
        for trial in range(40):
            n = int(rng.integers(1, 40))
            p = int(rng.integers(1, 5))
            k = int(rng.integers(1, 7))
            if trial % 2:
                data = rng.integers(0, 4, (n, p)).astype(float)
                protos = rng.integers(0, 4, (k, p)).astype(float)
            else:
                data = rng.uniform(0.0, 3.0, (n, p))
                protos = rng.uniform(0.0, 3.0, (k, p))
            previous = [frozenset(rng.choice(k, size=int(rng.integers(1, k + 1)),
                                             replace=False).tolist()) for _ in range(n)]
            masked_state = _distance(d, data, protos)
            code_states = {}
            for path in ("table", "all"):
                monkeypatch.setattr(okm, "_uses_subset_dists", lambda n, k, p: path == "all")
                code_states[path] = _distance(d, data, protos, sums=okm._subset_sums(protos))
            for prev in (None, previous):
                expected = [reference_assign_point(data[i], protos, d,
                                                   None if prev is None else prev[i])
                            for i in range(n)]
                expected = _cluster_matrix(expected, k)
                prev_matrix = prev_codes = masked_dists = None
                if prev is not None:
                    # The objective's per-point values are the previous sets' distances.
                    prev_matrix = _cluster_matrix(prev, k)
                    prev_codes = codes_of(prev_matrix)
                    masked_dists = _objective(prev_matrix, masked_state[1])[1]
                masked = _assign(*masked_state, prev_matrix, masked_dists, run_ids(n, k, False))
                assert np.array_equal(masked, expected), (d, trial, prev is None)
                for path, state in code_states.items():
                    code_dists = None if prev is None else _objective(prev_codes, state[1])[1]
                    codes = _assign(*state, prev_codes, code_dists, run_ids(n, k, True))
                    assert np.array_equal(codes, codes_of(expected)), (d, trial, path, prev is None)


def test_assign_point_is_one_row_of_the_batched_assignment():
    rng = np.random.default_rng(62)
    data = rng.uniform(0.0, 3.0, (20, 3))
    protos = rng.uniform(0.0, 3.0, (4, 3))
    batched = _assign(*_distance(RBF1, data, protos), ids=run_ids(20, 4, False))
    for i in range(20):
        assert assign_point(data[i], protos, RBF1) == frozenset(np.flatnonzero(batched[i]).tolist())


# ----------------------------------------------------- the three image paths
#
# Images and "other prototypes" come from a table of all 2^k subset sums,
# read at the points' codes, when a step is given one, and from masked
# adds over an (n, k) bool matrix otherwise; the all-subset distances
# gather from the table's images.  All must give the same bits.

RBF_WIDE = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF, sigma=1e3))


@pytest.fixture()
def masked_adds(monkeypatch):
    """One entry per `_masked_sums` call, so a test can tell which path a step took."""
    calls = []
    masked_sums = okm._masked_sums

    def recording(sets, prototypes):
        calls.append(len(sets))
        return masked_sums(sets, prototypes)

    monkeypatch.setattr(okm, "_masked_sums", recording)
    return calls


def _path_cases():
    """Rows X of 2^k - 1 points with their prototypes and memberships, for each case.

    Magnitudes run from 1e-3 to 1e3; euclidean and rbf get both signs, the
    measures that need nonnegative input (idiv, fractional poly) do not.
    """
    rng = np.random.default_rng(71)
    for d in (SQ, IDIV, RBF_WIDE, POLY025):
        signs = (-1.0, 1.0) if d in (SQ, RBF_WIDE) else (1.0,)
        spread = lambda shape: 10.0 ** rng.uniform(-3, 3, shape) * rng.choice(signs, shape)
        for p in (1, 8):
            for k in range(1, 9):
                n = 2 ** k - 1
                values, protos = spread((n, p)), spread((k, p))
                memberships = np.zeros((n, k), dtype=bool)
                for i in range(n):
                    memberships[i, rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)] = True
                yield d, values, protos, memberships


def test_assign_and_objective_are_the_same_on_every_image_path(masked_adds, monkeypatch):
    # Each case has n = 2^k - 1 points, so the "all" path runs where a run would not take it.
    for d, x, protos, previous in _path_cases():
        case = (d.kind, x.shape, len(protos))
        results = {}
        for path, sums, sets in (("masked", None, previous),
                                 ("table", okm._subset_sums(protos), codes_of(previous)),
                                 ("all", okm._subset_sums(protos), codes_of(previous))):
            monkeypatch.setattr(okm, "_uses_subset_dists", lambda n, k, p: path == "all")
            masked_adds.clear()
            ids = run_ids(len(x), len(protos), sums is not None)
            nearest, dist = _distance(d, x, protos, sums=sums)
            j, point_values = _objective(sets, dist)
            results[path] = (nearest(),
                             point_values,
                             _assign(nearest, dist, ids=ids),
                             _assign(nearest, dist, sets, point_values, ids))
            assert results[path][0].shape == (len(protos), len(x)), (case, path)
            assert bool(masked_adds) == (path == "masked"), (case, path)
            assert j == np.cumsum(point_values)[-1]
        masked = results.pop("masked")
        for table in results.values():
            assert np.array_equal(table[0], masked[0]) and np.array_equal(table[1], masked[1]), case
            # The table paths' codes are the masked path's rows, bit c for column c.
            for codes, matrix in zip(table[2:], masked[2:]):
                assert codes.shape == (len(x),) and matrix.shape == (len(x), len(protos)), case
                assert np.array_equal(codes, codes_of(matrix)), case


def test_update_is_the_same_on_both_image_paths(masked_adds):
    for d, x, protos, rows in _path_cases():
        nonneg = d is IDIV
        masked_adds.clear()
        table = _update_prototypes(codes_of(rows), protos, x, nonneg, okm._subset_sums(protos))
        assert not masked_adds
        masked = _update_prototypes(rows, protos, x, nonneg)
        assert masked_adds
        assert np.array_equal(table, masked), (d.kind, x.shape, len(protos))


# ------------------------------------------------- one table per prototype set
#
# The update keeps the subset table current in place as each cluster
# moves; it must hold the bits a table built from scratch holds.


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_subset_table_refreshed_in_place_is_the_table_built_from_scratch():
    rng = np.random.default_rng(81)
    for sign in (-1.0, 1.0):
        for p in (1, 8):
            for k in range(1, 9):
                spread = lambda shape: sign * 10.0 ** rng.uniform(-3, 3, shape)
                new = spread((k, p))
                sums = okm._subset_sums(new)
                for c in range(k):
                    new[c] = spread(p)
                    okm._subset_sums(new, sums, range(c, k))
                    assert _same_bits(sums, okm._subset_sums(new)), (sign, p, k, c)


def test_update_leaves_the_table_of_the_prototypes_it_returns():
    for d, x, protos, rows in _path_cases():
        sums = okm._subset_sums(protos)
        new = _update_prototypes(codes_of(rows), protos, x, d is IDIV, sums)
        assert np.array_equal(new, _update_prototypes(rows, protos, x, d is IDIV))
        assert _same_bits(sums, okm._subset_sums(new)), (d.kind, x.shape, len(protos))


def test_update_refreshes_the_table_it_reads_whichever_clusters_are_empty(monkeypatch):
    # After cluster c, moved or empty, the update refreshes blocks c and c + 2 up and leaves
    # block c + 1 to cluster c + 1, which reads no code with bit c + 1.  Every set of empty
    # clusters, the first and the last among them, must give the prototypes of the eager
    # refresh (blocks c and up after each cluster c) and leave the full table.
    subset_sums = okm._subset_sums

    def eager(prototypes, sums=None, blocks=None):
        return subset_sums(prototypes, sums, None if blocks is None else range(blocks[0], len(prototypes)))

    for seed in range(3):
        rng = np.random.default_rng(90 + seed)
        for k in range(1, 7):
            for empty in range((1 << k) - 1):  # bit c set: cluster c has no member
                filled = [c for c in range(k) if not empty >> c & 1]
                draws = rng.integers(1, 1 << len(filled), 70)
                codes = ((draws[:, None] >> np.arange(len(filled))) & 1) @ (1 << np.array(filled))
                x = rng.standard_normal((70, 3)) * 10.0 ** rng.uniform(-3, 3, (70, 3))
                protos = rng.standard_normal((k, 3)) * 10.0 ** rng.uniform(-3, 3, (k, 3))
                nonneg = bool(seed % 2)
                sums = subset_sums(protos)
                new = _update_prototypes(codes, protos, x, nonneg, sums)
                case = (seed, k, empty)
                assert _same_bits(sums, subset_sums(new)), case
                with monkeypatch.context() as patch:
                    patch.setattr(okm, "_subset_sums", eager)
                    assert _same_bits(new, _update_prototypes(codes, protos, x, nonneg, subset_sums(protos))), case


@pytest.fixture()
def image_batches(monkeypatch):
    """(m, distances) of each `unchecked_dissim_rows` call against one (1, m, p) batch of images.

    At m = 2^k that is the all-subset distance array of a prototype set;
    `distances` is None where the call raised DomainError.
    """
    batches = []
    dissim_rows = okm.unchecked_dissim_rows

    def recording(d, X, Y, *rest):
        if Y.ndim != 3 or Y.shape[0] != 1:
            return dissim_rows(d, X, Y, *rest)
        batches.append((Y.shape[1], None))
        batches[-1] = (Y.shape[1], dissim_rows(d, X, Y, *rest))
        return batches[-1][1]

    monkeypatch.setattr(okm, "unchecked_dissim_rows", recording)
    return batches


def test_run_okm_builds_one_table_and_no_per_round_matrix(iris, monkeypatch, masked_adds, image_batches):
    # On the table path a round's sets are (n,) codes from the assignment
    # through the update and the objective; the (n, k) matrix is built
    # once, for the returned Covering.  With the all-subset distances one
    # (n, 2^k) array is built per prototype set, after the first table and
    # after each update.  The sizes table is cached per k; build it before counting.
    okm._subset_sizes(3)
    counts = {}
    sets = []
    subset_sums, assign, covering = okm._subset_sums, okm._assign, okm.Covering

    def counted_subset_sums(prototypes, sums=None, blocks=None):
        counts["from scratch"] += sums is None
        return subset_sums(prototypes, sums, blocks)

    def counted_assign(*args):
        counts["rounds"] += 1
        sets.append(("assign", assign(*args)))
        return sets[-1][1]

    def recorded(name, step):
        def wrapper(*args):
            sets.append((name, args[0]))
            return step(*args)
        return wrapper

    def counted_covering(**fields):
        counts["coverings"] += 1
        return covering(**fields)

    monkeypatch.setattr(okm, "_subset_sums", counted_subset_sums)
    monkeypatch.setattr(okm, "_assign", counted_assign)
    monkeypatch.setattr(okm, "_update_prototypes", recorded("update", okm._update_prototypes))
    monkeypatch.setattr(okm, "_objective", recorded("objective", okm._objective))
    monkeypatch.setattr(okm, "Covering", counted_covering)
    iterations = set()
    for all_subsets in (True, False):
        monkeypatch.setattr(okm, "_uses_subset_dists", lambda n, k, p: all_subsets)
        for d in (SQ, IDIV):
            for max_iter in (1, 2, 100):
                counts.update({"from scratch": 0, "rounds": 0, "coverings": 0})
                sets.clear()
                image_batches.clear()
                cov = run_okm(iris, OkmConfig(k=3, dissimilarity=d, max_iter=max_iter, seed=650))
                iterations.add(cov.n_iter)
                case = (all_subsets, d.kind, max_iter, counts)
                rounds = counts["rounds"]
                assert counts == {"from scratch": 1, "rounds": rounds, "coverings": 1}, case
                tables = [dists for m, dists in image_batches if m == 8]
                assert len(tables) == (rounds + 1 if all_subsets else 0), case
                assert all(table.shape == (150, 8) for table in tables), case
                # Per round: the assignment's sets, the update's and the objective's.
                assert rounds >= cov.n_iter, case
                assert [name for name, _ in sets] == ["assign", "update", "objective"] * rounds, case
                assert all(s.shape == (150,) and np.issubdtype(s.dtype, np.integer) for _, s in sets), case
                assert not masked_adds, case
                assert cov.memberships.shape == (150, 3)
    assert len(iterations) >= 4, iterations


@pytest.mark.parametrize("k, all_subsets", [(3, True), (3, False), (8, False), (63, False), (64, False)],
                         ids=["all", "table", "masked", "masked-k63", "masked-k64"])
def test_run_okm_takes_j_from_one_objective_call_per_round_on_every_path(iris, monkeypatch, k, all_subsets):
    # Each round's J, the one `on_iteration` reports and `Covering.objective` holds, is the one
    # `_objective` returns; a round that J would increase is the one round without a callback.
    # From k = 63 on, a code 1 << c would not fit an int64: the sets are bool rows there too.
    monkeypatch.setattr(okm, "_uses_subset_dists", lambda n, k, p: all_subsets)
    assign, objective = okm._assign, okm._objective
    sets, objectives = [], []

    def spied_assign(*args):
        sets.append(("assign", assign(*args)))
        return sets[-1][1]

    def spied_objective(*args):
        sets.append(("objective", args[0]))
        objectives.append(objective(*args))
        return objectives[-1]

    monkeypatch.setattr(okm, "_assign", spied_assign)
    monkeypatch.setattr(okm, "_objective", spied_objective)
    table = okm._uses_table(150, k)
    assert table == (k == 3)
    for d in (SQ, IDIV, RBF150, POLY025):
        for max_iter in (1, 2, 100):
            sets.clear()
            objectives.clear()
            reported = []
            cov = run_okm(iris, OkmConfig(k=k, dissimilarity=d, max_iter=max_iter, seed=650),
                          on_iteration=lambda i, j: reported.append(j))
            case = (d.kind, max_iter)
            rounds = len(objectives)
            assert [name for name, _ in sets] == ["assign", "objective"] * rounds, case
            assert rounds - cov.n_iter in (0, 1) and len(reported) == cov.n_iter, case
            assert reported == [j for j, _ in objectives[:cov.n_iter]], case
            assert cov.objective == reported[-1], case
            for _, s in sets:
                assert s.shape == ((150,) if table else (150, k)), case
                assert np.issubdtype(s.dtype, np.integer) if table else s.dtype == bool, case


def _run_or_error(values, config):
    """A run's memberships, prototype bits, J and n_iter, or the message of the DomainError it raised."""
    try:
        cov = run_okm(values, config)
    except DomainError as exc:
        return (str(exc),)
    return cov.memberships.tobytes(), cov.prototypes.tobytes(), cov.objective, cov.n_iter


def test_run_okm_is_the_same_run_with_and_without_the_subset_distances(iris, monkeypatch, image_batches):
    # With `_uses_subset_dists` forced on, every step reads the all-subset
    # distances; forced off, the greedy steps and the objective evaluate
    # the sets they try.  Both runs must give the same memberships,
    # prototype bits, J and n_iter, or raise the same error.
    poly2 = Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                          kernel=KernelSpec(KernelKind.POLYNOMIAL, degree=2.0))
    cases = [(iris.values, k, d, 100) for k in range(1, 6) for d in (SQ, IDIV, RBF150, POLY025, poly2, LINEAR)]
    # Small nonnegative samples where a moved prototype gives some subset a
    # negative polynomial base: the fractional degree then raises only
    # where the sets a step tries reach that base.
    rng = np.random.default_rng(1)
    for _ in range(12):
        values = rng.uniform(0.0, 1.0, (int(rng.integers(8, 40)), 2)) ** 3 * 10.0 ** rng.uniform(-1.0, 1.5)
        cases += [(values, k, POLY025, max_iter) for k in (2, 3) for max_iter in (1, 2, 100)]
    outcomes = set()  # (the run completed, a distance table met a negative base)
    for (values, k, d, max_iter), seed in itertools.product(cases, range(650, 653)):
        config = OkmConfig(k=k, dissimilarity=d, max_iter=max_iter, seed=seed)
        runs = {}
        for all_subsets in (False, True):
            image_batches.clear()
            monkeypatch.setattr(okm, "_uses_subset_dists", lambda n, k, p: all_subsets)
            runs[all_subsets] = _run_or_error(values, config)
            tables = [dists for m, dists in image_batches if m == 1 << k]
            assert bool(tables) == all_subsets
        assert runs[True] == runs[False], (len(values), k, d, max_iter, seed)
        outcomes.add((isinstance(runs[True][0], bytes), any(table is None for table in tables)))
    assert {(True, False), (True, True), (False, True)} <= outcomes, outcomes


def test_run_okm_is_the_same_run_without_the_subset_table(iris, monkeypatch):
    # With `_uses_table` forced off every step adds masked sums; the run
    # must still give the table path's memberships, prototype bits, J and n_iter.
    synthetic = generate_synthetic(SyntheticSpec(
        k=5, points_per_cluster=400, overlap_pairs=tuple((c, (c + 1) % 5, 40) for c in range(5)),
        dimension=8, seed=0))
    rbf3 = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF, sigma=3.0))
    # The synthetic sample made nonnegative, as the i-divergence and poly 0.25 need.
    positive = np.abs(synthetic.values)
    cases = [(iris.values, 3, d, 100) for d in (SQ, IDIV, RBF150, POLY025)]
    cases += [(positive, 5, d, 100) for d in (SQ, IDIV, rbf3, POLY025)]
    # The edges of the code path: one-bit codes (k = 1), the smallest n that
    # reads a table (n = 2^k) and a run of one round.
    for d in (SQ, IDIV):
        cases += [(iris.values, 1, d, 100), (positive, 1, d, 100),
                  (iris.values[::19], 3, d, 100), (positive[::69], 5, d, 100),
                  (iris.values, 3, d, 1), (positive, 5, d, 1)]
    for (values, k, d, max_iter), seed in itertools.product(cases, range(650, 654)):
        assert okm._uses_table(len(values), k)
        if len(values) < 40:
            assert len(values) == 1 << k and not okm._uses_table(len(values) - 1, k)
        config = OkmConfig(k=k, dissimilarity=d, max_iter=max_iter, seed=seed)
        table = run_okm(values, config)
        with monkeypatch.context() as forced:
            forced.setattr(okm, "_uses_table", lambda n, k: False)
            masked = run_okm(values, config)
        case = (len(values), k, d.kind, max_iter, seed)
        assert np.array_equal(masked.memberships, table.memberships), case
        assert _same_bits(masked.prototypes, table.prototypes), case
        assert (masked.objective, masked.n_iter) == (table.objective, table.n_iter), case


def test_run_okm_checks_the_i_divergence_sign_once(iris, monkeypatch):
    calls = {"okm": 0, "divergences": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(okm, "check_domain", counted("okm", okm.check_domain))
    monkeypatch.setattr(divergences, "check_domain", counted("divergences", divergences.check_domain))
    cov = run_okm(iris, OkmConfig(k=3, dissimilarity=IDIV, seed=650))
    assert cov.n_iter > 1
    assert calls == {"okm": 1, "divergences": 0}


LINEAR = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.LINEAR))
RBF150 = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF, sigma=150.0))


def test_run_okm_evaluates_the_self_kernel_of_the_data_once_per_run(iris, monkeypatch):
    # A K(x, x) call over data rows, told apart from one over the (1, k, p)
    # prototypes (data rows in the first round) and over images.
    data_rows = {row.tobytes() for row in iris.values}
    calls = []
    kernel_rows = kernels.kernel_rows

    def counted(spec, X, Y):
        if X is Y and not (X.ndim == 3 and X.shape[0] == 1):
            rows = np.reshape(X, (-1, X.shape[-1]))
            if all(row.tobytes() in data_rows for row in rows):
                calls.append(len(rows))
        return kernel_rows(spec, X, Y)

    monkeypatch.setattr(kernels, "kernel_rows", counted)
    iterations = set()
    for d, expected in ((POLY025, [150]), (LINEAR, [150]), (RBF150, [])):
        for max_iter in (1, 3, 100):
            calls.clear()
            cov = run_okm(iris, OkmConfig(k=3, dissimilarity=d, max_iter=max_iter, seed=650))
            iterations.add(cov.n_iter)
            assert calls == expected, (d.kernel.kind, max_iter, calls)
    assert max(iterations) > 3, iterations


@pytest.mark.parametrize("path", ["table", "all", "masked"])
def test_rbf_run_whose_subset_sums_overflow_raises_domain_error(monkeypatch, path):
    # Finite data whose sums overflow: the images and the moved prototypes
    # are inf, where the rbf distance without K(x, x) and K(y, y) would read
    # a finite 2 - 2 exp(-inf) = 2 and hide the overflow.
    data = np.array([[1.5e308, 0.0], [1.7e308, 1.0], [1.6e308, 0.5], [1.4e308, 2.0],
                     [-1.5e308, 0.0], [-1.7e308, 1.0], [-1.6e308, 2.0], [-1.4e308, 0.5]])
    if path == "table":
        monkeypatch.setattr(okm, "_uses_subset_dists", lambda n, k, p: False)
    if path == "masked":
        monkeypatch.setattr(okm, "_uses_table", lambda n, k: False)
    from test_golden import _image_path
    for k in (2, 3):
        assert _image_path(len(data), k, data.shape[1]) == path, k
        with pytest.raises(DomainError, match="^J is nan: the data overflow this measure$"):
            run_okm(data, OkmConfig(k=k, dissimilarity=RBF1, seed=0))


def test_negative_data_still_raise_negative_input_at_every_entry():
    message = "^i-divergence requires nonnegative components$"
    data = np.array([[1.0, 2.0], [3.0, -0.5], [2.0, 2.0]])
    with pytest.raises(NegativeInput, match=message):
        run_okm(data, OkmConfig(k=2, dissimilarity=IDIV, seed=0))
    with pytest.raises(NegativeInput, match=message):
        assign_point([1.0, -1.0], [[1.0, 1.0], [2.0, 2.0]], IDIV)
    with pytest.raises(NegativeInput, match=message):
        assign_point([1.0, 1.0], [[1.0, 1.0], [-2.0, 2.0]], IDIV)
    cov = make_covering([{0, 1}, {0, 1}, {0}], [[-1.0, 1.0], [3.0, 1.0]])
    with pytest.raises(NegativeInput, match=message):
        objective(cov, IDIV, np.abs(data))  # the third point's image is negative
    # A negative prototype whose images are all nonnegative is not an error.
    both = make_covering([{0, 1}] * 3, [[-1.0, 1.0], [3.0, 1.0]])
    assert objective(both, IDIV, np.abs(data)) >= 0.0


# ----------------------------------------------------------- update_prototypes


def test_update_reduces_to_kmeans_means_for_single_assignments():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((10, 3))
    assignments = [frozenset({i % 2}) for i in range(10)]
    cov = make_covering(assignments, rng.standard_normal((2, 3)))
    updated = update_prototypes(cov, data)
    for c in range(2):
        members = [i for i in range(10) if c in assignments[i]]
        assert np.allclose(updated[c], data[members].mean(axis=0), atol=1e-12)


def test_update_simple_mean():
    data = np.array([[0.0], [4.0]])
    cov = make_covering([{0}, {0}], [[1.0]])
    assert np.allclose(update_prototypes(cov, data), [[2.0]])


def test_update_keeps_prototype_of_empty_cluster():
    data = np.array([[1.0], [3.0]])
    cov = make_covering([{0}, {0}], [[0.0], [42.0]])
    updated = update_prototypes(cov, data)
    assert updated[1, 0] == 42.0


def test_update_never_increases_objective_with_overlap():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n, p, k = 12, 2, 3
        data = rng.standard_normal((n, p)) * 2.0
        protos = rng.standard_normal((k, p))
        assignments = []
        for _i in range(n):
            size = int(rng.integers(1, k + 1))
            assignments.append(frozenset(rng.choice(k, size=size, replace=False).tolist()))
        cov = make_covering(assignments, protos)
        before = objective(cov, SQ, data)
        after_protos = update_prototypes(cov, data)
        after = objective(make_covering(assignments, after_protos), SQ, data)
        assert after <= before + 1e-12


def reference_update_prototypes(assignments, prototypes, values, nonneg=False):
    """The per-member Gauss-Seidel update, one point at a time."""
    new = prototypes.copy()
    for c in range(len(prototypes)):
        members = [i for i, assigned in enumerate(assignments) if c in assigned]
        if not members:
            continue
        num = np.zeros(values.shape[1])
        den = 0.0
        for i in members:
            ids = sorted(assignments[i])
            a = len(ids)
            residual = a * values[i] - sum(new[other] for other in ids if other != c)
            num += residual / (a * a)
            den += 1.0 / (a * a)
        moved = num / den
        new[c] = np.maximum(moved, 0.0) if nonneg else moved
    return new


def test_batched_update_and_objective_match_per_point_reference():
    # Clusters of more than 8 members and p up to 9: a pairwise member sum
    # or a row sum in another order would fail.
    rng = np.random.default_rng(63)
    for d in (SQ, IDIV, RBF1, POLY025):
        for _ in range(30):
            n = int(rng.integers(1, 40))
            p = int(rng.integers(1, 10))
            k = int(rng.integers(1, 6))
            data = rng.uniform(0.0, 3.0, (n, p))
            protos = rng.uniform(0.0, 3.0, (k, p))
            assignments = [frozenset(rng.choice(k, size=int(rng.integers(1, k + 1)),
                                                replace=False).tolist()) for _ in range(n)]
            cov = make_covering(assignments, protos)
            nonneg = d is IDIV
            expected = reference_update_prototypes(assignments, protos, data, nonneg)
            assert np.array_equal(_update_prototypes(_cluster_matrix(assignments, k), protos, data,
                                                     nonneg), expected)
            expected_j = 0.0  # left to right, one point after another
            for i in range(n):
                expected_j += dissim(d, data[i], protos[sorted(assignments[i])].mean(axis=0))
            assert objective(cov, d, data) == expected_j


# --------------------------------------------------------------------- run_okm


def test_run_okm_k1_global_mean():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((20, 3))
    cov = run_okm(data, OkmConfig(k=1, dissimilarity=SQ, seed=0))
    assert np.allclose(cov.prototypes[0], data.mean(axis=0), atol=1e-9)
    twss = float(np.sum((data - data.mean(axis=0)) ** 2))
    assert cov.objective == pytest.approx(twss, rel=1e-9)
    assert all(a == frozenset({0}) for a in cov.assignments)


def brute_force_best_objective(data, k):
    # least-squares-optimal prototypes for every assignment combination
    n = len(data)
    best = math.inf
    options = [frozenset(s) for r in range(1, k + 1)
               for s in itertools.combinations(range(k), r)]
    for combo in itertools.product(options, repeat=n):
        a = np.zeros((n, k))
        for i, assigned in enumerate(combo):
            for c in assigned:
                a[i, c] = 1.0 / len(assigned)
        protos, _, _, _ = np.linalg.lstsq(a, data, rcond=None)
        j = float(np.sum((data - a @ protos) ** 2))
        best = min(best, j)
    return best


def test_run_okm_two_far_pairs():
    data = np.array([[0.0], [1.0], [10.0], [11.0]])
    oracle = brute_force_best_objective(data, k=2)
    assert oracle == pytest.approx(1.0, abs=1e-9)
    for seed in range(5):
        cov = run_okm(data, OkmConfig(k=2, dissimilarity=SQ, seed=seed))
        assert cov.objective == pytest.approx(1.0, abs=1e-9)
        clusters = [frozenset(i for i in range(4) if c in cov.assignments[i]) for c in range(2)]
        assert sorted(clusters, key=min) == [frozenset({0, 1}), frozenset({2, 3})]


def test_run_okm_objective_monotone_and_consistent():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        p = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(n, 5)))
        data = rng.standard_normal((n, p)) * 3.0
        trace = []
        cov = run_okm(data, OkmConfig(k=k, dissimilarity=SQ, seed=int(rng.integers(0, 1000))),
                      on_iteration=lambda i, j: trace.append(j))
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        recomputed = objective(cov, SQ, data)
        assert abs(cov.objective - recomputed) <= 1e-9 * max(recomputed, 1.0)
        assert cov.prototypes.shape == (k, p)


def test_run_okm_deterministic():
    rng = np.random.default_rng(77)
    data = rng.standard_normal((25, 2))
    config = OkmConfig(k=3, dissimilarity=SQ, seed=123)
    a = run_okm(data, config)
    b = run_okm(data, config)
    assert np.array_equal(a.memberships, b.memberships)
    assert np.array_equal(a.prototypes, b.prototypes)
    assert a.objective == b.objective
    assert a.n_iter == b.n_iter


def kmeans_oracle(data, k, seed, iters=100):
    rng = np.random.default_rng(seed)
    protos = data[rng.choice(len(data), size=k, replace=False)].copy()
    labels = None
    for _ in range(iters):
        d2 = ((data[:, None, :] - protos[None, :, :]) ** 2).sum(-1)
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            members = new_labels == c
            if members.any():
                protos[c] = data[members].mean(axis=0)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def test_run_okm_matches_kmeans_on_far_blobs():
    rng = np.random.default_rng(99)
    blob_a = rng.normal(0.0, 0.5, (8, 2))
    blob_b = rng.normal(100.0, 0.5, (8, 2))
    data = np.vstack([blob_a, blob_b])
    for seed in range(3):
        cov = run_okm(data, OkmConfig(k=2, dissimilarity=SQ, seed=seed))
        km = kmeans_oracle(data, 2, seed)
        okm_parts = {frozenset(i for i in range(16) if c in cov.assignments[i]) for c in range(2)}
        km_parts = {frozenset(np.flatnonzero(km == c).tolist()) for c in range(2)}
        assert okm_parts == km_parts
        assert all(len(a) == 1 for a in cov.assignments)


def test_okm_config_rejects_a_negative_seed():
    with pytest.raises(InvalidSpec, match="^seed must be >= 0, got -1$"):
        OkmConfig(k=1, dissimilarity=SQ, seed=-1)
    assert OkmConfig(k=1, dissimilarity=SQ, seed=0).seed == 0


def test_run_okm_insufficient_data():
    with pytest.raises(InsufficientData):
        run_okm(np.zeros((2, 1)), OkmConfig(k=3, dissimilarity=SQ, seed=0))


def test_run_okm_i_divergence_stays_in_domain():
    rng = np.random.default_rng(55)
    data = rng.uniform(0.0, 5.0, (30, 3))
    cov = run_okm(data, OkmConfig(k=3, dissimilarity=IDIV, seed=1))
    assert cov.objective >= 0.0
    assert np.all(cov.prototypes >= 0.0)
    recomputed = objective(cov, IDIV, data)
    assert abs(cov.objective - recomputed) <= 1e-9 * max(recomputed, 1.0)


def test_run_okm_rejects_an_objective_that_overflows():
    data = np.array([[1e200], [-1e200], [3e200], [0.0]])
    with pytest.raises(DomainError, match="J is inf"):
        run_okm(data, OkmConfig(k=2, dissimilarity=SQ, seed=0))


def test_run_okm_stops_at_the_first_objective_that_is_nan():
    # K(x, x) overflows, so every kernel distance is inf + inf - 2 * inf = NaN;
    # a clamp that turned NaN into 0 reported J = 0.
    data = np.array([[1e200, 2e200], [3e200, 1e200], [-2e200, 5e199], [1e199, -3e200]])
    linear = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.LINEAR))
    completed = []
    with pytest.raises(DomainError, match="J is nan"):
        run_okm(data, OkmConfig(k=2, dissimilarity=linear, seed=0),
                on_iteration=lambda i, j: completed.append(j))
    assert completed == []


def test_run_okm_memory_stays_within_two_distance_temporaries_at_n20800():
    # A deterministic guard, no wall clock: one restart at n = 20 800,
    # k = 5, p = 8 peaks at about one (n, k, p) distance temporary.  The
    # bound of two keeps any n^2 or n * 2^k object off the OKM path.
    n, k, p = 20_800, 5, 8
    data = generate_synthetic(SyntheticSpec(
        k=k, points_per_cluster=4000, overlap_pairs=tuple((c, (c + 1) % k, 160) for c in range(k)),
        dimension=p, seed=0))
    assert data.values.shape == (n, p)
    tracemalloc.start()
    try:
        cov = run_okm(data, OkmConfig(k=k, dissimilarity=SQ, seed=650))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cov.n_iter >= 2
    assert peak < 2 * n * k * p * 8, peak


def test_run_okm_memory_stays_within_one_and_a_half_distance_temporaries_at_p256():
    # A deterministic guard, no wall clock: at n = 2 000, k = 5, p = 256
    # the (k, n, p) distance batch, squared differences or products, is
    # summed in place, half by half, with no copy of it: 1.22 n·k·p
    # doubles under euclidean, rbf, poly 2 and linear, where a contiguous
    # copy of the batch made 2.21.
    n, k, p = 2000, 5, 256
    data = generate_synthetic(SyntheticSpec(
        k=k, points_per_cluster=360, overlap_pairs=tuple((c, (c + 1) % k, 40) for c in range(k)),
        dimension=p, seed=0))
    assert data.values.shape == (n, p)
    kernels = (KernelSpec(KernelKind.RBF, sigma=20.0), KernelSpec(KernelKind.POLYNOMIAL, degree=2.0),
               KernelSpec(KernelKind.LINEAR))
    for d in (SQ, *(Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=kernel) for kernel in kernels)):
        tracemalloc.start()
        try:
            cov = run_okm(data, OkmConfig(k=k, dissimilarity=d, max_iter=2, seed=650))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cov.n_iter == 2
        assert peak < 1.5 * n * k * p * 8, (d.kind, d.kernel, peak / (n * k * p * 8))


def test_row_sum_is_numpys_row_sum_on_every_array_okm_sums(monkeypatch):
    # The (k, n, p) distances, the growing points' (g, p) image distances
    # and the objective's (n, p) rows, as a run builds them.  The oracle is
    # the sum of a C copy: on a points-innermost array `a.sum` adds left
    # to right, which is not the order the golden fixture was recorded in.
    shapes = set()
    innermost = {}

    def checked_row_sum(a):
        expected = np.ascontiguousarray(a).sum(axis=-1)
        innermost[a.shape] = a.strides[-2] == a.itemsize  # the point axis
        got = row_sum(a)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), a.shape
        shapes.add(a.shape)
        return got

    monkeypatch.setattr(divergences, "row_sum", checked_row_sum)
    monkeypatch.setattr(kernels, "row_sum", checked_row_sum)
    n, k, p = 2200, 5, 8
    data = generate_synthetic(SyntheticSpec(
        k=k, points_per_cluster=400, overlap_pairs=tuple((c, (c + 1) % k, 40) for c in range(k)),
        dimension=p, seed=0))
    values = np.abs(data.values)  # the i-divergence needs nonnegative data
    rbf = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF, sigma=3.0))
    for d in (SQ, IDIV, rbf):
        run_okm(values, OkmConfig(k=k, dissimilarity=d, max_iter=3, seed=650))
    assert {(k, n, p), (n, p)} <= shapes
    assert innermost[k, n, p] and innermost[n, p]
    assert any(len(shape) == 2 and 0 < shape[0] < n for shape in shapes), shapes
    # Above 128 features row_sum sums numpy's two halves, here two levels deep.
    n, p = 220, 300
    values = np.abs(generate_synthetic(SyntheticSpec(
        k=k, points_per_cluster=40, overlap_pairs=tuple((c, (c + 1) % k, 4) for c in range(k)),
        dimension=p, seed=0)).values)
    shapes.clear()
    for d in (SQ, IDIV, rbf):
        run_okm(values, OkmConfig(k=k, dissimilarity=d, max_iter=3, seed=650))
    assert {(k, n, p), (n, p)} <= shapes
    assert innermost[k, n, p] and innermost[n, p]


def test_assignment_names_the_negative_base_a_point_by_point_pass_meets_first():
    # The distances are one (k, n) batch, cluster-major; a fractional degree's error still
    # names the first negative base in point order, clusters in id order, as before.
    values = generate_synthetic(SyntheticSpec(k=3, points_per_cluster=100, dimension=8, seed=8)).values
    protos = values[[0, 150, 299]]
    with pytest.raises(DomainError) as point_major:
        kernels.kernel_rows(POLY025.kernel, values[:, None, :], protos[None, :, :])
    with pytest.raises(DomainError) as cluster_major:
        kernels.kernel_rows(POLY025.kernel, values[None, :, :], protos[:, None, :])
    assert str(cluster_major.value) != str(point_major.value)  # the data tell the orders apart
    for sums in (None, okm._subset_sums(protos)):
        with pytest.raises(DomainError, match=f"^{re.escape(str(point_major.value))}$"):
            _assign(*_distance(POLY025, values, protos, sums=sums), ids=run_ids(300, 3, sums is not None))


# ------------------------------------------------ numpy's default ufunc buffers
#
# `run_okm` runs under `linalg.unbuffered()`; under numpy's default
# 8192-element buffers the undecorated function must give the same bits.


def _okm_outcome(run, data, config):
    try:
        cov = run(data, config)
    except DomainError as exc:
        return repr(exc)
    return (cov.memberships.shape, cov.memberships.tobytes(), cov.prototypes.tobytes(),
            repr(cov.objective), cov.n_iter)


def _buffer_samples(iris):
    """(name, values, k): the all-subset, table and masked paths, then p from 1 to 129."""
    benchmark = generate_synthetic(SyntheticSpec(
        k=5, points_per_cluster=400, overlap_pairs=tuple((c, (c + 1) % 5, 40) for c in range(5)),
        dimension=8, seed=0)).values
    small = lambda p: generate_synthetic(SyntheticSpec(k=3, points_per_cluster=100, dimension=p,
                                                       seed=p)).values
    yield "iris", iris.values, 3
    yield "iris", iris.values, 8
    yield "2200x8", benchmark, 5
    yield "300x8", small(8), 3
    yield "300x8", small(8), 12
    for p in (1, 4, 9, 17, 129):
        for k in (3, 9):
            yield f"300x{p}", small(p), k


def _default_buffer_outcome(data, config):
    old = np.setbufsize(8192)
    try:
        return _okm_outcome(run_okm.__wrapped__, data, config)
    finally:
        np.setbufsize(old)


RBF3 = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF, sigma=3.0))


@pytest.mark.parametrize("d", [SQ, IDIV, RBF3, POLY025], ids=["euclidean", "idiv", "rbf", "poly"])
def test_run_okm_gives_the_same_bits_under_numpys_default_buffers(iris, d):
    for name, values, k in _buffer_samples(iris):
        # The i-divergence needs nonnegative data; a fractional degree runs further on them.
        values = np.abs(values) if d in (IDIV, POLY025) else values
        config = OkmConfig(k=k, dissimilarity=d, seed=650)
        assert _okm_outcome(run_okm, values, config) == _default_buffer_outcome(values, config), (name, k)


def test_run_okm_raises_the_same_error_under_numpys_default_buffers_and_restores_them():
    negative = generate_synthetic(SyntheticSpec(k=3, points_per_cluster=100, dimension=8, seed=8)).values
    overflow = np.array([[1e200], [-1e200], [3e200], [0.0]])
    for data, d, error in ((negative, POLY025, "polynomial base"), (overflow, SQ, "J is inf")):
        config = OkmConfig(k=2, dissimilarity=d, seed=650)
        before = np.getbufsize()
        outcome = _okm_outcome(run_okm, data, config)
        assert np.getbufsize() == before
        assert outcome.startswith("DomainError(") and error in outcome
        assert _default_buffer_outcome(data, config) == outcome
    sizes = []
    run_okm(negative, OkmConfig(k=2, dissimilarity=SQ), on_iteration=lambda i, j: sizes.append(np.getbufsize()))
    assert set(sizes) == {16}  # the callback runs inside the run's buffers


def test_run_okm_kernel_measures_run_to_completion():
    rng = np.random.default_rng(3)
    data = rng.uniform(0.0, 3.0, (20, 2))
    poly = Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                         kernel=KernelSpec(KernelKind.POLYNOMIAL, degree=0.25))
    for d in (RBF1, poly):
        cov = run_okm(data, OkmConfig(k=2, dissimilarity=d, seed=5))
        assert cov.n_iter >= 1
        assert cov.objective >= 0.0


def _array_holders():
    from okmlib import DataMatrix, EigenDecomposition, SpectrumReport, SymMatrix

    return {
        "Covering": lambda: Covering(memberships=np.eye(2, dtype=bool), prototypes=np.eye(2),
                                     objective=1.0, n_iter=1),
        "SymMatrix": lambda: SymMatrix(np.eye(2)),
        "DataMatrix": lambda: DataMatrix(np.eye(2)),
        "SpectrumReport": lambda: SpectrumReport(eigenvalues=np.ones(2),
                                                 centered_eigenvalues=np.ones(2), estimated_k=1),
        "EigenDecomposition": lambda: EigenDecomposition(np.ones(2), np.eye(2)),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_values_holding_arrays_compare_and_hash_by_identity(name):
    make = _array_holders()[name]
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


RAW_ARRAY_CASES = {
    "nan-cell": (np.array([[0.0, 1.0], [np.nan, 2.0], [3.0, 4.0]]), "data values must be finite"),
    "one-d": (np.arange(20.0), r"expected a 2-D data array, got shape \(20,\)"),
    "three-d": (np.zeros((1, 20, 2)), r"expected a 2-D data array, got shape \(1, 20, 2\)"),
    "no-features": (np.zeros((3, 0)), r"expected at least one feature column, got shape \(3, 0\)"),
}


@pytest.mark.parametrize("case", sorted(RAW_ARRAY_CASES))
def test_raw_arrays_get_the_data_matrix_checks(case):
    from okmlib import gram

    values, message = RAW_ARRAY_CASES[case]
    sq = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
    cov = run_okm(np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]), OkmConfig(k=2, dissimilarity=sq))
    calls = {
        "run_okm": lambda: run_okm(values, OkmConfig(k=2, dissimilarity=sq)),
        "gram": lambda: gram(KernelSpec(KernelKind.LINEAR), values),
        "update_prototypes": lambda: update_prototypes(cov, values),
        "objective": lambda: objective(cov, sq, values),
    }
    for call in calls.values():
        with pytest.raises(ValueError, match=message):
            call()
