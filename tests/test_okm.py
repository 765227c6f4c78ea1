import itertools
import math

import numpy as np
import pytest

from okmlib import (
    Covering,
    Dissimilarity,
    DissimilarityKind,
    EmptyAssignment,
    InsufficientData,
    KernelKind,
    KernelSpec,
    OkmConfig,
    assign_point,
    dissim,
    image,
    objective,
    run_okm,
    update_prototypes,
)
from okmlib.okm import _assign, _assignment_sets, _cluster_matrix, _objective, _update_prototypes

SQ = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
IDIV = Dissimilarity(DissimilarityKind.I_DIVERGENCE)
RBF1 = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF, sigma=1.0))
POLY025 = Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                        kernel=KernelSpec(KernelKind.POLYNOMIAL, degree=0.25))


def make_covering(assignments, prototypes, k=None):
    prototypes = np.asarray(prototypes, dtype=float)
    return Covering(k=k or len(prototypes), assignments=tuple(assignments),
                    prototypes=prototypes, objective=0.0, n_iter=0)


# -------------------------------------------------------------------- Covering


def test_covering_reports_the_first_bad_point():
    with pytest.raises(EmptyAssignment, match="point 1 has no cluster"):
        make_covering([{0}, set(), {9}], [[0.0], [1.0]])
    with pytest.raises(ValueError, match=r"point 1 references a cluster outside 0\.\.1") as exc:
        make_covering([{0}, {9}, set()], [[0.0], [1.0]])
    assert not isinstance(exc.value, EmptyAssignment)
    with pytest.raises(ValueError, match="point 2 references"):
        make_covering([{0}, {1}, {0, -1}], [[0.0], [1.0]])


def test_covering_requires_k_by_p_prototypes():
    for prototypes in (np.zeros((3, 1)), np.zeros(2), np.zeros((2, 1, 1))):
        with pytest.raises(ValueError, match=r"prototypes must be a \(2, p\) array") as exc:
            make_covering([{0}, {1}], prototypes, k=2)
        assert not isinstance(exc.value, EmptyAssignment)


def test_invalid_cluster_ids_raise_alike_wherever_they_enter():
    protos = np.array([[0.0], [1.0], [2.0]])
    x = np.array([0.5])
    entries = (
        lambda ids: make_covering([{0}, ids], protos),
        lambda ids: image(ids, protos),
        lambda ids: assign_point(x, protos, SQ, previous=ids),
    )
    for enter in entries:
        with pytest.raises(EmptyAssignment, match="has no cluster"):
            enter(set())
        for ids in ({-1}, {3}, {0, 3}, {1.5}):
            with pytest.raises(ValueError, match=r"references a cluster outside 0\.\.2") as exc:
                enter(ids)
            assert not isinstance(exc.value, EmptyAssignment)


def test_covering_memberships_and_assignment_sets_round_trip():
    rng = np.random.default_rng(64)
    for k in (1, 2, 7, 8, 9, 63, 64, 80):
        n = int(rng.integers(1, 60))
        sets = tuple(frozenset(rng.choice(k, size=int(rng.integers(1, min(k, 5) + 1)),
                                          replace=False).tolist()) for _ in range(n))
        cov = make_covering(sets, np.zeros((k, 2)))
        expected = np.array([[c in s for c in range(k)] for s in sets])
        assert cov.memberships.dtype == bool and cov.memberships.shape == (n, k)
        assert np.array_equal(cov.memberships, expected)
        assert not cov.memberships.flags.writeable
        assert _assignment_sets(expected) == sets


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


# ---------------------------------------------------------------- assign_point


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


def test_batched_assignment_matches_per_point_reference():
    # Small integer grids make exact ties common: equal prototype
    # distances (ordered by id) and candidates that tie the best image.
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
            for prev in (None, previous):
                prev_matrix = None if prev is None else _cluster_matrix(prev, k)
                batched = _assign(data, protos, d, prev_matrix)
                expected = [reference_assign_point(data[i], protos, d,
                                                   None if prev is None else prev[i])
                            for i in range(n)]
                assert np.array_equal(batched, _cluster_matrix(expected, k)), (d, trial, prev is None)
            # The objective's per-point values stand in for the previous sets' distances.
            prev_dists = _objective(prev_matrix, protos, data, d)[1]
            reused = _assign(data, protos, d, prev_matrix, prev_dists)
            assert np.array_equal(reused, batched), (d, trial)


def test_assign_point_is_one_row_of_the_batched_assignment():
    rng = np.random.default_rng(62)
    data = rng.uniform(0.0, 3.0, (20, 3))
    protos = rng.uniform(0.0, 3.0, (4, 3))
    batched = _assign(data, protos, RBF1)
    for i in range(20):
        assert assign_point(data[i], protos, RBF1) == frozenset(np.flatnonzero(batched[i]).tolist())


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
    cov = make_covering([{0}, {0}], [[0.0], [42.0]], k=2)
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
    rng = np.random.default_rng(63)
    for d in (SQ, IDIV, RBF1, POLY025):
        for _ in range(30):
            n = int(rng.integers(1, 30))
            p = int(rng.integers(1, 5))
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
            expected_j = sum(dissim(d, data[i], protos[sorted(assignments[i])].mean(axis=0))
                             for i in range(n))
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
    assert a.assignments == b.assignments
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


def test_run_okm_kernel_measures_run_to_completion():
    rng = np.random.default_rng(3)
    data = rng.uniform(0.0, 3.0, (20, 2))
    poly = Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                         kernel=KernelSpec(KernelKind.POLYNOMIAL, degree=0.25))
    for d in (RBF1, poly):
        cov = run_okm(data, OkmConfig(k=2, dissimilarity=d, seed=5))
        assert cov.n_iter >= 1
        assert cov.objective >= 0.0
