import tracemalloc
from collections import Counter

import numpy as np
import pytest

from okmlib import Covering, LabeledCovering, linked_pairs, pair_metrics
from okmlib.okm import _cluster_matrix


def naive_metrics(pred_sets, true_sets):
    """Independent oracle: walk every pair explicitly."""
    n = len(pred_sets)
    ncilp = nilp = ntlp = 0
    for i in range(n):
        for j in range(i + 1, n):
            in_pred = len(set(pred_sets[i]) & set(pred_sets[j])) > 0
            in_true = len(set(true_sets[i]) & set(true_sets[j])) > 0
            nilp += in_pred
            ntlp += in_true
            ncilp += in_pred and in_true
    precision = ncilp / nilp if nilp else (1.0 if ntlp == 0 else 0.0)
    recall = ncilp / ntlp if ntlp else (1.0 if nilp == 0 else 0.0)
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return ncilp, nilp, ntlp, precision, recall, f


def test_linked_pairs_one_cluster():
    assert linked_pairs([{0}, {0}, {0}]) == {(0, 1), (0, 2), (1, 2)}


def test_linked_pairs_singletons():
    assert linked_pairs([{0}, {1}, {2}]) == set()


def test_linked_pairs_chain():
    # clusters {p0, p1} and {p1, p2}
    assert linked_pairs([{0}, {0, 1}, {1}]) == {(0, 1), (1, 2)}


def test_perfect_agreement():
    sets = [{0, 1}, {1}, {0}]
    m = pair_metrics(sets, sets)
    assert (m.precision, m.recall, m.f_measure) == (1.0, 1.0, 1.0)


def test_spec_example_two_predicted_clusters_one_true():
    predicted = [{0}, {0, 1}, {1}]
    truth = LabeledCovering(({"a"}, {"a"}, {"a"}))
    m = pair_metrics(predicted, truth)
    assert (m.ncilp, m.nilp, m.ntlp) == (2, 2, 3)
    assert m.precision == 1.0
    assert m.recall == pytest.approx(2.0 / 3.0)
    assert m.f_measure == pytest.approx(0.8)


def test_degenerate_denominators():
    singletons = [{i} for i in range(4)]
    one_cluster = [{0}] * 4
    both_empty = pair_metrics(singletons, singletons)
    assert (both_empty.precision, both_empty.recall, both_empty.f_measure) == (1.0, 1.0, 1.0)
    no_truth = pair_metrics(one_cluster, singletons)
    assert (no_truth.precision, no_truth.recall, no_truth.f_measure) == (0.0, 0.0, 0.0)
    no_pred = pair_metrics(singletons, one_cluster)
    assert (no_pred.precision, no_pred.recall, no_pred.f_measure) == (0.0, 0.0, 0.0)


def test_relabeling_clusters_does_not_matter():
    predicted = [{0, 1}, {1}, {0}, {2}]
    relabeled = [{7, 3}, {3}, {7}, {9}]
    truth = [{0}, {0}, {1}, {1}]
    a = pair_metrics(predicted, truth)
    b = pair_metrics(relabeled, truth)
    assert a == b


def test_swapping_sides_swaps_precision_and_recall():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        pred = [set(rng.choice(3, size=int(rng.integers(1, 3)), replace=False).tolist())
                for _ in range(n)]
        true = [set(rng.choice(3, size=int(rng.integers(1, 3)), replace=False).tolist())
                for _ in range(n)]
        ab = pair_metrics(pred, true)
        ba = pair_metrics(true, pred)
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
        assert ab.f_measure == ba.f_measure


def test_matches_naive_oracle_on_random_instances():
    rng = np.random.default_rng(40)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 5))
        pred = [set(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
                for _ in range(n)]
        true = [set(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
                for _ in range(n)]
        m = pair_metrics(pred, true)
        ncilp, nilp, ntlp, precision, recall, f = naive_metrics(pred, true)
        assert (m.ncilp, m.nilp, m.ntlp) == (ncilp, nilp, ntlp)
        assert m.precision == precision
        assert m.recall == recall
        assert m.f_measure == f
        assert m.ncilp <= min(m.nilp, m.ntlp)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        pair_metrics([{0}], [{0}, {1}])


def test_labeled_covering_rejects_empty_sets():
    with pytest.raises(ValueError):
        LabeledCovering((frozenset(), {"a"}))


def test_block_counts_match_linked_pairs_at_n300(monkeypatch):
    # Small row blocks so the count crosses block boundaries; string labels
    # exercise the first-appearance mapping of arbitrary hashables.
    import okmlib.linalg as linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 300 * 37)
    rng = np.random.default_rng(300)
    names = ["setosa", "versicolor", "virginica", "other"]
    for _ in range(3):
        n = int(rng.integers(280, 320))
        pred = [frozenset(rng.choice(5, size=int(rng.integers(1, 3)), replace=False).tolist())
                for _ in range(n)]
        true = [frozenset(names[j] for j in rng.choice(4, size=int(rng.integers(1, 3)), replace=False))
                for _ in range(n)]
        identified = linked_pairs(pred)
        true_pairs = linked_pairs(true)
        m = pair_metrics(pred, LabeledCovering(tuple(true)))
        assert (m.ncilp, m.nilp, m.ntlp) == (len(identified & true_pairs), len(identified),
                                             len(true_pairs))
        assert m.precision == m.ncilp / m.nilp
        assert m.recall == m.ncilp / m.ntlp


def linked_pair_counts(pred, true):
    identified = linked_pairs(pred)
    true_pairs = linked_pairs(true)
    return len(identified & true_pairs), len(identified), len(true_pairs)


def covering(sets, k):
    return Covering(memberships=_cluster_matrix(sets, k), prototypes=np.zeros((k, 1)),
                    objective=0.0, n_iter=0)


def random_sets(rng, n, members, most):
    return [frozenset(rng.choice(members, size=int(rng.integers(1, most + 1)), replace=False).tolist())
            for _ in range(n)]


def test_pattern_counts_match_linked_pairs():
    rng = np.random.default_rng(500)
    names = np.array(["setosa", "versicolor", "virginica", "other", "x|y"])
    cases = []
    for k in (1, 2, 8, 9, 17, 63, 64, 80):  # packed keys of 1 to 10 bytes
        n = int(rng.integers(2, 90))
        cases.append((k, random_sets(rng, n, k, min(k, 4)), random_sets(rng, n, names, 2)))
    cases.append((3, [frozenset({2})], [frozenset({"a"})]))  # n = 1
    singletons = [frozenset({i}) for i in range(12)]
    cases.append((12, singletons, [frozenset({f"t{i}"}) for i in range(12)]))  # no pairs at all
    cases.append((12, singletons, [frozenset({"same"})] * 12))  # no predicted pairs
    cases.append((1, [frozenset({0})] * 12, [frozenset({f"t{i}"}) for i in range(12)]))
    for k, pred, true in cases:
        expected = linked_pair_counts(pred, true)
        for predicted, truth in ((covering(pred, k), LabeledCovering(tuple(true))), (pred, true)):
            m = pair_metrics(predicted, truth)
            assert (m.ncilp, m.nilp, m.ntlp) == expected, (k, len(pred))


def test_pattern_keys_at_the_int64_boundary():
    # A point's key holds its m true bits below its k predicted ones: int64 keys up to
    # 62 bits, Python ints from 63.  The top predicted bits are linked on purpose.
    rng = np.random.default_rng(502)
    for width in (61, 62, 63, 64):
        k = width - 3
        pred = random_sets(rng, 60, k, 4)
        pred[:3] = [frozenset({k - 1}), frozenset({k - 2, k - 1}), frozenset({0, k - 2})]
        true = random_sets(rng, 60, 3, 2)
        shared = ([frozenset({0, k - 1})] * 60, [frozenset({0, 1, 2})] * 60)  # one pattern for all
        for pred, true in ((pred, true), shared):
            truth = LabeledCovering(tuple(true))
            assert truth.memberships.shape[1] + k == width
            m = pair_metrics(covering(pred, k), truth)
            assert (m.ncilp, m.nilp, m.ntlp) == linked_pair_counts(pred, true), width


def test_pattern_counts_when_every_point_has_its_own_pattern(monkeypatch):
    # G = n: no two points share a (predicted, true) pattern, and small
    # blocks make the count run over many pattern blocks.
    import okmlib.linalg as linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 200 * 7)
    rng = np.random.default_rng(501)
    pred = [frozenset({i % 20, 20 + i // 20} | set(rng.choice(80, size=2).tolist()))
            for i in range(200)]
    true = random_sets(rng, 200, 6, 3)
    assert len(set(zip(pred, true))) == len(pred)
    m = pair_metrics(covering(pred, 80), LabeledCovering(tuple(true)))
    assert (m.ncilp, m.nilp, m.ntlp) == linked_pair_counts(pred, true)


def test_pair_metrics_of_empty_inputs_match_the_oracle():
    for sets in ([], [set()], [set(), set(), {0}]):
        m = pair_metrics(sets, sets)
        assert (m.ncilp, m.nilp, m.ntlp, m.precision, m.recall, m.f_measure) == naive_metrics(sets, sets)


def test_pair_metrics_memory_is_not_n_by_block_at_n20800():
    # A deterministic guard, no wall clock: the count must not build an
    # n x block temporary (8 MB of float64 at n = 20 800).
    rng = np.random.default_rng(208)
    names = [f"c{c + 1}" for c in range(5)]
    true = [frozenset({names[c]}) for c in range(5) for _ in range(4000)]
    true += [frozenset({names[c], names[(c + 1) % 5]}) for c in range(5) for _ in range(160)]
    pred = [frozenset({c, (c + 1) % 5}) if rng.random() < 0.1 else frozenset({c})
            for c in rng.integers(0, 5, len(true)).tolist()]
    cov = covering(pred, 5)
    truth = LabeledCovering(tuple(true))  # fresh: its matrix is built inside the measured call
    tracemalloc.start()
    try:
        m = pair_metrics(cov, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000, peak
    assert truth.memberships is truth.memberships
    # Oracle: pairs counted between distinct (predicted, true) patterns in Python.
    patterns = list(Counter(zip(pred, true)).items())
    expected = [0, 0, 0]
    for a, ((pa, ta), wa) in enumerate(patterns):
        for (pb, tb), wb in patterns[a:]:
            pairs = wa * (wa - 1) // 2 if (pa, ta) == (pb, tb) else wa * wb
            expected[0] += pairs * bool(pa & pb and ta & tb)
            expected[1] += pairs * bool(pa & pb)
            expected[2] += pairs * bool(ta & tb)
    assert (m.ncilp, m.nilp, m.ntlp) == tuple(expected)


def test_a_membership_matrix_reads_as_its_covering():
    from okmlib import Dissimilarity, DissimilarityKind, OkmConfig, run_okm

    values = np.random.default_rng(4).standard_normal((20, 2))
    cov = run_okm(values, OkmConfig(k=2, dissimilarity=Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)))
    assert pair_metrics(cov, cov.memberships) == pair_metrics(cov, cov)
    assert pair_metrics(cov.memberships, cov).recall == 1.0
    assert linked_pairs(cov.memberships) == linked_pairs(cov)
    truth = LabeledCovering([{"a"}, {"a", "b"}, {"b"}, {"c"}, {"b", "c"}])
    assert linked_pairs(truth) == linked_pairs(truth.memberships) == linked_pairs(truth.label_sets)
    assert pair_metrics(truth, truth.memberships) == pair_metrics(truth, truth)


@pytest.mark.parametrize("array", [np.zeros(4, dtype=bool), np.eye(4, dtype=int),
                                   np.array([{0}, {1}, {0}, {1}], dtype=object)])
def test_other_arrays_are_rejected(array):
    sets = [{0}, {1}, {0}, {1}]
    with pytest.raises(ValueError, match="bool membership matrix"):
        pair_metrics(array, sets)
    with pytest.raises(ValueError, match="bool membership matrix"):
        linked_pairs(array)
