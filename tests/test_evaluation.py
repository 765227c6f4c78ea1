import numpy as np
import pytest

from okmlib import LabeledCovering, linked_pairs, pair_metrics


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
