import numpy as np
import pytest

import okmlib.model_selection as model_selection
from okmlib import (
    GramMatrix,
    KernelKind,
    KernelSpec,
    NoConvergence,
    PolicyKind,
    SignificancePolicy,
    SymMatrix,
    estimate_k,
    gram,
    jacobi_eigen,
    sorted_eigenvalues,
)
from okmlib.linalg import distinct_rows, membership_matrix


def test_symmatrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmatrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SymMatrix(np.array([[np.nan]]))


def test_identity_eigenvalues():
    dec = jacobi_eigen(SymMatrix(np.eye(3)))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    # no rotations happen, so the basis is returned untouched
    assert np.array_equal(dec.eigenvectors, np.eye(3))


def test_diagonal_matrix_any_order():
    dec = jacobi_eigen(SymMatrix(np.diag([5.0, 2.0, 9.0])))
    assert np.allclose(dec.eigenvalues, [9.0, 5.0, 2.0])


def test_two_by_two_exact():
    # roots of x^2 - 4x + 3
    lam = sorted_eigenvalues(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
    assert np.allclose(lam, [3.0, 1.0], atol=1e-10)


def test_scalar_matrix():
    assert sorted_eigenvalues(SymMatrix(np.array([[7.5]]))) == pytest.approx([7.5])


def test_all_ones_rank_one():
    lam = sorted_eigenvalues(SymMatrix(np.ones((4, 4))))
    assert np.allclose(lam, [4.0, 0.0, 0.0, 0.0], atol=1e-9)
    assert abs(lam.sum() - 4.0) <= 1e-8 * 4


def test_block_diagonal_ones():
    a = np.zeros((5, 5))
    a[:3, :3] = 1.0
    a[3:, 3:] = 1.0
    lam = sorted_eigenvalues(SymMatrix(a))
    oracle = np.sort(np.linalg.eigvalsh(a))[::-1]
    assert np.allclose(lam, [3.0, 2.0, 0.0, 0.0, 0.0], atol=1e-9)
    assert np.allclose(lam, oracle, atol=1e-9)


def test_random_reconstruction_orthonormality_trace():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 31))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2.0
        dec = jacobi_eigen(SymMatrix(a))
        q, lam = dec.eigenvectors, dec.eigenvalues
        assert np.max(np.abs(q @ np.diag(lam) @ q.T - a)) <= 1e-8
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-8
        assert abs(lam.sum() - np.trace(a)) <= 1e-8 * n
        assert np.all(np.diff(lam) <= 1e-12)


def test_eigenvalues_permutation_invariant():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2.0
    perm = rng.permutation(8)
    lam = sorted_eigenvalues(SymMatrix(a))
    lam_p = sorted_eigenvalues(SymMatrix(a[np.ix_(perm, perm)]))
    assert np.allclose(lam, lam_p, atol=1e-9)


def test_agrees_with_numpy_oracle():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2.0
    lam = sorted_eigenvalues(SymMatrix(a))
    assert np.allclose(lam, np.sort(np.linalg.eigvalsh(a))[::-1], atol=1e-9)


def test_no_convergence_reported():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((12, 12))
    a = (a + a.T) / 2.0
    with pytest.raises(NoConvergence):
        jacobi_eigen(SymMatrix(a), tol=1e-300, max_sweeps=1)


def test_parameter_validation():
    m = SymMatrix(np.eye(2))
    with pytest.raises(ValueError):
        jacobi_eigen(m, tol=0.0)
    with pytest.raises(ValueError):
        jacobi_eigen(m, max_sweeps=0)


def test_lapack_failure_reported_as_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence):
        sorted_eigenvalues(SymMatrix(np.eye(2)))


def _random_grams():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 31))
        a = rng.standard_normal((n, n))
        yield GramMatrix(spec=KernelSpec(KernelKind.LINEAR), matrix=SymMatrix((a + a.T) / 2.0))


def _jacobi_estimates(monkeypatch, g):
    """estimate_k under both policies with the Jacobi spectrum swapped in."""
    cache = {}

    def jacobi_spectrum(m):
        key = m.values.tobytes()
        if key not in cache:
            cache[key] = jacobi_eigen(m).eigenvalues
        return cache[key]

    with monkeypatch.context() as patch:
        patch.setattr(model_selection, "sorted_eigenvalues", jacobi_spectrum)
        return [estimate_k(g, SignificancePolicy(kind=kind)) for kind in PolicyKind]


def test_lapack_spectrum_matches_jacobi_reference(monkeypatch, iris):
    grams = [*_random_grams(), gram(KernelSpec(KernelKind.RBF, sigma=150.0), iris)]
    for g in grams:
        for reference in _jacobi_estimates(monkeypatch, g):
            got = estimate_k(g, reference.policy)
            assert got.estimated_k == reference.estimated_k
            for lam, ref in ((got.eigenvalues, reference.eigenvalues),
                             (got.centered_eigenvalues, reference.centered_eigenvalues)):
                assert np.max(np.abs(lam - ref)) <= 1e-9 * abs(ref[0])


# ------------------------------------------- membership_matrix, distinct_rows


def naive_membership_matrix(sets, members):
    matrix = np.zeros((len(sets), len(members)), dtype=bool)
    for i, s in enumerate(sets):
        for j, member in enumerate(members):
            matrix[i, j] = member in s
    return matrix


def test_membership_matrix_keeps_integer_ids_in_column_order():
    rng = np.random.default_rng(81)
    for k in (1, 2, 7, 8, 9, 63, 64, 80):
        n = int(rng.integers(1, 60))
        sets = [frozenset(rng.choice(k, size=int(rng.integers(0, min(k, 5) + 1)),
                                     replace=False).tolist()) for _ in range(n)]
        matrix = membership_matrix(sets, range(k))
        assert matrix.dtype == bool and matrix.shape == (n, k) and not matrix.flags.writeable
        assert np.array_equal(matrix, naive_membership_matrix(sets, range(k)))


def test_membership_matrix_numbers_labels_by_first_appearance():
    sets = [("b",), ("c", "a"), (), ("a", "b", "d"), ("d",)]
    matrix = membership_matrix(sets)
    assert np.array_equal(matrix, naive_membership_matrix(sets, ["b", "c", "a", "d"]))
    assert not matrix[2].any()


def test_membership_matrix_empty_sets_and_no_points():
    assert np.array_equal(membership_matrix([set(), set()], range(3)), np.zeros((2, 3), dtype=bool))
    assert membership_matrix([set()]).shape == (1, 0)
    assert membership_matrix([], range(4)).shape == (0, 4)
    assert membership_matrix([]).shape == (0, 0)


def test_membership_matrix_rejects_members_outside_the_columns():
    for member in (-1, 3, "a"):
        with pytest.raises(KeyError):
            membership_matrix([{0}, {member}], range(3))


def test_distinct_rows_groups_equal_rows():
    rng = np.random.default_rng(82)
    for m in (1, 8, 9, 80):
        matrix = rng.random((40, m)) < 0.1
        first, group, counts = distinct_rows(matrix)
        assert np.array_equal(matrix[first[group]], matrix)
        assert len({matrix[i].tobytes() for i in range(40)}) == len(first)
        assert np.array_equal(counts, np.bincount(group))
        assert all(first[g] == np.flatnonzero(group == g)[0] for g in range(len(first)))
