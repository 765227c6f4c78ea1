from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

import okmlib.model_selection as model_selection
from okmlib import (
    DomainError,
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
from okmlib.linalg import (distinct_rows, membership_matrix, membership_sets, row_sum, sequential_sum,
                           unbuffered)


def test_symmatrix_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmatrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        SymMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="^matrix must have at least one row$"):
        SymMatrix(np.zeros((0, 0)))
    with pytest.raises(DomainError, match="must be finite"):
        SymMatrix(np.array([[np.nan]]))


def test_symmatrix_checks_every_row_block(monkeypatch):
    import okmlib.linalg as linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 20)  # two rows per block at n = 9
    a = np.zeros((9, 9))
    a[1, 7] = 0.25
    a[8, 2] = 0.5
    with pytest.raises(ValueError, match=r"not symmetric \(max asymmetry 5\.000e-01\)"):
        SymMatrix(a)
    a[8, 2] = a[2, 8] = np.inf  # a later block's non-finite entry outranks an asymmetry
    with pytest.raises(DomainError, match="must be finite"):
        SymMatrix(a)


def test_identity_eigenvalues():
    dec = jacobi_eigen(SymMatrix(np.eye(3)))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    # no rotations happen, so the basis is returned untouched
    assert np.array_equal(dec.eigenvectors, np.eye(3))
    # nor at n = 1, whose one value comes back as it is
    dec = jacobi_eigen(SymMatrix(np.array([[2.5]])))
    assert np.array_equal(dec.eigenvalues, [2.5]) and np.array_equal(dec.eigenvectors, [[1.0]])


def test_diagonal_matrix_any_order():
    dec = jacobi_eigen(SymMatrix(np.diag([5.0, 2.0, 9.0])))
    assert np.allclose(dec.eigenvalues, [9.0, 5.0, 2.0])


def test_one_sweep_visits_every_pair():
    # A coupling on its own 2x2 block is zeroed for good by one rotation, so a
    # single sweep converges only if it visits every coupled pair.
    cases = [(9, ((0, 8), (1, 5), (2, 7), (3, 4)))]  # disjoint pairs, index 6 alone
    cases += [(n, (pair,)) for n in (8, 9) for pair in combinations(range(n), 2)]
    for n, pairs in cases:
        a = np.diag(np.arange(1.0, n + 1.0))
        for coupling, (p, q) in zip((0.5, 1.0, 2.0, 3.0), pairs):
            a[p, q] = a[q, p] = coupling
        dec = jacobi_eigen(SymMatrix(a), max_sweeps=1)
        oracle = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(dec.eigenvalues - oracle)) <= 1e-12 * oracle[0]
        q = dec.eigenvectors
        assert np.max(np.abs(q @ np.diag(dec.eigenvalues) @ q.T - a)) <= 1e-12 * oracle[0]


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
        yield SymMatrix((a + a.T) / 2.0)


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
        return [(policy, estimate_k(g, policy)) for policy in map(SignificancePolicy, PolicyKind)]


def test_lapack_spectrum_matches_jacobi_reference(monkeypatch, iris, spectra_recorder):
    # Criterion 2's four fixed layouts of all-ones blocks: repeated eigenvalues and many zeros.
    blocks = map(spectra_recorder.ones_blocks, spectra_recorder.block_layouts()[:4])
    grams = [*_random_grams(), *blocks, gram(KernelSpec(KernelKind.RBF, sigma=150.0), iris)]
    for g in grams:
        for policy, reference in _jacobi_estimates(monkeypatch, g):
            got = estimate_k(g, policy)
            assert got.estimated_k == reference.estimated_k
            for lam, ref in ((got.eigenvalues, reference.eigenvalues),
                             (got.centered_eigenvalues, reference.centered_eigenvalues)):
                assert np.max(np.abs(lam - ref)) <= 1e-9 * abs(ref[0])


# -------------------------- membership_matrix, membership_sets, distinct_rows


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


def test_membership_sets_read_back_the_matrix():
    rng = np.random.default_rng(83)
    for n, m in ((40, 1), (40, 8), (40, 9), (40, 80), (0, 3), (5, 0), (0, 0)):
        matrix = rng.random((n, m)) < 0.1  # many all-False rows
        sets = membership_sets(matrix)
        assert type(sets) is tuple and all(type(s) is frozenset for s in sets)
        assert np.array_equal(membership_matrix(sets, range(m)), matrix)
        # Equal rows share one set object.
        assert len({id(s) for s in sets}) == len({row.tobytes() for row in matrix})


def test_sequential_sum_adds_left_to_right():
    # From Python 3.12 on the builtin sum() compensates: this list sums to
    # 2.0 there and to 0.0 when added left to right.
    values = [0.1] * 10 + [1e16, 1.0, -1e16]
    expected = 0.0
    for v in values:
        expected += v
    assert sequential_sum(values) == expected == 0.0
    assert sequential_sum(np.array([1e16, 1.0, 1.0])) == 1e16
    assert sequential_sum([]) == 0.0
    assert type(sequential_sum([2.5])) is float


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _spread(rng, shape):
    # Signed values whose magnitudes range from 1e-8 to 1e8.
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


def _layouts(a):
    """`a` as it is and points-innermost: Fortran order, and (k, p, n) and (p, k, n) moved back."""
    yield a
    yield np.asfortranarray(a)
    if a.ndim == 3:
        yield np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
        yield np.moveaxis(np.ascontiguousarray(a.transpose(2, 1, 0)), (0, 2), (2, 0))


def test_accumulate_along_the_members_of_a_stacked_update_adds_left_to_right():
    # OKM's update adds each cluster's member terms, p coordinate rows over a
    # row of weights, with one np.add.accumulate along the columns of a C
    # (p + 1, m) array.  Its last column must be each row added left to
    # right, under the 16-element buffers run_okm runs with and under
    # numpy's default ones; a pairwise or lane-wise sum would fail.
    rng = np.random.default_rng(42)
    for rows in (2, 9, 130):
        for m in (1, 7, 9, 1000):
            terms = _spread(rng, (rows, m))
            expected = []
            for row in terms.tolist():
                total = row[0]
                for term in row[1:]:
                    total += term
                expected.append(total)
            for buffers in (unbuffered(), _default_buffers()):
                with buffers:
                    got = np.add.accumulate(terms, axis=1)[:, -1]
                assert np.array_equal(_bits(got), _bits(expected)), (rows, m)


@contextmanager
def _default_buffers():
    old = np.setbufsize(8192)
    try:
        yield
    finally:
        np.setbufsize(old)


def test_row_sum_is_numpys_row_sum_bit_for_bit():
    # row_sum replays numpy's order for sum(axis=-1) of a C-ordered array,
    # in every layout; if a numpy release changes that order, this fails.
    rng = np.random.default_rng(40)
    for p in [*range(1, 301), 513, 1000, 1024, 2049]:
        for shape in ((p,), (6, p), (4, 3, p)):
            a = _spread(rng, shape)
            expected = _bits(a.sum(axis=-1))
            for laid_out in _layouts(a):
                assert np.array_equal(laid_out, a)
                assert np.array_equal(_bits(row_sum(laid_out.copy(order="K"))), expected), \
                    (shape, laid_out.strides)
    for p in (3, 8, 19):
        zeros = np.full((2, p), -0.0)
        for laid_out in _layouts(zeros):
            assert np.array_equal(_bits(row_sum(laid_out.copy(order="K"))), _bits(zeros.sum(axis=-1)))
    # Above 128 each of numpy's halves is summed on its own: a -0.0 row, and infinities and NaNs
    # in either half or in both, keep numpy's bits (the sign of the NaN of inf - inf too).
    for p in (129, 300, 513, 1000, 1024, 2049):
        a = _spread(rng, (4, 2, p))
        a[0, 0] = -0.0
        a[0, 1, [p // 4]] = np.inf
        a[1, 0, [-1]] = -np.inf
        a[1, 1, [0, -1]] = np.inf, -np.inf
        a[2, 0, [p // 2]] = np.nan
        a[2, 1, [1, -2]] = -np.inf, np.nan
        a[3, 0, [3, p // 2 + 3]] = np.inf, np.inf
        a[3, 1] = -0.0
        a[3, 1, [p - 5]] = -1.5
        with np.errstate(invalid="ignore"):
            expected = _bits(a.sum(axis=-1))
            for laid_out in _layouts(a):
                assert np.array_equal(_bits(row_sum(laid_out.copy(order="K"))), expected), \
                    (p, laid_out.strides)
