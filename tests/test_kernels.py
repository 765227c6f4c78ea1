import math

import numpy as np
import pytest

from okmlib import (
    DimensionMismatch,
    Dissimilarity,
    DissimilarityKind,
    DomainError,
    InvalidSpec,
    KernelKind,
    KernelSpec,
    dissim,
    gram,
    kernel_distance_sq,
    kernel_eval,
    kernel_rows,
    sorted_eigenvalues,
)

RBF2 = KernelSpec(KernelKind.RBF, sigma=2.0)
POLY2 = KernelSpec(KernelKind.POLYNOMIAL, degree=2.0)
LIN = KernelSpec(KernelKind.LINEAR)


def test_rbf_same_point_is_one():
    for sigma in (0.1, 1.0, 150.0):
        spec = KernelSpec(KernelKind.RBF, sigma=sigma)
        assert kernel_eval(spec, [1.0, -2.0], [1.0, -2.0]) == 1.0


def test_polynomial_at_origin():
    assert kernel_eval(POLY2, [0.0], [0.0]) == 1.0


def test_rbf_closed_form():
    # sigma=2, points (0,0) and (2,0): exp(-4/4)
    assert kernel_eval(RBF2, [0.0, 0.0], [2.0, 0.0]) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        KernelSpec(KernelKind.RBF, sigma=0.0)
    with pytest.raises(InvalidSpec):
        KernelSpec(KernelKind.POLYNOMIAL, degree=-1.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_eval(LIN, [1.0, 2.0], [1.0])


def test_fractional_degree_negative_base():
    spec = KernelSpec(KernelKind.POLYNOMIAL, degree=0.5)
    with pytest.raises(DomainError):
        kernel_eval(spec, [-2.0], [1.0])
    # integer degree handles the same base fine
    assert kernel_eval(POLY2, [-2.0], [1.0]) == pytest.approx(1.0)


def test_gram_single_point():
    g = gram(KernelSpec(KernelKind.RBF, sigma=3.0), np.array([[1.0, 2.0]]))
    assert g.matrix.values.shape == (1, 1)
    assert g.matrix.values[0, 0] == 1.0


def test_gram_identical_points():
    data = np.array([[1.0, 2.0], [1.0, 2.0]])
    for spec in (RBF2, POLY2, LIN):
        m = gram(spec, data).matrix.values
        assert m[0, 0] == m[1, 1] == m[0, 1] == m[1, 0]


def test_gram_three_points_rbf():
    data = np.array([[0.0], [1.0], [2.0]])
    m = gram(KernelSpec(KernelKind.RBF, sigma=1.0), data).matrix.values
    assert m[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert m[0, 2] == pytest.approx(math.exp(-4.0), abs=1e-15)
    assert m[1, 2] == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert np.max(np.abs(m - m.T)) == 0.0


def test_distance_zero_for_identical():
    for spec in (RBF2, POLY2, LIN):
        assert kernel_distance_sq(spec, [1.0, 3.0], [1.0, 3.0]) == 0.0


def test_distance_rbf_closed_form_and_bound():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        sigma = float(rng.uniform(0.3, 10.0))
        spec = KernelSpec(KernelKind.RBF, sigma=sigma)
        d = kernel_distance_sq(spec, x, y)
        expected = 2.0 - 2.0 * math.exp(-float(np.sum((x - y) ** 2)) / sigma**2)
        assert abs(d - expected) <= 1e-12
        assert 0.0 <= d < 2.0


def test_distance_rbf_monotone_in_euclidean():
    spec = KernelSpec(KernelKind.RBF, sigma=1.5)
    dists = [kernel_distance_sq(spec, [0.0], [t]) for t in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(dists, dists[1:]))


def test_distance_polynomial_example():
    # K(x,x)=4, K(y,y)=1, K(x,y)=1 for x=(1), y=(0)
    assert kernel_distance_sq(POLY2, [1.0], [0.0]) == pytest.approx(3.0)


def test_distance_symmetry():
    rng = np.random.default_rng(11)
    for spec in (RBF2, POLY2, LIN):
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, 4)
            y = rng.uniform(0.0, 2.0, 4)
            assert kernel_distance_sq(spec, x, y) == kernel_distance_sq(spec, y, x)


def test_linear_kernel_distance_is_squared_euclidean():
    rng = np.random.default_rng(2)
    sq = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
    for _ in range(50):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        assert abs(kernel_distance_sq(LIN, x, y) - dissim(sq, x, y)) <= 1e-12


def test_rbf_gram_diagonal_exactly_one_and_entries_bounded():
    rng = np.random.default_rng(18)
    data = rng.standard_normal((10, 4)) * 5.0
    m = gram(KernelSpec(KernelKind.RBF, sigma=2.0), data).matrix.values
    assert np.all(np.diag(m) == 1.0)
    assert np.all(m > 0.0) and np.all(m <= 1.0)


def test_gram_positive_semidefinite_for_mercer_kernels():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((12, 3))
    for spec in (KernelSpec(KernelKind.RBF, sigma=2.0),
                 KernelSpec(KernelKind.POLYNOMIAL, degree=3.0),
                 LIN):
        lam = sorted_eigenvalues(gram(spec, data).matrix)
        assert lam[-1] >= -1e-8 * max(lam[0], 1.0)


def test_gram_row_blocks_match_pairwise_kernel_eval(monkeypatch):
    # The upper triangle pair by pair, mirrored: the reference construction.
    import okmlib.linalg as linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 50)
    rng = np.random.default_rng(19)
    data = rng.uniform(0.0, 3.0, (23, 3))
    for spec in (RBF2, POLY2, LIN, KernelSpec(KernelKind.POLYNOMIAL, degree=0.25)):
        expected = np.empty((23, 23))
        for i in range(23):
            for j in range(i, 23):
                expected[i, j] = expected[j, i] = kernel_eval(spec, data[i], data[j])
        assert np.array_equal(gram(spec, data).matrix.values, expected)


def test_kernel_rows_broadcast_and_domain_check():
    rng = np.random.default_rng(20)
    x = rng.uniform(0.0, 2.0, (6, 1, 3))
    y = rng.uniform(0.0, 2.0, (1, 4, 3))
    for spec in (RBF2, POLY2, LIN):
        rows = kernel_rows(spec, x, y)
        assert rows.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                assert rows[i, j] == kernel_eval(spec, x[i, 0], y[0, j])
    with pytest.raises(DomainError):
        kernel_rows(KernelSpec(KernelKind.POLYNOMIAL, degree=0.5),
                    np.array([[1.0], [-2.0]]), np.array([[1.0], [1.0]]))
