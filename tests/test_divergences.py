import math

import numpy as np
import pytest

from okmlib import (
    DimensionMismatch,
    Dissimilarity,
    DissimilarityKind,
    InvalidSpec,
    KernelKind,
    KernelSpec,
    NegativeInput,
    dissim,
    dissim_rows,
)

SQ = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
IDIV = Dissimilarity(DissimilarityKind.I_DIVERGENCE)
KLIN = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.LINEAR))


def test_identity_of_indiscernibles():
    x = np.array([0.0, 1.5, 3.0])
    for d in (SQ, IDIV, KLIN):
        assert dissim(d, x, x) == 0.0


def test_squared_euclidean_345():
    assert dissim(SQ, [0.0, 0.0], [3.0, 4.0]) == 25.0


def test_i_divergence_hand_value():
    # x=(1), y=(e): 1*ln(1/e) - 1 + e = e - 2
    assert dissim(IDIV, [1.0], [math.e]) == pytest.approx(math.e - 2.0, abs=1e-12)


def test_i_divergence_asymmetric():
    a = dissim(IDIV, [1.0], [2.0])
    b = dissim(IDIV, [2.0], [1.0])
    assert a != b


def test_i_divergence_zero_components_are_clamped():
    x = np.array([0.0, 1.0])
    assert dissim(IDIV, x, x) == 0.0
    assert math.isfinite(dissim(IDIV, x, np.array([1.0, 0.0])))


def test_i_divergence_rejects_negatives():
    with pytest.raises(NegativeInput):
        dissim(IDIV, [-0.1], [1.0])
    with pytest.raises(NegativeInput):
        dissim(IDIV, [1.0], [-0.1])


def test_nonnegative_everywhere():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.uniform(0.0, 5.0, 3)
        y = rng.uniform(0.0, 5.0, 3)
        for d in (SQ, IDIV, KLIN):
            assert dissim(d, x, y) >= 0.0


def test_kernel_linear_matches_squared_euclidean():
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert abs(dissim(KLIN, x, y) - dissim(SQ, x, y)) <= 1e-12


def test_symmetry_except_i_divergence():
    rng = np.random.default_rng(13)
    x = rng.uniform(0.1, 2.0, 3)
    y = rng.uniform(0.1, 2.0, 3)
    assert dissim(SQ, x, y) == dissim(SQ, y, x)
    assert dissim(KLIN, x, y) == dissim(KLIN, y, x)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dissim(SQ, [1.0], [1.0, 2.0])
    rbf = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF))
    poly = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.POLYNOMIAL))
    for d in (SQ, IDIV, KLIN, rbf, poly):
        with pytest.raises(DimensionMismatch, match="at least one component"):
            dissim(d, [], [])
        for x, y in ((np.zeros((3, 0)), np.zeros((3, 0))), (np.zeros((3, 0)), np.zeros(0)),
                     (np.float64(1.0), np.float64(2.0))):
            with pytest.raises(DimensionMismatch, match="^rows must have at least one component$"):
                dissim_rows(d, x, y)
        # Rows of different lengths, a length-1 side included, never broadcast.
        for x, y in ((np.zeros((3, 1)), np.ones((3, 4))), (np.zeros((3, 2)), np.ones((3, 4))),
                     (np.zeros(1), np.ones((3, 4))), (np.zeros((3, 0)), np.ones((3, 1))),
                     (np.float64(1.0), np.ones(2))):
            for args in ((x, y), (y, x)):
                with pytest.raises(DimensionMismatch, match="^row lengths differ: shapes "):
                    dissim_rows(d, *args)


def test_config_validation():
    with pytest.raises(InvalidSpec):
        Dissimilarity(DissimilarityKind.KERNEL_INDUCED)  # kernel missing
    with pytest.raises(InvalidSpec, match="sigma 1e-200 is too small"):
        KernelSpec(KernelKind.RBF, sigma=1e-200)  # sigma * sigma underflows to 0.0
    KernelSpec(KernelKind.RBF, sigma=1e-160)  # a subnormal sigma * sigma is still > 0
    with pytest.raises(InvalidSpec, match="^rbf kernel sigma 1e\\+200 is too large: sigma\\^2 overflows to inf$"):
        KernelSpec(KernelKind.RBF, sigma=1e200)  # sigma * sigma overflows to inf
    KernelSpec(KernelKind.RBF, sigma=1e154)  # sigma * sigma = 1e308 is still finite


def test_rows_are_the_scalar_form_row_by_row():
    rng = np.random.default_rng(30)
    poly = Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                         kernel=KernelSpec(KernelKind.POLYNOMIAL, degree=0.25))
    rbf = Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(KernelKind.RBF, sigma=1.5))
    for p in (1, 4, 8, 11):
        x = rng.uniform(0.0, 3.0, (9, 1, p))
        y = rng.uniform(0.0, 3.0, (1, 5, p))
        y[0, 0, 0] = 0.0  # a clamped i-divergence component
        for d in (SQ, IDIV, KLIN, rbf, poly):
            rows = dissim_rows(d, x, y)
            assert rows.shape == (9, 5)
            expected = [[dissim(d, x[i, 0], y[0, j]) for j in range(5)] for i in range(9)]
            assert np.array_equal(rows, expected)


def test_rows_reject_negative_i_divergence_input():
    with pytest.raises(NegativeInput):
        dissim_rows(IDIV, np.array([[1.0], [-0.5]]), np.array([[1.0]]))
