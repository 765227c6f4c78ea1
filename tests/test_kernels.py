import math
import tracemalloc

import numpy as np
import pytest

from okmlib import (
    DataMatrix,
    DimensionMismatch,
    Dissimilarity,
    DissimilarityKind,
    DomainError,
    InvalidSpec,
    KernelKind,
    KernelSpec,
    SyntheticSpec,
    dissim,
    generate_synthetic,
    gram,
    kernel_distance_sq,
    kernel_eval,
    kernel_rows,
    sorted_eigenvalues,
)
from okmlib.kernels import _column_sums, kernel_distance_rows, median_sigma
from okmlib.linalg import row_sum

RBF2 = KernelSpec(KernelKind.RBF, sigma=2.0)
POLY2 = KernelSpec(KernelKind.POLYNOMIAL, degree=2.0)
LIN = KernelSpec(KernelKind.LINEAR)
# K(x, x) overflows to inf for every row, and the linear cross terms to +-inf or NaN.
OVERFLOWING = np.array([[1e200, 2e200], [3e200, 1e200], [-2e200, 5e199], [1e199, -3e200]])


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
    with pytest.raises(DimensionMismatch, match="^arguments must be 1-D vectors$"):
        kernel_eval(LIN, [[1.0, 2.0]], [1.0, 2.0])
    for spec in (RBF2, POLY2, LIN):
        for x, y in ((np.zeros((3, 0)), np.zeros((3, 0))), (np.zeros((3, 0)), np.zeros(0)),
                     (np.float64(1.0), np.float64(2.0))):
            with pytest.raises(DimensionMismatch, match="^rows must have at least one component$"):
                kernel_rows(spec, x, y)
        # Rows of different lengths, a length-1 side included, never broadcast.
        for x, y in ((np.zeros((3, 1)), np.ones((3, 4))), (np.zeros((3, 2)), np.ones((3, 4))),
                     (np.zeros(1), np.ones((3, 4))), (np.zeros((3, 0)), np.ones((3, 1))),
                     (np.float64(1.0), np.ones(2))):
            for args in ((x, y), (y, x)):
                with pytest.raises(DimensionMismatch, match="^row lengths differ: shapes "):
                    kernel_rows(spec, *args)
        # `DataMatrix` takes zero points; a Gram matrix needs one.
        with pytest.raises(ValueError, match=r"^expected an \(n, p\) data array, got shape \(0, 2\)$"):
            gram(spec, np.zeros((0, 2)))


def test_fractional_degree_negative_base():
    spec = KernelSpec(KernelKind.POLYNOMIAL, degree=0.5)
    with pytest.raises(DomainError):
        kernel_eval(spec, [-2.0], [1.0])
    # integer degree handles the same base fine
    assert kernel_eval(POLY2, [-2.0], [1.0]) == pytest.approx(1.0)


def test_gram_single_point():
    g = gram(KernelSpec(KernelKind.RBF, sigma=3.0), np.array([[1.0, 2.0]]))
    assert g.values.shape == (1, 1)
    assert g.values[0, 0] == 1.0


def test_gram_identical_points():
    data = np.array([[1.0, 2.0], [1.0, 2.0]])
    for spec in (RBF2, POLY2, LIN):
        m = gram(spec, data).values
        assert m[0, 0] == m[1, 1] == m[0, 1] == m[1, 0]


def test_gram_three_points_rbf():
    data = np.array([[0.0], [1.0], [2.0]])
    m = gram(KernelSpec(KernelKind.RBF, sigma=1.0), data).values
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
    m = gram(KernelSpec(KernelKind.RBF, sigma=2.0), data).values
    assert np.all(np.diag(m) == 1.0)
    assert np.all(m > 0.0) and np.all(m <= 1.0)


def test_gram_positive_semidefinite_for_mercer_kernels():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((12, 3))
    for spec in (KernelSpec(KernelKind.RBF, sigma=2.0),
                 KernelSpec(KernelKind.POLYNOMIAL, degree=3.0),
                 LIN):
        lam = sorted_eigenvalues(gram(spec, data))
        assert lam[-1] >= -1e-8 * max(lam[0], 1.0)


def test_gram_row_blocks_match_pairwise_kernel_eval(monkeypatch):
    # The upper triangle pair by pair, mirrored: the reference construction.
    import okmlib.linalg as linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 50)
    rng = np.random.default_rng(19)
    # p = 9 takes the column sums' eight lanes.
    for data in (rng.uniform(0.0, 3.0, (23, 3)), rng.uniform(0.0, 3.0, (23, 9))):
        for spec in (RBF2, POLY2, LIN, KernelSpec(KernelKind.POLYNOMIAL, degree=0.25)):
            expected = np.empty((23, 23))
            for i in range(23):
                for j in range(i, 23):
                    expected[i, j] = expected[j, i] = kernel_eval(spec, data[i], data[j])
            assert np.array_equal(gram(spec, data).values, expected), (spec, data.shape)


def test_inner_product_kernels_round_alike_on_points_innermost_rows():
    # OKM's data is points-innermost and the per-pair references are C
    # rows: the inner products, `row_sum(X * Y)`, add in numpy's C order
    # in either layout, with no C copy of the rows.
    rng = np.random.default_rng(23)
    for p in (4, 8, 9):
        x, y = rng.uniform(0.0, 3.0, (2, 600, p))
        fx, fy = np.asfortranarray(x), np.asfortranarray(y)
        prototypes = rng.uniform(0.0, 3.0, (1, 5, p))
        # (C inputs, points-innermost inputs): points against prototypes, and row against row.
        cases = (((x[:, None, :], prototypes), (fx[:, None, :], prototypes)), ((x, y), (fx, fy)))
        for spec in (POLY2, LIN, KernelSpec(KernelKind.POLYNOMIAL, degree=0.25)):
            for rows in (kernel_rows, kernel_distance_rows):
                for c_args, f_args in cases:
                    assert np.array_equal(rows(spec, *f_args).view(np.int64),
                                          rows(spec, *c_args).view(np.int64)), (spec, p, rows.__name__)


def test_a_pair_in_a_broadcast_batch_rounds_as_in_a_gathered_batch():
    # OKM's all-subset distances take every point against every image in
    # one (n, m, p) batch, and the greedy steps and the objective read a
    # pair from it where they would evaluate that pair in a gathered (g, p)
    # batch; both must give the same bits, for the points-innermost data
    # and for C rows.
    rng = np.random.default_rng(29)
    for p in (1, 4, 8, 9, 17):
        points = rng.uniform(0.0, 3.0, (60, p)) * 10.0 ** rng.uniform(-3.0, 3.0, (60, 1))
        images = rng.uniform(0.0, 3.0, (16, p)) * 10.0 ** rng.uniform(-3.0, 3.0, (16, 1))
        rows, columns = rng.integers(0, 60, 200), rng.integers(0, 16, 200)
        for data in (points, np.asfortranarray(points)):
            for spec in (RBF2, KernelSpec(KernelKind.RBF, sigma=150.0), POLY2, LIN,
                         KernelSpec(KernelKind.POLYNOMIAL, degree=0.25)):
                for distance in (kernel_rows, kernel_distance_rows):
                    batch = distance(spec, data[:, None, :], images[None, :, :])
                    gathered = distance(spec, data[rows], images[columns])
                    assert np.array_equal(batch[rows, columns].view(np.int64), gathered.view(np.int64)), \
                        (p, spec, distance.__name__, data.flags.f_contiguous)


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


def test_kernel_distance_of_overflowing_rows_is_nan_not_zero():
    # inf + inf - 2 * inf is NaN; the clamp at 0 must not turn it into 0.
    with np.errstate(all="ignore"):
        d2 = kernel_distance_sq(LIN, OVERFLOWING[0], OVERFLOWING[1])
    assert math.isnan(d2)


def test_rbf_distance_without_the_diagonal_terms_is_the_full_formula_bit_for_bit():
    # For finite rows K(x, x) = K(y, y) = 1.0 exactly, so the distance can
    # skip them; a row with a non-finite entry still gives NaN.
    rng = np.random.default_rng(23)
    for sigma in (0.1, 0.3, 1.0, 2.5, 10.0, 40.0, 150.0):
        spec = KernelSpec(KernelKind.RBF, sigma=sigma)
        x = sigma * rng.standard_normal((30, 1, 5))
        y = sigma * rng.standard_normal((1, 6, 5))
        full = kernel_rows(spec, x, x) + kernel_rows(spec, y, y) - 2.0 * kernel_rows(spec, x, y)
        got = kernel_distance_rows(spec, x, y)
        assert np.array_equal(got.view(np.int64), np.maximum(full, 0.0).view(np.int64)), sigma
    # The shortcut is taken only when every squared distance of the batch is finite.
    x = np.array([[0.5, 1.0], [np.inf, 0.0], [np.nan, 1.0], [-0.25, 3.0]])
    with np.errstate(invalid="ignore"):
        got = kernel_distance_rows(RBF2, x, np.zeros(2))
    for i in (0, 3):
        alone = kernel_distance_sq(RBF2, x[i], np.zeros(2))
        assert np.array_equal(got[i].view(np.int64), np.float64(alone).view(np.int64)), i
    assert math.isnan(got[1]) and math.isnan(got[2])
    # A finite pair whose squared distance overflows is exactly 2, K(x, y) being 0.
    with np.errstate(over="ignore"):
        assert kernel_distance_sq(RBF2, [1e200], [-1e200]) == 2.0
        assert kernel_distance_rows(RBF2, [[1e200], [-1e200]], [-1e200]).tolist() == [2.0, 0.0]
    assert kernel_distance_rows(RBF2, np.empty((0, 3)), np.zeros(3)).shape == (0,)


def test_gram_that_overflows_is_a_domain_error():
    for spec in (LIN, POLY2):
        with pytest.raises(DomainError, match="Gram matrix is not finite"):
            gram(spec, OVERFLOWING)


def test_gram_memory_stays_near_one_matrix(monkeypatch):
    # A deterministic guard, no wall clock.  Small row blocks make the
    # result dominate at n = 600: the Gram matrix is one n^2 buffer, and
    # neither its construction nor the SymMatrix check holds another.
    import okmlib.linalg as linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 4096)
    n = 600
    data = np.random.default_rng(21).standard_normal((n, 4))
    for spec in (RBF2, POLY2, LIN):
        tracemalloc.start()
        try:
            g = gram(spec, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n == n
        assert peak <= 1.25 * 8 * n * n, peak / (8 * n * n)


@pytest.mark.parametrize("block_elements", [None, 50], ids=["default-blocks", "50-element-blocks"])
def test_gram_entries_are_the_pairwise_kernel_eval_bits(monkeypatch, block_elements):
    # Below 8 features the squared distances and inner products are added
    # left to right, from 8 to 128 in row_sum's eight lanes, above 128 in
    # numpy's halves, each in those lanes (three levels deep at p = 1 000);
    # every entry, below the diagonal too, must be kernel_eval's bits on
    # its pair.
    import okmlib.linalg as linalg

    if block_elements is not None:
        monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", block_elements)
    specs = [KernelSpec(KernelKind.RBF, sigma=sigma) for sigma in (0.5, 2.0, 150.0)]
    specs += [POLY2, KernelSpec(KernelKind.POLYNOMIAL, degree=0.25), LIN]
    rng = np.random.default_rng(37)
    for p in (1, 2, 4, 7, 8, 9, 15, 16, 17, 128, 129, 256, 1000):
        n = 15 if p < 256 else 6  # fewer pairs where each takes a thousand column adds
        points = rng.uniform(0.0, 3.0, (n, p)) * 10.0 ** rng.uniform(-2.0, 1.0, (n, 1))
        for data in (points, np.asfortranarray(points)):
            for spec in specs:
                expected = np.array([[kernel_eval(spec, x, y) for y in data] for x in data])
                got = gram(spec, data).values
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), \
                    (p, spec, data.flags.f_contiguous)
    for spec in (LIN, POLY2):
        with pytest.raises(DomainError, match="Gram matrix is not finite"):
            gram(spec, OVERFLOWING)
    # Every rbf distance between these rows overflows to inf, and its kernel value is 0.
    assert np.array_equal(gram(RBF2, OVERFLOWING).values, np.eye(4))


def _gram_peak(spec, data):
    tracemalloc.start()
    try:
        gram(spec, data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rbf_gram_builds_in_its_result_and_one_block_of_temporaries(iris):
    # A deterministic guard, no wall clock, at the default block size.  At
    # Iris size one block spans the matrix and holds one squared feature
    # column; at n = 2 000 and p = 8 a block holds four lane buffers of
    # about BLOCK_ELEMENTS / 4 doubles each.
    n = iris.n
    assert _gram_peak(RBF2, iris) <= 2.1 * 8 * n * n
    n = 2000
    data = np.random.default_rng(38).standard_normal((n, 8))
    assert _gram_peak(RBF2, data) <= 1.3 * 8 * n * n


def test_gram_block_temporaries_stay_within_the_block_budget_above_128_features(monkeypatch):
    # A deterministic guard, no wall clock.  Above 128 features the column
    # sums hold one more (rows, cols) plane per halving of numpy's halves
    # (three at p = 1 024), and the row blocks are sized to count them:
    # the Gram's temporaries stay within BLOCK_ELEMENTS doubles.
    import okmlib.linalg as linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 1 << 15)
    n = 128
    for p in (256, 1024):
        data = DataMatrix(np.random.default_rng(39).standard_normal((n, p)))
        for spec in (KernelSpec(KernelKind.RBF, sigma=float(p)), POLY2):
            temporaries = _gram_peak(spec, data) - 8 * n * n
            assert temporaries <= 1.1 * 8 * linalg.BLOCK_ELEMENTS, \
                (p, spec.kind, temporaries / (8 * linalg.BLOCK_ELEMENTS))


@pytest.mark.parametrize("p", [1, 4, 7, 8, 9, 17, 128, 129, 300, 1000])
def test_column_sums_are_row_sums_bit_for_bit(p):
    # Both terms of the one column-add core that every Gram block and the
    # median sigma use: the squared differences and the products, each
    # against `row_sum` of the (rows, cols, p) batch, for C and
    # points-innermost inputs.  The rows include -0.0 ones, whose products
    # sum to -0.0 before row_sum's + 0.0, and rows of mixed scales, where
    # an order other than numpy's halves and lanes changes low bits.
    rng = np.random.default_rng(41)
    points = rng.standard_normal((12, p)) * 10.0 ** rng.uniform(-3.0, 3.0, (12, 1))
    points[0] = -0.0
    points[1, ::2] = -0.0
    points[2] = 0.0
    for data in (points, np.asfortranarray(points)):
        x, y = data[:, None, :], data[None, :, :]
        for product, reference in ((False, row_sum((x - y) ** 2)), (True, row_sum(x * y))):
            got = _column_sums(x, y, np.empty((12, 12)), product)
            assert np.array_equal(got.view(np.int64), reference.view(np.int64)), \
                (product, data.flags.f_contiguous)


# ------------------------------------------------------------- median sigma


def test_median_sigma_row_blocks_match_dense_formula(monkeypatch):
    import okmlib.linalg as linalg

    def dense(values):
        n = len(values)
        d2 = ((values[:, None, :] - values[None, :, :]) ** 2).sum(-1)
        dist = np.sqrt(d2[np.triu_indices(n, 1)])
        dist = dist[dist > 0]
        return float(np.median(dist)) if dist.size else 1.0

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 64)
    rng = np.random.default_rng(8)
    for n, p in ((2, 1), (7, 3), (40, 2), (41, 9), (23, 300)):
        values = rng.standard_normal((n, p))
        # As the CLI passes them: a DataMatrix, whose values are points-innermost; and a raw array.
        assert median_sigma(DataMatrix(values)) == median_sigma(values) == dense(values)
    assert median_sigma(DataMatrix(np.zeros((5, 2)))) == 1.0


def test_median_sigma_is_the_same_under_numpys_default_buffers(iris):
    # `median_sigma` runs under `linalg.unbuffered()`; the undecorated function under numpy's
    # default 8192-element buffers gives the same bits.
    def synthetic(per_cluster, p):
        return generate_synthetic(SyntheticSpec(
            k=5, points_per_cluster=per_cluster, overlap_pairs=tuple((c, (c + 1) % 5, 40) for c in range(5)),
            dimension=p, seed=0))

    samples = {
        "iris": iris,
        "2200x8": synthetic(400, 8),
        "4200x8": synthetic(800, 8),
        "1001 tied rows": DataMatrix(np.repeat([[1.0, 2.0], [3.0, 5.0], [4.0, 1.0]], [500, 500, 1],
                                               axis=0)),
        "n=2": DataMatrix([[0.0, 1.0], [3.0, 5.0]]),
        "p=1": synthetic(40, 1),
        "p=17": synthetic(40, 17),
    }
    for name, data in samples.items():
        old = np.setbufsize(8192)
        try:
            buffered = median_sigma.__wrapped__(data)
        finally:
            np.setbufsize(old)
        assert repr(median_sigma(data)) == repr(buffered), name


def test_median_sigma_never_holds_an_n_by_n_buffer():
    # The n(n-1)/2 distances and their nonzero copy, about n^2 doubles, are the peak; row
    # blocks, not a dense n x n distance or Gram matrix, hold the squared distances.
    n = 2_000
    data = DataMatrix(np.random.default_rng(22).standard_normal((n, 8)))
    tracemalloc.start()
    try:
        sigma = median_sigma(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sigma > 0
    assert peak < 1.1 * 8 * n * n, peak / (8 * n * n)
