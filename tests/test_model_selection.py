import tracemalloc

import numpy as np
import pytest

import okmlib.linalg as linalg
import okmlib.model_selection as model_selection
from okmlib import (
    DomainError,
    InvalidSpec,
    KernelKind,
    KernelSpec,
    PolicyKind,
    SignificancePolicy,
    SymMatrix,
    estimate_k,
    gram,
    significant_count,
)
from okmlib.model_selection import _centered, _estimate_k_in_place

RATIO = SignificancePolicy(kind=PolicyKind.RATIO_THRESHOLD)
GAP = SignificancePolicy(kind=PolicyKind.LARGEST_EIGENGAP)


def test_ratio_count_example():
    policy = SignificancePolicy(kind=PolicyKind.RATIO_THRESHOLD, tau=0.1)
    # cutoff is 0.1 * 5 = 0.5
    assert significant_count([5.0, 5.0, 5.0, 0.1, 0.1], policy) == 3


def test_count_ignores_nonpositive_eigenvalues():
    policy = SignificancePolicy(kind=PolicyKind.RATIO_THRESHOLD, tau=0.1)
    assert significant_count([5.0, -1.0, -2.0], policy) == 1
    assert significant_count([-1.0, -2.0], policy) == 0
    assert significant_count([0.0, 0.0], GAP) == 0


def test_eigengap_count_on_block_spectrum():
    assert significant_count([4.0, 3.0, 3.0, 0.0, 0.0], GAP) == 3
    assert significant_count([4.0], GAP) == 1  # no gap to take


def test_the_eigengap_noise_floor_decides_this_spectrum(monkeypatch):
    # Its last gaps lie near the floor: at 0.01 the cut falls after the fifth value; a doubled
    # floor flattens that gap and the cut moves up one, a halved one opens the gap below 0.014.
    spectrum = [1.0, 0.43, 0.185, 0.08, 0.034, 0.014, 0.001]
    assert significant_count(spectrum, GAP) == 5
    for floor, count in ((0.02, 4), (0.005, 6)):
        monkeypatch.setattr(model_selection, "GAP_NOISE_FLOOR", floor)
        assert significant_count(spectrum, GAP) == count


def test_the_centerings_null_value_is_left_out_and_block_estimates_keep(spectra_recorder):
    # (J K J)1 = 0 for every K: a centered matrix's rows sum to 0 but for rounding.
    rng = np.random.default_rng(25)
    a = rng.standard_normal((30, 30))
    centered = _centered(SymMatrix(a + a.T)).values
    assert np.max(np.abs(centered.sum(axis=1))) < 1e-12 * np.max(np.abs(a))
    # g blocks of ones leave n - g centered values at 0 besides the null value, and one
    # block leaves every value at 0; criterion 2's matrices keep their estimates.
    for sizes in [[6]] + spectra_recorder.block_layouts():
        g = spectra_recorder.ones_blocks(sizes)
        for policy in (RATIO, GAP):
            report = estimate_k(g, policy)
            assert report.estimated_k == len(sizes), (sizes, policy)
            centered = report.centered_eigenvalues
            assert len(centered) == g.n  # the report keeps the null value
            assert np.sum(np.abs(centered) < 1e-12) == g.n - len(sizes) + 1
    # The identity's centered spectrum is 1 (n - 1 times) and the null value: flat once it is
    # left out, so the eigengap takes the first gap and the ratio policy counts every value.
    identity = SymMatrix(np.eye(9))
    assert estimate_k(identity, GAP).estimated_k == 2
    assert estimate_k(identity, RATIO).estimated_k == 9


def test_block_diagonal_spec_example(ones_blocks):
    g = ones_blocks([3, 3, 4])
    for policy in (RATIO, GAP):
        assert estimate_k(g, policy).estimated_k == 3


@pytest.mark.parametrize("sizes", [[10, 2], [10, 2, 2], [2, 10, 10, 2],
                                   [10, 9, 2, 2, 2], [5, 5, 5], [2, 2]])
def test_block_diagonal_exact_recovery(sizes, ones_blocks):
    g = ones_blocks(sizes)
    for policy in (RATIO, GAP):
        assert estimate_k(g, policy).estimated_k == len(sizes)


def test_permutation_invariance(ones_blocks):
    rng = np.random.default_rng(1)
    g = ones_blocks([4, 3, 2])
    perm = rng.permutation(g.n)
    permuted = SymMatrix(g.values[np.ix_(perm, perm)])
    for policy in (RATIO, GAP):
        assert estimate_k(permuted, policy).estimated_k == estimate_k(g, policy).estimated_k


def test_ratio_policy_scale_invariant(ones_blocks):
    g = ones_blocks([4, 4, 3])
    base = estimate_k(g, RATIO).estimated_k
    for c in (0.25, 3.0, 100.0):
        scaled = SymMatrix(c * g.values)
        assert estimate_k(scaled, RATIO).estimated_k == base


def test_single_block_gives_one(ones_blocks):
    g = ones_blocks([6])
    for policy in (RATIO, GAP):
        assert estimate_k(g, policy).estimated_k == 1


def test_needs_two_points():
    g = SymMatrix(np.array([[2.0]]))
    with pytest.raises(ValueError):
        estimate_k(g, GAP)


def test_policy_validation():
    with pytest.raises(InvalidSpec):
        SignificancePolicy(kind=PolicyKind.RATIO_THRESHOLD, tau=1.5)


def test_report_carries_full_descending_spectra(ones_blocks):
    g = ones_blocks([3, 2])
    report = estimate_k(g, GAP)
    assert len(report.eigenvalues) == g.n
    assert len(report.centered_eigenvalues) == g.n
    assert np.all(np.diff(report.eigenvalues) <= 1e-12)
    assert np.all(np.diff(report.centered_eigenvalues) <= 1e-12)


def test_separated_gaussian_blobs_give_three():
    rng = np.random.default_rng(30)
    blobs = [rng.normal(center, 0.4, (15, 2))
             for center in ([0.0, 0.0], [10.0, 0.0], [0.0, 10.0])]
    data = np.vstack(blobs)
    g = gram(KernelSpec(KernelKind.RBF, sigma=4.0), data)
    for policy in (RATIO, GAP):
        assert estimate_k(g, policy).estimated_k == 3


def test_centered_matches_the_two_step_expression_bit_for_bit():
    rng = np.random.default_rng(31)
    data = rng.standard_normal((57, 3)) * 4.0
    for spec in (KernelSpec(KernelKind.RBF, sigma=3.0), KernelSpec(KernelKind.POLYNOMIAL, degree=3.0),
                 KernelSpec(KernelKind.LINEAR)):
        k = gram(spec, data).values
        row_means = k.mean(axis=1, keepdims=True)
        c = k - row_means - row_means.T + k.mean()
        assert np.array_equal(_centered(SymMatrix(k)).values, (c + c.T) / 2.0)


def test_centered_in_place_matches_the_two_step_expression_past_one_ufunc_buffer(monkeypatch):
    # 40 000 entries, past numpy's default 8192-element ufunc buffer, in
    # several row blocks: the means and the in-place steps round as
    # numpy's default settings do.
    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 4096)
    rng = np.random.default_rng(34)
    k = gram(KernelSpec(KernelKind.POLYNOMIAL, degree=2.0), rng.standard_normal((200, 3))).values
    row_means = k.mean(axis=1, keepdims=True)
    c = k - row_means - row_means.T + k.mean()
    assert np.array_equal(_centered(SymMatrix(k)).values, (c + c.T) / 2.0)


def test_centering_that_overflows_is_a_domain_error():
    # Every entry is finite, but a row of them sums past the largest double.
    with pytest.raises(DomainError, match="must be finite"):
        estimate_k(SymMatrix(np.full((3, 3), 1e308)), GAP)


def test_estimate_k_memory_stays_near_one_matrix(monkeypatch):
    # A deterministic guard, no wall clock: on top of the caller's Gram
    # matrix, estimate_k holds the centered copy, which it symmetrizes in
    # place one row block at a time.  LAPACK's working copies are not seen
    # by tracemalloc.
    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 4096)
    n = 600
    g = gram(KernelSpec(KernelKind.RBF, sigma=2.0), np.random.default_rng(32).standard_normal((n, 4)))
    tracemalloc.start()
    try:
        estimate_k(g, GAP)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n, peak / (8 * n * n)


def test_report_on_a_handed_over_gram_matches_estimate_k_bit_for_bit():
    # The report centers the matrix it is given in place; estimate_k hands
    # it a copy and leaves its argument's bytes as they were.
    rng = np.random.default_rng(33)
    data = rng.standard_normal((41, 5)) * 3.0
    for spec in (KernelSpec(KernelKind.RBF, sigma=2.0), KernelSpec(KernelKind.POLYNOMIAL, degree=2.0),
                 KernelSpec(KernelKind.LINEAR)):
        g = gram(spec, data)
        before = g.values.tobytes()
        for policy in (RATIO, GAP):
            expected = estimate_k(g, policy)
            assert g.values.tobytes() == before
            got = _estimate_k_in_place(gram(spec, data), policy)
            assert got.eigenvalues.tobytes() == expected.eigenvalues.tobytes(), spec
            assert got.centered_eigenvalues.tobytes() == expected.centered_eigenvalues.tobytes(), spec
            assert got.estimated_k == expected.estimated_k
