"""Estimate the number of clusters from the Gram-matrix spectrum.

A Gram matrix over g well-separated groups is close to block structure:
its centered (mean-removed) spectrum carries one significant direction
per group boundary, so the estimate is 1 + the number of significant
centered eigenvalues.  Centering matters because smooth kernels (e.g. a
wide-bandwidth rbf) produce a dominant near-constant component whose
eigenvalue says nothing about group structure and would otherwise drown
every gap heuristic.

Two significance policies:

    ratio     count eigenvalues >= tau * largest
    eigengap  cut at the largest multiplicative gap, with everything
              below 1% of the largest treated as noise floor

Both ignore non-positive eigenvalues (possible with non-Mercer kernels).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidSpec
from .linalg import SymMatrix, row_blocks, sorted_eigenvalues, unbuffered

GAP_NOISE_FLOOR = 0.01


class PolicyKind(enum.Enum):
    RATIO_THRESHOLD = "ratio"
    LARGEST_EIGENGAP = "eigengap"


@dataclass(frozen=True)
class SignificancePolicy:
    kind: PolicyKind
    tau: float = 0.05

    def __post_init__(self):
        if self.kind == PolicyKind.RATIO_THRESHOLD and not (0.0 < self.tau < 1.0):
            raise InvalidSpec(f"tau must be in (0, 1), got {self.tau}")


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray
    centered_eigenvalues: np.ndarray
    estimated_k: int


def significant_count(eigenvalues, policy: SignificancePolicy) -> int:
    """How many leading values of a descending spectrum are significant.

    `estimate_k` passes the centered spectrum without the centering's null
    value, so the eigengap cuts a nearly flat one inside, not down at it.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.size == 0 or lam[0] <= 0:
        return 0

    if policy.kind == PolicyKind.RATIO_THRESHOLD:
        return int(np.sum(lam >= policy.tau * lam[0]))

    if lam.size == 1:
        return 1
    floored = np.maximum(lam, GAP_NOISE_FLOOR * lam[0])
    gaps = np.log(floored[:-1] / floored[1:])
    return int(np.argmax(gaps)) + 1


@np.errstate(over="ignore", invalid="ignore")  # an entry that overflows is rejected below
@unbuffered()
def _centered(matrix: SymMatrix) -> SymMatrix:
    # In place, rounding like (c + c.T) / 2 of c = k - row_means - row_means.T + grand_mean.
    k = matrix.values
    row_means = k.mean(axis=1, keepdims=True)
    grand_mean = k.mean()
    k -= row_means
    k -= row_means.T
    k += grand_mean
    # Symmetrize a row block at a time: `k += k.T` would copy all of k.T
    # first.  Each block's rows from the diagonal on, and the matching
    # columns, are still unwritten; addition commutes, so both halves get
    # the bits of (c + c.T) / 2, and the block covers them both.
    n = len(k)
    for start, stop in row_blocks(n, n):
        half = k[start:stop, start:] + k[start:, start:stop].T
        half /= 2.0
        if not np.all(np.isfinite(half)):
            raise DomainError("matrix entries must be finite")
        k[start:stop, start:] = half
        k[start:, start:stop] = half.T
        del half  # before the next block's is made
    return SymMatrix._trusted(k)


def _estimate_k_in_place(matrix: SymMatrix, policy: SignificancePolicy) -> SpectrumReport:
    """`estimate_k` on a matrix it owns: centered in place once its raw spectrum is taken."""
    n = matrix.n
    if n < 2:
        raise DomainError("need at least 2 points to estimate k")

    raw = sorted_eigenvalues(matrix)
    centered = sorted_eigenvalues(_centered(matrix))
    null = np.argmin(np.abs(centered))  # the centering's (see `estimate_k`)

    estimated = 1 + significant_count(np.delete(centered, null), policy)
    return SpectrumReport(eigenvalues=raw, centered_eigenvalues=centered, estimated_k=estimated)


def estimate_k(matrix: SymMatrix, policy: SignificancePolicy) -> SpectrumReport:
    """Estimate the cluster count for the dataset behind a Gram matrix.

    Returns the full descending spectrum (raw and centered) so a human
    can second-guess the mechanical estimate.  The policy reads the
    centered spectrum without its value nearest 0.  Exactly one value is
    the centering's: with J = I - 11'/n, (J K J)1 = 0 for every K, while
    J I J = J has the value 0 only once.  Other zeros are K's (g blocks of
    ones leave n - g); they equal the null value but for rounding, below
    either policy's cut unless all values are, so which one goes does not
    change the count.  Raises DomainError for fewer than two points.
    `matrix` is left as it is.  Memory: n^2 doubles on top of `matrix`
    (the copy that is centered in place) and a row block, plus LAPACK's
    working copies.
    """
    return _estimate_k_in_place(SymMatrix._trusted(matrix.values.copy(order="K")), policy)
