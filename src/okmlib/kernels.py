"""Kernel functions, Gram matrices, and the kernel-induced squared distance.

Supported kernels:

    rbf         exp(-||x - y||^2 / sigma^2)
    polynomial  (<x, y> + 1)^degree     (degree may be fractional)
    linear      <x, y>

Everything is computed by one row-batched core, `kernel_rows`, which
broadcasts two stacks of p-vectors against each other and returns one
kernel value per row; `kernel_eval` and `kernel_distance_sq` are its
one-row cases.  Inner products are stacked 1 x p by p x 1 matmuls, so
each row rounds exactly like `np.dot` on that pair.

The induced squared distance K(x,x) + K(y,y) - 2 K(x,y) is clamped below
at zero: fractional polynomial degrees are not Mercer kernels, so tiny
negative values can occur and would otherwise poison downstream
comparisons and square roots.

Memory: `gram` holds the dense n x n result, 8 n^2 bytes (about 3.2 GB
at n = 20 000), and builds it in row blocks whose temporaries stay at
O(block * n * p) elements.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidSpec
from .linalg import SymMatrix, row_blocks


class KernelKind(enum.Enum):
    RBF = "rbf"
    POLYNOMIAL = "poly"
    LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus its parameter (sigma for rbf, degree for poly).

    Fields not used by the chosen kind are ignored.
    """

    kind: KernelKind
    sigma: float = 1.0
    degree: float = 1.0

    def __post_init__(self):
        if self.kind == KernelKind.RBF and not (np.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidSpec(f"rbf kernel needs sigma > 0, got {self.sigma}")
        if self.kind == KernelKind.POLYNOMIAL and not (np.isfinite(self.degree) and self.degree > 0):
            raise InvalidSpec(f"polynomial kernel needs degree > 0, got {self.degree}")


@dataclass(frozen=True)
class GramMatrix:
    """Pairwise kernel evaluations K(i, j) = K(x_i, x_j) for one dataset."""

    spec: KernelSpec
    matrix: SymMatrix

    @property
    def n(self):
        return self.matrix.n


def _check_pair(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or y.ndim != 1:
        raise DimensionMismatch("kernel arguments must be 1-D vectors")
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"vector lengths differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 1:
        raise DimensionMismatch("vectors must have at least one component")
    return x, y


def kernel_rows(spec: KernelSpec, X, Y) -> np.ndarray:
    """Kernel values of X (..., p) against Y (..., p), broadcast row by row.

    Returns one value per broadcast row, shape `broadcast(X, Y).shape[:-1]`.
    Raises DomainError if a fractional polynomial degree meets a negative
    base on any row.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if spec.kind == KernelKind.RBF:
        d2 = ((X - Y) ** 2).sum(axis=-1)
        return np.exp(-d2 / (spec.sigma * spec.sigma))
    inner = (X[..., None, :] @ Y[..., :, None])[..., 0, 0]
    if spec.kind == KernelKind.LINEAR:
        return inner
    base = inner + 1.0
    if not float(spec.degree).is_integer():
        negative = base[base < 0.0]
        if negative.size:
            raise DomainError(
                f"polynomial base {negative[0]:.6g} < 0 with non-integer degree {spec.degree}"
            )
    # np.power, not **: on a one-row (0-d) base ** would take the scalar
    # pow, which can round differently from the ufunc the batches use.
    return np.power(base, spec.degree)


def kernel_distance_rows(spec: KernelSpec, X, Y) -> np.ndarray:
    """Kernel-induced squared distances of X against Y, row by row, clamped at 0."""
    d2 = kernel_rows(spec, X, X) + kernel_rows(spec, Y, Y) - 2.0 * kernel_rows(spec, X, Y)
    return np.where(d2 > 0.0, d2, 0.0)


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a pair of vectors."""
    x, y = _check_pair(x, y)
    return float(kernel_rows(spec, x, y))


def gram(spec: KernelSpec, data) -> GramMatrix:
    """Build the n x n Gram matrix for a dataset.

    Row blocks of the upper triangle are evaluated with `kernel_rows`;
    the lower triangle is mirrored, so the result is symmetric by
    construction.  `data` may be a DataMatrix or a plain (n, p) array.
    """
    values = np.asarray(getattr(data, "values", data), dtype=float)
    if values.ndim != 2 or values.shape[0] < 1:
        raise ValueError(f"expected an (n, p) data array, got shape {values.shape}")
    n, p = values.shape
    k = np.empty((n, n))
    for start, stop in row_blocks(n, n * p):
        # Row i against columns j >= start; only j >= i is kept.
        rows = kernel_rows(spec, values[start:stop, None, :], values[None, start:, :])
        diagonal = np.triu(rows[:, :stop - start])
        k[start:stop, start:stop] = diagonal + np.triu(diagonal, 1).T
        k[start:stop, stop:] = rows[:, stop - start:]
        k[stop:, start:stop] = rows[:, stop - start:].T
    return GramMatrix(spec=spec, matrix=SymMatrix(k))


def kernel_distance_sq(spec: KernelSpec, x, y) -> float:
    """Squared distance induced by the kernel, clamped below at 0."""
    x, y = _check_pair(x, y)
    return float(kernel_distance_rows(spec, x, y))
