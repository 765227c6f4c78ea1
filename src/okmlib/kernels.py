"""Kernel functions, Gram matrices, and the kernel-induced squared distance.

Supported kernels:

    rbf         exp(-||x - y||^2 / sigma^2)
    polynomial  (<x, y> + 1)^degree     (degree may be fractional)
    linear      <x, y>

Everything is computed by one row-batched core, `kernel_rows`, which
broadcasts two stacks of p-vectors against each other and returns one
kernel value per row; `kernel_eval` and `kernel_distance_sq` are its
one-row cases.  Inner products are stacked 1 x p by p x 1 matmuls over
C-contiguous rows, so each row rounds exactly like `np.dot` on that
pair; a points-innermost input (`DataMatrix`) is copied to C rows first,
once per `kernel_distance_rows` call, because a matmul over strided
rows rounds differently.

The induced squared distance K(x,x) + K(y,y) - 2 K(x,y) is clamped below
at zero: fractional polynomial degrees are not Mercer kernels, so tiny
negative values can occur.  A NaN (inf - inf, when K(x, x) overflows)
stays NaN, so an overflow cannot pass for a zero distance.  For the rbf
kernel K(x, x) is exactly 1.0 when x is finite, so on finite operands
the distance is (1.0 + 1.0) - 2 K(x,y), the same bits; with a non-finite
entry it takes the full formula and reads NaN.  `kernel_distance_rows`
checks finiteness on every call; `unchecked_kernel_distance_rows` is
told it, and given K(x, x) of X's rows, by a caller that knows them.

The squared euclidean distance inside the rbf kernel is summed with
`linalg.row_sum`, in numpy's own C-order `sum(axis=-1)` order whatever
the layout; on points-innermost data the Gram's row blocks run over
contiguous runs of points.

Memory: `gram` holds the dense n x n result, 8 n^2 bytes (about 3.2 GB
at n = 20 000), and builds it in row blocks whose temporaries stay at
O(block * n * p) elements; `SymMatrix` validates it in row blocks too.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .dataio import data_values
from .errors import DimensionMismatch, DomainError, InvalidSpec
from .linalg import SymMatrix, row_blocks, row_sum


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
        d2 = row_sum((X - Y) ** 2)
        return np.exp(-d2 / (spec.sigma * spec.sigma))
    # A matmul over strided (points-innermost) rows rounds differently.
    X = np.ascontiguousarray(X)
    Y = np.ascontiguousarray(Y)
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
    return unchecked_kernel_distance_rows(spec, np.asarray(X, dtype=float), np.asarray(Y, dtype=float))


def unchecked_kernel_distance_rows(spec: KernelSpec, X, Y, x_self=None, finite=None) -> np.ndarray:
    """`kernel_distance_rows` of float arrays, given what the caller computed or checked once.

    `x_self`, if given, is K(x, x) of X's rows, shaped to broadcast as X
    does.  `finite` says whether X and Y are all finite; None checks here.
    """
    if spec.kind == KernelKind.RBF and (
            np.isfinite(X).all() and np.isfinite(Y).all() if finite is None else finite):
        # K(x, x) = exp(-0.0) = 1.0 exactly for a finite x.
        d2 = (1.0 + 1.0) - 2.0 * kernel_rows(spec, X, Y)
    else:
        # Copied once here, the C rows the inner products need (`kernel_rows`).
        X = np.ascontiguousarray(X)
        Y = np.ascontiguousarray(Y)
        if x_self is None:
            x_self = kernel_rows(spec, X, X)
        d2 = x_self + kernel_rows(spec, Y, Y) - 2.0 * kernel_rows(spec, X, Y)
    return np.maximum(d2, 0.0)  # keeps NaN: an overflow must not read as distance 0


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a pair of vectors."""
    x, y = _check_pair(x, y)
    return float(kernel_rows(spec, x, y))


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught as a non-finite entry
def gram(spec: KernelSpec, data) -> SymMatrix:
    """Build the n x n Gram matrix K(i, j) = K(x_i, x_j) for a dataset.

    Row blocks of the upper triangle are evaluated with `kernel_rows`;
    the lower triangle is mirrored, so the result is symmetric by
    construction.  `data` may be a DataMatrix or a plain (n, p) array.
    Raises DomainError when an entry overflows.
    """
    values = data_values(data)
    if values.shape[0] < 1:
        raise ValueError(f"expected an (n, p) data array, got shape {values.shape}")
    n, p = values.shape
    k = np.empty((n, n))
    for start, stop in row_blocks(n, n * p):
        # Row i against columns j >= start; only j >= i is kept.
        rows = kernel_rows(spec, values[start:stop, None, :], values[None, start:, :])
        if not np.all(np.isfinite(rows)):
            raise DomainError("Gram matrix is not finite: the data overflow this kernel")
        diagonal = np.triu(rows[:, :stop - start])
        k[start:stop, start:stop] = diagonal + np.triu(diagonal, 1).T
        k[start:stop, stop:] = rows[:, stop - start:]
        k[stop:, start:stop] = rows[:, stop - start:].T
    return SymMatrix(k)


def kernel_distance_sq(spec: KernelSpec, x, y) -> float:
    """Squared distance induced by the kernel, clamped below at 0."""
    x, y = _check_pair(x, y)
    return float(kernel_distance_rows(spec, x, y))
