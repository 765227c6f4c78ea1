"""Kernel functions, Gram matrices, and the kernel-induced squared distance.

    rbf         exp(-||x - y||^2 / sigma^2)
    polynomial  (<x, y> + 1)^degree     (degree may be fractional)
    linear      <x, y>

`kernel_rows` is the one batched core and `kernel_distance_rows` the one
distance; `kernel_eval` and `kernel_distance_sq` are their checked
one-pair wrappers.  Each inner product rounds like `np.dot` on its pair,
whatever the layout of the inputs.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .dataio import data_values
from .errors import DimensionMismatch, DomainError, InvalidSpec
from .linalg import SymMatrix, row_blocks, row_sum, unbuffered


class KernelKind(enum.Enum):
    RBF = "rbf"
    POLYNOMIAL = "poly"
    LINEAR = "linear"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus its parameter (sigma for rbf, degree for poly); unused fields are ignored."""

    kind: KernelKind
    sigma: float = 1.0
    degree: float = 1.0

    def __post_init__(self):
        if self.kind == KernelKind.RBF and not (np.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidSpec(f"rbf kernel needs sigma > 0, got {self.sigma}")
        if self.kind == KernelKind.RBF and not self.sigma * self.sigma > 0:
            raise InvalidSpec(f"rbf kernel sigma {self.sigma} is too small: sigma^2 underflows to 0")
        if self.kind == KernelKind.RBF and self.sigma * self.sigma == np.inf:
            raise InvalidSpec(f"rbf kernel sigma {self.sigma} is too large: sigma^2 overflows to inf")
        if self.kind == KernelKind.POLYNOMIAL and not (np.isfinite(self.degree) and self.degree > 0):
            raise InvalidSpec(f"polynomial kernel needs degree > 0, got {self.degree}")


def check_pair(x, y):
    """x and y as float vectors: 1-D, and rows that `check_rows` passes."""
    if np.ndim(x) != 1 or np.ndim(y) != 1:
        raise DimensionMismatch("arguments must be 1-D vectors")
    return check_rows(x, y)


def check_rows(X, Y):
    """X and Y as float arrays of rows: last axes of one length, at least 1."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[-1:] != Y.shape[-1:]:
        raise DimensionMismatch(f"row lengths differ: shapes {X.shape} and {Y.shape}")
    if X.shape[-1:] in ((), (0,)):
        raise DimensionMismatch("rows must have at least one component")
    return X, Y


def kernel_rows(spec: KernelSpec, X, Y) -> np.ndarray:
    """Kernel values of X (..., p) against Y (..., p), broadcast row by row.

    Returns one value per broadcast row, shape `broadcast(X, Y).shape[:-1]`.
    Raises DimensionMismatch unless `check_rows` passes, and DomainError
    if a fractional polynomial degree meets a negative base on any row.
    """
    X, Y = check_rows(X, Y)
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


def kernel_distance_rows(spec: KernelSpec, X, Y, x_self=None, finite=False) -> np.ndarray:
    """Kernel-induced squared distances of X against Y, row by row.

    Clamped below at 0, since a fractional degree is not a Mercer kernel.
    `x_self`, if given, is K(x, x) of X's rows, shaped to broadcast as X
    does.  `finite` says the caller has shown X and Y finite; otherwise
    the rbf kernel checks them here.  The rbf K(x, x) of a finite x is
    exactly 1.0, so there (1.0 + 1.0) - 2 K(x, y) gives the full
    formula's bits; a non-finite operand takes the full formula and reads
    NaN, so an overflow never reads as distance 0.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if spec.kind == KernelKind.RBF and (finite or np.isfinite(X).all() and np.isfinite(Y).all()):
        d2 = (1.0 + 1.0) - 2.0 * kernel_rows(spec, X, Y)
    else:
        # The C rows every inner product needs, copied once here rather than per `kernel_rows`.
        X = np.ascontiguousarray(X)
        Y = np.ascontiguousarray(Y)
        if x_self is None:
            x_self = kernel_rows(spec, X, X)
        d2 = x_self + kernel_rows(spec, Y, Y) - 2.0 * kernel_rows(spec, X, Y)
    return np.maximum(d2, 0.0)


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a pair of vectors."""
    x, y = check_pair(x, y)
    return float(kernel_rows(spec, x, y))


def _squared_distances(x, y, out):
    """`row_sum((x - y) ** 2)` into `out`, bit for bit, for x (rows, 1, p) and y (1, cols, p).

    Up to 128 features the squared differences are added one feature
    column at a time in `row_sum`'s order: left to right below 8; from 8
    on, eight lanes of every eighth column, combined pairwise, then the
    tail columns.  Temporaries: one (rows, cols) column below 8 features,
    four from 8 to 128, and above 128 the (rows, cols, p) batch that
    `row_sum` sums whole.
    """
    p = x.shape[-1]
    if p > 128:
        diff = np.subtract(x, y, out=np.empty(out.shape + (p,)))
        np.sum(np.square(diff, out=diff), axis=-1, out=out)
        return
    scratch = np.empty(out.shape)

    def square(column, into):
        np.subtract(x[..., column], y[..., column], out=into)
        return np.square(into, out=into)

    step, body = (1, p) if p < 8 else (8, p - p % 8)

    def lane(first, into):
        square(first, into)
        for column in range(first + step, body, step):
            into += square(column, scratch)
        return into

    lane(0, out)
    if p < 8:
        return
    # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail columns.
    t1, t2, t3 = np.empty((3,) + out.shape)
    out += lane(1, t1)
    lane(2, t1)
    t1 += lane(3, t2)
    out += t1
    lane(4, t1)
    t1 += lane(5, t2)
    lane(6, t2)
    t2 += lane(7, t3)
    t1 += t2
    out += t1
    for column in range(body, p):
        out += square(column, scratch)


def _block_temporaries(spec: KernelSpec, p):
    """(rows, cols) temporaries that one Gram row block holds, counted as in `_squared_distances`."""
    if spec.kind != KernelKind.RBF:
        return 4  # kernel_rows' inner products, base and power, and the finiteness mask
    if p < 8:
        return 1
    return 4 if p <= 128 else p


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a non-finite entry, or an rbf 0
@unbuffered()
def gram(spec: KernelSpec, data) -> SymMatrix:
    """The n x n Gram matrix K(i, j) = K(x_i, x_j) of a DataMatrix or an (n, p) array.

    Built in one n x n buffer, a row block at a time: rows i against
    columns j >= start, with the block's columns below it mirrored, so the
    result is symmetric by construction and its entries are the bits of
    `kernel_eval` on each pair.  Memory: the dense result, 8 n^2 bytes,
    plus one row block's temporaries, about BLOCK_ELEMENTS doubles, or
    one row's when a row needs more.  Raises DomainError when an entry
    overflows; an rbf entry of finite data lies in [0, 1] and is not
    checked.
    """
    values = data_values(data)
    if values.shape[0] < 1:
        raise ValueError(f"expected an (n, p) data array, got shape {values.shape}")
    n, p = values.shape
    k = np.empty((n, n))
    for start, stop in row_blocks(n, n * _block_temporaries(spec, p)):
        rows = k[start:stop, start:]
        x, y = values[start:stop, None, :], values[None, start:, :]
        if spec.kind == KernelKind.RBF:
            _squared_distances(x, y, rows)
            # d2 / -(sigma^2) has the bits of kernel_rows' -d2 / sigma^2.
            np.divide(rows, -(spec.sigma * spec.sigma), out=rows)
            np.exp(rows, out=rows)
        else:
            rows[...] = kernel_rows(spec, x, y)
            if not np.all(np.isfinite(rows)):
                raise DomainError("Gram matrix is not finite: the data overflow this kernel")
        k[stop:, start:stop] = rows[:, stop - start:].T
    return SymMatrix._trusted(k)


def kernel_distance_sq(spec: KernelSpec, x, y) -> float:
    """Squared distance induced by the kernel, clamped below at 0."""
    x, y = check_pair(x, y)
    return float(kernel_distance_rows(spec, x, y))
