"""Kernel functions, Gram matrices, and the kernel-induced squared distance.

    rbf         exp(-||x - y||^2 / sigma^2)
    polynomial  (<x, y> + 1)^degree     (degree may be fractional)
    linear      <x, y>

`kernel_rows` is the one batched core and `kernel_distance_rows` the one
distance; `kernel_eval` and `kernel_distance_sq` are their checked
one-pair wrappers.  Both reach the rbf kernel through `_rbf`, and the
distance alone decides when to skip its K(x, x) and K(y, y).  Squared
distances and inner products are added in `row_sum`'s order from
multiplies and adds alone, in any layout, so no value depends on the
BLAS kernel a CPU picks.  `gram` and `median_sigma`, the default rbf
bandwidth, add them a feature column at a time (`_column_sums`).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .dataio import data_values
from .errors import DimensionMismatch, DomainError, InvalidSpec
from .linalg import SymMatrix, numpys_halves, row_blocks, row_sum, unbuffered


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

    Returns one value per broadcast row, shape `broadcast(X, Y).shape[:-1]`:
    of `row_sum((X - Y) ** 2)` for rbf and of `row_sum(X * Y)` otherwise.
    Raises DimensionMismatch unless `check_rows` passes, and DomainError
    if a fractional polynomial degree meets a negative base on any row.
    """
    X, Y = check_rows(X, Y)
    if spec.kind == KernelKind.RBF:
        return _rbf(spec, row_sum((X - Y) ** 2))
    return _of_inner_products(spec, row_sum(X * Y))


def _rbf(spec: KernelSpec, d2, out=None) -> np.ndarray:
    """exp(-d2 / sigma^2), bit for bit, of squared distances `d2`, into `out` if given."""
    return np.exp(np.divide(d2, -(spec.sigma * spec.sigma), out=out), out=out)


def _of_inner_products(spec: KernelSpec, inner, out=None):
    """The linear or polynomial kernel of inner products `inner`, into `out` if given."""
    if spec.kind == KernelKind.LINEAR:
        return inner
    base = np.add(inner, 1.0, out=out)
    if not float(spec.degree).is_integer():
        negative = base[base < 0.0]
        if negative.size:
            raise DomainError(
                f"polynomial base {negative[0]:.6g} < 0 with non-integer degree {spec.degree}"
            )
    # np.power, not **: on a one-row (0-d) base ** would take the scalar
    # pow, which can round differently from the ufunc the batches use.
    return np.power(base, spec.degree, out=out)


def self_kernel(spec: KernelSpec, X):
    """K(x, x) of each row of X, or None for rbf, whose distance never reads it."""
    return None if spec.kind == KernelKind.RBF else kernel_rows(spec, X, X)


def kernel_distance_rows(spec: KernelSpec, X, Y, x_self=None) -> np.ndarray:
    """Kernel-induced squared distances of X against Y, rows that `check_rows` passes.

    Clamped below at 0, since a fractional degree is not a Mercer kernel.
    `x_self`, if given, is K(x, x) of X's rows (`self_kernel`), shaped to
    broadcast as X does.  rbf squared euclidean distances that are all
    finite imply finite X and Y, whose K(x, x) = K(y, y) = 1.0 exactly:
    (1.0 + 1.0) - 2 K(x, y) then has the full formula's bits.  Any other
    batch takes the full formula: a non-finite operand reads NaN, never
    distance 0, and a finite pair whose distance overflows reads 2.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if spec.kind == KernelKind.RBF:
        d2 = row_sum((X - Y) ** 2)
        if d2.max(initial=0.0) < np.inf:  # one reduction: NaN compares False too
            return (1.0 + 1.0) - 2.0 * _rbf(spec, d2)
    if x_self is None:
        x_self = kernel_rows(spec, X, X)
    d2 = x_self + kernel_rows(spec, Y, Y) - 2.0 * kernel_rows(spec, X, Y)
    return np.maximum(d2, 0.0)


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Evaluate the kernel on a pair of vectors."""
    x, y = check_pair(x, y)
    return float(kernel_rows(spec, x, y))


def _column_sums(x, y, out, product=False):
    """`row_sum((x - y) ** 2)`, or `row_sum(x * y)` if `product`, into `out`, bit for bit; returns `out`.

    x is (rows, 1, p) and y (1, cols, p).  The terms are added one
    feature column at a time in `row_sum`'s order: left to right below 8
    features; from 8 to 128, eight lanes of every eighth column, combined
    pairwise, then the tail columns; above 128, `numpys_halves` each so,
    the second into a plane of its own.  A sum of products then gets
    `row_sum`'s + 0.0, which turns -0.0 into +0.0; a sum of squares is
    never -0.0.  Temporaries: `_block_temporaries(p)` (rows, cols) planes.
    """
    p = x.shape[-1]
    if p > 128:
        (x1, x2), (y1, y2) = numpys_halves(x), numpys_halves(y)
        _column_sums(x1, y1, out, product)
        return np.add(out, _column_sums(x2, y2, np.empty(out.shape), product), out=out)
    scratch = np.empty(out.shape)

    def term(column, into):
        if product:
            return np.multiply(x[..., column], y[..., column], out=into)
        np.subtract(x[..., column], y[..., column], out=into)
        return np.square(into, out=into)

    step, body = (1, p) if p < 8 else (8, p - p % 8)

    def lane(first, into):
        term(first, into)
        for column in range(first + step, body, step):
            into += term(column, scratch)
        return into

    lane(0, out)
    if p >= 8:
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the tail columns.
        t1, t2, t3 = np.empty((3,) + out.shape)
        out += lane(1, t1)
        out += np.add(lane(2, t1), lane(3, t2), out=t1)
        np.add(lane(4, t1), lane(5, t2), out=t1)
        t1 += np.add(lane(6, t2), lane(7, t3), out=t2)
        out += t1
        for column in range(body, p):
            out += term(column, scratch)
    return np.add(out, 0.0, out=out) if product else out


def _block_temporaries(p):
    """(rows, cols) planes that `_column_sums` holds at p features: its column, or lanes and halves."""
    return 1 if p < 8 else 4 + ((p - 1) // 128).bit_length()


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a non-finite entry, or an rbf 0
@unbuffered()
def gram(spec: KernelSpec, data) -> SymMatrix:
    """The n x n Gram matrix K(i, j) = K(x_i, x_j) of a DataMatrix or an (n, p) array.

    Built in one n x n buffer, a row block at a time: rows i against
    columns j >= start, with the block's columns below it mirrored, so the
    result is symmetric by construction.  Each block's squared distances
    or inner products are `_column_sums`, so its entries are the bits of
    `kernel_eval` on each pair.  Memory: the dense result, 8 n^2 bytes,
    plus one row block's temporaries, about BLOCK_ELEMENTS doubles, or
    one row's when a row needs more.  Raises DomainError when an entry
    overflows; an rbf entry of finite data lies in [0, 1] and is not checked.
    """
    values = data_values(data)
    if values.shape[0] < 1:
        raise ValueError(f"expected an (n, p) data array, got shape {values.shape}")
    n, p = values.shape
    k = np.empty((n, n))
    for start, stop in row_blocks(n, n * _block_temporaries(p)):
        rows = k[start:stop, start:]
        x, y = values[start:stop, None, :], values[None, start:, :]
        if spec.kind == KernelKind.RBF:
            _rbf(spec, _column_sums(x, y, rows), out=rows)
        else:
            _of_inner_products(spec, _column_sums(x, y, rows, product=True), out=rows)
            if not np.all(np.isfinite(rows)):
                raise DomainError("Gram matrix is not finite: the data overflow this kernel")
        k[stop:, start:stop] = rows[:, stop - start:].T
    return SymMatrix._trusted(k)


@unbuffered()
@np.errstate(over="ignore")  # an overflowing distance is inf, and an inf median is rejected
def median_sigma(data) -> float:
    """The median nonzero distance between a DataMatrix's or an (n, p) array's rows, else 1.0.

    A row block holds the rbf Gram's squared distances, their temporaries
    and their upper triangle; the n(n-1)/2 distances are kept in one
    array, which the median then partitions in place.
    """
    values = data_values(data)
    n, p = values.shape
    if n < 2:
        return 1.0
    dist = np.empty(n * (n - 1) // 2)
    filled = 0
    temporaries = _block_temporaries(p) + 2
    for start, stop in row_blocks(n - 1, n * temporaries):
        d2 = np.empty((stop - start, n - start))
        _column_sums(values[start:stop, None, :], values[None, start:, :], d2)
        upper = d2[np.arange(start, n)[None, :] > np.arange(start, stop)[:, None]]
        np.sqrt(upper, out=dist[filled:filled + upper.size])
        filled += upper.size
    dist = dist[dist > 0]
    sigma = float(np.median(dist, overwrite_input=True)) if dist.size else 1.0
    if not np.isfinite(sigma):
        raise DomainError(f"median sigma is {sigma}: the pairwise distances overflow")
    return sigma


def kernel_distance_sq(spec: KernelSpec, x, y) -> float:
    """Squared distance induced by the kernel, clamped below at 0."""
    x, y = check_pair(x, y)
    return float(kernel_distance_rows(spec, x, y))
