"""One dissimilarity interface over three measures.

    squared euclidean   sum_j (x_j - y_j)^2
    i-divergence        sum_j [x_j ln(x_j / y_j) - x_j + y_j]   (x, y >= 0)
    kernel-induced      K(x,x) + K(y,y) - 2 K(x,y)

The I-divergence is the generalized (Bregman) form whose centroid is the
arithmetic mean, so the clustering prototype update stays valid for it.
Both arguments are clamped below at `EPSILON` componentwise before
evaluation, which makes zeros safe; genuinely negative components are an
error.  Note the I-divergence is not symmetric in (x, y): callers pass
the data point first and the model point second.

`dissim_rows` is the batched core: it broadcasts two stacks of
p-vectors against each other and returns one value per row.  It sums
each row's components with `linalg.row_sum`, in numpy's own order for a
C-ordered `sum(axis=-1)` (pairwise in eight lanes for 8 <= p <= 128,
left to right below), so a row's value depends neither on the batch it
is in nor on the memory layout of its inputs.  Data from a `DataMatrix`
is points-innermost, and numpy keeps the point axis innermost in the
(..., p) temporaries built from it, so the subtract, the square and the
row sum's column adds run over contiguous runs of points.  `dissim` is
its one-row case and the place where vector shapes are checked.
`unchecked_dissim_rows` is the same core without the i-divergence's sign
check (`check_domain`), for callers that check their inputs once.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NegativeInput
from .kernels import KernelSpec, kernel_distance_sq, unchecked_kernel_distance_rows
from .linalg import row_sum

EPSILON = 1e-10  # the i-divergence's lower clamp


class DissimilarityKind(enum.Enum):
    SQUARED_EUCLIDEAN = "euclidean"
    I_DIVERGENCE = "idiv"
    KERNEL_INDUCED = "kernel"


@dataclass(frozen=True)
class Dissimilarity:
    kind: DissimilarityKind
    kernel: KernelSpec | None = None

    def __post_init__(self):
        if self.kind == DissimilarityKind.KERNEL_INDUCED and self.kernel is None:
            raise InvalidSpec("kernel-induced dissimilarity needs a KernelSpec")


def check_domain(d: Dissimilarity, *arrays) -> None:
    """Raise NegativeInput if the i-divergence is given a negative component."""
    if d.kind == DissimilarityKind.I_DIVERGENCE and any(np.any(a < 0) for a in arrays):
        raise NegativeInput("i-divergence requires nonnegative components")


def dissim_rows(d: Dissimilarity, X, Y) -> np.ndarray:
    """Dissimilarities of X (..., p) against Y (..., p), broadcast row by row.

    Returns one value >= 0 per broadcast row, shape
    `broadcast(X, Y).shape[:-1]`.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    check_domain(d, X, Y)
    return unchecked_dissim_rows(d, X, Y)


def unchecked_dissim_rows(d: Dissimilarity, X, Y, x_self=None, finite=None) -> np.ndarray:
    """`dissim_rows` of float arrays whose sign `check_domain` has passed.

    For callers that check their inputs once, at their boundary: OKM
    checks the data once per run, and its prototypes and images stay
    nonnegative under the i-divergence.  A kernel measure also takes
    `x_self` and `finite` (`kernels.unchecked_kernel_distance_rows`).
    """
    if d.kind == DissimilarityKind.SQUARED_EUCLIDEAN:
        return row_sum((X - Y) ** 2)

    if d.kind == DissimilarityKind.I_DIVERGENCE:
        xt = np.maximum(X, EPSILON)
        yt = np.maximum(Y, EPSILON)
        total = row_sum(xt * np.log(xt / yt) - xt + yt)
        return np.maximum(total, 0.0)

    return unchecked_kernel_distance_rows(d.kernel, X, Y, x_self, finite)


def dissim(d: Dissimilarity, x, y) -> float:
    """Dissimilarity between two vectors; always >= 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"incompatible vector shapes: {x.shape} vs {y.shape}")
    if d.kind == DissimilarityKind.KERNEL_INDUCED:
        return kernel_distance_sq(d.kernel, x, y)  # also rejects empty vectors
    return float(dissim_rows(d, x, y))
