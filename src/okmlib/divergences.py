"""One dissimilarity interface over three measures.

    squared euclidean   sum_j (x_j - y_j)^2
    i-divergence        sum_j [x_j ln(x_j / y_j) - x_j + y_j]   (x, y >= 0)
    kernel-induced      K(x,x) + K(y,y) - 2 K(x,y)   (`kernels.kernel_distance_rows`)

The I-divergence is the generalized (Bregman) form whose centroid is the
arithmetic mean, so the clustering prototype update stays valid for it.
Both arguments are clamped below at `EPSILON` componentwise before
evaluation, which makes zeros safe; genuinely negative components are an
error.  It is not symmetric: callers pass the data point first.

`dissim_rows` is the batched core, summing each row with
`linalg.row_sum`, so a row's value depends neither on its batch nor on
the memory layout.  `dissim` is its checked one-pair wrapper, and
`unchecked_dissim_rows` the core without the i-divergence's sign check,
for callers that check their inputs once.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NegativeInput
from .kernels import KernelSpec, check_pair, check_rows, kernel_distance_rows
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
    """Dissimilarities of X (..., p) against Y (..., p) (`check_rows`): one value >= 0 per row."""
    X, Y = check_rows(X, Y)
    check_domain(d, X, Y)
    return unchecked_dissim_rows(d, X, Y)


def unchecked_dissim_rows(d: Dissimilarity, X, Y, x_self=None) -> np.ndarray:
    """`dissim_rows` of float arrays whose sign `check_domain` has passed.

    A kernel measure also takes `x_self` (`kernels.kernel_distance_rows`).
    """
    if d.kind == DissimilarityKind.SQUARED_EUCLIDEAN:
        return row_sum((X - Y) ** 2)

    if d.kind == DissimilarityKind.I_DIVERGENCE:
        xt = np.maximum(X, EPSILON)
        yt = np.maximum(Y, EPSILON)
        total = row_sum(xt * np.log(xt / yt) - xt + yt)
        return np.maximum(total, 0.0)

    return kernel_distance_rows(d.kernel, X, Y, x_self)


def dissim(d: Dissimilarity, x, y) -> float:
    """Dissimilarity between two vectors; always >= 0."""
    x, y = check_pair(x, y)
    return float(dissim_rows(d, x, y))
