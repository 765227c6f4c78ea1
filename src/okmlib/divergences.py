"""One dissimilarity interface over three measures.

    squared euclidean   sum_j (x_j - y_j)^2
    i-divergence        sum_j [x_j ln(x_j / y_j) - x_j + y_j]   (x, y >= 0)
    kernel-induced      K(x,x) + K(y,y) - 2 K(x,y)

The I-divergence is the generalized (Bregman) form whose centroid is the
arithmetic mean, so the clustering prototype update stays valid for it.
Both arguments are clamped below at `epsilon` componentwise before
evaluation, which makes zeros safe; genuinely negative components are an
error.  Note the I-divergence is not symmetric in (x, y): callers pass
the data point first and the model point second.

`dissim_rows` is the batched core: it broadcasts two stacks of
p-vectors against each other and returns one value per row, summing
each row's components in the same order as the scalar form.  `dissim`
is its one-row case and the place where vector shapes are checked.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, NegativeInput
from .kernels import KernelSpec, kernel_distance_rows, kernel_distance_sq


class DissimilarityKind(enum.Enum):
    SQUARED_EUCLIDEAN = "euclidean"
    I_DIVERGENCE = "idiv"
    KERNEL_INDUCED = "kernel"


@dataclass(frozen=True)
class Dissimilarity:
    kind: DissimilarityKind
    kernel: KernelSpec | None = None
    epsilon: float = 1e-10

    def __post_init__(self):
        if self.kind == DissimilarityKind.KERNEL_INDUCED and self.kernel is None:
            raise InvalidSpec("kernel-induced dissimilarity needs a KernelSpec")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidSpec(f"epsilon must be positive, got {self.epsilon}")


def dissim_rows(d: Dissimilarity, X, Y) -> np.ndarray:
    """Dissimilarities of X (..., p) against Y (..., p), broadcast row by row.

    Returns one value >= 0 per broadcast row, shape
    `broadcast(X, Y).shape[:-1]`.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)

    if d.kind == DissimilarityKind.SQUARED_EUCLIDEAN:
        return ((X - Y) ** 2).sum(axis=-1)

    if d.kind == DissimilarityKind.I_DIVERGENCE:
        if np.any(X < 0) or np.any(Y < 0):
            raise NegativeInput("i-divergence requires nonnegative components")
        xt = np.maximum(X, d.epsilon)
        yt = np.maximum(Y, d.epsilon)
        total = (xt * np.log(xt / yt) - xt + yt).sum(axis=-1)
        return np.where(total > 0.0, total, 0.0)

    return kernel_distance_rows(d.kernel, X, Y)


def dissim(d: Dissimilarity, x, y) -> float:
    """Dissimilarity between two vectors; always >= 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionMismatch(f"incompatible vector shapes: {x.shape} vs {y.shape}")
    if d.kind == DissimilarityKind.KERNEL_INDUCED:
        return kernel_distance_sq(d.kernel, x, y)  # also rejects empty vectors
    return float(dissim_rows(d, x, y))
