"""Dense symmetric matrices and their spectrum, summation orders, and membership matrices.

`sorted_eigenvalues` is the spectrum model selection uses and
`jacobi_eigen` its pure-Python reference.  `membership_matrix` is the
one set-to-matrix builder (cluster-id sets, label sets) and
`membership_sets` the one matrix-to-sets reader.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError, NoConvergence

SYMMETRY_TOL = 1e-12
BLOCK_ELEMENTS = 1 << 20


def sequential_sum(values) -> float:
    """values[0] + values[1] + ..., added left to right on every Python version; 0.0 when empty.

    The builtin `sum()` is compensated from Python 3.12 on.
    """
    values = np.asarray(values, dtype=float)
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def row_sum(a) -> np.ndarray:
    """`np.ascontiguousarray(a).sum(axis=-1)` bit for bit, for a float array `a` that it may overwrite.

    On a C-ordered row of 8 <= p <= 128 values numpy adds in eight lanes,
    lane j holding a[j] + a[j + 8] + ..., combines the lanes as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), adds the p mod 8
    tail columns left to right and adds the result to +0.0.  Here these
    are column adds over all rows at once, in place, so the result does
    not depend on the layout of `a`.  Below 8 numpy adds left to right in
    every layout, so `a.sum` is used as it is; above 128 numpy halves a C
    row first, so a contiguous copy is summed.
    """
    p = a.shape[-1]
    if p < 8:
        return a.sum(axis=-1)
    if p > 128:
        return np.ascontiguousarray(a).sum(axis=-1)
    lanes = a[..., :8]
    body = p - p % 8
    for start in range(8, body, 8):
        lanes += a[..., start:start + 8]
    a[..., 0:8:2] += a[..., 1:8:2]
    a[..., 0:8:4] += a[..., 2:8:4]
    total = a[..., 0]
    total += a[..., 4]
    for column in range(body, p):
        total += a[..., column]
    # A new array: a view would keep all of `a` alive.
    return total + 0.0


@contextmanager
def unbuffered():
    """Numpy's ufunc buffers cut to 16 elements, in a `with` block or a function it decorates.

    numpy 2.4 copies a broadcast or strided operand through a buffer of up
    to 8192 elements (64 KB), which float64 operands in memory do not
    need: the row-block ops of `gram` and `_centered` ran 1.5-4 times
    faster without.  Reductions over a contiguous axis round the same.
    """
    old = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(old)


def row_blocks(n, row_elements):
    """(start, stop) ranges over rows 0..n, each about BLOCK_ELEMENTS big.

    `row_elements` is the size of one row's temporary, so a block's
    temporaries stay near BLOCK_ELEMENTS elements however large n is.
    """
    block = max(1, BLOCK_ELEMENTS // max(row_elements, 1))
    for start in range(0, n, block):
        yield start, min(start + block, n)


def membership_matrix(sets, members=None):
    """Read-only (n, m) bool matrix: (i, j) is True when set i holds member j.

    `members` lists the m members (any hashables) in column order, and a
    member outside them raises KeyError; by default they are the distinct
    members of `sets` by first appearance.  An empty set is an all-False row.
    """
    if members is None:
        members = dict.fromkeys(chain.from_iterable(sets))
    column = {member: j for j, member in enumerate(members)}
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    ids = np.fromiter(map(column.__getitem__, chain.from_iterable(sets)), dtype=np.intp,
                      count=int(sizes.sum()))
    matrix = np.zeros((len(sets), len(column)), dtype=bool)
    matrix[np.repeat(np.arange(len(sets)), sizes), ids] = True
    matrix.flags.writeable = False
    return matrix


def distinct_rows(matrix):
    """Group the equal rows of an (n, m) bool matrix, m >= 1.

    Returns the index of the first row of each of the G groups, the group
    of every row, and the group sizes.
    """
    keys = np.ascontiguousarray(np.packbits(matrix, axis=1))
    keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    return first, inverse.reshape(-1), counts


def membership_sets(matrix) -> tuple:
    """One frozenset of column indices per row of an (n, m) bool matrix.

    Equal rows share one set, built once per distinct row; an all-False
    row is the empty set.
    """
    if not matrix.shape[1]:  # `distinct_rows` needs a column
        return (frozenset(),) * len(matrix)
    first, group, _ = distinct_rows(matrix)
    sets = [frozenset(np.flatnonzero(matrix[i]).tolist()) for i in first.tolist()]
    return tuple(map(sets.__getitem__, group.tolist()))


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """An n x n real symmetric matrix (validated; a non-finite entry raises DomainError)."""

    values: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix must have at least one row")
        # Row blocks keep the check's temporaries at O(block), not n x n.
        asym = 0.0
        for start, stop in row_blocks(a.shape[0], a.shape[0]):
            rows = a[start:stop]
            if not np.all(np.isfinite(rows)):
                raise DomainError("matrix entries must be finite")
            asym = max(asym, float(np.max(np.abs(rows - a[:, start:stop].T))))
        if asym > SYMMETRY_TOL:
            raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
        object.__setattr__(self, "values", a)

    @classmethod
    def _trusted(cls, values):
        """Wrap a square float buffer that its builder has made finite and exactly symmetric, unchecked."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "values", values)
        return matrix

    @property
    def n(self):
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues sorted descending with the matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _offdiagonal_norm(a):
    # Frobenius norm of the strictly off-diagonal part.
    return float(np.sqrt(2.0 * np.sum(np.tril(a, -1) ** 2)))


def jacobi_eigen(a: SymMatrix, tol: float = 1e-10, max_sweeps: int = 100) -> EigenDecomposition:
    """Full eigendecomposition by cyclic Jacobi rotations.

    Sweeps over all (p, q) pairs in row order, zeroing each pivot with a
    Givens rotation.  Stops once the off-diagonal Frobenius norm is at
    most `tol`; raises NoConvergence if `max_sweeps` sweeps were not
    enough.  Ties in the descending eigenvalue sort are broken by the
    diagonal index, so results are deterministic.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")

    n = a.n
    m = a.values.copy()
    v = np.eye(n)
    # Pivots below this cannot by themselves keep the off-norm above tol.
    skip = tol / (n * n) if n > 1 else 0.0

    converged = n == 1
    for _ in range(max_sweeps):
        if _offdiagonal_norm(m) <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = m[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * apq)
                if theta != 0.0:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(1.0 + theta * theta))
                else:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp = m[p, :].copy()
                rq = m[q, :].copy()
                m[p, :] = c * rp - s * rq
                m[q, :] = s * rp + c * rq
                cp = m[:, p].copy()
                cq = m[:, q].copy()
                m[:, p] = c * cp - s * cq
                m[:, q] = s * cp + c * cq
                m[p, q] = 0.0
                m[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if not converged and _offdiagonal_norm(m) > tol:
        raise NoConvergence(
            f"off-diagonal norm {_offdiagonal_norm(m):.3e} > {tol:.3e} after {max_sweeps} sweeps"
        )

    lam = np.diag(m).copy()
    order = sorted(range(n), key=lambda i: (-lam[i], i))
    return EigenDecomposition(eigenvalues=lam[order], eigenvectors=v[:, order])


def sorted_eigenvalues(a: SymMatrix) -> np.ndarray:
    """Descending eigenvalues of `a`, computed by LAPACK (`eigvalsh`).

    Raises NoConvergence if LAPACK does not converge.  Matches
    `jacobi_eigen(a).eigenvalues` up to rounding.
    """
    try:
        lam = np.linalg.eigvalsh(a.values)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigvalsh did not converge: {exc}") from exc
    return lam[::-1].copy()
