"""Dataset loading, serialization, and a synthetic overlap generator.

CSV conventions: UTF-8, comma-delimited, optional header (detected by a
non-numeric first row), numeric feature columns, and optionally one
label column holding '|'-separated label tokens.
"""

import csv
import errno
import io
import math
import os
import stat
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFile, InvalidSpec, ParseError, RaggedRows
from .evaluation import LabeledCovering


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """n x p observations, optionally with per-row ground-truth labels.

    The values are stored points-innermost (Fortran order): each feature
    is one contiguous row of n values, so the batched distances, Gram
    blocks and updates built from them run over n-long rows.  The layout
    is memory only: indexing, `tobytes()` and pickling see the same (n, p)
    array.
    """

    values: np.ndarray
    labels: LabeledCovering | None = None

    def __post_init__(self):
        a = np.asarray(self.values, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D data array, got shape {a.shape}")
        if a.shape[1] < 1:
            raise ValueError(f"expected at least one feature column, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("data values must be finite")
        if self.labels is not None and self.labels.n != a.shape[0]:
            raise ValueError(f"label count {self.labels.n} != row count {a.shape[0]}")
        object.__setattr__(self, "values", np.asfortranarray(a))

    @property
    def n(self):
        return self.values.shape[0]

    @property
    def p(self):
        return self.values.shape[1]


def data_values(data) -> np.ndarray:
    """A DataMatrix's values as they are; any other array gets DataMatrix's 2-D and finite checks."""
    return data.values if isinstance(data, DataMatrix) else DataMatrix(data).values


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a generated overlapping dataset."""

    k: int
    points_per_cluster: int
    overlap_pairs: tuple = field(default_factory=tuple)
    center_separation: float = 10.0
    noise_scale: float = 1.0
    dimension: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InvalidSpec(f"k must be >= 1, got {self.k}")
        if self.points_per_cluster < 1:
            raise InvalidSpec("points_per_cluster must be >= 1")
        if not (np.isfinite(self.noise_scale) and self.noise_scale > 0):
            raise InvalidSpec(f"noise_scale must be positive, got {self.noise_scale}")
        if self.dimension < 1:
            raise InvalidSpec("dimension must be >= 1")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if self.k > 1 and not (np.isfinite(self.center_separation) and self.center_separation > 0):
            raise InvalidSpec("center_separation must be positive for k > 1")
        pairs = tuple(tuple(p) for p in self.overlap_pairs)
        for a, b, m in pairs:
            if not (0 <= a < self.k and 0 <= b < self.k and a != b):
                raise InvalidSpec(f"overlap pair ({a}, {b}) is not two distinct clusters")
            if not (1 <= m <= self.points_per_cluster):
                raise InvalidSpec(
                    f"overlap count {m} must be in 1..points_per_cluster ({self.points_per_cluster})"
                )
        object.__setattr__(self, "overlap_pairs", pairs)


def _atomic_write(path, write_fn):
    # Write to a temp file beside the target, then rename: no partial files on failure.  The
    # target is the file a symlink names, as for open(path, "w"), so the link stays a link.
    # The file gets the mode open(path, "w") would give it: an existing target's, else 0o666
    # less the umask.
    path = os.path.realpath(path)
    if os.path.islink(path):  # a symlink loop, which realpath leaves unresolved
        raise OSError(errno.ELOOP, os.strerror(errno.ELOOP), path)
    tmp = os.path.join(os.path.dirname(path), f"tmp{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            if os.path.exists(path):
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            write_fn(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _is_float(token):
    try:
        float(token)
        return True
    except ValueError:
        return False


# Bytes that send a file to the csv-module path: numpy strips the separators \x1c-\x1f around
# a number as whitespace and float() does not, and the csv module before Python 3.11 rejects NUL.
_NOT_FOR_NUMPY = b"\x00\x1c\x1d\x1e\x1f"


def load_csv(path, label_column=None, label_separator="|") -> DataMatrix:
    """Load a delimited dataset, optionally with a multi-label column.

    `label_column` is None (no labels), 'last', or a 0-based column index.
    Each distinct label cell is split once.  A feature cell that is not a
    finite number, or a label cell with no label, is a ParseError naming
    the first such cell in file order; within a row the feature cells come
    before the label cell, wherever the label column is.

    The file is opened once.  The csv module reads its first row (the
    header, or the first data row) and numpy's C reader the rest, straight
    into one float64 field per feature column and one str per label cell:
    no per-row Python lists.  Both round correctly, so the values are
    those of float().  A file that reader does not take whole and clean
    (a cell that is not a finite number, an empty label set, ragged rows,
    an empty body, a NUL or \x1c-\x1f byte, a line longer than
    `csv.field_size_limit()` in bytes, or a line that ends inside a quoted
    cell in a file longer than that), and a file that cannot seek, is read
    again by the csv module cell by cell, which names the fault.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        if handle.seekable():
            try:
                data = _load_clean(handle, label_column, label_separator)
            except (ValueError, Warning, csv.Error):
                data = None
            if data is not None:
                return data
            handle.seek(0)
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise EmptyFile(f"no rows in {path}")

    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"row {r} has {len(row)} cells, expected {width}")

    label_idx, feature_idx = _columns(label_column, width)
    start = 0
    if not all(_is_float(rows[0][c]) for c in feature_idx):
        start = 1
        if len(rows) == 1:
            raise EmptyFile(f"only a header row in {path}")

    body = rows[start:]
    values, fault = _feature_values(body, feature_idx, start)
    label_sets = None
    if label_idx is not None:
        # A label fault counts only in the rows before the feature fault's.
        column = [row[label_idx] for row in (body if fault is None else body[:fault.row - start])]
        split = _split_label_cells(column, label_separator)
        empty = next((r for r, cell in enumerate(column) if not split[cell]), None)
        if empty is not None:
            raise ParseError("empty label cell", row=start + empty, column=label_idx)
        label_sets = [split[cell] for cell in column]
    if fault is not None:
        raise fault
    labels = LabeledCovering(tuple(label_sets)) if label_sets is not None else None
    return DataMatrix(values=values, labels=labels)


def _columns(label_column, width):
    """The label column's index (or None) and the feature columns' indices, for rows of `width`."""
    if label_column is None:
        label_idx = None
    elif label_column == "last":
        label_idx = width - 1
    else:
        label_idx = int(label_column)
        if not (0 <= label_idx < width):
            raise ValueError(f"label column {label_idx} out of range for width {width}")
    feature_idx = [c for c in range(width) if c != label_idx]
    if not feature_idx:
        raise ValueError("no feature columns left after removing the label column")
    return label_idx, feature_idx


def _split_label_cells(column, label_separator):
    """Each distinct label cell's set of non-empty labels, the cell split once."""
    return {cell: frozenset(t for t in cell.split(label_separator) if t != "")
            for cell in dict.fromkeys(column)}


def _feature_values(rows, feature_idx, first_row):
    """The rows' feature cells as an (n, p) array and None, or None and a ParseError at the
    first cell that is not a finite number (`first_row` is the file row of `rows[0]`)."""
    cells = [row[c] for row in rows for c in feature_idx]
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
        if np.isfinite(values).all():
            return values.reshape(len(rows), len(feature_idx)), None
    except ValueError:
        pass
    # Only a faulty file is walked again, to find that cell.
    bad = next(i for i, cell in enumerate(cells)
               if not (_is_float(cell) and math.isfinite(float(cell))))
    row, c = divmod(bad, len(feature_idx))
    reason = "not finite" if _is_float(cells[bad]) else "not numeric"
    return None, ParseError(f"cell {cells[bad]!r} is {reason}", row=first_row + row,
                            column=feature_idx[c])


def _load_clean(handle, label_column, label_separator):
    """The DataMatrix of a clean file through numpy's C reader, or None for the csv-module path.

    A fault may also raise ValueError, a warning or csv.Error; the caller then takes that path.
    """
    # numpy's reader has no field limit.  A character takes at least one byte, so a line of at
    # most the csv module's limit in bytes holds no longer cell, and nor does a file that short; a
    # longer line takes that path, as does a longer file with a line end, or its end, inside a
    # quoted cell: after an odd number of quotes (a doubled quote inside a cell counts twice).  A
    # quote inside an unquoted cell, which only the label cell can hold, is literal; it leaves the
    # count odd at the end of its row, so that file takes that path too.
    limit = csv.field_size_limit()
    line = size = 0  # the bytes of the line being read before this chunk, and of the file read
    inside = spanning = False  # the file read ends inside a quoted cell; a line ended inside one
    while chunk := handle.buffer.read(1 << 16):
        if any(byte in chunk for byte in _NOT_FOR_NUMPY):
            return None
        size += len(chunk)
        if inside or b'"' in chunk:
            codes = np.frombuffer(chunk, dtype=np.uint8)
            # The quotes up to each byte, mod 256, which keeps their parity.
            odd = (np.cumsum(codes == ord('"'), dtype=np.uint8) + inside) & 1
            spanning = spanning or bool(odd[(codes == ord("\n")) | (codes == ord("\r"))].any())
            inside = bool(odd[-1])
        if spanning and size > limit:
            return None
        start = -line  # where that line begins, counted from this chunk's first byte
        while True:
            # The last line end within limit + 1 bytes of a line's start: each line before it fits.
            window = (max(start, 0), start + limit + 1)
            end = max(chunk.rfind(b"\n", *window), chunk.rfind(b"\r", *window))
            if end < 0:
                break
            start = end + 1
        line = len(chunk) - start
        if line > limit:
            return None
    if inside and size > limit:
        return None
    handle.seek(0)
    first = next((row for row in csv.reader(handle) if row), None)
    if first is None:
        return None
    label_idx, feature_idx = _columns(label_column, len(first))
    try:
        first_values = [float(first[c]) for c in feature_idx]  # a first data row
    except ValueError:
        first_values = None  # a header
    # The rows after the first go to numpy on the same handle; it warns on an empty body.
    fields = [(str(c), object if c == label_idx else np.float64) for c in range(len(first))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        body = np.loadtxt(handle, dtype=np.dtype(fields), delimiter=",", comments=None,
                          quotechar='"', ndmin=1)
    head = int(first_values is not None)
    values = np.empty((head + len(body), len(feature_idx)), order="F")
    if head:
        values[0] = first_values
    for j, c in enumerate(feature_idx):
        values[head:, j] = body[str(c)]
    labels = None
    if label_idx is not None:
        column = [first[label_idx]] * head + body[str(label_idx)].tolist()
        split = _split_label_cells(column, label_separator)
        labels = LabeledCovering(tuple(split[cell] for cell in column))
    return DataMatrix(values=values, labels=labels)


def save_csv(data: DataMatrix, path, label_separator="|"):
    """Write a DataMatrix that load_csv reads back exactly (labels from the last column).

    Each value is written as its float repr, each label set as its sorted
    labels joined by `label_separator`.  A label that is empty or contains
    the separator would not read back as written: ValueError names it, and
    no file is written.
    """
    label_sets = data.labels.label_sets if data.labels is not None else None
    ends = {}  # each distinct label set's cell, quoted by csv.writer once, and the line's end
    for labels in dict.fromkeys(label_sets or ()):
        ordered = sorted(labels)
        for label in ordered:
            if label == "" or label_separator in label:
                raise ValueError(f"label {label!r} is empty or contains the separator "
                                 f"{label_separator!r}, so it cannot be saved")
        quoted = io.StringIO()
        csv.writer(quoted).writerow([label_separator.join(ordered)])
        ends[labels] = "," + quoted.getvalue()

    def write(handle):
        header = [f"f{c}" for c in range(data.p)]
        if label_sets is not None:
            header.append("label")
        csv.writer(handle).writerow(header)
        # A finite float's repr never needs quoting, so the feature cells are joined here.
        line_ends = ["\r\n"] * data.n if label_sets is None else [ends[s] for s in label_sets]
        for row, end in zip(data.values.tolist(), line_ends):
            handle.write(",".join(map(repr, row)) + end)

    _atomic_write(path, write)


def save_covering_csv(covering, path):
    """Write a covering as `index,cluster_ids` rows with 1-based '|'-joined cluster ids."""

    def write(handle):
        writer = csv.writer(handle)
        writer.writerow(["index", "cluster_ids"])
        for i, assigned in enumerate(covering.assignments):
            writer.writerow([i, "|".join(str(c + 1) for c in sorted(assigned))])

    _atomic_write(path, write)


def _simplex_centers(k, dim, sep):
    # k mutually equidistant points with pairwise distance sep; needs dim >= k - 1.
    basis = np.eye(k)
    centered = basis - basis.mean(axis=0)
    q, _ = np.linalg.qr(centered.T)
    coords = (centered @ q[:, : k - 1]) * sep / np.sqrt(2.0)
    out = np.zeros((k, dim))
    out[:, : k - 1] = coords
    return out


def _lattice_centers(k, dim, sep):
    out = np.zeros((k, dim))
    for c in range(k):
        out[c, 0] = c * sep
    return out


def generate_synthetic(spec: SyntheticSpec) -> DataMatrix:
    """Draw a labeled sample with the requested overlap structure, deterministic in the spec's seed.

    The k cluster centers form a regular simplex when the dimension allows
    and an axis lattice otherwise.  Each cluster draws Gaussian points
    around its center; each overlap pair draws them around the midpoint of
    its two centers, and they carry exactly those two labels.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.k == 1:
        centers = np.zeros((1, spec.dimension))
    elif spec.dimension >= spec.k - 1:
        centers = _simplex_centers(spec.k, spec.dimension, spec.center_separation)
    else:
        centers = _lattice_centers(spec.k, spec.dimension, spec.center_separation)

    blocks = []
    label_sets = []
    for c in range(spec.k):
        blocks.append(rng.normal(centers[c], spec.noise_scale,
                                 (spec.points_per_cluster, spec.dimension)))
        label_sets += [frozenset({f"c{c + 1}"})] * spec.points_per_cluster
    for a, b, m in spec.overlap_pairs:
        midpoint = (centers[a] + centers[b]) / 2.0
        blocks.append(rng.normal(midpoint, spec.noise_scale, (m, spec.dimension)))
        label_sets += [frozenset({f"c{a + 1}", f"c{b + 1}"})] * m

    return DataMatrix(values=np.vstack(blocks), labels=LabeledCovering(tuple(label_sets)))
