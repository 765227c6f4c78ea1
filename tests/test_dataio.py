import csv
import io
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from okmlib import (
    Covering,
    DataMatrix,
    EmptyFile,
    InvalidSpec,
    LabeledCovering,
    ParseError,
    RaggedRows,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_covering_csv,
    save_csv,
)
from okmlib.dataio import _is_float


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_single_row_with_label(tmp_path):
    data = load_csv(write(tmp_path, "1.0,2.0,A\n"), label_column="last")
    assert (data.n, data.p) == (1, 2)
    assert data.labels.label_sets[0] == frozenset({"A"})


def test_multi_label_cell(tmp_path):
    data = load_csv(write(tmp_path, "1.0,2.0,A|B\n"), label_column="last")
    assert data.labels.label_sets[0] == frozenset({"A", "B"})


def test_custom_separator_and_indexed_label_column(tmp_path):
    data = load_csv(write(tmp_path, "A;B,1.0,2.0\n"), label_column=0, label_separator=";")
    assert data.labels.label_sets[0] == frozenset({"A", "B"})
    assert data.values.tolist() == [[1.0, 2.0]]


def test_header_detection(tmp_path):
    for bom in ("", "\ufeff"):  # a UTF-8 byte-order mark is not part of the first cell
        with_header = load_csv(write(tmp_path, bom + "x,y\n1.0,2.0\n3.0,4.0\n"))
        without = load_csv(write(tmp_path, bom + "1.0,2.0\n3.0,4.0\n", name="plain.csv"))
        assert with_header.n == without.n == 2
        assert np.array_equal(with_header.values, without.values)


def test_iris_shape(iris):
    assert (iris.n, iris.p) == (150, 4)
    counts = {}
    for s in iris.labels.label_sets:
        label = next(iter(s))
        counts[label] = counts.get(label, 0) + 1
    assert counts == {"setosa": 50, "versicolor": 50, "virginica": 50}


def test_empty_file(tmp_path):
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, ""))
    with pytest.raises(EmptyFile):
        load_csv(write(tmp_path, "only,a,header\n", name="h.csv"))


def test_ragged_rows(tmp_path):
    with pytest.raises(RaggedRows):
        load_csv(write(tmp_path, "1.0,2.0\n3.0\n"))


def test_parse_error_carries_location(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, "1.0,2.0\n3.0,oops\n"))
    assert exc.value.row == 1
    assert exc.value.column == 1


def test_non_finite_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "1.0,nan\n"))


def test_empty_label_cell_rejected(tmp_path):
    with pytest.raises(ParseError):
        load_csv(write(tmp_path, "1.0,2.0,\n"), label_column="last")


def test_round_trip_is_idempotent(tmp_path, iris):
    out = tmp_path / "again.csv"
    save_csv(iris, out)
    reloaded = load_csv(out, label_column="last")
    assert np.array_equal(iris.values, reloaded.values)
    assert iris.labels.label_sets == reloaded.labels.label_sets
    save_csv(reloaded, out)
    third = load_csv(out, label_column="last")
    assert np.array_equal(reloaded.values, third.values)


def test_save_covering_csv(tmp_path):
    cov = Covering(memberships=np.array([[True, False], [True, True]]),
                   prototypes=np.zeros((2, 1)), objective=0.0, n_iter=1)
    out = tmp_path / "covering.csv"
    save_covering_csv(cov, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "index,cluster_ids"
    assert lines[1] == "0,1"
    assert lines[2] == "1,1|2"


def test_datamatrix_validation():
    with pytest.raises(ValueError):
        DataMatrix(values=np.array([[np.inf]]))
    with pytest.raises(ValueError, match="at least one feature column"):
        DataMatrix(values=np.zeros((3, 0)))
    with pytest.raises(ValueError):
        DataMatrix(values=np.zeros((2, 2)), labels=LabeledCovering(({"a"},)))


def test_synthetic_single_cluster():
    data = generate_synthetic(SyntheticSpec(k=1, points_per_cluster=5, seed=0))
    assert data.n == 5
    assert all(s == frozenset({"c1"}) for s in data.labels.label_sets)


def test_synthetic_counts_and_overlap_labels():
    spec = SyntheticSpec(k=3, points_per_cluster=20, overlap_pairs=((0, 2, 10),),
                         center_separation=50.0, noise_scale=1.0, dimension=2, seed=4)
    data = generate_synthetic(spec)
    assert data.n == 70
    doubles = [s for s in data.labels.label_sets if len(s) == 2]
    singles = [s for s in data.labels.label_sets if len(s) == 1]
    assert len(doubles) == 10
    assert len(singles) == 60
    assert all(s == frozenset({"c1", "c3"}) for s in doubles)


def test_synthetic_centers_equidistant_when_dimension_allows():
    spec = SyntheticSpec(k=3, points_per_cluster=200, center_separation=100.0,
                         noise_scale=0.01, dimension=2, seed=1)
    data = generate_synthetic(spec)
    centers = [data.values[i * 200:(i + 1) * 200].mean(axis=0) for i in range(3)]
    gaps = [np.linalg.norm(centers[a] - centers[b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    assert np.allclose(gaps, 100.0, rtol=0.01)


def test_synthetic_centers_on_the_first_axis_when_the_dimension_is_too_small():
    # A simplex of k centers needs k - 1 dimensions; with fewer they sit at c * separation.
    spec = SyntheticSpec(k=4, points_per_cluster=200, center_separation=100.0,
                         noise_scale=0.01, dimension=2, seed=1)
    data = generate_synthetic(spec)
    centers = [data.values[i * 200:(i + 1) * 200].mean(axis=0) for i in range(4)]
    assert np.allclose(centers, [[100.0 * c, 0.0] for c in range(4)], atol=0.01)


def test_synthetic_deterministic():
    spec = SyntheticSpec(k=2, points_per_cluster=7, overlap_pairs=((0, 1, 3),), seed=123)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert np.array_equal(a.values, b.values)
    assert a.labels.label_sets == b.labels.label_sets


def test_synthetic_validation():
    with pytest.raises(InvalidSpec):
        SyntheticSpec(k=2, points_per_cluster=5, overlap_pairs=((0, 1, 6),))
    with pytest.raises(InvalidSpec):
        SyntheticSpec(k=2, points_per_cluster=5, overlap_pairs=((0, 0, 2),))
    with pytest.raises(InvalidSpec):
        SyntheticSpec(k=2, points_per_cluster=5, noise_scale=0.0)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(k=0, points_per_cluster=5)
    with pytest.raises(InvalidSpec, match="^seed must be >= 0, got -1$"):
        SyntheticSpec(k=2, points_per_cluster=5, seed=-1)
    with pytest.raises(InvalidSpec, match="^points_per_cluster must be >= 1$"):
        SyntheticSpec(k=2, points_per_cluster=0)
    with pytest.raises(InvalidSpec, match="^dimension must be >= 1$"):
        SyntheticSpec(k=2, points_per_cluster=5, dimension=0)
    for separation in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidSpec, match="^center_separation must be positive for k > 1$"):
            SyntheticSpec(k=2, points_per_cluster=5, center_separation=separation)


def _grid(rows):
    return "".join(",".join(row) + "\n" for row in rows)


def test_one_pass_parse_keeps_per_cell_float_values(tmp_path):
    cells = [[" 1.5", "-0.0"], ["1e-320", "1_000"], ["7", " -2.5e3 "]]
    data = load_csv(write(tmp_path, _grid(cells)))
    expected = np.array([[float(c) for c in row] for row in cells])
    assert data.values.tobytes() == expected.tobytes()  # bit for bit, the sign of -0.0 too
    assert np.signbit(data.values[0, 1])


@pytest.mark.parametrize("cell, reason", [("oops", "not numeric"), ("nan", "not finite"),
                                          ("inf", "not finite"), ("-inf", "not finite")])
def test_bad_cell_in_a_late_row_is_located(tmp_path, cell, reason):
    rows = [["f0", "f1", "f2", "label"]]
    rows += [[str(r), str(r + 0.5), str(-r), "a|b"] for r in range(40)]
    rows[37][2] = cell
    rows[39][0] = "also bad"  # a later bad cell is not the one reported
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, _grid(rows)), label_column="last")
    assert (exc.value.row, exc.value.column) == (37, 2)
    assert reason in str(exc.value)


def test_first_bad_cell_is_reported_across_labels_and_features(tmp_path):
    rows = [[str(r), str(r * 2), "x"] for r in range(30)]
    rows[12][2] = ""    # an empty label cell first ...
    rows[20][1] = "nan"  # ... then a non-finite feature
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, _grid(rows)), label_column="last")
    assert (exc.value.row, exc.value.column) == (12, 2)
    assert "empty label cell" in str(exc.value)
    rows[12][2] = "x"
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, _grid(rows), name="second.csv"), label_column="last")
    assert (exc.value.row, exc.value.column) == (20, 1)


def test_labels_in_the_last_column_load_unchanged(tmp_path):
    rows = [["a", "b", "group"]] + [[repr(0.1 * r), repr(-3.0 * r), ["x", "x|y", "y||z"][r % 3]]
                                      for r in range(25)]
    data = load_csv(write(tmp_path, _grid(rows)), label_column="last")
    assert data.values.tolist() == [[float(a), float(b)] for a, b, _ in rows[1:]]
    assert data.labels.label_sets == tuple(frozenset(t for t in g.split("|") if t)
                                           for _, _, g in rows[1:])
    # Without a label column the last column is a feature and its text makes a header.
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, _grid(rows), name="nolabel.csv"))
    assert (exc.value.row, exc.value.column) == (1, 2)


@pytest.mark.parametrize("cell", ["", "||"])
def test_a_repeated_empty_label_cell_is_reported_at_its_first_row(tmp_path, cell):
    rows = [[str(r), ["x", "x|y"][r % 2]] for r in range(20)]
    rows[6][1] = rows[11][1] = rows[17][1] = cell
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, _grid(rows)), label_column="last")
    assert (exc.value.row, exc.value.column) == (6, 1)
    rows[3][0] = "nan"  # a bad feature cell before them is reported instead
    with pytest.raises(ParseError) as exc:
        load_csv(write(tmp_path, _grid(rows), name="second.csv"), label_column="last")
    assert (exc.value.row, exc.value.column) == (3, 0)


def _load_csv_cell_by_cell(path, label_column=None, label_separator="|"):
    # The oracle for load_csv: every cell parsed in file order, the first bad one raised.
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise EmptyFile(f"no rows in {path}")
    width = len(rows[0])
    for r, row in enumerate(rows):
        if len(row) != width:
            raise RaggedRows(f"row {r} has {len(row)} cells, expected {width}")
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
    start = 0
    if not all(_is_float(rows[0][c]) for c in feature_idx):
        start = 1
        if len(rows) == 1:
            raise EmptyFile(f"only a header row in {path}")
    values, label_sets, parsed_cells = [], [], {}
    for r, row in enumerate(rows[start:], start):
        parsed = []
        for c in feature_idx:
            try:
                value = float(row[c])
            except ValueError:
                raise ParseError(f"cell {row[c]!r} is not numeric", row=r, column=c) from None
            if not np.isfinite(value):
                raise ParseError(f"cell {row[c]!r} is not finite", row=r, column=c)
            parsed.append(value)
        values.append(parsed)
        if label_idx is not None:
            cell = row[label_idx]
            if cell not in parsed_cells:
                tokens = [t for t in cell.split(label_separator) if t != ""]
                if not tokens:
                    raise ParseError("empty label cell", row=r, column=label_idx)
                parsed_cells[cell] = frozenset(tokens)
            label_sets.append(parsed_cells[cell])
    labels = LabeledCovering(tuple(label_sets)) if label_idx is not None else None
    return DataMatrix(values=np.array(values, dtype=float), labels=labels)


# Cells numpy's reader parses as float() does: signs, exponents, subnormals and leading or
# trailing whitespace (tab, NBSP, em space, NEL).
GOOD_FEATURES = ["0", "-0.0", "1.5", " 2.5e3 ", "1e-320", "5e-324", "-7", "3.", ".25", "1E308",
                 "\t4", "\xa01", "6\u2003", "\x858", "+.5", '"9"']
# Cells float() takes and numpy's reader does not: underscores and Arabic-Indic digits.
FLOAT_ONLY_FEATURES = ["1_000", "\u0661\u0662"]
# Not finite, not numeric, or a number in separators \x1c-\x1f, which numpy strips and float()
# does not.
BAD_FEATURES = ["x", "", "1.2.3", "nan", " NaN", "inf", "-inf", "+Infinity", "1e999", "0x10",
                "\x1c1", "2\x1f"]
LABEL_TOKENS = ["a", "b", "c d", "e", "f,g", 'say "hi"', "new\nline", " lead"]
LINE_ENDS = ["\r\n", "\n", "\r"]


def _random_grid(rng, label_separator):
    """Rows of cells, a header or not, a label column (None, first, middle or last) and faults."""
    n_features = int(rng.integers(1, 5))
    label_at = rng.choice(["none", "first", "middle", "last"])
    label_idx = {"none": None, "first": 0, "middle": (n_features + 1) // 2,
                 "last": n_features}[label_at]
    width = n_features + (label_idx is not None)
    n_rows = int(rng.integers(1, 13))
    rows = []
    for _ in range(n_rows):
        row = [GOOD_FEATURES[i] if rng.random() < 0.5 else repr(float(rng.normal(0, 1e3)))
               for i in rng.integers(0, len(GOOD_FEATURES), width)]
        if label_idx is not None:
            tokens = rng.choice(LABEL_TOKENS, int(rng.integers(1, 4)))
            row[label_idx] = label_separator.join(tokens)
        rows.append(row)
    features = [c for c in range(width) if c != label_idx]
    if rng.random() < 0.3:
        rows[int(rng.integers(n_rows))][features[0]] = rng.choice(FLOAT_ONLY_FEATURES)
    label_faults = ["", label_separator, label_separator * 2]
    for _ in range(int(rng.choice([0, 0, 1, 2, 3, 4]))):
        r = int(rng.integers(n_rows))
        if label_idx is not None and rng.random() < 0.4:
            rows[r][label_idx] = label_faults[int(rng.integers(3))]
        else:
            rows[r][features[int(rng.integers(len(features)))]] = BAD_FEATURES[
                int(rng.integers(len(BAD_FEATURES)))]
        if label_idx is not None and rng.random() < 0.25:  # a label and a feature fault in one row
            rows[r][label_idx] = label_faults[int(rng.integers(3))]
            rows[r][features[-1]] = "nan"
    if rng.random() < 0.5:
        rows.insert(0, [f"h{c}" for c in range(width)])
    if label_idx == width - 1 and rng.random() < 0.5:
        return rows, "last"
    return rows, label_idx


def _outcome(load, path, column, separator):
    try:
        data = load(path, label_column=column, label_separator=separator)
    except ValueError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)
    return data.values.tobytes(), data.values.shape, data.labels and data.labels.label_sets


def _write_grid(rng, path, rows):
    """Rows as CSV with a random line end, maybe cut to one row or none, a trailing comma or a
    short row, blank or whitespace-only lines, a BOM, and no final line end."""
    end = LINE_ENDS[int(rng.integers(len(LINE_ENDS)))]
    rows = [list(row) for row in rows[:int(rng.choice([0, 1, len(rows)], p=[0.02, 0.04, 0.94]))]]
    if rows and rng.random() < 0.04:
        rows = [row + [""] for row in rows]
    if rows and rng.random() < 0.04:
        rows[int(rng.integers(len(rows)))].pop()
    for extra in ([], [" "], ["\t"]):
        if rng.random() < (0.05 if extra else 0.3):
            rows.insert(int(rng.integers(len(rows) + 1)), extra)
    text = io.StringIO(newline="")
    csv.writer(text, lineterminator=end).writerows(rows)
    text = text.getvalue()
    if rng.random() < 0.25:
        text = text[:-len(end)]
    if rng.random() < 0.15:
        text = "\ufeff" + text
    path.write_bytes(text.encode("utf-8"))


def test_load_csv_matches_the_cell_by_cell_parse_on_random_grids(tmp_path, monkeypatch):
    from okmlib import dataio

    by_numpy = []
    load_clean = dataio._load_clean

    def spy(*args):
        data = load_clean(*args)
        by_numpy.append(data is not None)
        return data

    monkeypatch.setattr(dataio, "_load_clean", spy)
    rng = np.random.default_rng(2024)
    path = tmp_path / "grid.csv"
    kinds = {"loaded": 0, "feature fault": 0, "label fault": 0, "empty separator": 0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for trial in range(600):
            # An empty separator cannot split a label cell: that ValueError, or an earlier fault.
            separator = ["|", ";", " ", "::", "|", ";", " ", "::", "|", ""][trial % 10]
            rows, column = _random_grid(rng, separator)
            _write_grid(rng, path, rows)
            expected = _outcome(_load_csv_cell_by_cell, path, column, separator)
            assert _outcome(load_csv, path, column, separator) == expected, (rows, column, separator)
            if expected[0] is ParseError:
                kinds["label fault" if "label" in expected[3] else "feature fault"] += 1
            elif expected[0] in (ValueError, RaggedRows, EmptyFile):
                kinds["empty separator"] += expected[3] == "empty separator"
            else:
                kinds["loaded"] += 1
    assert caught == []
    assert min(kinds.values()) >= 20, kinds  # every outcome is well represented
    assert sum(by_numpy) >= 50, sum(by_numpy)  # so is numpy's reader


@pytest.mark.parametrize("end", LINE_ENDS, ids=["crlf", "lf", "cr"])
def test_iris_with_every_label_quoted_loads_the_same(tmp_path, iris, end):
    from conftest import IRIS_PATH

    rows = [line.rsplit(",", 1) for line in IRIS_PATH.read_text().splitlines() if line]
    path = write(tmp_path, "".join(f'{head},"{label}"{end}' for head, label in rows))
    data = load_csv(path, label_column="last")
    assert data.values.tobytes() == iris.values.tobytes()
    assert data.labels.label_sets == iris.labels.label_sets


def test_a_clean_file_calls_float_on_its_first_row_only(tmp_path, monkeypatch):
    import builtins

    from okmlib import dataio

    calls = []

    class CountingFloat:
        dtype = np.dtype(builtins.float)  # DataMatrix also names float as the array's dtype

        def __call__(self, cell):
            calls.append(cell)
            return builtins.float(cell)

    monkeypatch.setattr(dataio, "float", CountingFloat(), raising=False)
    rows = [["a", "label", "b"]] + [[str(r), "x|y", str(r / 4)] for r in range(50)]
    data = load_csv(write(tmp_path, _grid(rows)), label_column=1)
    assert data.values.shape == (50, 2)
    # The header's first cell tells it is a header; numpy's reader parses every data row.
    assert calls == ["a"]
    calls.clear()
    data = load_csv(write(tmp_path, _grid(rows[1:]), name="plain.csv"), label_column=1)
    assert data.values.tolist() == [[r, r / 4] for r in range(50)]
    # Without a header the first row's feature cells are data, parsed by float().
    assert calls == ["0", "0.0"]


@pytest.mark.parametrize("text", ["x,y\n1,2\n3,4\n", "x,y\n1,2\n3,oops\n"], ids=["clean", "fault"])
def test_load_csv_opens_the_file_once(tmp_path, monkeypatch, text):
    import builtins

    from okmlib import dataio

    opened = []

    def counting_open(*args, **kwargs):
        opened.append(args[0])
        return builtins.open(*args, **kwargs)

    monkeypatch.setattr(dataio, "open", counting_open, raising=False)
    path = write(tmp_path, text)
    try:
        load_csv(path)
    except ParseError:
        pass
    assert opened == [path]


def test_load_csv_reads_a_pipe(tmp_path):
    # A pipe cannot seek back, so the csv module reads it, clean or not.
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    for text, expected in (("x,g\n1,a\n2,b\n", [[1.0], [2.0]]), ("x,g\n1,a\n2,\n", None)):
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode())
        os.close(write_end)
        try:
            if expected is None:
                with pytest.raises(ParseError, match=re.escape("empty label cell (row 2, column 1)")):
                    load_csv(f"/dev/fd/{read_end}", label_column="last")
            else:
                assert load_csv(f"/dev/fd/{read_end}", label_column="last").values.tolist() == expected
        finally:
            os.close(read_end)


def test_a_label_cell_over_the_csv_field_limit_is_the_csv_error(tmp_path):
    # numpy's reader has no field limit; the csv module's error stands, as before.
    path = write(tmp_path, "x,g\n1,a\n2,bbbbbbbbbbbbbbbbbbbbbbbbb\n")
    limit = csv.field_size_limit(16)
    try:
        with pytest.raises(csv.Error, match="field larger than field limit"):
            load_csv(path, label_column="last")
    finally:
        csv.field_size_limit(limit)
    assert load_csv(path, label_column="last").n == 2


@pytest.mark.parametrize("text, limit", [
    ("x,g\n1,a\n00000000000000000000000002,b\n", 16),
    # Each line fits the limit; the quoted label cell over two of them does not.
    ('x,g\n1,a\n2,"bbbbbbbb\nbbbbbbbbb"\n', 16),
    # At the default limit of 131 072, across the 64 KiB reads of the byte scan.
    ("x,g\n1,a\n" + "0" * 140_000 + "1,b\n", None),
    # A quoted cell of 140 001 characters over 70 001 short lines, which numpy's reader reads as 2.0.
    ('x,g\n1,a\n"' + " \n" * 70_000 + '2",b\n', None),
], ids=["feature-cell", "label-cell-over-two-lines", "feature-cell-at-the-default-limit",
        "quoted-feature-cell-over-many-lines"])
def test_a_feature_cell_over_the_csv_field_limit_is_the_csv_error(tmp_path, text, limit):
    path = write(tmp_path, text)
    old = csv.field_size_limit() if limit is None else csv.field_size_limit(limit)
    try:
        with pytest.raises(csv.Error, match="field larger than field limit"):
            load_csv(path, label_column="last")
    finally:
        csv.field_size_limit(old)
    if limit is not None:
        assert load_csv(path, label_column="last").n == 2


def test_a_line_over_the_csv_field_limit_takes_the_csv_module(tmp_path, monkeypatch):
    from okmlib import dataio

    # Lines are measured in bytes: a line of the limit goes to numpy's reader, and one byte
    # more to the csv module, whose cells here still fit the limit.
    limit = csv.field_size_limit()
    numpy_reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(dataio.np, "loadtxt", lambda *a, **k: numpy_reads.append(1) or loadtxt(*a, **k))
    for extra in (0, 1):
        cell = "0" * (limit - 3 + extra) + "1"  # the line `cell,b` is limit + extra bytes
        path = write(tmp_path, "x,g\r\n1,a\r\n" + cell + ",b\r\n2,c\r\n", name=f"long{extra}.csv")
        numpy_reads.clear()
        assert load_csv(path, label_column="last").values[:, 0].tolist() == [1.0, 1.0, 2.0]
        assert bool(numpy_reads) == (extra == 0)


def test_a_file_over_the_csv_field_limit_takes_the_csv_module_where_a_line_ends_in_quotes(
        tmp_path, monkeypatch):
    from okmlib import dataio

    # A file of the limit in bytes holds no longer cell and goes to numpy's reader, quoted or
    # not.  One byte more goes to the csv module only if a line ends inside a quoted cell, after
    # an odd number of quotes, since such a cell may go on past the limit.
    numpy_reads = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(dataio.np, "loadtxt", lambda *a, **k: numpy_reads.append(1) or loadtxt(*a, **k))
    old = csv.field_size_limit(64)
    try:
        for extra in (0, 1):
            for label, spans in (("b", False), ('"b"', False), ('"b""c"', False), ('"b\nc"', True),
                                 ('"b\r\nc"', True)):
                zeros = "0" * (64 + extra - len("x,g\n1,a\n2,\n" + label))
                text = "x,g\n1,a\n" + zeros + "2," + label + "\n"
                path = write(tmp_path, text, name="quoted.csv")
                assert os.path.getsize(path) == 64 + extra
                numpy_reads.clear()
                assert load_csv(path, label_column="last").values[:, 0].tolist() == [1.0, 2.0]
                assert bool(numpy_reads) == (extra == 0 or not spans), (extra, label)
            # A quote inside an unquoted cell is literal to the csv module.  Here the quoted
            # feature cell after `b"c` ends its first line after an even number of quotes, and the
            # file after an odd number, with no line end.
            zeros = "0" * (64 + extra - len('x,g,y\n1,a,1\n2,b"c," 3\n"'))
            path = write(tmp_path, 'x,g,y\n1,a,1\n' + zeros + '2,b"c," 3\n"', name="literal.csv")
            numpy_reads.clear()
            data = load_csv(path, label_column=1)
            assert data.values.tolist() == [[1.0, 1.0], [2.0, 3.0]] and data.labels.label_sets[1] == {'b"c'}
            assert bool(numpy_reads) == (extra == 0), extra
    finally:
        csv.field_size_limit(old)
    # At the default limit, over the byte scan's 64 KiB reads: a quoted cell opens in the last
    # bytes of the first read, and the second read begins inside it.
    head = "x,g\n" + "1,a\n" * 16_382
    assert len(head) + len('2,"') == (1 << 16) - 1
    for cell, spans in (('"ab"', False), ('"a\nb"', True)):
        path = write(tmp_path, head + "2," + cell + "\n" + "3,c\n" * 17_000, name="long.csv")
        assert os.path.getsize(path) > csv.field_size_limit()
        numpy_reads.clear()
        data = load_csv(path, label_column="last")
        assert data.n == 16_382 + 1 + 17_000 and data.labels.label_sets[16_382] == {cell[1:-1]}
        assert bool(numpy_reads) == (not spans), cell


def test_loading_the_benchmark_sample_peaks_below_eight_times_its_values(tmp_path):
    # The 2 200 x 8 labeled sample: numpy's reader holds its records, the values and the label
    # cells; one Python list of cell strings per row (the csv-module path) peaks near 15x.
    path = tmp_path / "sample.csv"
    save_csv(generate_synthetic(SyntheticSpec(
        k=5, points_per_cluster=400,
        overlap_pairs=((0, 1, 40), (1, 2, 40), (2, 3, 40), (3, 4, 40), (4, 0, 40)),
        dimension=8, seed=0)), path)
    load_csv(path, label_column="last")  # the first call's one-off allocations are not counted
    tracemalloc.start()
    try:
        data = load_csv(path, label_column="last")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (data.n, data.p) == (2200, 8)
    assert peak < 8 * data.values.nbytes, peak / data.values.nbytes


def _save_csv_row_by_row(data, path, label_separator="|"):
    # The oracle for save_csv's bytes: every row through csv.writer.
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        header = [f"f{c}" for c in range(data.p)]
        if data.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(data.n):
            row = [repr(float(v)) for v in data.values[i]]
            if data.labels is not None:
                row.append(label_separator.join(sorted(data.labels.label_sets[i])))
            writer.writerow(row)


EXTREMES = [-0.0, 5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, -2.5]
AWKWARD_LABELS = [{"a,b"}, {'say "hi"'}, {"  leading"}, {"x", "y"}, {"a,b", 'q"', " s", "plain"},
                  {"plain"}, {"x", "y"}]


def _saved_samples(iris):
    default = generate_synthetic(SyntheticSpec(
        k=5, points_per_cluster=400,
        overlap_pairs=((0, 1, 40), (1, 2, 40), (2, 3, 40), (3, 4, 40), (4, 0, 40)),
        dimension=8, seed=0))
    one_column = np.array(EXTREMES)[:, None]
    return {
        "iris": iris,
        "iris without labels": DataMatrix(values=iris.values),
        "default synthetic": default,
        "p = 1": DataMatrix(values=one_column, labels=LabeledCovering(tuple(AWKWARD_LABELS))),
        "p = 1 without labels": DataMatrix(values=one_column),
        "extremes": DataMatrix(values=np.array([EXTREMES, EXTREMES[::-1]]),
                               labels=LabeledCovering(({"a,b", "c"}, {'"'}))),
    }


def test_save_csv_writes_the_bytes_of_the_row_by_row_writer(tmp_path, iris):
    for name, data in _saved_samples(iris).items():
        expected, saved = tmp_path / "expected.csv", tmp_path / "saved.csv"
        _save_csv_row_by_row(data, expected)
        save_csv(data, saved)
        assert saved.read_bytes() == expected.read_bytes(), name
        reloaded = load_csv(saved, label_column=None if data.labels is None else "last")
        assert reloaded.values.tobytes() == data.values.tobytes(), name  # -0.0 and 5e-324 too
        if data.labels is not None:
            assert reloaded.labels.label_sets == data.labels.label_sets, name


@pytest.mark.parametrize("label", ["a|b", "|", ""])
def test_save_csv_rejects_a_label_that_cannot_round_trip(tmp_path, label):
    data = DataMatrix(values=np.zeros((3, 2)),
                      labels=LabeledCovering(({"ok"}, {"ok", label}, {"ok"})))
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        save_csv(data, tmp_path / "out.csv")
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temporary one
    with pytest.raises(ValueError, match="label 'a;b'"):
        save_csv(DataMatrix(values=np.zeros((1, 1)), labels=LabeledCovering(({"a;b"},))),
                 tmp_path / "out.csv", label_separator=";")
    assert list(tmp_path.iterdir()) == []
