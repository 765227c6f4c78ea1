import os
import pathlib
import shutil
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import okmlib
from okmlib import SyntheticSpec, generate_synthetic, load_csv, save_csv
from okmlib.cli import main
from okmlib.linalg import membership_sets


@pytest.fixture()
def blobs_csv(tmp_path):
    """Three well-separated blobs, no label column."""
    from okmlib import DataMatrix
    spec = SyntheticSpec(k=3, points_per_cluster=12, center_separation=20.0,
                         noise_scale=0.5, dimension=2, seed=3)
    path = tmp_path / "blobs.csv"
    save_csv(DataMatrix(values=generate_synthetic(spec).values), path)
    return path


@pytest.fixture()
def labeled_blobs_csv(tmp_path):
    spec = SyntheticSpec(k=3, points_per_cluster=12, center_separation=20.0,
                         noise_scale=0.5, dimension=2, seed=3)
    path = tmp_path / "labeled_blobs.csv"
    save_csv(generate_synthetic(spec), path)
    return path


@pytest.fixture()
def pairs_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("0.0,a\n1.0,a\n10.0,b\n11.0,b\n", encoding="utf-8")
    return path


def test_estimate_k_on_blobs_with_defaults(blobs_csv, capsys):
    assert main(["estimate-k", "--data", str(blobs_csv)]) == 0
    out = capsys.readouterr().out
    assert "estimated_k = 3" in out
    assert "eigenvalues" in out


def test_estimate_k_both_policies_agree_on_blobs(blobs_csv, capsys):
    for policy in ("eigengap", "ratio"):
        assert main(["estimate-k", "--data", str(blobs_csv), "--policy", policy]) == 0
        assert "estimated_k = 3" in capsys.readouterr().out


def test_estimate_k_single_point_is_an_error(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("1.0,2.0\n", encoding="utf-8")
    assert main(["estimate-k", "--data", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["estimate-k", "--data", "/no/such/file.csv"]) == 2
    assert "error" in capsys.readouterr().err


def test_cluster_two_far_pairs(pairs_csv, tmp_path, capsys):
    out_path = tmp_path / "covering.csv"
    code = main(["cluster", "--data", str(pairs_csv), "--label-col", "last",
                 "--k", "2", "--seed", "0", "--out", str(out_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "J = 1" in printed
    assert "iterations =" in printed
    lines = out_path.read_text().splitlines()
    assert lines[0] == "index,cluster_ids"
    memberships = [line.split(",")[1] for line in lines[1:]]
    assert all("|" not in m for m in memberships)  # no overlap on this data
    assert memberships[0] == memberships[1]
    assert memberships[2] == memberships[3]
    assert memberships[0] != memberships[2]


def test_cluster_k_larger_than_n_exits_4(pairs_csv, tmp_path, capsys):
    code = main(["cluster", "--data", str(pairs_csv), "--label-col", "last",
                 "--k", "9", "--out", str(tmp_path / "c.csv")])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_cluster_k1_puts_everything_together(pairs_csv, tmp_path):
    out_path = tmp_path / "one.csv"
    assert main(["cluster", "--data", str(pairs_csv), "--label-col", "last",
                 "--k", "1", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()[1:]
    assert all(line.endswith(",1") for line in lines)


def test_experiment_requires_labels(blobs_csv, capsys):
    code = main(["experiment", "--data", str(blobs_csv), "--label-col", "NONE", "--k", "3"])
    assert code == 5
    assert "label" in capsys.readouterr().err


def test_experiment_single_restart_min_equals_max(pairs_csv, capsys):
    code = main(["experiment", "--data", str(pairs_csv), "--k", "2",
                 "--restarts", "1", "--seed", "9", "--format", "json"])
    assert code == 0
    import json
    doc = json.loads(capsys.readouterr().out)
    agg = doc["aggregates"]
    for metric in ("objective", "precision", "recall", "f_measure"):
        assert agg["min"][metric] == agg["max"][metric] == agg["mean"][metric]
    assert len(doc["runs"]) == 1
    assert doc["runs"][0]["seed"] == 9


def test_experiment_csv_round_trips_through_loader(pairs_csv, tmp_path, capsys):
    report_path = tmp_path / "report.csv"
    code = main(["experiment", "--data", str(pairs_csv), "--k", "2",
                 "--restarts", "3", "--format", "csv", "--out", str(report_path)])
    assert code == 0
    reloaded = load_csv(report_path, label_column=0)
    assert reloaded.n == 3 + 3  # runs plus min/max/mean rows
    assert reloaded.p == 5
    kinds = [next(iter(s)) for s in reloaded.labels.label_sets]
    assert kinds[:3] == ["run", "run", "run"]
    assert kinds[3:] == ["min", "max", "mean"]
    # aggregates recomputable from the run rows exactly
    runs = reloaded.values[:3]
    mins, maxs, means = reloaded.values[3], reloaded.values[4], reloaded.values[5]
    assert np.array_equal(mins, runs.min(axis=0))
    assert np.array_equal(maxs, runs.max(axis=0))
    for c in range(5):
        assert means[c] == (runs[0, c] + runs[1, c] + runs[2, c]) / 3  # left to right


def test_experiment_estimates_k_when_omitted(labeled_blobs_csv, capsys):
    code = main(["experiment", "--data", str(labeled_blobs_csv), "--label-col", "last",
                 "--restarts", "2", "--format", "json"])
    assert code == 0
    import json
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimated_k"] == 3
    assert doc["k"] == 3
    assert len(doc["spectrum"]) == 36


def test_experiment_csv_without_k_reports_the_estimate_on_stderr(labeled_blobs_csv, capsys):
    # The CSV report has no field for it, so the estimated k goes to stderr.
    code = main(["experiment", "--data", str(labeled_blobs_csv), "--label-col", "last",
                 "--restarts", "2", "--format", "csv"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == "estimated_k = 3\n"
    assert captured.out.startswith("kind,seed,objective,")


def test_experiment_table_format_shows_aggregates(pairs_csv, capsys):
    code = main(["experiment", "--data", str(pairs_csv), "--k", "2", "--restarts", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean" in out and "f-measure" in out


def test_experiment_jobs_flag_gives_identical_report(pairs_csv, monkeypatch, capsys):
    import okmlib.cli as cli

    # Two usable CPUs, so that --jobs 2 starts the process pool on a one-CPU runner too.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._worker_count(2, 4) == 2
    args = ["experiment", "--data", str(pairs_csv), "--k", "2",
            "--restarts", "4", "--format", "csv"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_a_serial_experiment_never_imports_the_process_pool(pairs_csv):
    # A fresh interpreter, since this one may have loaded the pool already.  Nor does the
    # load import gzip, as numpy's loadtxt does when it is given a path, not an open file.
    script = (
        "import sys\n"
        "from okmlib.cli import main\n"
        f"code = main(['experiment', '--data', {str(pairs_csv)!r}, '--k', '2', '--restarts', '4',\n"
        "             '--format', 'csv', '--jobs', '1'])\n"
        "print(code, *sorted(m for m in sys.modules\n"
        "                    if m.partition('.')[0] in ('concurrent', 'multiprocessing', 'gzip')))\n"
    )
    path = os.pathsep.join(filter(None, [str(pathlib.Path(okmlib.__file__).parent.parent),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[0] == "kind,seed,objective,precision,recall,f_measure"
    assert done.stdout.splitlines()[-1] == "0"


def test_no_partial_file_when_out_is_unwritable(pairs_csv, capsys):
    target = "/nonexistent-dir/covering.csv"
    code = main(["cluster", "--data", str(pairs_csv), "--label-col", "last",
                 "--k", "2", "--out", target])
    assert code == 2
    assert not os.path.exists(target)
    assert "error" in capsys.readouterr().err


def test_cluster_fractional_polynomial_on_iris_converges(tmp_path, capsys):
    from conftest import IRIS_PATH
    out_path = tmp_path / "iris_covering.csv"
    code = main(["cluster", "--data", str(IRIS_PATH), "--label-col", "last",
                 "--measure", "kernel", "--kernel", "poly", "--degree", "0.25",
                 "--k", "3", "--seed", "650", "--out", str(out_path)])
    assert code == 0
    printed = capsys.readouterr().out
    iterations = int(printed.split("iterations = ")[1].splitlines()[0])
    assert 1 <= iterations < 100
    assert out_path.exists()


def test_repeated_invocations_identical(pairs_csv, capsys):
    args = ["experiment", "--data", str(pairs_csv), "--k", "2",
            "--restarts", "3", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_estimate_k_tau_out_of_range_exits_2(blobs_csv, capsys):
    assert main(["estimate-k", "--data", str(blobs_csv), "--policy", "ratio", "--tau", "2"]) == 2
    assert "tau" in _one_line_error(capsys)


def test_experiment_k_zero_exits_2(pairs_csv, capsys):
    assert main(["experiment", "--data", str(pairs_csv), "--k", "0"]) == 2
    assert "k must be >= 1" in _one_line_error(capsys)


def test_experiment_max_iter_zero_exits_2(pairs_csv, capsys):
    assert main(["experiment", "--data", str(pairs_csv), "--k", "2", "--max-iter", "0"]) == 2
    assert "max_iter" in _one_line_error(capsys)


def test_experiment_jobs_below_one_exits_2(pairs_csv, capsys):
    for jobs in ("0", "-3"):
        assert main(["experiment", "--data", str(pairs_csv), "--k", "2", "--jobs", jobs]) == 2
        assert "jobs" in _one_line_error(capsys)


def _overlap_csv(tmp_path):
    """The n = 2 200, p = 8 synthetic overlap sample, five clusters, labeled."""
    spec = SyntheticSpec(k=5, points_per_cluster=400,
                         overlap_pairs=((0, 1, 40), (1, 2, 40), (2, 3, 40), (3, 4, 40), (4, 0, 40)),
                         dimension=8, seed=0)
    path = tmp_path / "overlap.csv"
    save_csv(generate_synthetic(spec), path)
    return path


def test_experiment_builds_no_cluster_id_sets(tmp_path, monkeypatch, capsys):
    # Covering.assignments reads the matrix with okm.membership_sets; pair metrics read the matrix.
    import okmlib.okm as okm
    from conftest import IRIS_PATH

    def unused(memberships):
        raise AssertionError("a covering's cluster-id sets were built")

    monkeypatch.setattr(okm, "membership_sets", unused)
    for measure in ("euclidean", "idiv", "kernel"):
        assert main(["experiment", "--data", str(IRIS_PATH), "--k", "3", "--measure", measure,
                     "--format", "json"]) == 0
    assert main(["experiment", "--data", str(IRIS_PATH), "--restarts", "2"]) == 0
    assert main(["experiment", "--data", str(_overlap_csv(tmp_path)), "--k", "5",
                 "--restarts", "3", "--format", "csv"]) == 0


def test_cluster_builds_the_cluster_id_sets_once(tmp_path, monkeypatch, capsys):
    # Writing the covering CSV reads Covering.assignments, built through okm.membership_sets.
    import okmlib.okm as okm
    from conftest import IRIS_PATH

    calls = []

    def counted(memberships):
        calls.append(memberships.shape)
        return membership_sets(memberships)

    monkeypatch.setattr(okm, "membership_sets", counted)
    assert main(["cluster", "--data", str(IRIS_PATH), "--label-col", "last", "--k", "3",
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert calls == [(150, 3)]


def test_median_sigma_row_blocks_match_dense_formula(monkeypatch):
    import okmlib.cli as cli
    from okmlib import DataMatrix

    def dense(values):
        n = len(values)
        d2 = ((values[:, None, :] - values[None, :, :]) ** 2).sum(-1)
        dist = np.sqrt(d2[np.triu_indices(n, 1)])
        dist = dist[dist > 0]
        return float(np.median(dist)) if dist.size else 1.0

    import okmlib.linalg as linalg

    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 64)
    rng = np.random.default_rng(8)
    for n, p in ((2, 1), (7, 3), (40, 2), (41, 9)):
        values = rng.standard_normal((n, p))
        # As the CLI passes them: a DataMatrix's points-innermost values.
        assert cli._median_heuristic_sigma(DataMatrix(values).values) == dense(values)
    assert cli._median_heuristic_sigma(DataMatrix(np.zeros((5, 2))).values) == 1.0


def test_experiment_with_k_skips_the_median_sigma(pairs_csv, monkeypatch, capsys):
    import okmlib.cli as cli

    def unused(values):
        raise AssertionError("median sigma computed although --k was given")

    monkeypatch.setattr(cli, "_median_heuristic_sigma", unused)
    assert main(["experiment", "--data", str(pairs_csv), "--k", "2", "--restarts", "1"]) == 0
    with pytest.raises(AssertionError):
        main(["experiment", "--data", str(pairs_csv), "--restarts", "1"])


def _no_convergence(monkeypatch):
    import okmlib.model_selection as model_selection
    from okmlib.errors import NoConvergence

    def fail(matrix):
        raise NoConvergence("no convergence after 7 sweeps")

    monkeypatch.setattr(model_selection, "sorted_eigenvalues", fail)


def _disk_full(monkeypatch):
    import errno

    def fail(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", fail)


def _no_runs(monkeypatch):
    import okmlib.cli as cli

    def fail(data, config, on_iteration=None):
        raise AssertionError("a clustering ran before every restart's config was valid")

    monkeypatch.setattr(cli, "run_okm", fail)


@pytest.fixture()
def bad_inputs(tmp_path):
    files = {
        "ragged.csv": "1.0,2.0\n3.0\n",
        "text.csv": "1.0,2.0\n3.0,x\n",
        "pairs.csv": "0.0,a\n1.0,a\n10.0,b\n11.0,b\n",
        "negative.csv": "-2.0,a\n-1.0,a\n2.0,b\n3.0,b\n",
        "unlabeled.csv": "0.0,5.0\n1.0,5.0\n10.0,5.0\n11.0,5.0\n",
        "one.csv": "1.0,2.0,a\n",
        "labels.csv": "a\nb\n",
        "huge.csv": "1e200,a\n-1e200,a\n3e200,b\n0.0,b\n",
        # K(x, x) overflows under the linear and polynomial kernels.
        "overflow.csv": "1e200,2e200,a\n3e200,1e200,a\n-2e200,5e199,b\n1e199,-3e200,b\n",
        # The Gram entries are finite, the sums that center them are not.
        "near-max.csv": "9e153,1,a\n-9e153,2,a\n9e153,9e153,b\n0.5,9e153,b\n",
        # A label cell past the csv module's field limit of 131 072 characters.
        "long-label.csv": "1.0,2.0,a\n3.0,4.0,b\n5.0,6.0," + "x" * 140_000 + "\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path


POLY_HALF = ["--measure", "kernel", "--kernel", "poly", "--degree", "0.5"]
LINEAR = ["--measure", "kernel", "--kernel", "linear"]
GRAM_OVERFLOW = "error: Gram matrix is not finite: the data overflow this kernel"
MEDIAN_SIGMA_OVERFLOW = "error: median sigma is inf: the pairwise distances overflow"
SIGMA_UNDERFLOW = "error: rbf kernel sigma 1e-200 is too small: sigma^2 underflows to 0"
SIGMA_OVERFLOW = "error: rbf kernel sigma 1e+200 is too large: sigma^2 overflows to inf"

# (argv, setup, exit code, the one stderr line); "{dir}" is the inputs' directory.
EXIT_PATHS = [
    pytest.param(["estimate-k", "--data", "{dir}/missing.csv"], None, 2,
                 "error: cannot load {dir}/missing.csv: [Errno 2] No such file or directory: "
                 "'{dir}/missing.csv'", id="load-missing-file"),
    pytest.param(["estimate-k", "--data", "{dir}/ragged.csv"], None, 2,
                 "error: cannot load {dir}/ragged.csv: row 1 has 1 cells, expected 2",
                 id="load-ragged-rows"),
    pytest.param(["cluster", "--data", "{dir}/text.csv", "--k", "1", "--out", "{dir}/c.csv"],
                 None, 2,
                 "error: cannot load {dir}/text.csv: cell 'x' is not numeric (row 1, column 1)",
                 id="load-non-numeric-cell"),
    pytest.param(["cluster", "--data", "{dir}/pairs.csv", "--label-col", "5", "--k", "2",
                  "--out", "{dir}/c.csv"], None, 2,
                 "error: cannot load {dir}/pairs.csv: label column 5 out of range for width 2",
                 id="load-label-column-out-of-range"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--label-col", "foo", "--k", "2"],
                 None, 2,
                 "error: cannot load {dir}/pairs.csv: invalid literal for int() with base 10: "
                 "'foo'", id="load-label-column-not-integer"),
    pytest.param(["experiment", "--data", "{dir}/missing.csv", "--label-sep", "", "--k", "2"], None,
                 2, "error: --label-sep must not be empty", id="empty-label-separator"),
    pytest.param(["estimate-k", "--data", "{dir}/labels.csv", "--label-col", "last"], None, 2,
                 "error: cannot load {dir}/labels.csv: no feature columns left after removing the "
                 "label column", id="load-no-feature-columns"),
    pytest.param(["experiment", "--data", "{dir}/long-label.csv", "--k", "2"], None, 2,
                 "error: cannot load {dir}/long-label.csv: field larger than field limit (131072)",
                 id="load-label-cell-over-the-field-limit"),
    pytest.param(["cluster", "--data", "{dir}/pairs.csv", "--label-col", "last", "--k", "2",
                  "--out", "{dir}/c.csv"], _disk_full, 2,
                 "error: cannot write {dir}/c.csv: [Errno 28] No space left on device",
                 id="write-cluster-out"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--k", "2", "--restarts", "1",
                  "--out", "{dir}/report.txt"], _disk_full, 2,
                 "error: cannot write {dir}/report.txt: [Errno 28] No space left on device",
                 id="write-experiment-out"),
    pytest.param(["estimate-k", "--data", "{dir}/negative.csv", "--label-col", "last",
                  "--kernel", "poly", "--degree", "0.5"], None, 2,
                 "error: polynomial base -3 < 0 with non-integer degree 0.5",
                 id="domain-error-estimate-k"),
    pytest.param(["cluster", "--data", "{dir}/negative.csv", "--label-col", "last", *POLY_HALF,
                  "--k", "2", "--out", "{dir}/c.csv"], None, 2,
                 "error: polynomial base -3 < 0 with non-integer degree 0.5",
                 id="domain-error-cluster"),
    pytest.param(["experiment", "--data", "{dir}/negative.csv", *POLY_HALF, "--k", "2"], None, 2,
                 "error: polynomial base -3 < 0 with non-integer degree 0.5",
                 id="domain-error-experiment"),
    pytest.param(["cluster", "--data", "{dir}/negative.csv", "--label-col", "last",
                  "--measure", "idiv", "--k", "2", "--out", "{dir}/c.csv"], None, 2,
                 "error: i-divergence requires nonnegative components",
                 id="negative-input-cluster"),
    pytest.param(["experiment", "--data", "{dir}/negative.csv", "--measure", "idiv", "--k", "2"],
                 None, 2, "error: i-divergence requires nonnegative components",
                 id="negative-input-experiment"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--k", "2", "--restarts", "0"],
                 None, 2, "error: restarts must be >= 1, got 0", id="restarts-zero"),
    pytest.param(["cluster", "--data", "{dir}/pairs.csv", "--label-col", "last", "--k", "2",
                  "--seed", "-1", "--out", "{dir}/c.csv"], _no_runs, 2,
                 "error: seed must be >= 0, got -1", id="negative-seed-cluster"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--k", "2", "--seed", "-3",
                  "--restarts", "10"], _no_runs, 2, "error: seed must be >= 0, got -3",
                 id="negative-seed-experiment"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--k", "2", "--rel-tol", "nan"],
                 None, 2, "error: rel_tol must be positive, got nan", id="rel-tol-nan-experiment"),
    pytest.param(["cluster", "--data", "{dir}/pairs.csv", "--label-col", "last", "--k", "2",
                  "--rel-tol", "nan", "--out", "{dir}/c.csv"], None, 2,
                 "error: rel_tol must be positive, got nan", id="rel-tol-nan-cluster"),
    pytest.param(["cluster", "--data", "{dir}/huge.csv", "--label-col", "last", "--k", "2",
                  "--out", "{dir}/c.csv"], None, 2,
                 "error: J is inf: the data overflow this measure", id="objective-overflow-cluster"),
    pytest.param(["cluster", "--data", "{dir}/overflow.csv", "--label-col", "last", *LINEAR,
                  "--k", "2", "--out", "{dir}/c.csv"], None, 2,
                 "error: J is nan: the data overflow this measure",
                 id="kernel-objective-overflow-cluster"),
    pytest.param(["experiment", "--data", "{dir}/overflow.csv", *LINEAR, "--k", "2"], None, 2,
                 "error: J is nan: the data overflow this measure",
                 id="kernel-objective-overflow-experiment"),
    pytest.param(["estimate-k", "--data", "{dir}/overflow.csv", "--label-col", "last",
                  "--kernel", "poly", "--degree", "2"], None, 2, GRAM_OVERFLOW,
                 id="gram-overflow-poly-estimate-k"),
    pytest.param(["estimate-k", "--data", "{dir}/overflow.csv", "--label-col", "last",
                  "--kernel", "linear"], None, 2, GRAM_OVERFLOW, id="gram-overflow-linear-estimate-k"),
    pytest.param(["experiment", "--data", "{dir}/overflow.csv", "--measure", "kernel", "--kernel",
                  "poly", "--degree", "2", "--restarts", "1"], None, 2, GRAM_OVERFLOW,
                 id="gram-overflow-experiment"),
    pytest.param(["estimate-k", "--data", "{dir}/near-max.csv", "--label-col", "last",
                  "--kernel", "linear"], None, 2, "error: matrix entries must be finite",
                 id="centering-overflow-estimate-k"),
    pytest.param(["estimate-k", "--data", "{dir}/overflow.csv", "--label-col", "last"], None, 2,
                 MEDIAN_SIGMA_OVERFLOW, id="median-sigma-overflow-estimate-k"),
    pytest.param(["cluster", "--data", "{dir}/overflow.csv", "--label-col", "last", "--measure",
                  "kernel", "--k", "2", "--out", "{dir}/c.csv"], None, 2, MEDIAN_SIGMA_OVERFLOW,
                 id="median-sigma-overflow-cluster"),
    pytest.param(["experiment", "--data", "{dir}/overflow.csv"], None, 2, MEDIAN_SIGMA_OVERFLOW,
                 id="median-sigma-overflow-experiment"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--k", "2", "--measure", "kernel",
                  "--sigma", "1e-200"], None, 2, SIGMA_UNDERFLOW, id="sigma-underflow-experiment"),
    pytest.param(["estimate-k", "--data", "{dir}/pairs.csv", "--label-col", "last", "--sigma", "1e-200"],
                 None, 2, SIGMA_UNDERFLOW, id="sigma-underflow-estimate-k"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--k", "2", "--measure", "kernel",
                  "--sigma", "1e200"], None, 2, SIGMA_OVERFLOW, id="sigma-overflow-experiment"),
    pytest.param(["estimate-k", "--data", "{dir}/pairs.csv", "--label-col", "last", "--sigma", "1e200"],
                 None, 2, SIGMA_OVERFLOW, id="sigma-overflow-estimate-k"),
    pytest.param(["estimate-k", "--data", "{dir}/one.csv", "--label-col", "last"], None, 2,
                 "error: need at least 2 points to estimate k", id="estimate-k-one-point"),
    pytest.param(["estimate-k", "--data", "{dir}/pairs.csv", "--label-col", "last"],
                 _no_convergence, 3, "error: eigensolver failed: no convergence after 7 sweeps",
                 id="no-convergence-estimate-k"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--restarts", "1"],
                 _no_convergence, 3, "error: eigensolver failed: no convergence after 7 sweeps",
                 id="no-convergence-experiment"),
    pytest.param(["cluster", "--data", "{dir}/pairs.csv", "--label-col", "last", "--k", "9",
                  "--out", "{dir}/c.csv"], None, 4, "error: 4 points cannot seed 9 clusters",
                 id="insufficient-data-cluster"),
    pytest.param(["experiment", "--data", "{dir}/pairs.csv", "--k", "9"], None, 4,
                 "error: 4 points cannot seed 9 clusters", id="insufficient-data-experiment"),
    pytest.param(["experiment", "--data", "{dir}/unlabeled.csv", "--label-col", "NONE",
                  "--k", "2"], None, 5,
                 "error: experiment needs ground-truth labels (see --label-col)",
                 id="missing-labels"),
]


@pytest.mark.parametrize("argv, setup, code, line", EXIT_PATHS)
def test_exit_code_and_one_line_message(bad_inputs, monkeypatch, capsys, argv, setup, code, line):
    if setup is not None:
        setup(monkeypatch)
    directory = str(bad_inputs)
    assert main([arg.format(dir=directory) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == line.format(dir=directory) + "\n"
    assert captured.out == ""
    assert not list(bad_inputs.glob("*.tmp"))


def test_experiment_estimating_k_from_one_row_exits_2(bad_inputs, capsys):
    assert main(["experiment", "--data", str(bad_inputs / "one.csv")]) == 2
    assert _one_line_error(capsys) == "error: need at least 2 points to estimate k\n"


def test_worker_count_is_clamped_to_restarts_and_cpus(monkeypatch):
    import okmlib.cli as cli

    # The CPUs this process may run on, not all the machine's.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5, 7}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._worker_count(100000, 2) == 2
    assert cli._worker_count(100000, 50) == 4
    assert cli._worker_count(3, 50) == 3
    assert cli._worker_count(1, 50) == 1
    # Without sched_getaffinity the machine's count is used, and an unknown one counts as 1.
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_count(100000, 100) == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count(8, 8) == 1


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_written_files_get_the_mode_of_a_plain_write(pairs_csv, tmp_path, capsys, umask):
    targets = {
        "cluster.csv": ["cluster", "--data", str(pairs_csv), "--label-col", "last", "--k", "2"],
        "report.txt": ["experiment", "--data", str(pairs_csv), "--k", "2", "--restarts", "1"],
    }
    old = os.umask(umask)
    try:
        for name, argv in targets.items():
            out = tmp_path / name
            assert main(argv + ["--out", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask, name
            out.chmod(0o640)  # a rewrite keeps an existing file's mode
            assert main(argv + ["--out", str(out)]) == 0
            assert stat.S_IMODE(out.stat().st_mode) == 0o640, name
        save_csv(load_csv(pairs_csv, label_column="last"), tmp_path / "saved.csv")
        assert stat.S_IMODE((tmp_path / "saved.csv").stat().st_mode) == 0o666 & ~umask
    finally:
        os.umask(old)
    assert not list(tmp_path.glob("*.tmp"))


def test_out_through_a_symlink_writes_the_link_target(pairs_csv, tmp_path, capsys):
    # As open(path, "w") does: the link stays a link, and its target gets the new content and
    # keeps its mode.
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link.symlink_to(target)
    cluster = ["cluster", "--data", str(pairs_csv), "--label-col", "last", "--k", "2", "--out"]
    assert main(cluster + [str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().splitlines()[0] == "index,cluster_ids"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    save_csv(load_csv(pairs_csv, label_column="last"), link)
    assert link.is_symlink() and target.read_text().splitlines()[0] == "f0,label"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    # A dangling link, here a relative one, creates its target.
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to("created.csv")
    assert main(cluster + [str(dangling)]) == 0
    assert dangling.is_symlink() and len((tmp_path / "created.csv").read_text().splitlines()) == 5
    # A link loop fails as open() does, and nothing is written.
    (tmp_path / "loop-a").symlink_to(tmp_path / "loop-b")
    (tmp_path / "loop-b").symlink_to(tmp_path / "loop-a")
    capsys.readouterr()
    assert main(cluster + [str(tmp_path / "loop-a")]) == 2
    assert "Too many levels of symbolic links" in _one_line_error(capsys)
    assert (tmp_path / "loop-a").is_symlink()
    assert not list(tmp_path.glob("*.tmp"))


def test_experiment_runs_serially_when_one_worker_is_enough(pairs_csv, monkeypatch, capsys):
    import okmlib.cli as cli

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started for a single restart")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
    assert main(["experiment", "--data", str(pairs_csv), "--k", "2", "--restarts", "1",
                 "--jobs", "100000"]) == 0


def test_commands_call_layers_through_module_globals(labeled_blobs_csv, monkeypatch, capsys):
    # The benchmark times each layer by replacing exactly these okmlib.cli names.
    import okmlib.cli as cli

    names = ("load_csv", "gram", "estimate_k", "run_okm", "pair_metrics")
    called = set()
    for name in names:
        def spy(*args, _name=name, _original=getattr(cli, name), **kwargs):
            called.add(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    data = ["--data", str(labeled_blobs_csv), "--label-col", "last"]
    assert main(["estimate-k", *data]) == 0
    assert called == {"load_csv", "gram", "estimate_k"}
    called.clear()
    assert main(["experiment", *data, "--restarts", "1"]) == 0
    assert called == set(names)


def test_estimate_k_centers_the_gram_it_built_in_place(tmp_path, monkeypatch, capsys):
    # A deterministic guard, no wall clock: the command hands its Gram
    # matrix over to be centered in place, so small row blocks leave one
    # n x n buffer at n = 600.  LAPACK's working copies are not seen by
    # tracemalloc.
    import okmlib.linalg as linalg

    path = tmp_path / "blobs.csv"
    save_csv(generate_synthetic(SyntheticSpec(k=3, points_per_cluster=200, dimension=4, seed=5)), path)
    monkeypatch.setattr(linalg, "BLOCK_ELEMENTS", 4096)
    tracemalloc.start()
    try:
        assert main(["estimate-k", "--data", str(path), "--label-col", "last", "--sigma", "2"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.startswith("n = 600  kernel = rbf  sigma = 2  policy = eigengap\n")
    n = 600
    assert peak <= 1.25 * 8 * n * n, peak / (8 * n * n)


# The exact report of `experiment --data pairs.csv --k 2 --restarts 3 --seed 9`.  The data
# are binary fractions and every run finds the two pairs, so no digit depends on libm or LAPACK.
REPORT_TABLE = """\
measure = euclidean  k = 2  restarts = 3  base_seed = 9

  seed       objective  precision     recall  f-measure
     9        1.000000     1.0000     1.0000     1.0000
    10        1.000000     1.0000     1.0000     1.0000
    11        1.000000     1.0000     1.0000     1.0000

        precision     recall  f-measure       objective
   min     1.0000     1.0000     1.0000        1.000000
   max     1.0000     1.0000     1.0000        1.000000
  mean     1.0000     1.0000     1.0000        1.000000
"""

REPORT_CSV = (
    "kind,seed,objective,precision,recall,f_measure\r\n"
    "run,9,1.0,1.0,1.0,1.0\r\n"
    "run,10,1.0,1.0,1.0,1.0\r\n"
    "run,11,1.0,1.0,1.0,1.0\r\n"
    "min,9.0,1.0,1.0,1.0,1.0\r\n"
    "max,11.0,1.0,1.0,1.0,1.0\r\n"
    "mean,10.0,1.0,1.0,1.0,1.0\r\n"
)

_REPORT_JSON_RUN = """\
    {{
      "seed": {seed},
      "objective": 1.0,
      "precision": 1.0,
      "recall": 1.0,
      "f_measure": 1.0
    }}"""

_REPORT_JSON_STAT = """\
    "{stat}": {{
      "seed": {seed},
      "objective": 1.0,
      "precision": 1.0,
      "recall": 1.0,
      "f_measure": 1.0
    }}"""

REPORT_JSON = (
    '{\n'
    '  "measure": "euclidean",\n'
    '  "k": 2,\n'
    '  "restarts": 3,\n'
    '  "base_seed": 9,\n'
    '  "runs": [\n'
    + ",\n".join(_REPORT_JSON_RUN.format(seed=s) for s in (9, 10, 11))
    + '\n  ],\n'
    '  "aggregates": {\n'
    + ",\n".join(_REPORT_JSON_STAT.format(stat=stat, seed=seed)
                 for stat, seed in (("min", "9.0"), ("max", "11.0"), ("mean", "10.0")))
    + '\n  }\n'
    '}\n'
)

REPORTS = {"table": REPORT_TABLE, "csv": REPORT_CSV, "json": REPORT_JSON}
PAIRS_EXPERIMENT = ["experiment", "--k", "2", "--restarts", "3", "--seed", "9"]


@pytest.mark.parametrize("fmt", sorted(REPORTS))
def test_experiment_report_bytes(pairs_csv, capsys, fmt):
    assert main([*PAIRS_EXPERIMENT, "--data", str(pairs_csv), "--format", fmt]) == 0
    captured = capsys.readouterr()
    assert captured.out == REPORTS[fmt]
    assert captured.err == ""


@pytest.mark.parametrize("fmt", sorted(REPORTS))
def test_experiment_report_file_bytes(pairs_csv, tmp_path, capsys, fmt):
    out_path = tmp_path / f"report.{fmt}"
    assert main([*PAIRS_EXPERIMENT, "--data", str(pairs_csv), "--format", fmt,
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == f"report written to {out_path}\n"
    assert out_path.read_bytes() == REPORTS[fmt].encode("utf-8")


@pytest.mark.parametrize("columns", [70, 200])
def test_parser_queries_the_terminal_once_and_wraps_help_at_columns_minus_2(monkeypatch, capsys, columns):
    queries = []
    get_terminal_size = shutil.get_terminal_size

    def counted(*args, **kwargs):
        queries.append(args)
        return get_terminal_size(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    monkeypatch.setenv("COLUMNS", str(columns))
    for command in ([], ["estimate-k"], ["cluster"], ["experiment"]):
        queries.clear()
        with pytest.raises(SystemExit):
            main([*command, "--help"])
        assert len(queries) == 1, command
        longest = max(map(len, capsys.readouterr().out.splitlines()))
        assert longest <= columns - 2, command
    # The longest help lines fill the width, so it is not a narrower one.
    assert longest > columns - 10
