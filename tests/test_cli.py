import numpy as np
import pytest

from okmlib import SyntheticSpec, generate_synthetic, load_csv, save_csv
from okmlib.cli import main


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
        assert means[c] == sum(runs[:, c].tolist()) / 3


def test_experiment_estimates_k_when_omitted(labeled_blobs_csv, capsys):
    code = main(["experiment", "--data", str(labeled_blobs_csv), "--label-col", "last",
                 "--restarts", "2", "--format", "json"])
    assert code == 0
    import json
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimated_k"] == 3
    assert doc["k"] == 3
    assert len(doc["spectrum"]) == 36


def test_experiment_table_format_shows_aggregates(pairs_csv, capsys):
    code = main(["experiment", "--data", str(pairs_csv), "--k", "2", "--restarts", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean" in out and "f-measure" in out


def test_experiment_jobs_flag_gives_identical_report(pairs_csv, capsys):
    args = ["experiment", "--data", str(pairs_csv), "--k", "2",
            "--restarts", "4", "--format", "csv"]
    assert main(args) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_no_partial_file_when_out_is_unwritable(pairs_csv, capsys):
    import os
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


def test_median_sigma_row_blocks_match_dense_formula(monkeypatch):
    import okmlib.cli as cli

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
        assert cli._median_heuristic_sigma(values) == dense(values)
    assert cli._median_heuristic_sigma(np.zeros((5, 2))) == 1.0


def test_experiment_with_k_skips_the_median_sigma(pairs_csv, monkeypatch, capsys):
    import okmlib.cli as cli

    def unused(values):
        raise AssertionError("median sigma computed although --k was given")

    monkeypatch.setattr(cli, "_median_heuristic_sigma", unused)
    assert main(["experiment", "--data", str(pairs_csv), "--k", "2", "--restarts", "1"]) == 0
    with pytest.raises(AssertionError):
        main(["experiment", "--data", str(pairs_csv), "--restarts", "1"])
