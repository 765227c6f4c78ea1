"""Replay the recorded golden coverings and CLI output (tests/data/golden_*.json).

The coverings fixture holds 43 runs recorded with the per-point reference
implementation of OKM: Iris under four measures x seeds 650-659, and
three restarts on the synthetic overlap sample.  The batched
implementation must give identical assignments (as sets and as the rows
of `Covering.memberships`) and iteration counts, and J within 1e-9
relative; J recomputed by `objective` from that matrix must equal the
run's J exactly.  `tests/data/make_golden_coverings.py`
defines the cases and wrote the file.  The CLI fixture,
`tests/data/make_golden_cli.py`, the wide grid of OKM outcomes,
`tests/data/make_golden_grid.py`, and the spectra and estimates of k,
`tests/data/make_golden_spectra.py`, are described in their own
docstrings.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from okmlib import OkmConfig, objective, okm, run_okm

DATA = Path(__file__).resolve().parent / "data"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, DATA / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_batched_okm_reproduces_golden_coverings():
    recorder = _load("make_golden_coverings")
    recorded = json.loads(recorder.GOLDEN_PATH.read_text())["runs"]
    cases = list(recorder.cases())
    assert len(recorded) == len(cases) == 43
    mismatches = []
    for run, (dataset, values, measure, k, seed) in zip(recorded, cases):
        assert (run["dataset"], run["measure"], run["k"], run["seed"]) == (dataset, measure, k, seed)
        cov = run_okm(values, OkmConfig(k=k, dissimilarity=recorder.MEASURES[measure], seed=seed))
        rows = [np.flatnonzero(row).tolist() for row in cov.memberships]
        same_covering = (recorder.bitmasks(cov.assignments) == run["assignments"]
                         and recorder.bitmasks(rows) == run["assignments"]
                         and cov.n_iter == run["n_iter"]
                         and objective(cov, recorder.MEASURES[measure], values) == cov.objective)
        close_j = abs(cov.objective - run["objective"]) <= 1e-9 * abs(run["objective"])
        if not (same_covering and close_j):
            mismatches.append((dataset, measure, seed, cov.n_iter, run["n_iter"],
                               cov.objective, run["objective"]))
    assert not mismatches, mismatches
    assert sum(run["n_iter"] for run in recorded if run["dataset"] == "iris") == 469
    assert sum(run["n_iter"] for run in recorded if run["dataset"] == "synthetic") == 42


def _image_path(n, k, p):
    """The image path a run of n points in p features at k clusters takes."""
    if not okm._uses_table(n, k):
        return "masked"
    return "all" if okm._uses_subset_dists(n, k, p) else "table"


def test_okm_reproduces_the_golden_grid():
    """Every run of `make_golden_grid.py` gives the recorded outcome, J within 1e-9 relative.

    The grid takes each image path, at both sides of each threshold.
    """
    recorder = _load("make_golden_grid")
    recorded = json.loads(recorder.GOLDEN_PATH.read_text())["runs"]
    cases = list(recorder.cases())
    assert len(recorded) == len(cases) == 490
    fields = ("dataset", "measure", "absolute", "k", "seed")
    paths, mismatches = {}, []
    for run, (dataset, values, labels, measure, absolute, k, seed) in zip(recorded, cases):
        key = (dataset, measure, absolute, k, seed)
        assert key == tuple(run[name] for name in fields)
        got = recorder.outcome(values, labels, measure, k, seed)
        want = {name: value for name, value in run.items() if name not in fields}
        got_j, want_j = got.pop("objective", 0.0), want.pop("objective", 0.0)
        if got != want or abs(got_j - want_j) > 1e-9 * abs(want_j):
            mismatches.append(key)
        n, p = values.shape
        paths[n, k, p] = _image_path(n, k, p)
    assert not mismatches, mismatches
    assert sum("error" in run for run in recorded) == 62
    assert set(paths.values()) == {"all", "table", "masked"}
    # One point fewer crosses a threshold: into n * 2^k * p <= 2^13 (table to all), or
    # from 2^k <= n to 2^k > n (all to masked).
    crossings = {(paths[n, k, p], paths.get((n - 1, k, p))) for n, k, p in paths}
    assert {("all", "masked"), ("table", "all")} <= crossings, crossings


def test_estimate_k_reproduces_the_golden_spectra():
    """Every case of `make_golden_spectra.py` gives its sigma, spectra and estimates.

    Spectrum values may differ by SPECTRUM_BOUND times their spectrum's
    first value; sigma and `estimated_k` must be identical.
    """
    recorder = _load("make_golden_spectra")
    recorded = json.loads(recorder.GOLDEN_PATH.read_text())["cases"]
    cases = list(recorder.cases())
    assert [case["name"] for case in recorded] == [name for name, _, _ in cases]
    assert len(cases) == 39
    for want, (name, sigma, matrix) in zip(recorded, cases):
        got = recorder.outcome(matrix)
        assert sigma == want["sigma"], name
        assert got["estimated_k"] == want["estimated_k"], name
        for spectrum in ("eigenvalues", "centered"):
            got_values, want_values = got[spectrum], want[spectrum]
            bound = recorder.SPECTRUM_BOUND * abs(want_values[0])
            assert len(got_values) == len(want_values), (name, spectrum)
            assert np.all(np.abs(np.subtract(got_values, want_values)) <= bound), (name, spectrum)


def test_cli_reproduces_golden_output(tmp_path):
    """Every case of `make_golden_cli.py` gives the recorded exit code, stdout, stderr and file.

    Spectrum values may differ by SPECTRUM_BOUND times their spectrum's
    largest value, since LAPACK builds round differently; every other
    byte, `estimated_k` included, must be identical.
    """
    recorder = _load("make_golden_cli")
    recorded = json.loads(recorder.GOLDEN_PATH.read_text(encoding="utf-8"))
    cases = list(recorder.cases())
    assert [name for name, _, _ in cases] == list(recorded)
    recorder.write_inputs(tmp_path)
    for name, argv, written in cases:
        got, want = recorder.run_case(argv, written, tmp_path), recorded[name]
        for stream in ("stdout", "stderr", "file"):
            if want[stream] is None:
                assert got[stream] is None, (name, stream)
                continue
            got_text, got_spectra = recorder.split_spectrum(got[stream])
            want_text, want_spectra = recorder.split_spectrum(want[stream])
            assert got_text == want_text, (name, stream)
            assert [len(s) for s in got_spectra] == [len(s) for s in want_spectra], name
            for got_values, want_values in zip(got_spectra, want_spectra):
                bound = recorder.SPECTRUM_BOUND * abs(want_values[0])
                assert np.all(np.abs(np.subtract(got_values, want_values)) <= bound), name
        assert got["code"] == want["code"], name


def _openblas_dynamic_arch():
    """Whether numpy's BLAS is an OpenBLAS built DYNAMIC_ARCH, whose kernels OPENBLAS_CORETYPE picks."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# Runs the named cases of make_golden_cli.py (argv[1]) with "{dir}" at argv[2]; prints their json.
_RUN_CASES = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("make_golden_cli", sys.argv[1])
recorder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(recorder)
cases = {name: (argv, written) for name, argv, written in recorder.cases()}
print(json.dumps({name: recorder.run_case(*cases[name], sys.argv[2]) for name in sys.argv[3:]}))
"""


@pytest.mark.skipif(not _openblas_dynamic_arch(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
def test_inner_product_cli_cases_print_the_same_bytes_under_other_openblas_kernels(tmp_path, child_env):
    # The golden CLI's poly and linear cases take no value from BLAS, so a
    # child interpreter running OpenBLAS's Haswell or Prescott kernels
    # prints this process's bytes.  The synthetic sample's LAPACK QR still
    # depends on the kernels, and so do the spectra: those cases are not run.
    recorder = _load("make_golden_cli")
    cases = {name: (argv, written) for name, argv, written in recorder.cases()
             if "-poly" in name or "-linear" in name}
    assert len(cases) == 6
    here = {name: recorder.run_case(argv, written, tmp_path) for name, (argv, written) in cases.items()}
    for core_type in ("Haswell", "Prescott"):
        done = subprocess.run([sys.executable, "-c", _RUN_CASES, str(DATA / "make_golden_cli.py"),
                               str(tmp_path), *cases], env=dict(child_env, OPENBLAS_CORETYPE=core_type),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == here, core_type
