"""Replay the recorded golden coverings (tests/data/golden_coverings.json).

The fixture holds 43 runs recorded with the per-point reference
implementation of OKM: Iris under four measures x seeds 650-659, and
three restarts on the synthetic overlap sample.  The batched
implementation must give identical assignments (as sets and as the rows
of `Covering.memberships`) and iteration counts, and J within 1e-9
relative; J recomputed by `objective` from that matrix must equal the
run's J exactly.  `tests/data/make_golden_coverings.py`
defines the cases and wrote the file.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from okmlib import OkmConfig, objective, run_okm

DATA = Path(__file__).resolve().parent / "data"


def _recorder():
    spec = importlib.util.spec_from_file_location("make_golden_coverings",
                                                  DATA / "make_golden_coverings.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_batched_okm_reproduces_golden_coverings():
    recorder = _recorder()
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
