"""Acceptance gate: one test per release criterion, each at its stated
tolerance.  Run with `pytest tests/test_acceptance.py -s` to see one
PASS/FAIL line per criterion.
"""

import math
import subprocess
import sys
import time

import numpy as np

from okmlib import (
    Dissimilarity,
    DissimilarityKind,
    KernelKind,
    KernelSpec,
    OkmConfig,
    PolicyKind,
    SignificancePolicy,
    SymMatrix,
    SyntheticSpec,
    dissim,
    estimate_k,
    generate_synthetic,
    gram,
    jacobi_eigen,
    kernel_distance_sq,
    objective,
    pair_metrics,
    run_okm,
    save_csv,
)
from okmlib.cli import aggregates, run_experiment

BASE_SEED = 650
RESTARTS = 10

# reference mean F-measures for the 10-restart Iris protocol (k = 3)
REFERENCE_MEAN_F = {
    "euclidean": 0.815,
    "idiv": 0.834,
    "rbf150": 0.830,
    "poly025": 0.892,
}
MEAN_F_TOLERANCE = 0.08


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def iris_measures():
    return {
        "euclidean": Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN),
        "idiv": Dissimilarity(DissimilarityKind.I_DIVERGENCE),
        "rbf150": Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                                kernel=KernelSpec(KernelKind.RBF, sigma=150.0)),
        "poly025": Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                                 kernel=KernelSpec(KernelKind.POLYNOMIAL, degree=0.25)),
    }


def test_criterion_1_iris_spectrum_and_estimate(iris):
    started = time.monotonic()
    g = gram(KernelSpec(KernelKind.RBF, sigma=150.0), iris)
    estimates = {}
    for kind in (PolicyKind.LARGEST_EIGENGAP, PolicyKind.RATIO_THRESHOLD):
        rep = estimate_k(g, SignificancePolicy(kind=kind))
        estimates[kind.value] = rep.estimated_k
    elapsed = time.monotonic() - started

    lam = rep.eigenvalues
    ok = (
        all(k in (2, 3) for k in estimates.values())
        and lam[2] / lam[0] < lam[1] / lam[0]
        and lam[3] < 0.5 * lam[2]
        and elapsed < 5.0
    )
    report("1 spectrum estimation on iris (rbf sigma=150)", ok,
           f"estimates={estimates} lam1..4={[f'{v:.3e}' for v in lam[:4]]} "
           f"elapsed={elapsed:.2f}s")


def test_criterion_2_block_diagonal_oracle(spectra_recorder):
    # Four fixed size layouts, then three drawn with seed 12345 for each of 2-5 blocks.
    cases = spectra_recorder.block_layouts()
    failures = []
    for sizes in cases:
        g = spectra_recorder.ones_blocks(sizes)
        for kind in (PolicyKind.LARGEST_EIGENGAP, PolicyKind.RATIO_THRESHOLD):
            got = estimate_k(g, SignificancePolicy(kind=kind)).estimated_k
            if got != len(sizes):
                failures.append((sizes, kind.value, got))
    report("2 block-diagonal estimate is exact", not failures,
           f"{len(cases)} size layouts x 2 policies; failures={failures}")


def test_criterion_3_iris_restart_protocol(iris):
    started = time.monotonic()
    means = {}
    for name, measure in iris_measures().items():
        runs = run_experiment(iris, OkmConfig(k=3, dissimilarity=measure, seed=BASE_SEED),
                              RESTARTS)
        means[name] = aggregates(runs)["mean"]["f_measure"]
    elapsed = time.monotonic() - started

    deltas = {name: abs(means[name] - REFERENCE_MEAN_F[name]) for name in means}
    ok = (
        all(d <= MEAN_F_TOLERANCE for d in deltas.values())
        and means["poly025"] > means["euclidean"]
        and elapsed < 60.0
    )
    detail = " ".join(f"{n}={means[n]:.3f}(d={deltas[n]:.3f})" for n in means)
    report("3 iris table reproduction within +/-0.08", ok,
           f"{detail} poly>euclid={means['poly025'] > means['euclidean']} "
           f"elapsed={elapsed:.1f}s")


def test_criterion_4_objective_monotone():
    rng = np.random.default_rng(44)
    sq = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
    worst_rel = 0.0
    monotone = True
    for _ in range(100):
        n = int(rng.integers(4, 51))
        p = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 4) + 1))
        data = rng.standard_normal((n, p)) * rng.uniform(0.5, 4.0)
        trace = []
        cov = run_okm(data, OkmConfig(k=k, dissimilarity=sq, seed=int(rng.integers(0, 10_000))),
                      on_iteration=lambda i, j: trace.append(j))
        monotone = monotone and all(b <= a for a, b in zip(trace, trace[1:]))
        recomputed = objective(cov, sq, data)
        worst_rel = max(worst_rel, abs(cov.objective - recomputed) / max(recomputed, 1e-300))
    ok = monotone and worst_rel <= 1e-9
    report("4 objective monotone, final J consistent", ok,
           f"monotone={monotone} worst_rel={worst_rel:.2e}")


def test_criterion_5_kernel_distance_identity():
    rng = np.random.default_rng(55)
    sq = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
    linear = KernelSpec(KernelKind.LINEAR)
    worst_rbf = 0.0
    worst_lin = 0.0
    for _ in range(1000):
        p = int(rng.integers(1, 7))
        x = rng.standard_normal(p)
        y = rng.standard_normal(p)
        sigma = float(rng.uniform(0.5, 20.0))
        d2 = float(np.sum((x - y) ** 2))
        got = kernel_distance_sq(KernelSpec(KernelKind.RBF, sigma=sigma), x, y)
        worst_rbf = max(worst_rbf, abs(got - (2.0 - 2.0 * math.exp(-d2 / sigma**2))))
        worst_lin = max(worst_lin, abs(kernel_distance_sq(linear, x, y) - dissim(sq, x, y)))
    ok = worst_rbf <= 1e-12 and worst_lin <= 1e-12
    report("5 kernel-induced distance identities", ok,
           f"worst_rbf={worst_rbf:.2e} worst_linear={worst_lin:.2e}")


def test_criterion_6_pair_metric_oracle():
    rng = np.random.default_rng(66)
    failures = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        k = int(rng.integers(1, 5))
        pred = [set(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
                for _ in range(n)]
        true = [set(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
                for _ in range(n)]
        m = pair_metrics(pred, true)
        ncilp = nilp = ntlp = 0
        for i in range(n):
            for j in range(i + 1, n):
                a = bool(pred[i] & pred[j])
                b = bool(true[i] & true[j])
                nilp += a
                ntlp += b
                ncilp += a and b
        precision = ncilp / nilp if nilp else (1.0 if ntlp == 0 else 0.0)
        recall = ncilp / ntlp if ntlp else (1.0 if nilp == 0 else 0.0)
        f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        if (m.ncilp, m.nilp, m.ntlp) != (ncilp, nilp, ntlp):
            failures += 1
        elif (abs(m.precision - precision) > 1e-15 or abs(m.recall - recall) > 1e-15
              or abs(m.f_measure - f) > 1e-15):
            failures += 1
    report("6 pair metrics match all-pairs enumeration", failures == 0,
           f"200 instances, failures={failures}")


def test_criterion_7_eigensolver_correctness():
    rng = np.random.default_rng(77)
    worst_recon = 0.0
    worst_trace = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        a = rng.standard_normal((n, n)) * rng.uniform(0.5, 3.0)
        a = (a + a.T) / 2.0
        dec = jacobi_eigen(SymMatrix(a))
        q, lam = dec.eigenvectors, dec.eigenvalues
        worst_recon = max(worst_recon, float(np.max(np.abs(q @ np.diag(lam) @ q.T - a))))
        worst_trace = max(worst_trace, abs(lam.sum() - np.trace(a)) / n)
    ok = worst_recon <= 1e-8 and worst_trace <= 1e-8
    report("7 eigensolver reconstruction and trace", ok,
           f"worst_recon={worst_recon:.2e} worst_trace_per_n={worst_trace:.2e}")


def test_criterion_8_synthetic_overlap_recovery():
    spec = SyntheticSpec(k=3, points_per_cluster=30, overlap_pairs=((0, 2, 10),),
                         center_separation=10.0, noise_scale=1.0, dimension=2, seed=11)
    data = generate_synthetic(spec)
    assert spec.center_separation >= 10.0 * spec.noise_scale
    sq = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
    scores = []
    for seed in range(BASE_SEED, BASE_SEED + 10):
        cov = run_okm(data, OkmConfig(k=3, dissimilarity=sq, seed=seed))
        scores.append(pair_metrics(cov, data.labels).f_measure)
    wins = sum(1 for f in scores if f >= 0.95)
    report("8 synthetic overlap recovered in >=8/10 restarts", wins >= 8,
           f"wins={wins}/10 scores={[f'{s:.3f}' for s in scores]}")


def _run_cli(args, cwd, env):
    # A numpy RuntimeWarning fails the child, as warnings fail the tests in-process.
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "okmlib.cli", *args],
                          capture_output=True, cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path, child_env):
    data = generate_synthetic(SyntheticSpec(k=2, points_per_cluster=8,
                                            overlap_pairs=((0, 1, 3),),
                                            center_separation=12.0, noise_scale=1.0,
                                            dimension=2, seed=5))
    csv_path = tmp_path / "toy.csv"
    save_csv(data, csv_path)

    invocations = [
        ["estimate-k", "--data", str(csv_path), "--label-col", "last", "--sigma", "6"],
        ["cluster", "--data", str(csv_path), "--label-col", "last", "--k", "2",
         "--seed", "650", "--out", "covering.csv"],
        ["experiment", "--data", str(csv_path), "--k", "2", "--restarts", "4",
         "--seed", "650", "--format", "json"],
        ["experiment", "--data", str(csv_path), "--k", "2", "--restarts", "4",
         "--seed", "650", "--format", "csv"],
    ]
    identical = True
    for args in invocations:
        first = _run_cli(args, tmp_path, child_env)
        file_first = (tmp_path / "covering.csv").read_bytes() if "cluster" == args[0] else None
        second = _run_cli(args, tmp_path, child_env)
        file_second = (tmp_path / "covering.csv").read_bytes() if "cluster" == args[0] else None
        identical = identical and first == second and file_first == file_second
    report("9 repeated cli invocations are byte-identical", identical,
           f"{len(invocations)} invocations checked")
