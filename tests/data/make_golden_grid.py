"""Record the wide golden grid of OKM outcomes that tests/test_golden.py replays.

    PYTHONPATH=src python tests/data/make_golden_grid.py

Runs `run_okm` on every case below and writes `golden_grid.json` next to
this file, one line.  A finished run stores one membership bitmask per
point (bit c set when the point belongs to cluster c), its `n_iter`, its
objective J and its pair counts (NCILP, NILP, NTLP) against the sample's
labels; a run that raises stores the exception's class and message.
Prototypes are not stored: a polynomial inner product's BLAS rounding
may differ across machines, and the outcomes above show any change that
matters.

Cases, each under seven measure variants and seeds 0 and 650:
  * Iris (data/iris.csv) at k = 1, 3, 4 and 8: with 2^k <= n the run
    takes the all-subset distances at k <= 3 and the subset table at
    k = 4; at k = 8 it adds masked sums.
  * The first 63, 64 and 65 points of a synthetic sample at p = 2 and
    k = 6: n * 2^k * p is 8 192 (all-subset) at n = 64 and 8 320 (table)
    at n = 65, and at n = 63, 2^k > n (masked).
  * 65-point synthetic samples at p = 1, 7, 8, 9, 17, 128 and 129 (the
    lane orders of `linalg.row_sum` and the batch past 128 features), at
    k = 1, 2, 3 and 7.
The measures are euclidean, rbf sigma = 5, poly degree 0.25 and 2 and
linear on the data's signed values, and idiv and poly degree 0.25 on
their absolute values.  On the signed samples the fractional degree
meets negative bases, so most of those runs record a DomainError.
"""

import json
from pathlib import Path

import numpy as np

from okmlib import (
    Dissimilarity,
    DissimilarityKind,
    KernelKind,
    KernelSpec,
    LabeledCovering,
    OkmConfig,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    pair_metrics,
    run_okm,
)

HERE = Path(__file__).resolve().parent
IRIS_PATH = HERE.parent.parent / "data" / "iris.csv"
GOLDEN_PATH = HERE / "golden_grid.json"


def _kernel(kind, **parameters):
    return Dissimilarity(DissimilarityKind.KERNEL_INDUCED, kernel=KernelSpec(kind, **parameters))


MEASURES = {
    "euclidean": Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN),
    "idiv": Dissimilarity(DissimilarityKind.I_DIVERGENCE),
    "rbf5": _kernel(KernelKind.RBF, sigma=5.0),
    "poly025": _kernel(KernelKind.POLYNOMIAL, degree=0.25),
    "poly2": _kernel(KernelKind.POLYNOMIAL, degree=2.0),
    "linear": _kernel(KernelKind.LINEAR),
}
# (measure, whether it runs on the data's absolute values)
VARIANTS = (("euclidean", False), ("idiv", True), ("rbf5", False), ("poly025", False),
            ("poly025", True), ("poly2", False), ("linear", False))
SEEDS = (0, 650)
WIDTHS = (1, 7, 8, 9, 17, 128, 129)


def _sample(p):
    """65 points in three clusters of 20 and five overlap points, p features."""
    return generate_synthetic(SyntheticSpec(k=3, points_per_cluster=20,
                                            overlap_pairs=((0, 1, 2), (1, 2, 2), (2, 0, 1)),
                                            dimension=p, seed=p))


def datasets():
    """(name, values, labels, k values) for every dataset of the grid."""
    iris = load_csv(IRIS_PATH, label_column="last")
    yield "iris", iris.values, iris.labels, (1, 3, 4, 8)
    sample = _sample(2)
    for n in (63, 64, 65):
        yield f"p2n{n}", sample.values[:n], LabeledCovering(sample.labels.label_sets[:n]), (6,)
    for p in WIDTHS:
        sample = _sample(p)
        yield f"p{p}", sample.values, sample.labels, (1, 2, 3, 7)


def cases():
    """(dataset name, values, labels, measure name, absolute, k, seed) for every recorded run."""
    for name, values, labels, ks in datasets():
        for measure, absolute in VARIANTS:
            measured = np.abs(values) if absolute else values
            for k in ks:
                for seed in SEEDS:
                    yield name, measured, labels, measure, absolute, k, seed


def bitmasks(memberships):
    """One int per row of an (n, k) bool matrix, bit c set for column c."""
    return (memberships @ (1 << np.arange(memberships.shape[1]))).tolist()


def outcome(values, labels, measure, k, seed):
    """What the grid records of one run: its covering's outcome or its exception."""
    try:
        cov = run_okm(values, OkmConfig(k=k, dissimilarity=MEASURES[measure], seed=seed))
    except Exception as error:
        return {"error": type(error).__name__, "message": str(error)}
    counts = pair_metrics(cov, labels)
    return {"memberships": bitmasks(cov.memberships), "n_iter": cov.n_iter,
            "objective": cov.objective, "pairs": [counts.ncilp, counts.nilp, counts.ntlp]}


def main():
    runs = [{"dataset": name, "measure": measure, "absolute": absolute, "k": k, "seed": seed,
             **outcome(values, labels, measure, k, seed)}
            for name, values, labels, measure, absolute, k, seed in cases()]
    GOLDEN_PATH.write_text(json.dumps({"runs": runs}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
