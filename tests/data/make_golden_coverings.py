"""Record the golden coverings that tests/test_golden.py replays.

    PYTHONPATH=src python tests/data/make_golden_coverings.py

Runs `run_okm` on the cases below and writes `golden_coverings.json`
next to this file.  Each run stores its assignments as one bitmask per
point (bit c set when the point belongs to cluster c), its `n_iter` and
its objective J.  The checked-in file was recorded with the per-point
reference implementation of OKM, before the batched one replaced it.

Cases:
  * Iris (data/iris.csv), k = 3, seeds 650-659, four measures:
    euclidean, idiv, kernel rbf sigma=150, kernel poly degree=0.25.
  * Synthetic overlap (n = 2200, p = 8, k = 5), euclidean, seeds
    650-652: the input of the benchmark's synthetic-overlap workload.
"""

import json
from pathlib import Path

from okmlib import (
    Dissimilarity,
    DissimilarityKind,
    KernelKind,
    KernelSpec,
    OkmConfig,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    run_okm,
)

HERE = Path(__file__).resolve().parent
IRIS_PATH = HERE.parent.parent / "data" / "iris.csv"
GOLDEN_PATH = HERE / "golden_coverings.json"

MEASURES = {
    "euclidean": Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN),
    "idiv": Dissimilarity(DissimilarityKind.I_DIVERGENCE),
    "rbf150": Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                            kernel=KernelSpec(KernelKind.RBF, sigma=150.0)),
    "poly025": Dissimilarity(DissimilarityKind.KERNEL_INDUCED,
                             kernel=KernelSpec(KernelKind.POLYNOMIAL, degree=0.25)),
}
SYNTHETIC = SyntheticSpec(k=5, points_per_cluster=400,
                          overlap_pairs=((0, 1, 40), (1, 2, 40), (2, 3, 40), (3, 4, 40), (4, 0, 40)),
                          dimension=8, seed=0)


def cases():
    """(dataset name, values, measure name, k, seed) for every recorded run."""
    iris = load_csv(IRIS_PATH, label_column="last").values
    for measure in MEASURES:
        for seed in range(650, 660):
            yield "iris", iris, measure, 3, seed
    synthetic = generate_synthetic(SYNTHETIC).values
    for seed in range(650, 653):
        yield "synthetic", synthetic, "euclidean", 5, seed


def bitmasks(assignments):
    return [sum(1 << c for c in assigned) for assigned in assignments]


def main():
    runs = []
    for dataset, values, measure, k, seed in cases():
        cov = run_okm(values, OkmConfig(k=k, dissimilarity=MEASURES[measure], seed=seed))
        runs.append({"dataset": dataset, "measure": measure, "k": k, "seed": seed,
                     "n_iter": cov.n_iter, "objective": cov.objective,
                     "assignments": bitmasks(cov.assignments)})
    GOLDEN_PATH.write_text(json.dumps({"runs": runs}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
