"""Record the golden spectra that tests/test_golden.py replays.

    PYTHONPATH=src python tests/data/make_golden_spectra.py

Runs `estimate_k` under both policies on the matrices below and writes
`golden_spectra.json` next to this file, one line.  Each case stores its
rbf sigma (null for the others), its raw and centered spectra and its
`estimated_k` under each policy.  The replay requires each sigma exactly,
each spectrum within SPECTRUM_BOUND times its first value (LAPACK builds
round differently) and every `estimated_k` equal.

Cases:
  * criterion 2's 16 block-diagonal matrices of ones, four fixed size
    layouts and twelve drawn with seed 12345 (tests/test_acceptance.py);
  * Iris (data/iris.csv) under rbf at sigma = 150 and at the median sigma;
  * the 65-point samples of `make_golden_grid.py` at p = 1, 7, 8, 9, 17,
    128 and 129 under rbf at the median sigma, poly degree 2 and linear.
At p = 128 and 129, as at every width, the polynomial and linear Gram
entries are inner products added in `row_sum`'s order, from no BLAS call.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from okmlib import (
    KernelKind,
    KernelSpec,
    PolicyKind,
    SignificancePolicy,
    SymMatrix,
    estimate_k,
    gram,
    load_csv,
)
from okmlib.kernels import median_sigma

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_spectra.json"
SPECTRUM_BOUND = 1e-8
POLICIES = (PolicyKind.LARGEST_EIGENGAP, PolicyKind.RATIO_THRESHOLD)


def _grid():
    spec = importlib.util.spec_from_file_location("make_golden_grid", HERE / "make_golden_grid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def block_layouts():
    """Criterion 2's block sizes: four fixed layouts, then three drawn for each of 2-5 blocks."""
    rng = np.random.default_rng(12345)
    layouts = [[10, 2], [10, 2, 2], [2, 10, 10, 2], [10, 9, 2, 2, 2]]
    for blocks in (2, 3, 4, 5):
        for _ in range(3):
            layouts.append(rng.integers(2, 11, size=blocks).tolist())
    return layouts


def ones_blocks(sizes):
    """The block-diagonal matrix of ones with blocks of the given sizes."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    return SymMatrix((labels[:, None] == labels[None, :]).astype(float))


def cases():
    """(name, sigma or None, SymMatrix) for every recorded case."""
    for sizes in block_layouts():
        yield "blocks-" + "-".join(map(str, sizes)), None, ones_blocks(sizes)
    grid = _grid()
    iris = load_csv(grid.IRIS_PATH, label_column="last")
    for name, sigma in (("150", 150.0), ("median", median_sigma(iris))):
        yield f"iris-rbf{name}", sigma, gram(KernelSpec(KernelKind.RBF, sigma=sigma), iris)
    for p in grid.WIDTHS:
        values = grid._sample(p).values
        sigma = median_sigma(values)
        yield f"p{p}-rbf", sigma, gram(KernelSpec(KernelKind.RBF, sigma=sigma), values)
        for name, spec in (("poly2", KernelSpec(KernelKind.POLYNOMIAL, degree=2.0)),
                           ("linear", KernelSpec(KernelKind.LINEAR))):
            yield f"p{p}-{name}", None, gram(spec, values)


def outcome(matrix):
    """The spectra and the estimates of each policy, as the fixture stores them."""
    reports = {kind.value: estimate_k(matrix, SignificancePolicy(kind=kind)) for kind in POLICIES}
    first = reports[POLICIES[0].value]
    return {"eigenvalues": first.eigenvalues.tolist(),
            "centered": first.centered_eigenvalues.tolist(),
            "estimated_k": {policy: report.estimated_k for policy, report in reports.items()}}


def main():
    spectra = [{"name": name, "sigma": sigma, **outcome(matrix)} for name, sigma, matrix in cases()]
    GOLDEN_PATH.write_text(json.dumps({"cases": spectra}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
