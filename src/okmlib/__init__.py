"""Overlapping k-means with pluggable dissimilarities.

The pieces: kernel functions and Gram matrices (`kernels`), symmetric
spectra and a reference Jacobi eigensolver (`linalg`), spectrum-based
cluster-count estimation (`model_selection`), the unified dissimilarity
interface (`divergences`), the overlapping clustering algorithm itself
(`okm`), pair-based validation (`evaluation`), and dataset IO plus a
synthetic overlap generator (`dataio`).  The `okm` console script
(`cli`) wires them into an experiment harness.
"""

from .dataio import DataMatrix, SyntheticSpec, generate_synthetic, load_csv, save_covering_csv, save_csv
from .divergences import Dissimilarity, DissimilarityKind, dissim, dissim_rows
from .errors import (
    DimensionMismatch,
    DomainError,
    EmptyAssignment,
    EmptyFile,
    InsufficientData,
    InvalidSpec,
    NegativeInput,
    NoConvergence,
    ParseError,
    RaggedRows,
)
from .evaluation import LabeledCovering, PairMetrics, linked_pairs, pair_metrics
from .kernels import KernelKind, KernelSpec, gram, kernel_distance_sq, kernel_eval, kernel_rows
from .linalg import EigenDecomposition, SymMatrix, jacobi_eigen, sorted_eigenvalues
from .model_selection import (
    PolicyKind,
    SignificancePolicy,
    SpectrumReport,
    estimate_k,
    significant_count,
)
from .okm import Covering, OkmConfig, assign_point, image, objective, run_okm, update_prototypes

__version__ = "0.1.0"
