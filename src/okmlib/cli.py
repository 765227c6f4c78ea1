"""Experiment harness: estimate k, run clusterings, report restarts.

Subcommands:

    estimate-k   print the Gram spectrum and the estimated cluster count
    cluster      one clustering run, covering written as CSV
    experiment   restarts from consecutive seeds with pair metrics
                 against ground truth, reported as table / csv / json

Exit codes: 0 ok, 2 load/parse/usage trouble, 3 eigensolver failure,
4 fewer points than clusters, 5 ground truth missing.  All output is
deterministic given identical flags: seeds are explicit, formats are
fixed, and files are written atomically (temp + rename).
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataio import load_csv, save_covering_csv
from .divergences import Dissimilarity, DissimilarityKind, dissim_rows
from .errors import (
    DomainError,
    EmptyFile,
    InsufficientData,
    InvalidSpec,
    NegativeInput,
    NoConvergence,
    ParseError,
    RaggedRows,
)
from .evaluation import pair_metrics
from .kernels import KernelKind, KernelSpec, gram
from .linalg import row_blocks
from .model_selection import PolicyKind, SignificancePolicy, estimate_k
from .okm import OkmConfig, run_okm

SPECTRUM_PRINT_LIMIT = 20

_MEASURES = {
    "euclidean": DissimilarityKind.SQUARED_EUCLIDEAN,
    "idiv": DissimilarityKind.I_DIVERGENCE,
    "kernel": DissimilarityKind.KERNEL_INDUCED,
}
_SQUARED_EUCLIDEAN = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)
_KERNELS = {"rbf": KernelKind.RBF, "poly": KernelKind.POLYNOMIAL, "linear": KernelKind.LINEAR}
_POLICIES = {"eigengap": PolicyKind.LARGEST_EIGENGAP, "ratio": PolicyKind.RATIO_THRESHOLD}


@dataclass(frozen=True)
class ExperimentConfig:
    data_path: str
    label_column: object
    label_separator: str
    measure: Dissimilarity
    k: int | None
    restarts: int
    base_seed: int
    max_iter: int
    rel_tol: float
    policy: SignificancePolicy
    estimation_kernel: KernelSpec | None  # read only when k is None
    output_format: str
    jobs: int

    def __post_init__(self):
        if self.restarts < 1:
            raise InvalidSpec(f"restarts must be >= 1, got {self.restarts}")
        if self.jobs < 1:
            raise InvalidSpec(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class RunRow:
    seed: int
    objective: float
    precision: float
    recall: float
    f_measure: float


@dataclass(frozen=True)
class ExperimentReport:
    measure_label: str
    k: int
    restarts: int
    base_seed: int
    rows: tuple
    estimated_k: int | None = None
    spectrum: tuple | None = None

    def aggregates(self):
        """min/max/mean per column, recomputed from the rows."""
        columns = {
            "seed": [float(r.seed) for r in self.rows],
            "objective": [r.objective for r in self.rows],
            "precision": [r.precision for r in self.rows],
            "recall": [r.recall for r in self.rows],
            "f_measure": [r.f_measure for r in self.rows],
        }
        out = {}
        for stat, fn in (("min", min), ("max", max), ("mean", lambda v: sum(v) / len(v))):
            out[stat] = {name: fn(vals) for name, vals in columns.items()}
        return out


def _median_heuristic_sigma(values):
    # Median of the nonzero pairwise distances; a serviceable default bandwidth.
    # Row blocks bound the (rows, n, p) difference temporary; the n(n-1)/2
    # distances themselves are kept.
    n, p = values.shape
    if n < 2:
        return 1.0
    parts = []
    for start, stop in row_blocks(n - 1, n * p):
        d2 = dissim_rows(_SQUARED_EUCLIDEAN, values[start:stop, None, :], values[None, start:, :])
        upper = np.arange(start, n)[None, :] > np.arange(start, stop)[:, None]
        parts.append(np.sqrt(d2[upper]))
    dist = np.concatenate(parts)
    dist = dist[dist > 0]
    return float(np.median(dist)) if dist.size else 1.0


def _parse_label_col(text):
    if text is None or text.upper() == "NONE":
        return None
    if text == "last":
        return "last"
    return int(text)


def _kernel_spec(args, values):
    kind = _KERNELS[args.kernel]
    sigma = args.sigma
    if sigma is None:
        sigma = _median_heuristic_sigma(values) if kind == KernelKind.RBF else 1.0
    return KernelSpec(kind=kind, sigma=sigma, degree=args.degree)


def _dissimilarity(args, values):
    kind = _MEASURES[args.measure]
    if kind == DissimilarityKind.KERNEL_INDUCED:
        return Dissimilarity(kind=kind, kernel=_kernel_spec(args, values))
    return Dissimilarity(kind=kind)


def _measure_label(d: Dissimilarity):
    if d.kind == DissimilarityKind.SQUARED_EUCLIDEAN:
        return "euclidean"
    if d.kind == DissimilarityKind.I_DIVERGENCE:
        return "idiv"
    spec = d.kernel
    if spec.kind == KernelKind.RBF:
        return f"kernel:rbf(sigma={spec.sigma:g})"
    if spec.kind == KernelKind.POLYNOMIAL:
        return f"kernel:poly(degree={spec.degree:g})"
    return "kernel:linear"


def _load(args):
    try:
        return load_csv(args.data, label_column=_parse_label_col(args.label_col),
                        label_separator=args.label_sep), 0
    except (OSError, ParseError, RaggedRows, EmptyFile, ValueError) as exc:
        print(f"error: cannot load {args.data}: {exc}", file=sys.stderr)
        return None, 2


def _write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ----------------------------------------------------------------- estimate-k


def _spectrum_lines(title, values):
    shown = min(SPECTRUM_PRINT_LIMIT, len(values))
    lines = [f"{title} (top {shown} of {len(values)}):"]
    for i in range(shown):
        lines.append(f"  {i + 1:3d}  {values[i]: .9e}")
    return lines


def cmd_estimate_k(args):
    data, code = _load(args)
    if data is None:
        return code
    if data.n < 2:
        print("error: need at least 2 points to estimate k", file=sys.stderr)
        return 2
    try:
        policy = SignificancePolicy(kind=_POLICIES[args.policy], tau=args.tau)
        spec = _kernel_spec(args, data.values)
        g = gram(spec, data)
    except (InvalidSpec, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = estimate_k(g, policy)
    except NoConvergence as exc:
        print(f"error: eigensolver failed: {exc}", file=sys.stderr)
        return 3

    kernel_desc = f"kernel = {args.kernel}"
    if spec.kind == KernelKind.RBF:
        kernel_desc += f"  sigma = {spec.sigma:g}"
    elif spec.kind == KernelKind.POLYNOMIAL:
        kernel_desc += f"  degree = {spec.degree:g}"
    print(f"n = {data.n}  {kernel_desc}  policy = {args.policy}")
    print(f"estimated_k = {report.estimated_k}")
    for line in _spectrum_lines("eigenvalues", report.eigenvalues):
        print(line)
    for line in _spectrum_lines("centered eigenvalues", report.centered_eigenvalues):
        print(line)
    return 0


# --------------------------------------------------------------------- cluster


def cmd_cluster(args):
    data, code = _load(args)
    if data is None:
        return code
    try:
        measure = _dissimilarity(args, data.values)
        config = OkmConfig(k=args.k, dissimilarity=measure, max_iter=args.max_iter,
                           rel_tol=args.rel_tol, seed=args.seed)
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        covering = run_okm(data, config)
    except InsufficientData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, NegativeInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        save_covering_csv(covering, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"k = {covering.k}  measure = {_measure_label(measure)}  seed = {args.seed}")
    print(f"J = {covering.objective:.9g}")
    print(f"iterations = {covering.n_iter}")
    print(f"covering written to {args.out}")
    return 0


# ------------------------------------------------------------------ experiment


def _experiment_worker(payload):
    values, labels, config = payload
    covering = run_okm(values, config)
    metrics = pair_metrics(covering.assignments, labels)
    return RunRow(seed=config.seed, objective=covering.objective,
                  precision=metrics.precision, recall=metrics.recall,
                  f_measure=metrics.f_measure)


def run_experiment(data, config: ExperimentConfig) -> ExperimentReport:
    """Execute the restart protocol for one measure on a labeled dataset."""
    if data.labels is None:
        raise ValueError("experiment needs ground-truth labels")

    estimated_k = None
    spectrum = None
    k = config.k
    if k is None:
        report = estimate_k(gram(config.estimation_kernel, data), config.policy)
        estimated_k = report.estimated_k
        spectrum = tuple(float(v) for v in report.eigenvalues)
        k = estimated_k

    # Every restart's OkmConfig is built (and validated) before any run starts.
    payloads = [(data.values, data.labels.label_sets,
                 OkmConfig(k=k, dissimilarity=config.measure, max_iter=config.max_iter,
                           rel_tol=config.rel_tol, seed=config.base_seed + i))
                for i in range(config.restarts)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(_experiment_worker, payloads))
    else:
        rows = [_experiment_worker(p) for p in payloads]
    rows.sort(key=lambda r: r.seed)

    return ExperimentReport(measure_label=_measure_label(config.measure), k=k,
                            restarts=config.restarts, base_seed=config.base_seed,
                            rows=tuple(rows), estimated_k=estimated_k, spectrum=spectrum)


def _render_table(report: ExperimentReport):
    out = io.StringIO()
    out.write(f"measure = {report.measure_label}  k = {report.k}  "
              f"restarts = {report.restarts}  base_seed = {report.base_seed}\n")
    if report.estimated_k is not None:
        top = ", ".join(f"{v:.6g}" for v in report.spectrum[:5])
        out.write(f"k estimated from spectrum: {report.estimated_k} (top eigenvalues: {top})\n")
    out.write("\n")
    out.write(f"{'seed':>6s}  {'objective':>14s}  {'precision':>9s}  {'recall':>9s}  {'f-measure':>9s}\n")
    for r in report.rows:
        out.write(f"{r.seed:>6d}  {r.objective:>14.6f}  {r.precision:>9.4f}  "
                  f"{r.recall:>9.4f}  {r.f_measure:>9.4f}\n")
    out.write("\n")
    agg = report.aggregates()
    out.write(f"{'':>6s}  {'precision':>9s}  {'recall':>9s}  {'f-measure':>9s}  {'objective':>14s}\n")
    for stat in ("min", "max", "mean"):
        a = agg[stat]
        out.write(f"{stat:>6s}  {a['precision']:>9.4f}  {a['recall']:>9.4f}  "
                  f"{a['f_measure']:>9.4f}  {a['objective']:>14.6f}\n")
    return out.getvalue()


def _render_csv(report: ExperimentReport):
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["kind", "seed", "objective", "precision", "recall", "f_measure"])
    for r in report.rows:
        writer.writerow(["run", r.seed, repr(r.objective), repr(r.precision),
                         repr(r.recall), repr(r.f_measure)])
    agg = report.aggregates()
    for stat in ("min", "max", "mean"):
        a = agg[stat]
        writer.writerow([stat, repr(a["seed"]), repr(a["objective"]), repr(a["precision"]),
                         repr(a["recall"]), repr(a["f_measure"])])
    return out.getvalue()


def _render_json(report: ExperimentReport):
    doc = {
        "measure": report.measure_label,
        "k": report.k,
        "restarts": report.restarts,
        "base_seed": report.base_seed,
        "runs": [
            {"seed": r.seed, "objective": r.objective, "precision": r.precision,
             "recall": r.recall, "f_measure": r.f_measure}
            for r in report.rows
        ],
        "aggregates": report.aggregates(),
    }
    if report.estimated_k is not None:
        doc["estimated_k"] = report.estimated_k
        doc["spectrum"] = list(report.spectrum)
    return json.dumps(doc, indent=2) + "\n"


def cmd_experiment(args):
    data, code = _load(args)
    if data is None:
        return code
    if data.labels is None:
        print("error: experiment needs ground-truth labels (see --label-col)", file=sys.stderr)
        return 5
    try:
        measure = _dissimilarity(args, data.values)
        estimation_kernel = None
        if args.k is None:
            if measure.kind == DissimilarityKind.KERNEL_INDUCED:
                estimation_kernel = measure.kernel
            else:
                sigma = args.sigma if args.sigma is not None else _median_heuristic_sigma(data.values)
                estimation_kernel = KernelSpec(kind=KernelKind.RBF, sigma=sigma)
        config = ExperimentConfig(
            data_path=args.data,
            label_column=_parse_label_col(args.label_col),
            label_separator=args.label_sep,
            measure=measure,
            k=args.k,
            restarts=args.restarts,
            base_seed=args.seed,
            max_iter=args.max_iter,
            rel_tol=args.rel_tol,
            policy=SignificancePolicy(kind=_POLICIES[args.policy], tau=args.tau),
            estimation_kernel=estimation_kernel,
            output_format=args.format,
            jobs=args.jobs,
        )
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(data, config)
    except NoConvergence as exc:
        print(f"error: eigensolver failed: {exc}", file=sys.stderr)
        return 3
    except InsufficientData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (InvalidSpec, DomainError, NegativeInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "table":
        text = _render_table(report)
    elif args.format == "csv":
        text = _render_csv(report)
        if report.estimated_k is not None:
            print(f"estimated_k = {report.estimated_k}", file=sys.stderr)
    else:
        text = _render_json(report)

    if args.out:
        try:
            _write_text(args.out, text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(prog="okm",
                                     description="Overlapping k-means experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p, label_default):
        p.add_argument("--data", required=True, help="CSV dataset path")
        p.add_argument("--label-col", default=label_default,
                       help="label column: last, NONE, or a 0-based index")
        p.add_argument("--label-sep", default="|", metavar="CHAR",
                       help="separator inside multi-label cells")

    def add_kernel_args(p):
        p.add_argument("--kernel", choices=sorted(_KERNELS), default="rbf")
        p.add_argument("--sigma", type=float, default=None,
                       help="rbf bandwidth (default: median pairwise distance)")
        p.add_argument("--degree", type=float, default=2.0, help="polynomial exponent")

    def add_measure_args(p):
        p.add_argument("--measure", choices=sorted(_MEASURES), default="euclidean")
        add_kernel_args(p)

    def add_okm_args(p):
        p.add_argument("--max-iter", type=int, default=100)
        p.add_argument("--rel-tol", type=float, default=1e-6)

    def add_policy_args(p):
        p.add_argument("--policy", choices=sorted(_POLICIES), default="eigengap")
        p.add_argument("--tau", type=float, default=0.05,
                       help="significance threshold for the ratio policy")

    p_est = sub.add_parser("estimate-k", help="estimate the cluster count from the Gram spectrum")
    add_data_args(p_est, "NONE")
    add_kernel_args(p_est)
    add_policy_args(p_est)
    p_est.set_defaults(func=cmd_estimate_k)

    p_clu = sub.add_parser("cluster", help="run one overlapping clustering")
    add_data_args(p_clu, "NONE")
    add_measure_args(p_clu)
    p_clu.add_argument("--k", type=int, required=True)
    p_clu.add_argument("--seed", type=int, default=650)
    add_okm_args(p_clu)
    p_clu.add_argument("--out", default="covering.csv", help="covering CSV path")
    p_clu.set_defaults(func=cmd_cluster)

    p_exp = sub.add_parser("experiment", help="restart protocol with pair metrics")
    add_data_args(p_exp, "last")
    add_measure_args(p_exp)
    p_exp.add_argument("--k", type=int, default=None,
                       help="cluster count (estimated from the spectrum when omitted)")
    p_exp.add_argument("--restarts", type=int, default=10)
    p_exp.add_argument("--seed", type=int, default=650, help="base seed; run i uses seed+i")
    add_okm_args(p_exp)
    add_policy_args(p_exp)
    p_exp.add_argument("--format", choices=["csv", "json", "table"], default="table")
    p_exp.add_argument("--jobs", type=int, default=1, help="parallel restarts")
    p_exp.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
