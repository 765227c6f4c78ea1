"""Experiment harness: estimate k, run clusterings, report restarts.

Subcommands:

    estimate-k   print the Gram spectrum and the estimated cluster count
    cluster      one clustering run, covering written as CSV
    experiment   restarts from consecutive seeds with pair metrics
                 against ground truth, reported as table / csv / json

Exit codes, all mapped in main(): 0 ok, 2 usage trouble, an invalid
flag or input, or a failed load or write, 3 eigensolver failure, 4 fewer
points than clusters, 5 ground truth missing.  All output is
deterministic given identical flags: seeds are explicit, formats are
fixed, and files are written atomically (temp + rename).
"""

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dataio import _atomic_write, load_csv, save_covering_csv
from .divergences import Dissimilarity, DissimilarityKind, dissim_rows
from .errors import DomainError, InsufficientData, InvalidSpec, NegativeInput, NoConvergence
from .evaluation import pair_metrics
from .kernels import KernelKind, KernelSpec, gram
from .linalg import row_blocks, sequential_sum
from .model_selection import PolicyKind, SignificancePolicy, estimate_k
from .okm import OkmConfig, run_okm

SPECTRUM_PRINT_LIMIT = 20

_SQUARED_EUCLIDEAN = Dissimilarity(DissimilarityKind.SQUARED_EUCLIDEAN)


class PathError(Exception):
    """Loading the input or writing the output failed; the message names the path."""


class MissingLabels(Exception):
    """The dataset of an experiment has no ground-truth label column."""


@dataclass(frozen=True)
class ExperimentConfig:
    measure: Dissimilarity
    k: int | None
    restarts: int
    base_seed: int
    max_iter: int
    rel_tol: float
    policy: SignificancePolicy
    estimation_kernel: KernelSpec | None  # read only when k is None
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
        for stat, fn in (("min", min), ("max", max), ("mean", lambda v: sequential_sum(v) / len(v))):
            out[stat] = {name: fn(vals) for name, vals in columns.items()}
        return out


@np.errstate(over="ignore")  # an overflowing distance is inf, and an inf median is rejected
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
    sigma = float(np.median(dist)) if dist.size else 1.0
    if not np.isfinite(sigma):
        raise DomainError(f"median sigma is {sigma}: the pairwise distances overflow")
    return sigma


def _parse_label_col(text):
    if text is None or text.upper() == "NONE":
        return None
    if text == "last":
        return "last"
    return int(text)


def _kernel_spec(kind, args, values):
    sigma = args.sigma
    if sigma is None:
        sigma = _median_heuristic_sigma(values) if kind == KernelKind.RBF else 1.0
    return KernelSpec(kind=kind, sigma=sigma, degree=args.degree)


def _dissimilarity(args, values):
    kind = DissimilarityKind(args.measure)
    if kind == DissimilarityKind.KERNEL_INDUCED:
        return Dissimilarity(kind=kind, kernel=_kernel_spec(KernelKind(args.kernel), args, values))
    return Dissimilarity(kind=kind)


def _kernel_param(spec: KernelSpec):
    """The kernel's one parameter as (name, `%g` text), or None for the linear kernel."""
    if spec.kind == KernelKind.RBF:
        return "sigma", f"{spec.sigma:g}"
    if spec.kind == KernelKind.POLYNOMIAL:
        return "degree", f"{spec.degree:g}"
    return None


def _measure_label(d: Dissimilarity):
    if d.kind != DissimilarityKind.KERNEL_INDUCED:
        return d.kind.value
    param = _kernel_param(d.kernel)
    suffix = f"({param[0]}={param[1]})" if param else ""
    return f"{d.kind.value}:{d.kernel.kind.value}{suffix}"


def _load(args):
    # ParseError, RaggedRows and EmptyFile are ValueErrors, as is a bad --label-col.
    try:
        return load_csv(args.data, label_column=_parse_label_col(args.label_col),
                        label_separator=args.label_sep)
    except (OSError, ValueError) as exc:
        raise PathError(f"cannot load {args.data}: {exc}") from exc


@contextmanager
def _writing(path):
    try:
        yield
    except OSError as exc:
        raise PathError(f"cannot write {path}: {exc}") from exc


# ----------------------------------------------------------------- estimate-k


def _print_spectrum(title, values):
    shown = min(SPECTRUM_PRINT_LIMIT, len(values))
    print(f"{title} (top {shown} of {len(values)}):")
    for i in range(shown):
        print(f"  {i + 1:3d}  {values[i]: .9e}")


def cmd_estimate_k(args):
    data = _load(args)
    policy = SignificancePolicy(kind=PolicyKind(args.policy), tau=args.tau)
    spec = _kernel_spec(KernelKind(args.kernel), args, data.values)
    report = estimate_k(gram(spec, data), policy)

    param = _kernel_param(spec)
    suffix = f"  {param[0]} = {param[1]}" if param else ""
    print(f"n = {data.n}  kernel = {args.kernel}{suffix}  policy = {args.policy}")
    print(f"estimated_k = {report.estimated_k}")
    _print_spectrum("eigenvalues", report.eigenvalues)
    _print_spectrum("centered eigenvalues", report.centered_eigenvalues)
    return 0


# --------------------------------------------------------------------- cluster


def cmd_cluster(args):
    data = _load(args)
    measure = _dissimilarity(args, data.values)
    config = OkmConfig(k=args.k, dissimilarity=measure, max_iter=args.max_iter,
                       rel_tol=args.rel_tol, seed=args.seed)
    covering = run_okm(data, config)
    with _writing(args.out):
        save_covering_csv(covering, args.out)
    print(f"k = {covering.k}  measure = {_measure_label(measure)}  seed = {args.seed}")
    print(f"J = {covering.objective:.9g}")
    print(f"iterations = {covering.n_iter}")
    print(f"covering written to {args.out}")
    return 0


# ------------------------------------------------------------------ experiment


def _experiment_worker(payload):
    values, labels, config = payload
    covering = run_okm(values, config)
    metrics = pair_metrics(covering, labels)
    return RunRow(seed=config.seed, objective=covering.objective,
                  precision=metrics.precision, recall=metrics.recall,
                  f_measure=metrics.f_measure)


def _worker_count(jobs, restarts):
    """Processes worth starting: never more than the restarts or the CPUs."""
    return min(jobs, restarts, os.cpu_count() or 1)


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
    payloads = [(data.values, data.labels,
                 OkmConfig(k=k, dissimilarity=config.measure, max_iter=config.max_iter,
                           rel_tol=config.rel_tol, seed=config.base_seed + i))
                for i in range(config.restarts)]
    workers = _worker_count(config.jobs, config.restarts)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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


_RENDERERS = {"csv": _render_csv, "json": _render_json, "table": _render_table}


def cmd_experiment(args):
    data = _load(args)
    if data.labels is None:
        raise MissingLabels("experiment needs ground-truth labels (see --label-col)")
    measure = _dissimilarity(args, data.values)
    estimation_kernel = measure.kernel  # None unless the measure is kernel-induced
    if args.k is None and estimation_kernel is None:
        estimation_kernel = _kernel_spec(KernelKind.RBF, args, data.values)
    config = ExperimentConfig(
        measure=measure,
        k=args.k,
        restarts=args.restarts,
        base_seed=args.seed,
        max_iter=args.max_iter,
        rel_tol=args.rel_tol,
        policy=SignificancePolicy(kind=PolicyKind(args.policy), tau=args.tau),
        estimation_kernel=estimation_kernel,
        jobs=args.jobs,
    )
    report = run_experiment(data, config)

    text = _RENDERERS[args.format](report)
    if args.format == "csv" and report.estimated_k is not None:
        print(f"estimated_k = {report.estimated_k}", file=sys.stderr)

    if args.out:
        with _writing(args.out):
            _atomic_write(args.out, lambda handle: handle.write(text))
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
        p.add_argument("--kernel", choices=sorted(kind.value for kind in KernelKind), default="rbf")
        p.add_argument("--sigma", type=float, default=None,
                       help="rbf bandwidth (default: median pairwise distance)")
        p.add_argument("--degree", type=float, default=2.0, help="polynomial exponent")

    def add_measure_args(p):
        p.add_argument("--measure", choices=sorted(kind.value for kind in DissimilarityKind),
                       default="euclidean")
        add_kernel_args(p)

    def add_okm_args(p):
        p.add_argument("--max-iter", type=int, default=100)
        p.add_argument("--rel-tol", type=float, default=1e-6)

    def add_policy_args(p):
        p.add_argument("--policy", choices=sorted(kind.value for kind in PolicyKind), default="eigengap")
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
    p_exp.add_argument("--format", choices=sorted(_RENDERERS), default="table")
    p_exp.add_argument("--jobs", type=int, default=1, help="parallel restarts")
    p_exp.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    """Run one subcommand; the only place where an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NoConvergence as exc:
        code, message = 3, f"eigensolver failed: {exc}"
    except InsufficientData as exc:
        code, message = 4, exc
    except MissingLabels as exc:
        code, message = 5, exc
    except (InvalidSpec, DomainError, NegativeInput, PathError) as exc:
        code, message = 2, exc
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
