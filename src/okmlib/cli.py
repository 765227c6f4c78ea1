"""Experiment harness: estimate k, run clusterings, report restarts.

Subcommands:

    estimate-k   print the Gram spectrum and the estimated cluster count
    cluster      one clustering run, covering written as CSV
    experiment   restarts from consecutive seeds with pair metrics
                 against ground truth; the report is one document (the
                 JSON form's dict) that table, csv and json render

Exit codes, all mapped in main(): 0 ok, 2 usage trouble, an invalid
flag or input, or a failed load or write, 3 eigensolver failure, 4 fewer
points than clusters, 5 ground truth missing.  All output is
deterministic given identical flags: seeds are explicit, formats are
fixed, and files are written atomically (temp + rename).  The parser
holds only the invoked subcommand's arguments unless help or an error
needs the whole tree.
"""

import argparse
import csv
import functools
import io
import json
import os
import shutil
import sys
from contextlib import contextmanager
from dataclasses import replace

from .dataio import _atomic_write, load_csv, save_covering_csv
from .divergences import Dissimilarity, DissimilarityKind
from .errors import DomainError, InsufficientData, InvalidSpec, NegativeInput, NoConvergence
from .evaluation import pair_metrics
from .kernels import KernelKind, KernelSpec, gram, median_sigma
from .linalg import sequential_sum
from .model_selection import PolicyKind, SignificancePolicy
# The commands hand over the Gram they built, which is centered in place.  The name stays
# `estimate_k`, the layer the benchmark times by replacing it here.
from .model_selection import _estimate_k_in_place as estimate_k
from .okm import OkmConfig, run_okm

SPECTRUM_PRINT_LIMIT = 20


class PathError(Exception):
    """Loading the input or writing the output failed; the message names the path."""


class MissingLabels(Exception):
    """The dataset of an experiment has no ground-truth label column."""


def _parse_label_col(text):
    if text is None or text.upper() == "NONE":
        return None
    if text == "last":
        return "last"
    try:
        return int(text)
    except ValueError:
        raise InvalidSpec(f"--label-col must be last, NONE or a 0-based index, got {text!r}") from None


def _kernel_spec(kind, args, data):
    sigma = args.sigma
    if sigma is None:
        sigma = median_sigma(data) if kind == KernelKind.RBF else 1.0
    return KernelSpec(kind=kind, sigma=sigma, degree=args.degree)


def _dissimilarity(args, data):
    kind = DissimilarityKind(args.measure)
    if kind == DissimilarityKind.KERNEL_INDUCED:
        return Dissimilarity(kind=kind, kernel=_kernel_spec(KernelKind(args.kernel), args, data))
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
    # A bad flag is no fault of the data file, so it is named before the file is opened.
    if args.label_sep == "":
        raise InvalidSpec("--label-sep must not be empty")
    label_column = _parse_label_col(args.label_col)
    # ParseError, RaggedRows and EmptyFile are ValueErrors, as is a --label-col outside the
    # file's columns; a cell longer than the csv module's field limit is a csv.Error.
    try:
        return load_csv(args.data, label_column=label_column, label_separator=args.label_sep)
    except (OSError, ValueError, csv.Error) as exc:
        raise PathError(f"cannot load {args.data}: {exc}") from exc


@contextmanager
def _writing(path):
    try:
        yield
    except OSError as exc:
        # Only the target is named: the error may name the writer's temp file beside it.
        reason = f"[Errno {exc.errno}] {exc.strerror}" if exc.strerror else exc
        raise PathError(f"cannot write {path}: {reason}") from exc


# ----------------------------------------------------------------- estimate-k


def _spectrum_lines(title, values):
    shown = min(SPECTRUM_PRINT_LIMIT, len(values))
    return [f"{title} (top {shown} of {len(values)}):",
            *(f"  {i + 1:3d}  {values[i]: .9e}" for i in range(shown))]


def cmd_estimate_k(args):
    data = _load(args)
    policy = SignificancePolicy(kind=PolicyKind(args.policy), tau=args.tau)
    spec = _kernel_spec(KernelKind(args.kernel), args, data)
    report = estimate_k(gram(spec, data), policy)

    param = _kernel_param(spec)
    suffix = f"  {param[0]} = {param[1]}" if param else ""
    lines = [f"n = {data.n}  kernel = {args.kernel}{suffix}  policy = {args.policy}",
             f"estimated_k = {report.estimated_k}",
             *_spectrum_lines("eigenvalues", report.eigenvalues),
             *_spectrum_lines("centered eigenvalues", report.centered_eigenvalues)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# --------------------------------------------------------------------- cluster


def cmd_cluster(args):
    data = _load(args)
    measure = _dissimilarity(args, data)
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


def _require_labels(data):
    if data.labels is None:
        raise MissingLabels("experiment needs ground-truth labels (see --label-col)")


def _check_counts(restarts, jobs):
    if restarts < 1:
        raise InvalidSpec(f"restarts must be >= 1, got {restarts}")
    if jobs < 1:
        raise InvalidSpec(f"jobs must be >= 1, got {jobs}")


def _experiment_worker(payload):
    data, config = payload
    covering = run_okm(data, config)
    metrics = pair_metrics(covering, data.labels)
    return {"seed": config.seed, "objective": covering.objective, "precision": metrics.precision,
            "recall": metrics.recall, "f_measure": metrics.f_measure}


def _worker_count(jobs, restarts):
    """Processes worth starting: never more than the restarts or the CPUs this process may run on."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs, restarts, cpus)


def run_experiment(data, config: OkmConfig, restarts, jobs=1):
    """The restart protocol on a labeled dataset: run i clusters with seed config.seed + i.

    Returns one dict per run (seed, objective, precision, recall, f_measure), in seed order.
    """
    _require_labels(data)
    _check_counts(restarts, jobs)
    # Every restart's OkmConfig is built (and validated) before any run starts.
    payloads = [(data, replace(config, seed=config.seed + i)) for i in range(restarts)]
    workers = _worker_count(jobs, restarts)
    if workers > 1:
        # Imported here: a serial run never loads the process pool and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_experiment_worker, payloads))
    return [_experiment_worker(p) for p in payloads]


def aggregates(runs):
    """min/max/mean of each run column (seeds as floats); the mean sums left to right."""
    columns = {name: [run[name] for run in runs] for name in runs[0]}
    columns["seed"] = [float(seed) for seed in columns["seed"]]
    out = {}
    for stat, fn in (("min", min), ("max", max), ("mean", lambda v: sequential_sum(v) / len(v))):
        out[stat] = {name: fn(vals) for name, vals in columns.items()}
    return out


def _render_table(doc):
    out = io.StringIO()
    out.write(f"measure = {doc['measure']}  k = {doc['k']}  "
              f"restarts = {doc['restarts']}  base_seed = {doc['base_seed']}\n")
    if "estimated_k" in doc:
        top = ", ".join(f"{v:.6g}" for v in doc["spectrum"][:5])
        out.write(f"k estimated from spectrum: {doc['estimated_k']} (top eigenvalues: {top})\n")
    out.write("\n")
    out.write(f"{'seed':>6s}  {'objective':>14s}  {'precision':>9s}  {'recall':>9s}  {'f-measure':>9s}\n")
    for r in doc["runs"]:
        out.write(f"{r['seed']:>6d}  {r['objective']:>14.6f}  {r['precision']:>9.4f}  "
                  f"{r['recall']:>9.4f}  {r['f_measure']:>9.4f}\n")
    out.write("\n")
    out.write(f"{'':>6s}  {'precision':>9s}  {'recall':>9s}  {'f-measure':>9s}  {'objective':>14s}\n")
    for stat, a in doc["aggregates"].items():
        out.write(f"{stat:>6s}  {a['precision']:>9.4f}  {a['recall']:>9.4f}  "
                  f"{a['f_measure']:>9.4f}  {a['objective']:>14.6f}\n")
    return out.getvalue()


def _render_csv(doc):
    out = io.StringIO()
    writer = csv.writer(out)
    columns = ["seed", "objective", "precision", "recall", "f_measure"]
    writer.writerow(["kind", *columns])
    for r in doc["runs"]:
        writer.writerow(["run", r["seed"], *(repr(r[c]) for c in columns[1:])])
    for stat, a in doc["aggregates"].items():
        writer.writerow([stat, *(repr(a[c]) for c in columns)])
    return out.getvalue()


def _render_json(doc):
    return json.dumps(doc, indent=2) + "\n"


_RENDERERS = {"csv": _render_csv, "json": _render_json, "table": _render_table}


def cmd_experiment(args):
    data = _load(args)
    _require_labels(data)
    measure = _dissimilarity(args, data)
    estimation_kernel = measure.kernel  # None unless the measure is kernel-induced
    if args.k is None and estimation_kernel is None:
        estimation_kernel = _kernel_spec(KernelKind.RBF, args, data)
    policy = SignificancePolicy(kind=PolicyKind(args.policy), tau=args.tau)
    _check_counts(args.restarts, args.jobs)
    k, estimate = args.k, None
    if k is None:
        estimate = estimate_k(gram(estimation_kernel, data), policy)
        k = estimate.estimated_k
    config = OkmConfig(k=k, dissimilarity=measure, max_iter=args.max_iter,
                       rel_tol=args.rel_tol, seed=args.seed)
    runs = run_experiment(data, config, args.restarts, args.jobs)

    doc = {"measure": _measure_label(measure), "k": k, "restarts": args.restarts,
           "base_seed": args.seed, "runs": runs, "aggregates": aggregates(runs)}
    if estimate is not None:
        doc["estimated_k"] = estimate.estimated_k
        doc["spectrum"] = estimate.eigenvalues.tolist()
    text = _RENDERERS[args.format](doc)
    if args.format == "csv" and estimate is not None:
        print(f"estimated_k = {estimate.estimated_k}", file=sys.stderr)

    if args.out:
        with _writing(args.out):
            _atomic_write(args.out, lambda handle: handle.write(text))
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------- parser


def _add_data_args(p, label_default):
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--label-col", default=label_default,
                   help="label column: last, NONE, or a 0-based index")
    p.add_argument("--label-sep", default="|", metavar="CHAR",
                   help="separator inside multi-label cells")


def _add_kernel_args(p):
    p.add_argument("--kernel", choices=sorted(kind.value for kind in KernelKind), default="rbf")
    p.add_argument("--sigma", type=float, default=None,
                   help="rbf bandwidth (default: median pairwise distance)")
    p.add_argument("--degree", type=float, default=2.0, help="polynomial exponent")


def _add_measure_args(p):
    p.add_argument("--measure", choices=sorted(kind.value for kind in DissimilarityKind),
                   default="euclidean")
    _add_kernel_args(p)


def _add_okm_args(p):
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--rel-tol", type=float, default=1e-6)


def _add_policy_args(p):
    p.add_argument("--policy", choices=sorted(kind.value for kind in PolicyKind), default="eigengap")
    p.add_argument("--tau", type=float, default=0.05,
                   help="significance threshold for the ratio policy")


def _estimate_k_args(p):
    _add_data_args(p, "NONE")
    _add_kernel_args(p)
    _add_policy_args(p)


def _cluster_args(p):
    _add_data_args(p, "NONE")
    _add_measure_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=650)
    _add_okm_args(p)
    p.add_argument("--out", default="covering.csv", help="covering CSV path")


def _experiment_args(p):
    _add_data_args(p, "last")
    _add_measure_args(p)
    p.add_argument("--k", type=int, default=None,
                   help="cluster count (estimated from the spectrum when omitted)")
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--seed", type=int, default=650, help="base seed; run i uses seed+i")
    _add_okm_args(p)
    _add_policy_args(p)
    p.add_argument("--format", choices=sorted(_RENDERERS), default="table")
    p.add_argument("--jobs", type=int, default=1, help="parallel restarts")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


# Each subcommand, in help order: its help line, what adds its arguments, what runs it.
_COMMANDS = {
    "estimate-k": ("estimate the cluster count from the Gram spectrum", _estimate_k_args, cmd_estimate_k),
    "cluster": ("run one overlapping clustering", _cluster_args, cmd_cluster),
    "experiment": ("restart protocol with pair metrics", _experiment_args, cmd_experiment),
}


def build_parser(command=None):
    """The okm parser; given a `command` of `_COMMANDS`, it holds that subcommand's parser alone."""
    # argparse would query the terminal for every formatter it builds, one per argument.
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(prog="okm", formatter_class=formatter,
                                     description="Overlapping k-means experiment harness")
    # A one-command parser still names all three in the usage line of its "unrecognized
    # arguments" error.  The full parser keeps argparse's own metavar, which its "required" and
    # "invalid choice" errors word differently from an explicit one.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_line, add_args, func = _COMMANDS[name]
        p = sub.add_parser(name, formatter_class=formatter, help=help_line)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    """Run one subcommand; the only place where an error becomes an exit code."""
    argv = sys.argv[1:] if argv is None else argv
    # Help, a missing or unknown command and an option first all need the whole tree.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
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
