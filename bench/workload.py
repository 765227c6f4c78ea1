"""One benchmark workload in one process: build the input, run, check.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workload.py --workload NAME --seed 0 --record

The process prints ``ready`` once its input is built (``bench/run.py``
times interpreter start up to that line as set-up), then drives
``okmlib.cli.main(argv)`` in-process with ``--jobs 1`` and prints one
JSON line with its results.  ``--record`` rewrites this workload's entry
in ``bench/reference.json`` from the seed-0 outputs instead.

Every workload has one default input (Iris as shipped, synthetic
sample seed 0, OKM base seed 650).  Seed 0 runs it as is and compares
the outputs with the reference; any other seed runs a copy moved by a
seed-drawn transform that every measure is invariant to (a feature
permutation for Iris, a rotation for the synthetic sample), so each
seed does the same work on different bytes and only invariants are
checked.  Fresh samples would not do: across synthetic seeds 0-9 the
OKM iteration count ranged from 26 to 51, and on a 2-vCPU Xeon VM the
invocation took 9.8 s to 22.2 s.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import Sampler, probe

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

OKM_SEED = 650
IRIS_RESTARTS = 10
IRIS_MEASURES = (
    ("euclidean", ["--measure", "euclidean"]),
    ("idiv", ["--measure", "idiv"]),
    ("kernel-rbf150", ["--measure", "kernel", "--kernel", "rbf", "--sigma", "150"]),
    ("kernel-poly0.25", ["--measure", "kernel", "--kernel", "poly", "--degree", "0.25"]),
)
SYNTHETIC = dict(k=5, points_per_cluster=400,
                 overlap_pairs=((0, 1, 40), (1, 2, 40), (2, 3, 40), (3, 4, 40), (4, 0, 40)),
                 dimension=8, seed=0)
SYNTHETIC_RESTARTS = 3
WORKLOADS = ("iris-estimate-k", "iris-protocol", "synthetic-overlap")
TRACED_PASSES = 2


# ----------------------------------------------------------------- inputs


def _iris_copy(seed, path):
    """Iris with its feature columns permuted by the seed (identity at 0)."""
    import numpy as np

    with open(ROOT / "data" / "iris.csv", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    # The generator is made for seed 0 too, so every seed imports the same modules.
    permutation = np.random.default_rng(seed).permutation(len(rows[0]) - 1)
    order = [int(i) for i in permutation] if seed else list(range(len(permutation)))
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([row[i] for i in order] + row[-1:] for row in rows)
    return len(rows) - 1, len(order), order


def _synthetic_copy(seed, path):
    """The default synthetic sample, rotated by a seed-drawn orthogonal matrix."""
    import numpy as np
    from okmlib import DataMatrix, SyntheticSpec, generate_synthetic, save_csv

    data = generate_synthetic(SyntheticSpec(**SYNTHETIC))
    if seed:
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((data.p, data.p)))
        data = DataMatrix(values=data.values @ (q * np.sign(np.diag(r))), labels=data.labels)
    save_csv(data, path)
    return data.n, data.p


def build(workload, seed):
    """Write the workload's input CSV; return its invocations and parameters."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.csv"
    data = ["--data", str(path)]
    if workload == "iris-estimate-k":
        n, p, order = _iris_copy(seed, path)
        base = ["estimate-k", *data, "--label-col", "last", "--kernel", "rbf", "--sigma", "150"]
        argvs = [base + ["--policy", "eigengap"], base + ["--policy", "ratio", "--tau", "0.05"]]
        params = dict(n=n, p=p, k=None, measure="gram rbf sigma=150", restarts=0,
                      okm_seed=None, feature_order=order)
    elif workload == "iris-protocol":
        n, p, order = _iris_copy(seed, path)
        argvs = [["experiment", *data, "--k", "3", "--restarts", str(IRIS_RESTARTS),
                  "--seed", str(OKM_SEED), "--format", "json", "--jobs", "1", *flags]
                 for _, flags in IRIS_MEASURES]
        params = dict(n=n, p=p, k=3, measure=[m for m, _ in IRIS_MEASURES],
                      restarts=IRIS_RESTARTS, okm_seed=OKM_SEED, feature_order=order)
    elif workload == "synthetic-overlap":
        n, p = _synthetic_copy(seed, path)
        argvs = [["experiment", *data, "--k", "5", "--measure", "euclidean",
                  "--restarts", str(SYNTHETIC_RESTARTS), "--seed", str(OKM_SEED),
                  "--format", "json", "--jobs", "1"]]
        params = dict(n=n, p=p, k=5, measure="euclidean", restarts=SYNTHETIC_RESTARTS,
                      okm_seed=OKM_SEED, synthetic_seed=SYNTHETIC["seed"], rotation_seed=seed or None)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    params["seed"] = seed
    return argvs, params


# ----------------------------------------------------------------- checks


def parse(argv, rc, stdout):
    """The checked fields of one invocation's output."""
    out = {"rc": rc}
    if rc != 0:
        return out
    if argv[0] == "estimate-k":
        lists = {"eigenvalues": [], "centered": []}
        current = None
        for line in stdout.splitlines():
            if line.startswith("n = "):
                out["n"] = int(line.split()[2])
            elif line.startswith("estimated_k = "):
                out["estimated_k"] = int(line.split("=")[1])
            elif line.startswith("eigenvalues"):
                current = lists["eigenvalues"]
            elif line.startswith("centered eigenvalues"):
                current = lists["centered"]
            elif current is not None and line.strip():
                current.append(float(line.split()[1]))
        out.update(lists)
        return out
    doc = json.loads(stdout)
    out["k"] = doc["k"]
    for field in ("seed", "objective", "precision", "recall", "f_measure"):
        out[field] = [run[field] for run in doc["runs"]]
    return out


def invariant_problems(argv, got, n):
    if got["rc"] != 0:
        return [f"exit code {got['rc']}"]
    problems = []
    if argv[0] == "estimate-k":
        if not 1 <= got.get("estimated_k", 0) <= n:
            problems.append(f"estimated_k {got.get('estimated_k')} outside 1..{n}")
        if not got["eigenvalues"] or not all(map(math.isfinite, got["eigenvalues"] + got["centered"])):
            problems.append("missing or non-finite eigenvalues")
        return problems
    restarts = int(argv[argv.index("--restarts") + 1])
    base = int(argv[argv.index("--seed") + 1])
    if got["k"] != int(argv[argv.index("--k") + 1]):
        problems.append(f"k {got['k']}")
    if got["seed"] != [base + i for i in range(restarts)]:
        problems.append(f"seeds {got['seed']}")
    if not all(math.isfinite(j) and j >= 0 for j in got["objective"]):
        problems.append("objective not finite and >= 0")
    for field in ("precision", "recall", "f_measure"):
        if not all(0.0 <= v <= 1.0 for v in got[field]):
            problems.append(f"{field} outside [0, 1]")
    return problems


def reference_problems(got, ref):
    """Exact fields match; J to 1e-9 relative; eigenvalues to 1e-9 x lambda_1."""
    if got["rc"] != ref["rc"]:
        return [f"exit code {got['rc']} != {ref['rc']}"]
    problems = []
    exact = ("estimated_k", "n") if "eigenvalues" in ref else ("k", "seed", "precision", "recall", "f_measure")
    problems += [f"{f} {got.get(f)} != {ref.get(f)}" for f in exact if got.get(f) != ref.get(f)]
    for f in ("eigenvalues", "centered"):
        if f in ref:
            scale = 1e-9 * abs(ref[f][0])
            if len(got[f]) != len(ref[f]) or any(abs(a - b) > scale for a, b in zip(got[f], ref[f])):
                problems.append(f"{f} differ beyond {scale:.3g}")
    if "objective" in ref:
        if len(got["objective"]) != len(ref["objective"]) or any(
                abs(a - b) > 1e-9 * abs(b) for a, b in zip(got["objective"], ref["objective"])):
            problems.append("objective differs beyond 1e-9 relative")
    return problems


# ------------------------------------------------------------------ passes


def invoke(main, argv):
    """Run one CLI invocation; return (seconds, exit code, stdout)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, buf.getvalue()


class Pass:
    """Timed invocations of one workload, each checked after the clock stops.

    With `sample`, the speed probe runs during the invocations; its
    times are kept in `samples` and taken off `seconds`.
    """

    def __init__(self, main, argvs, n, reference, sample=False):
        self.seconds = 0.0
        self.samples = []
        self.outputs = []
        self.problems = []
        for i, argv in enumerate(argvs):
            if sample:
                with Sampler() as sampler:
                    seconds, rc, stdout = invoke(main, argv)
                seconds -= sampler.busy
                self.samples += sampler.samples
            else:
                seconds, rc, stdout = invoke(main, argv)
            self.seconds += seconds
            try:
                got = parse(argv, rc, stdout)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                got, problems = {"rc": rc}, [f"unparsable output: {exc}"]
            else:
                problems = invariant_problems(argv, got, n)
                if reference is not None:
                    problems += reference_problems(got, reference[i])
            self.outputs.append(got)
            self.problems.append([f"{argv[0]} #{i}: {p}" for p in problems])
        # Peak so far; a later pass can raise it by heap growth alone.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if sample and not self.samples:  # too short for the sampler
            self.samples.append(probe())

    @property
    def failed(self):
        return sum(1 for p in self.problems if p)


def measure(main, argvs, n, reference, seconds):
    """Sampled passes until the next one would end after `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(main, argvs, n, reference, sample=True))
        if time.perf_counter() - start + passes[-1].seconds > seconds:
            return passes


def traced(main, argvs, n, reference, params):
    """One untraced pass, then traced passes; per-layer metrics and their checks."""
    from spans import EXACT_COUNTS, ROOT as ROOT_SPAN, Tracer

    untraced = Pass(main, argvs, n, reference)
    runs = []
    for _ in range(TRACED_PASSES):
        with Tracer() as tracer:
            done = Pass(tracer.span(ROOT_SPAN, main), argvs, n, reference)
        runs.append((done, tracer, tracer.summary()))

    passes = [untraced] + [done for done, _, _ in runs]
    summaries = [s for _, _, s in runs]
    layer = {}
    problems = []
    for name, first in summaries[0].items():
        values = [s[name] for s in summaries]
        if isinstance(first, int):
            if len(set(values)) != 1 and name in EXACT_COUNTS:
                problems.append(f"count {name} differs between traced passes: {values}")
            layer[name] = first
        else:
            layer[name] = statistics.median(values)
    layer["trace.total_s"] = statistics.median(done.seconds for done, _, _ in runs)
    layer["trace.overhead_s"] = layer["trace.total_s"] - untraced.seconds
    tolerance = max(abs(layer["trace.overhead_s"]), 1e-3)
    for done, _, summary in runs:
        if abs(done.seconds - summary["trace.self_sum_s"]) > tolerance:
            problems.append(f"self times sum to {summary['trace.self_sum_s']:.6f} s, "
                            f"traced total {done.seconds:.6f} s")

    with open(OUT / f"spans-{params['workload']}-seed{params['seed']}.jsonl", "w") as handle:
        for index, (_, tracer, _) in enumerate(runs):
            for record in tracer.span_records():
                handle.write(json.dumps({"pass": index, **record}) + "\n")
    return passes, layer, problems, runs[0][1].absent


# ------------------------------------------------------------------- main


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import okmlib.cli
    except ImportError as exc:
        print(f"error: cannot import okmlib from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(okmlib.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: okmlib imported from {okmlib.__file__}, not this checkout", file=sys.stderr)
        return 2

    argvs, params = build(args.workload, args.seed)
    params["workload"] = args.workload
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cli_main = okmlib.cli.main
    if args.record:
        if args.seed != 0:
            parser.error("--record needs --seed 0")
        done = Pass(cli_main, argvs, params["n"], None)
        if done.failed:
            print("\n".join(p for ps in done.problems for p in ps), file=sys.stderr)
            return 1
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        table[args.workload] = done.outputs
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0

    reference = None
    if args.seed == 0:
        table = json.loads(REFERENCE.read_text())
        reference = table[args.workload]
    if args.trace:
        passes, layer, problems, absent = traced(cli_main, argvs, params["n"], reference, params)
    else:
        passes = measure(cli_main, argvs, params["n"], reference, args.seconds)
        layer, problems, absent = None, [], []
    problems = [p for done in passes for ps in done.problems for p in ps] + problems
    print(json.dumps({
        "params": params,
        "pass_seconds": [done.seconds for done in passes],
        "probe_s": [t for done in passes for t in done.samples],
        "attempted": sum(len(done.outputs) for done in passes),
        "failed": sum(done.failed for done in passes),
        "problems": problems,
        "per_layer": layer,
        "absent": absent,
        "peak_rss_mb": passes[0].peak_rss_mb,
        "env": environment(okmlib),
    }), flush=True)
    return 0


def environment(okmlib):
    import hashlib
    import platform
    import subprocess

    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "okmlib").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    nproc = len(os.sched_getaffinity(0))
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "okmlib": getattr(okmlib, "__version__", None),
        "nproc": nproc,
        "blas_threads": min(int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)), nproc),
        "jobs": 1,
    }


if __name__ == "__main__":
    sys.exit(main())
