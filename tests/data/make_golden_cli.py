"""Record the golden CLI output that tests/test_golden.py replays.

    PYTHONPATH=src python tests/data/make_golden_cli.py

Runs `okmlib.cli.main` in this process on the cases below and writes
`golden_cli.json` next to this file: for each case its exit code,
stdout, stderr and the file it writes, if any.  Arguments name the
inputs as "{data}" (the repo's data directory) and "{dir}" (a scratch
directory holding the synthetic sample, the bad inputs and every output
file); recorded text names the scratch directory "{dir}" too.

Cases: `experiment` on Iris under six measures at k = 3 and k = 8, one
`experiment` without --k (json), the synthetic overlap sample at k = 5
and k = 12, `estimate-k` under both policies, `cluster --out` at k = 3
and at k = 8 with the i-divergence, and one-line error paths.

Spectrum values (estimate-k's eigenvalue lines, the json report's
"spectrum") depend on the LAPACK build, so `split_spectrum` takes them
out of the text: the replay compares them within SPECTRUM_BOUND times
their spectrum's largest value, and every other byte exactly,
`estimated_k` included.
"""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from okmlib import SyntheticSpec, generate_synthetic, save_csv
from okmlib.cli import main
from okmlib.dataio import _is_float

HERE = Path(__file__).resolve().parent
DATA_DIR = HERE.parent.parent / "data"
GOLDEN_PATH = HERE / "golden_cli.json"
SPECTRUM_BOUND = 1e-8

IRIS = ["--data", "{data}/iris.csv"]
SYNTHETIC = SyntheticSpec(k=5, points_per_cluster=400,
                          overlap_pairs=((0, 1, 40), (1, 2, 40), (2, 3, 40), (3, 4, 40), (4, 0, 40)),
                          dimension=8, seed=0)
MEASURES = {
    "euclidean": [],
    "idiv": ["--measure", "idiv"],
    "rbf150": ["--measure", "kernel", "--kernel", "rbf", "--sigma", "150"],
    "poly025": ["--measure", "kernel", "--kernel", "poly", "--degree", "0.25"],
    "poly2": ["--measure", "kernel", "--kernel", "poly", "--degree", "2"],
    "linear": ["--measure", "kernel", "--kernel", "linear"],
}
BAD_INPUTS = {
    "negative.csv": "-2.0,a\n-1.0,a\n2.0,b\n3.0,b\n",
    "unlabeled.csv": "0.0,5.0\n1.0,5.0\n10.0,5.0\n11.0,5.0\n",
}


def cases():
    """(name, argv, written file name or None) for every recorded case."""
    for measure, flags in MEASURES.items():
        for k in (3, 8):
            yield f"experiment-iris-{measure}-k{k}", ["experiment", *IRIS, *flags, "--k", str(k)], None
    yield "experiment-iris-estimated-k-json", ["experiment", *IRIS, "--format", "json"], None
    for k, fmt in ((5, "csv"), (12, "table")):
        yield (f"experiment-synthetic-k{k}",
               ["experiment", "--data", "{dir}/synthetic.csv", "--k", str(k), "--restarts", "2",
                "--format", fmt], None)
    for policy in ("eigengap", "ratio"):
        yield (f"estimate-k-iris-{policy}",
               ["estimate-k", *IRIS, "--label-col", "last", "--policy", policy], None)
    yield ("cluster-iris-k3", ["cluster", *IRIS, "--label-col", "last", "--k", "3",
                               "--out", "{dir}/c3.csv"], "c3.csv")
    yield ("cluster-iris-idiv-k8", ["cluster", *IRIS, "--label-col", "last", "--measure", "idiv",
                                    "--k", "8", "--out", "{dir}/c8.csv"], "c8.csv")
    yield "error-restarts-zero", ["experiment", *IRIS, "--restarts", "0"], None
    yield ("error-missing-labels", ["experiment", "--data", "{dir}/unlabeled.csv", "--label-col", "NONE",
                                    "--k", "2"], None)
    yield ("error-insufficient-data", ["cluster", *IRIS, "--label-col", "last", "--k", "200",
                                       "--out", "{dir}/c.csv"], None)
    yield ("error-tau-out-of-range", ["estimate-k", *IRIS, "--label-col", "last", "--policy", "ratio",
                                      "--tau", "1.5"], None)
    yield "error-missing-file", ["estimate-k", "--data", "{dir}/missing.csv"], None
    yield ("error-negative-input", ["experiment", "--data", "{dir}/negative.csv", "--measure", "idiv",
                                    "--k", "2"], None)
    yield ("error-domain", ["estimate-k", "--data", "{dir}/negative.csv", "--label-col", "last",
                            "--kernel", "poly", "--degree", "0.5"], None)


def write_inputs(directory):
    """The synthetic sample and the bad inputs the cases read from {dir}."""
    save_csv(generate_synthetic(SYNTHETIC), Path(directory) / "synthetic.csv")
    for name, text in BAD_INPUTS.items():
        (Path(directory) / name).write_text(text, encoding="utf-8")


def run_case(argv, written, directory):
    """Run one case in this process: {"code", "stdout", "stderr", "file"}, "{dir}" for `directory`."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")  # a warning on stderr would be output too
        code = main([arg.format(data=DATA_DIR, dir=directory) for arg in argv])
    text = None if written is None else (Path(directory) / written).read_text(encoding="utf-8")

    def scrub(value):
        return None if value is None else value.replace(str(directory), "{dir}")

    return {"code": code, "stdout": scrub(out.getvalue()), "stderr": scrub(err.getvalue()),
            "file": scrub(text)}


_SPECTRUM_START = re.compile(r"eigenvalues \(top \d+ of \d+\):$|\"spectrum\": \[$")
_SPECTRUM_VALUE = re.compile(r"^(\s+(?:\d+\s+)?)(\S+?)(,?)$")


def split_spectrum(text):
    """`text` with every spectrum value replaced by "λ", and those values, one list per spectrum."""
    lines = text.split("\n")
    spectra = []
    in_spectrum = False
    for i, line in enumerate(lines):
        match = _SPECTRUM_VALUE.match(line)
        if in_spectrum and match and _is_float(match[2]):
            spectra[-1].append(float(match[2]))
            lines[i] = f"{match[1]}λ{match[3]}"
        else:
            in_spectrum = bool(_SPECTRUM_START.search(line))
            if in_spectrum:
                spectra.append([])
    return "\n".join(lines), spectra


def record():
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        runs = {name: run_case(argv, written, directory) for name, argv, written in cases()}
    GOLDEN_PATH.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
