"""okmlib benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (data/iris.csv and src/okmlib must be
there; nothing needs installing).  With --trace 0 the last stdout line
holds the end-to-end metrics: setup_s and total_s (at the speed
probe's reference speed, see probe.py), peak_rss_mb and passed_ops.  With --trace 1 it holds the per-layer metrics of a traced
run.  Details (environment, parameters, every sample, problems) go to
.bench_out/result-<workload>-seed<N>-trace<T>.json; spans of a traced
run to .bench_out/spans-<workload>-seed<N>.jsonl.  See bench/README.md.
"""

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import normalise, probe
from workload import OUT, ROOT, WORKLOADS

SETUP_SAMPLES = 9
SETUP_PROBE_BLOCKS = 2
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def spawn(args, extra, deadline):
    """Start a workload process; return it and its set-up time (start to 'ready')."""
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - start
    except BaseException:
        stop(proc)
        raise
    if line.strip() != "ready":
        stop(proc)
        raise ChildFailed(f"workload process did not get ready (exit code {proc.returncode})")
    return proc, setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc, deadline):
    """Wait for a workload process; return the last line it printed."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise ChildFailed("workload process ran past the deadline") from None
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited with {proc.returncode}")
    return (out.strip().splitlines() or [""])[-1]


def run(args):
    deadline = time.monotonic() + DEADLINE_S
    # The whole run on one CPU, which the workload processes inherit: the
    # two vCPUs change speed apart, so the probes must run where the
    # program runs.
    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    setups, speed = [], []
    # Set-up alone, in fresh interpreters, so its median has several
    # samples; the machine's speed is probed before and after each.
    if not args.trace:
        speed.append(probe(SETUP_PROBE_BLOCKS))
        for _ in range(SETUP_SAMPLES):
            proc, setup = spawn(args, ["--setup-only"], deadline)
            finish(proc, deadline)
            setups.append(setup)
            speed.append(probe(SETUP_PROBE_BLOCKS))
    proc, setup = spawn(args, [], deadline)
    child = json.loads(finish(proc, deadline))

    attempted, failed = child["attempted"], child["failed"]
    if args.trace:
        values = child["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(normalise(seconds, pair)
                                         for seconds, pair in zip(setups, zip(speed, speed[1:]))),
            "total_s": normalise(statistics.fmean(child["pass_seconds"]), child["probe_s"]),
            "peak_rss_mb": child["peak_rss_mb"],
            "passed_ops": (attempted - failed) / attempted,
        }
    # BENCHMARK.json names the metrics and their units.
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    problems = child["problems"]
    env = dict(child["env"], nproc=nproc, cpu=cpu)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "params": child["params"],
        "samples": {"setup_wall_s": setups, "setup_probe_s": speed, "run_setup_wall_s": setup,
                    "pass_wall_s": child["pass_seconds"], "probe_s": child["probe_s"]},
        "absent": child["absent"], "problems": problems, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"params {json.dumps(child['params'], sort_keys=True)}")
    print(f"samples setup_s={len(setups)} passes={len(child['pass_seconds'])} "
          f"invocations={attempted} probes={len(child['probe_s'])}")
    if not args.trace:
        print(f"wall mean setup {statistics.fmean(setups):.4f} s, "
              f"pass {statistics.fmean(child['pass_seconds']):.4f} s")
    if child["absent"]:
        print(f"absent {' '.join(child['absent'])}")
    for problem in problems[:20]:
        print(f"problem {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description="okmlib benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Termination unwinds through finish()/spawn(), which stop the workload process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/okmlib/__init__.py", "data/iris.csv") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an okmlib checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        run(args)
    except (ChildFailed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
