"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 linfbench/run.py --workload maxflow --seed 1 --seconds 20 --trace 0

Run from the root of a linfflow checkout.  Generates the workload's inputs
from the seed, runs its CLI operations in a single-threaded worker process
(``worker.py``) for about ``--seconds`` seconds of whole rounds, checks every
answer with the oracles in ``oracles.py`` and prints, as the last stdout
line, ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced round and reports the per-layer metrics and the tracing overhead.
Exits non-zero, printing no result, when the checkout has no linfflow source
or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, for the repeatability test")
    return p.parse_args(argv)


def run_worker(spec_path, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                          env=env, cwd=ROOT, timeout=timeout)
    return proc.returncode


def main(argv=None):
    began = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "linfflow", "cli.py")):
        print(f"no linfflow source under {SRC}", file=sys.stderr)
        return 2
    run_dir = os.path.join(HERE, "out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs_dir, outputs_dir = os.path.join(run_dir, "inputs"), os.path.join(run_dir, "outputs")
    os.makedirs(inputs_dir)
    os.makedirs(outputs_dir)
    wl = workloads.build(args.workload, args.seed, inputs_dir, outputs_dir, smoke=args.smoke)
    spec = {
        "src": SRC,
        "loads": wl.loads,
        "ops": [op.argv for op in wl.ops],
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_path": os.path.join(run_dir, "trace.npz"),
        "result": os.path.join(run_dir, "worker.json"),
    }
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        code = run_worker(spec_path, DEADLINE_S - (time.monotonic() - began))
    except subprocess.TimeoutExpired:
        print("worker ran past the deadline", file=sys.stderr)
        return 3
    if code != 0:
        print(f"worker exited with status {code}", file=sys.stderr)
        return 3
    with open(spec["result"]) as fh:
        res = json.load(fh)

    rounds = res["rounds"]
    problems = []
    failed = 0
    # every round must print the same answers; the files hold the last round's
    for k, (op, last) in enumerate(zip(wl.ops, rounds[-1]["ops"])):
        runs = [r["ops"][k] for r in rounds]
        failed += sum(1 for r in runs if r["code"] != 0)
        if any(r["code"] != runs[0]["code"] or r["stdout"] != runs[0]["stdout"] for r in runs):
            problems.append(f"op {k}: answers differ between rounds")
        if last["code"] == 0:
            problems += [f"op {k} ({' '.join(op.argv[:1] + op.argv[-1:])}): {p}"
                         for p in op.check(last["stdout"])]
        else:
            print(f"op {k} failed: {op.argv[0]} {os.path.basename(op.argv[2])}: "
                  f"{last['error']}", file=sys.stderr)
    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)

    if args.trace:
        metrics = res["layers"]
    else:
        # the worker scales every timed call to the reference host speed
        # (worker.HostClock); a round's time is the sum over its operations
        solve = statistics.median(sum(op["scaled_s"] for op in r["ops"]) for r in rounds)
        setup = statistics.quantiles(res["setup_s"], n=4)[0]
        metrics = {
            "solve_s": {"value": solve, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(rounds) * len(wl.ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
