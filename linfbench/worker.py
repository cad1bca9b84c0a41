"""One workload process: load the inputs, run rounds of CLI operations, report.

Started by ``run.py`` as ``python3 worker.py <spec.json>`` with
``PYTHONPATH`` pointing at the checkout's ``src`` and single-threaded BLAS.
The spec names the input files, the operations (``linfflow.cli.main`` argv
lists), the run length and whether to trace.  Untraced, the worker runs one
round, and more while another round fits in the run length, with every time
scaled to the reference host speed by ``HostClock``.  The result JSON holds
each operation's wall and scaled time, exit status and stdout per round, the
scaled time of every set-up pass, the host slowdown samples, the peak RSS
and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

SETUP_FIRST_S = 0.5
SETUP_BATCH_S = 0.05
PROBE_PERIOD_S = 0.04
PROBE_WINDOW = 5


def load_linfflow(src):
    import linfflow

    if os.path.dirname(os.path.dirname(os.path.abspath(linfflow.__file__))) != src:
        raise SystemExit(f"linfflow imported from {linfflow.__file__}, not {src}")
    from linfflow import cli
    from linfflow.core import read_matrix_file
    from linfflow.graphs import read_dimacs

    return cli, {"matrix": read_matrix_file, "dimacs": read_dimacs}


def setup_pass(readers, loads):
    """Wall time of one pass loading every input through the public readers."""
    t0 = time.perf_counter()
    for kind, path in loads:
        readers[kind](path)
    return time.perf_counter() - t0


def _probe_arith():
    acc = 0
    for i in range(5000):
        acc += i * i % 7


_PROBE_VEC = np.arange(64, dtype=float)


def _probe_numpy():
    v, acc = _PROBE_VEC, 0.0
    for i in range(150):
        acc += float(np.dot(v, v) + v[i % 64])


class _Slot:
    __slots__ = ("a",)


def _probe_objects():
    obj, table = _Slot(), {}
    obj.a = 1.0
    for i in range(2000):
        table[i & 255] = obj.a * i
        obj.a = table.get(i & 127, 1.0) * 0.5 + 1.0


# three small kernels in the styles of code linfflow runs (interpreter
# arithmetic, small numpy calls, attribute and dict traffic), with their wall
# times on the reference machine of linfbench/README.md when these were taken;
# the host has since run both faster (slowdown 0.7) and slower (1.8)
PROBES = ((_probe_arith, 4.1e-4), (_probe_numpy, 2.35e-4), (_probe_objects, 3.9e-4))


class HostClock:
    """Wall time scaled to the reference machine's speed, sampled during the work.

    On a shared host the speed of the same code moves by up to 2x, in spells
    of a second and drifts of minutes.  While started, a SIGALRM every
    PROBE_PERIOD_S runs the PROBES kernels, about 1 ms in all, and records the
    host's slowdown: the mean of each kernel's time over its reference time.
    ``timed`` subtracts the kernels' time from a call's wall time and divides
    the rest by the slowdown the samples taken during the call show, padded
    with the ones just before it to at least PROBE_WINDOW samples.
    """

    def __init__(self):
        self.slowdowns = []
        self.probe_s = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        ratios = []
        for kernel, ref in PROBES:
            k0 = time.perf_counter()
            kernel()
            ratios.append((time.perf_counter() - k0) / ref)
        self.slowdowns.append(statistics.fmean(ratios))
        self.probe_s += time.perf_counter() - t0

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """``(fn(*args), wall time without the kernels, that time scaled)``."""
        first, probe0 = len(self.slowdowns), self.probe_s
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0 - (self.probe_s - probe0)
        during = self.slowdowns[max(0, min(first, len(self.slowdowns) - PROBE_WINDOW)):]
        return out, wall, wall * statistics.fmean(1.0 / s for s in during)


def run_op(main, argv, clock=None):
    """Run one CLI operation; with a started ``clock`` also give its scaled time."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(argv), err.getvalue().strip() or None
        except Exception as exc:  # the CLI let an exception escape: a failed operation
            return 1, f"{type(exc).__name__}: {exc}"[:300]

    if clock is None:
        t0 = time.perf_counter()
        code, error = call()
        wall = scaled = time.perf_counter() - t0
    else:
        (code, error), wall, scaled = clock.timed(call)
    return {"code": code, "error": error, "stdout": out.getvalue(), "wall_s": wall,
            "scaled_s": scaled}


def run_round(main, ops, before_op=None, clock=None, tracer=None):
    """One pass over the operations, calling ``before_op()`` before each."""
    results = []
    for k, op in enumerate(ops):
        if before_op is not None:
            before_op()
        if tracer is not None:
            tracer.op_id = k
        results.append(run_op(main, op, clock))
    return {"total_s": sum(r["wall_s"] for r in results), "ops": results}


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    cli, readers = load_linfflow(spec["src"])
    rounds = []
    result = {}
    if spec["trace"]:
        from spans import Tracer, layer_metrics

        rounds.append(run_round(cli.main, spec["ops"]))
        tracer = Tracer()
        tracer.install()
        rounds.append(run_round(cli.main, spec["ops"], tracer=tracer))
        untraced, traced = rounds[0]["total_s"], rounds[1]["total_s"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics(tracer).items()}
        metrics["trace.untraced_solve_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.traced_solve_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - untraced) / untraced,
                                         "unit": "%"}
        result["layers"] = metrics
        tracer.dump(spec["trace_path"])
    else:
        clock = HostClock()
        clock.start()
        try:
            # set-up passes run for SETUP_FIRST_S, then in a batch of at least
            # SETUP_BATCH_S before every operation, so that a slow spell of
            # the host hits only some of them
            setup_times = []

            def setup_batch(seconds=SETUP_BATCH_S):
                began = time.perf_counter()
                while True:
                    setup_times.append(clock.timed(setup_pass, readers, spec["loads"])[2])
                    if time.perf_counter() - began >= seconds:
                        return

            setup_batch(SETUP_FIRST_S)
            began = time.perf_counter()
            while True:
                rounds.append(run_round(cli.main, spec["ops"], setup_batch, clock))
                elapsed = time.perf_counter() - began
                if elapsed + rounds[-1]["total_s"] > spec["seconds"]:
                    break
        finally:
            clock.stop()
        result["setup_s"] = setup_times
        result["slowdowns"] = clock.slowdowns
    result["rounds"] = rounds
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
