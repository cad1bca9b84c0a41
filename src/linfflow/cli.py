"""Command-line frontend: regression solves, flow pipelines, benchmarks, checks.

Exit statuses are fixed for CI scripting: 0 success, 2 parse or input error,
3 solver fault, 4 infeasible demands.  All commands are deterministic given
(arguments, seed); wall-clock columns appear in traces and in the bench table
only under --timing, so repeated runs without it are byte identical.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .baselines import SmoothedObjective, gd_general_norm, plain_cd
from .cdsolver import solve_box_linf
from .core import (
    RegressionInstance,
    read_matrix_file,
    sign_double,
)
from .errors import InfeasibleError, InputError, SolverFault
from .flow import (
    TreeApproximator,
    augment_to_max,
    dinic_oracle,
    exact_unit_maxflow,
    flow_to_regress,
)
from .graphs import FlowSolution, incidence_apply, read_dimacs, write_flow_file
from .mirrorprox import solve_flow_regress
from .sampling import make_rng

SOLVERS = ("cd-l2", "cd-diag", "mirror-prox", "gd", "plain-cd", "dinic")


@functools.cache
def build_parser():
    """The argument parser, built once per process and reused by every
    ``main`` call: ``parse_args`` keeps no state between calls."""
    p = argparse.ArgumentParser(
        prog="linfflow",
        description="Box-constrained max-residual regression and max-flow solvers",
    )
    sub = p.add_subparsers(dest="command", required=True)

    flags = {
        "input": dict(required=True, help="instance file"),
        "eps": dict(type=float, default=1e-2),
        "seed": dict(type=int, default=0),
        "solver": dict(choices=SOLVERS, default="cd-l2"),
        "sparsity-s": dict(type=float, default=None,
                           help="estimate of the squared l2 norm of the optimizer"),
        "trace": dict(default=None, help="CSV trace output path"),
        "output": dict(default=None, help="solution output path"),
        "format": dict(choices=("dimacs", "linf-matrix"), default=None,
                       help="override input format sniffing"),
        "timing": dict(action="store_true",
                       help="record wall time in traces (breaks byte equality)"),
        "eps-grid": dict(default="0.1,0.05,0.025"),
    }
    # each command takes the flags its _run_* function reads, and no others;
    # no abbreviations either, or bench would take --eps for --eps-grid
    for name, help_text, names in (
        ("regress", "solve a box-constrained instance",
         "input eps seed solver sparsity-s trace output timing"),
        ("maxflow", "approximate max flow on DIMACS input", "input eps seed solver output"),
        ("exact-flow", "exact unit-capacity max flow", "input eps seed solver output"),
        ("bench", "sweep eps and tabulate cost",
         "input seed solver sparsity-s trace format timing eps-grid"),
        ("verify", "run recompute oracles on an instance", "input seed format"),
    ):
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in names.split():
            sp.add_argument(f"--{flag}", **flags[flag])
    return p


def _sniff_format(path, override):
    if override:
        return override
    with open(path) as fh:
        head = fh.read(64)
    return "linf-matrix" if head.startswith("linf-matrix") else "dimacs"


def _check_eps(eps):
    if not 0.0 < eps < 1.0:
        raise InputError("eps must lie in (0, 1)")


def _run_baseline(inst, solver, seed):
    """Run the ``gd`` or ``plain-cd`` baseline on the smoothed sign-doubled
    objective, its 2n rows kept folded; returns ``(x, value, trace)`` with x
    clipped to the box."""
    matrix, eps = inst.matrix, inst.epsilon
    alpha = eps / (2.0 * max(math.log(2 * matrix.n_rows), 1.0))
    obj = SmoothedObjective(matrix, inst.b, alpha)
    budget = int(min(200_000, 16 * obj.linf_smoothness * matrix.n_cols / eps + 100))
    if solver == "gd":
        tr = gd_general_norm(obj, obj.linf_smoothness, budget)
    else:
        tr = plain_cd(obj, np.maximum(obj.coord_smoothness(), 1e-12), budget,
                      seed=seed)
    x = np.clip(tr.x, -1.0, 1.0)
    return x, inst.value_at(x), tr


def _solve_matrix(inst, solver, seed, timing):
    """Solve a linf-matrix instance; returns ``(x, value, steps, trace_csv)``,
    where ``trace_csv()`` gives the solver's trace as CSV text."""
    if solver in ("cd-l2", "cd-diag"):
        res = solve_box_linf(inst, mode="l2" if solver == "cd-l2" else "diag",
                             seed=seed, timing=timing)
    elif solver == "mirror-prox":
        res = solve_flow_regress(inst, seed=seed)
    elif solver in ("gd", "plain-cd"):
        x, value, tr = _run_baseline(inst, solver, seed)
        return x, value, tr.steps, lambda: "step,value\n" + "\n".join(
            f"{k},{v!r}" for k, v in enumerate(tr.values)) + "\n"
    else:
        raise InputError(f"solver {solver} does not apply to linf-matrix instances")
    return res.x, res.value, res.sampled_coordinates, res.transcript_csv


def _run_regress(args):
    _check_eps(args.eps)
    matrix, b = read_matrix_file(args.input)
    inst = RegressionInstance(matrix=matrix, b=b, epsilon=args.eps,
                              s=args.sparsity_s)
    x, value, _, trace_csv = _solve_matrix(inst, args.solver, args.seed,
                                           args.timing)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace_csv())
    if args.output:
        with open(args.output, "w") as fh:
            for v in x:
                fh.write(f"{float(v)!r}\n")
    print(f"value {float(value)!r}")
    print(f"instance {inst.content_hash()}")
    print(f"seed {args.seed}")
    return 0


def _flow_common(args):
    net = read_dimacs(args.input)
    if net.source is None or net.sink is None:
        raise InputError("flow commands need source and sink lines")
    return net


def _run_maxflow(args):
    _check_eps(args.eps)
    net = _flow_common(args)
    if args.solver == "dinic":
        sol = dinic_oracle(net)
    else:
        d = net.st_demand(1.0)
        routed = flow_to_regress(net, d, args.eps, solver=args.solver,
                                 seed=args.seed)
        cong = routed.max_congestion
        if cong <= 0:
            raise InfeasibleError("no flow routed")
        sol = FlowSolution.from_flow(net, routed.flow / cong)
    if args.output:
        write_flow_file(args.output, net, sol)
    print(f"value {sol.value!r}")
    print(f"congestion {sol.max_congestion!r}")
    return 0


def _run_exact_flow(args):
    _check_eps(args.eps)
    net = _flow_common(args)
    sol = exact_unit_maxflow(net, solver=args.solver, seed=args.seed)
    if args.output:
        write_flow_file(args.output, net, sol)
    print(f"value {sol.value!r}")
    return 0


def _run_bench(args):
    grid = [float(v) for v in args.eps_grid.split(",") if v]
    for eps in grid:
        _check_eps(eps)
    fmt = _sniff_format(args.input, args.format)
    if fmt == "dimacs":
        net = _flow_common(args)
        approx = TreeApproximator(net)  # and its regression matrix, for every row
    else:
        matrix, b = read_matrix_file(args.input)
    rows = ["eps,iterations,elapsed_ns,value" if args.timing else "eps,iterations,value"]
    import time as _time

    for eps in grid:
        start = _time.perf_counter_ns()
        if fmt == "dimacs":
            routed = flow_to_regress(net, net.st_demand(1.0), eps,
                                     solver=args.solver, seed=args.seed,
                                     approx=approx)
            value = 1.0 / max(routed.max_congestion, 1e-30)
            iters = routed.meta.get("iterations", 0)
        else:
            inst = RegressionInstance(matrix=matrix, b=b, epsilon=eps,
                                      s=args.sparsity_s)
            _, value, iters, _ = _solve_matrix(inst, args.solver, args.seed,
                                               args.timing)
        elapsed = f"{_time.perf_counter_ns() - start}," if args.timing else ""
        rows.append(f"{eps},{iters},{elapsed}{float(value)!r}")
    table = "\n".join(rows) + "\n"
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(table)
    sys.stdout.write(table)
    return 0


def _run_verify(args):
    fmt = _sniff_format(args.input, args.format)
    rng = make_rng(args.seed)
    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"check {name} {'ok' if ok else 'FAIL'}")
        failures += 0 if ok else 1

    if fmt == "linf-matrix":
        matrix, b = read_matrix_file(args.input)
        rows, cols, vals = matrix.flat_entries()
        col_max = np.zeros(matrix.n_cols)
        np.maximum.at(col_max, cols, np.abs(vals))
        report("column-max-cache", bool(np.allclose(matrix.col_maxabs, col_max)))
        row_l1 = np.zeros(matrix.n_rows)
        np.add.at(row_l1, rows, np.abs(vals))
        report("row-l1-cache", bool(np.allclose(matrix.row_l1, row_l1)))
        m2, b2 = sign_double(matrix, b)
        ok = True
        for _ in range(64):
            x = rng.uniform(-1, 1, matrix.n_cols)
            lhs = float((m2.dot(x) - b2).max())
            rhs = float(np.abs(matrix.dot(x) - b).max())
            ok = ok and abs(lhs - rhs) <= 1e-12
        report("sign-double-identity", ok)
        from .smoothing import SoftmaxState

        ok = True
        for _ in range(32):
            alpha = float(rng.uniform(0.05, 2.0))
            st = SoftmaxState(m2, b2, alpha, x0=rng.uniform(-1, 1, matrix.n_cols))
            w = st.w_array() * alpha
            mx = float(w.max())
            v = float(st.smax())
            ok = ok and (mx - 1e-12 <= v <= mx + alpha * math.log(m2.n_rows) + 1e-12)
        report("softmax-sandwich", ok)
    else:
        net = read_dimacs(args.input)
        f = rng.normal(size=net.m)
        net_inflow = np.zeros(net.n)  # B f, accumulated edge by edge
        np.add.at(net_inflow, net.tails, -f)
        np.add.at(net_inflow, net.heads, f)
        report("incidence-apply",
               bool(np.allclose(incidence_apply(net, f), net_inflow)))
        dv = dinic_oracle(net).value
        av = augment_to_max(net, np.zeros(net.m)).value
        report("dinic-vs-augmenting", abs(dv - av) <= 1e-9 * max(dv, av))
        approx = TreeApproximator(net)
        d = net.st_demand(1.0)
        f_tree = approx.tree_route(d)
        report("tree-routes-exactly",
               bool(np.allclose(incidence_apply(net, f_tree), d, atol=1e-9)))
        rd = float(np.abs(approx.apply(d)).max())
        cong = float(np.abs(f_tree / net.caps).max())
        report("approximator-sandwich", rd <= cong * (1.0 + 1e-9)
               and cong <= approx.alpha * rd * (1.0 + 1e-9))
    return 3 if failures else 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "regress":
            return _run_regress(args)
        if args.command == "maxflow":
            return _run_maxflow(args)
        if args.command == "exact-flow":
            return _run_exact_flow(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "verify":
            return _run_verify(args)
        raise InputError(f"unknown command {args.command}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverFault as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
