"""Correctness oracles that share no code path with linfflow.

Each check returns a list of problems (empty when the answer is right).
Regression answers are checked against the residual recomputed with numpy
from the generated triplets and against the scipy HiGHS LP optimum; flow
answers against an incidence matrix built here and the
``scipy.sparse.csgraph.maximum_flow`` value.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

BOX_TOL = 1e-12
LP_TOL = 1e-7
FLOW_TOL = 1e-7


def lp_optimum(inst):
    """min over |x|_inf <= 1 of max_i |(A x - b)_i|, by HiGHS on (x, t)."""
    a = inst.dense()
    n, m = a.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    ones = np.ones((n, 1))
    a_ub = np.block([[a, -ones], [-a, -ones]])
    b_ub = np.concatenate([inst.b, -inst.b])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(-1.0, 1.0)] * m + [(0.0, None)],
                  method="highs")
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")
    return float(res.fun)


def printed(stdout, key):
    """The number after ``key`` on the CLI's stdout, or None."""
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == key:
            return float(parts[1])
    return None


def check_regression(inst, x, value, eps, opt):
    """x in the box, the printed value is max|Ax - b|, and opt <= value <= opt + eps."""
    problems = []
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (inst.n_cols,) or not np.isfinite(x).all():
        return [f"x has shape {x.shape} or non-finite entries"]
    if np.abs(x).max() > 1.0 + BOX_TOL:
        problems.append(f"x leaves the box: max|x| = {np.abs(x).max()!r}")
    ax = np.bincount(inst.rows, weights=inst.vals * x[inst.cols], minlength=inst.n_rows)
    resid = float(np.abs(ax - inst.b).max())
    if value is None or abs(value - resid) > 1e-9 * max(1.0, resid):
        problems.append(f"printed value {value!r} != max|Ax - b| = {resid!r}")
    if resid < opt - LP_TOL:
        problems.append(f"value {resid!r} below the LP optimum {opt!r}")
    if resid > opt + eps + LP_TOL:
        problems.append(f"value {resid!r} above LP optimum + eps = {opt + eps!r}")
    return problems


def _number(token):
    # linfflow writes numpy scalars with repr(), which numpy 2 renders as
    # ``np.float64(x)``; the number inside is exact, so accept that form too
    if token.startswith("np.float64(") and token.endswith(")"):
        token = token[len("np.float64("):-1]
    return float(token)


def read_flow_file(path):
    """(tails, heads, flows) 0-based, and the summary ``value``, from a flow file."""
    tails, heads, flows, value = [], [], [], None
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts and parts[0] == "e":
                tails.append(int(parts[1]) - 1)
                heads.append(int(parts[2]) - 1)
                flows.append(_number(parts[3]))
            elif parts and parts[0] == "value":
                value = _number(parts[1])
    return np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64), \
        np.array(flows), value


def check_flow(g, tails, heads, flows, value, true_value, eps=None):
    """Capacities, conservation and value of a flow on graph g.

    ``eps`` None asks for an exact, integral maximum flow; otherwise the value
    must lie in [(1 - eps) * true_value, true_value].
    """
    if not (np.array_equal(tails, g.tails) and np.array_equal(heads, g.heads)):
        return ["flow file edges differ from the input graph"]
    problems = []
    if not np.isfinite(flows).all():
        return ["non-finite flow"]
    lo = np.zeros_like(g.caps) if g.directed else -g.caps
    if (flows > g.caps + FLOW_TOL).any() or (flows < lo - FLOW_TOL).any():
        problems.append("flow violates a capacity")
    m = len(flows)
    incidence = coo_matrix(
        (np.concatenate([np.ones(m), -np.ones(m)]),
         (np.concatenate([g.heads, g.tails]), np.concatenate([np.arange(m)] * 2))),
        shape=(g.n, m)).tocsr()
    net_in = incidence @ flows
    got = float(net_in[g.sink])
    expect = np.zeros(g.n)
    expect[g.sink], expect[g.source] = got, -got
    if np.abs(net_in - expect).max() > FLOW_TOL * max(1.0, got):
        problems.append("flow is not conserved")
    if value is None or abs(value - got) > FLOW_TOL * max(1.0, got):
        problems.append(f"reported value {value!r} != net inflow at the sink {got!r}")
    if eps is None:
        if np.abs(flows - np.round(flows)).max() > 1e-9:
            problems.append("exact flow is not integral")
        if abs(got - true_value) > 1e-9:
            problems.append(f"exact value {got!r} != max flow {true_value}")
    elif not (1.0 - eps) * true_value - FLOW_TOL <= got <= true_value + FLOW_TOL:
        problems.append(f"value {got!r} outside [(1 - eps) F, F] for F = {true_value}")
    return problems
