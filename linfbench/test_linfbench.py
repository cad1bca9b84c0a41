"""Tests of the benchmark itself: the oracles reject wrong answers, and a
reduced-size traced run of every workload repeats its counts exactly.

    python3 -m pytest linfbench/test_linfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def lp_solution(inst):
    a = inst.dense()
    n, m = a.shape
    ones = np.ones((n, 1))
    res = linprog(np.r_[np.zeros(m), 1.0], A_ub=np.block([[a, -ones], [-a, -ones]]),
                  b_ub=np.r_[inst.b, -inst.b], bounds=[(-1, 1)] * m + [(0, None)],
                  method="highs")
    return np.clip(res.x[:m], -1.0, 1.0)


def residual(inst, x):
    return float(np.abs(inst.dense() @ x - inst.b).max())


def scipy_edge_flows(g):
    """A maximum flow of g as per-edge flows, read off scipy's flow matrix."""
    u = np.r_[g.tails, g.heads] if not g.directed else g.tails
    v = np.r_[g.heads, g.tails] if not g.directed else g.heads
    mat = csr_matrix((np.ones(len(u), dtype=np.int32), (u, v)), shape=(g.n, g.n))
    net = maximum_flow(mat, g.source, g.sink).flow.toarray()[g.tails, g.heads]
    # scipy reports the net flow of a vertex pair; with arcs both ways the
    # positive part goes on the arc that points along it
    return (np.maximum(net, 0) if g.directed else net).astype(float)


def remove_one_path(g, flows):
    """Cancel one unit of flow along an s-t path in the flow's support."""
    adj = [[] for _ in range(g.n)]
    for e, (a, b) in enumerate(zip(g.tails, g.heads)):
        if flows[e] > 0.5:
            adj[a].append((b, e, 1.0))
        elif flows[e] < -0.5:
            adj[b].append((a, e, -1.0))
    parent = {g.source: None}
    queue = deque([g.source])
    while queue:
        a = queue.popleft()
        for b, e, sgn in adj[a]:
            if b not in parent:
                parent[b] = (a, e, sgn)
                queue.append(b)
    out = flows.copy()
    node = g.sink
    while parent[node] is not None:
        a, e, sgn = parent[node]
        out[e] -= sgn
        node = a
    return out


@pytest.fixture
def regression():
    inst = gen.column_sparse(np.random.default_rng(7), 12, 12, 4)
    x = lp_solution(inst)
    return inst, x, oracles.lp_optimum(inst)


def test_regression_oracle_accepts_lp_solution(regression):
    inst, x, opt = regression
    assert oracles.check_regression(inst, x, residual(inst, x), 0.05, opt) == []


def test_regression_oracle_rejects_x_outside_box(regression):
    inst, x, opt = regression
    bad = x.copy()
    bad[0] = 1.0 + 1e-6
    problems = oracles.check_regression(inst, bad, residual(inst, bad), 1.0, opt)
    assert any("box" in p for p in problems)


def test_regression_oracle_rejects_value_above_lp_plus_eps():
    inst = gen.MatrixInstance(2, 2, np.array([0, 1]), np.array([0, 1]),
                              np.array([1.0, 1.0]), np.array([0.5, -0.5]))
    opt = oracles.lp_optimum(inst)
    assert abs(opt) < 1e-9
    x = np.zeros(2)
    problems = oracles.check_regression(inst, x, 0.5, 0.1, opt)
    assert any("above LP optimum" in p for p in problems)


@pytest.fixture(params=[False, True], ids=["undirected", "directed"])
def flow_case(request):
    rng = np.random.default_rng(11)
    g = gen.unit_digraph(rng, 8, 10) if request.param else gen.necklace(rng, 3, 3)
    return g, scipy_edge_flows(g), gen.max_flow_value(g)


def test_flow_oracle_accepts_max_flow(flow_case):
    g, flows, value = flow_case
    assert oracles.check_flow(g, g.tails, g.heads, flows, float(value), value) == []
    assert oracles.check_flow(g, g.tails, g.heads, flows, float(value), value,
                              eps=0.1) == []


def test_flow_oracle_rejects_flow_off_by_one_at_vertex(flow_case):
    g, flows, value = flow_case
    bad = flows.copy()
    e = int(np.flatnonzero(flows == 0)[0])
    bad[e] += 1.0
    problems = oracles.check_flow(g, g.tails, g.heads, bad, float(value), value)
    assert "flow is not conserved" in problems


def test_exact_flow_oracle_rejects_value_one_short(flow_case):
    g, flows, value = flow_case
    short = remove_one_path(g, flows)
    problems = oracles.check_flow(g, g.tails, g.heads, short, float(value - 1), value)
    assert problems == [f"exact value {float(value - 1)!r} != max flow {value}"]


def test_flow_file_reader_accepts_numpy_scalar_reprs(tmp_path):
    path = tmp_path / "f.flow"
    path.write_text("e 1 2 np.float64(0.5)\ne 2 3 1.0\nvalue 1.0 congestion 1.0\n")
    tails, heads, flows, value = oracles.read_flow_file(path)
    assert tails.tolist() == [0, 1] and heads.tolist() == [1, 2]
    assert flows.tolist() == [0.5, 1.0] and value == 1.0


def traced_smoke(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1", "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=os.path.dirname(HERE))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_counts_repeat_for_a_fixed_seed(workload):
    first, second = traced_smoke(workload, 3), traced_smoke(workload, 3)
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if v["unit"] in ("count", "ratio", "factor")}
    again = {k: second["metrics"][k]["value"] for k in counts}
    assert counts == again
    assert counts["trace.spans"] > 0
