"""The step-by-step primitives that the fused kernels inline, kept as test oracles.

The package computes the coordinate gradient and the per-point curvature
bound L_j(x) of a prox-CD subproblem, and the sampler's column weights, only
inside ``cdsolver.lcd_steps``.  The functions here compute each of them on
its own, one coordinate at a time, over the package's objects
(``SoftmaxState``, ``LocalSmoothnessParams``, ``CoordSampler``,
``DynamicTree``), so that the tests can check the kernel against them, and
them against finite differences, the sign-doubled system and the drawn laws.
``plain_phase`` is a mirror-prox phase without in-phase checks, the
reference for ``mirrorprox.run_phase``; the dense dual law of a phase is
``helpers.doubled_law(phase.u)``.  ``reduction_recover`` decomposes a flow
of ``flow.directed_reduce``'s undirected network on that network, the
reference for the ``recover`` that decomposes it on the digraph.
``search_round`` rounds a fractional flow by depth-first cycle search, the
reference for ``flow.round_to_integral``'s forward walk.  ``arc_pair_dinic``
is Dinic's algorithm on a residual graph of arc pairs, two pairs per
undirected edge, the reference for ``flow.dinic_oracle``, which keeps one flow
per edge on the network's CSR incidence.  This file lives under a name pytest
does not collect.
"""

import math
from collections import deque

import numpy as np

from linfflow.errors import InputError, SolverFault
from linfflow.flow import _ROUND_TOL, round_to_integral
from linfflow.graphs import FlowSolution, incidence_apply
from linfflow.mirrorprox import aggregate_point, phase_iterates


def grad_coord(state, j, center, params):
    """Partial derivative of the regularized objective along coordinate j."""
    rows, vals = state._cols[j]
    expw, expw_neg = state.expw, state.expw_neg
    acc = 0.0
    for k in range(len(rows)):
        i = rows[k]
        acc += vals[k] * (expw[i] - expw_neg[i])
    return acc / state.z + float(params.curvature[j]) * (state.x[j] - center[j])


def local_smoothness(state, j, params):
    """Curvature bound valid over the step a coordinate iteration takes from x.

    Never smaller than the regularizer curvature along j.
    """
    rows, vals = state._cols[j]
    if rows:
        expw, expw_neg = state.expw, state.expw_neg
        acc = 0.0
        cm = 0.0
        for k in range(len(rows)):
            i = rows[k]
            v = vals[k]
            av = v if v >= 0 else -v
            if av > cm:
                cm = av
            acc += av * (expw[i] + expw_neg[i])
        dyn = (8.0 / state.alpha) * cm * acc / state.z
    else:
        dyn = 0.0
    return dyn + float(params.static_l[j])


def smax_hessian_diag(state, j):
    """Exact second derivative of the smoothed residual alone along coordinate j."""
    rows, vals = state._cols[j]
    if not rows:
        return 0.0
    expw, expw_neg = state.expw, state.expw_neg
    first = 0.0
    second = 0.0
    for k in range(len(rows)):
        i = rows[k]
        p, p_neg = expw[i] / state.z, expw_neg[i] / state.z
        first += vals[k] * vals[k] * (p + p_neg)
        second += vals[k] * (p - p_neg)
    return (first - second * second) / state.alpha


def hessian_diag_upper(state, j, params):
    """Upper envelope (1/alpha) * sum_i A_ij^2 (p_i + p_neg_i) plus the
    regularizer curvature.

    This is the bound the smoothness certificates are checked against; it
    dominates the exact diagonal.
    """
    rows, vals = state._cols[j]
    quad = 0.0
    expw, expw_neg = state.expw, state.expw_neg
    for k in range(len(rows)):
        i = rows[k]
        quad += vals[k] * vals[k] * (expw[i] + expw_neg[i])
    return quad / (state.z * state.alpha) + float(params.curvature[j])


def objective_value(state, center, params):
    """Regularized objective: smax plus the quadratic pull toward center."""
    diff = state.x - center
    reg = 0.5 * params.mu * float((params.d * diff) @ diff)
    return float(state.smax()) + reg


def row_entry_weight(params, j, vals):
    """Weights |A_ij| * colmax_j / d_j of column j's entries ``vals``; an
    entry makes d_j >= colmax_j > 0."""
    vals = np.asarray(vals, dtype=np.float64)
    cm = np.abs(vals).max() if len(vals) else 0.0
    return np.abs(vals) * (cm / params.d[j])


def tree_total(tree):
    """Sum of a ``DynamicTree``'s leaf weights: its root."""
    return tree.nodes[1]


def sampler_weight(sampler, j):
    """Current sampling weight ``L_j(x) / d_j`` of column j under a
    ``CoordSampler`` (matches the drawn law exactly)."""
    state, params = sampler.state, sampler.params
    rows, vals = state.matrix.col(j)
    if len(rows) == 0:
        dyn = 0.0
    else:
        w = row_entry_weight(params, j, vals)
        expw, expw_neg = state.expw, state.expw_neg
        p = np.array([expw[int(i)] + expw_neg[int(i)] for i in rows]) / state.z
        dyn = sampler.dyn_coeff * float(w @ p)
    return dyn + float(params.sample_static[j])


def total_mass(sampler):
    """Current sum of a ``CoordSampler``'s weights over all columns."""
    dynamic = sampler.dyn_coeff * tree_total(sampler.tree) / sampler.state.z
    return sampler.static_mass + dynamic


def plain_phase(phase, t_star, uniforms):
    """A phase without in-phase checks: t_star - 1 iterations, then the
    aggregate point, with the draws and floats of ``run_phase`` whose stop
    never holds."""
    phase_iterates(phase, uniforms, t_star - 1)
    return aggregate_point(phase)


def reduction_recover(net, und, f_init, f_final):
    """Integral digraph flow recovered from a flow ``f_final`` of
    ``directed_reduce(net)``'s network ``und``, decomposed on ``und``.

    ``f_final - f_init``, halved into the digraph's units, is split into s-t
    paths by BFS over the reduction's edges, rebuilding its adjacency for
    each path; a middle edge crossed along its arc adds the path's flow to
    that arc.  The result is clipped and rounded as ``recover`` does.
    """
    kept = np.flatnonzero((net.heads != net.source) & (net.tails != net.sink)).tolist()
    s, t = und.source, und.sink
    resid = 0.5 * (np.asarray(f_final, dtype=np.float64) - f_init)
    f_rec = np.zeros(net.m)
    arc_of_middle = {}
    dir_sign = {}
    for idx, k in enumerate(kept):
        e = 3 * idx + 1
        arc_of_middle[e] = k
        # the init flow runs v -> u on the middle edge; recovered usage of
        # the arc (u, v) cancels it, i.e. traverses the middle edge u -> v
        u, v = int(net.tails[k]), int(net.heads[k])
        lo, hi = (v, u) if v < u else (u, v)
        dir_sign[e] = 1.0 if (lo, hi) == (u, v) else -1.0
    for _ in range(10 * net.m + 10):
        adj = [[] for _ in range(und.n)]
        for e in range(und.m):
            if abs(resid[e]) > 1e-9:
                u, v = int(und.tails[e]), int(und.heads[e])
                if resid[e] > 0:
                    adj[u].append((v, e, 1.0))
                else:
                    adj[v].append((u, e, -1.0))
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            for (w, e, sgn) in adj[u]:
                if w not in parent:
                    parent[w] = (u, e, sgn)
                    q.append(w)
        if t not in parent:
            break
        bottleneck = math.inf
        w = t
        path = []
        while parent[w] is not None:
            u, e, sgn = parent[w]
            bottleneck = min(bottleneck, abs(resid[e]))
            path.append((e, sgn))
            w = u
        for e, sgn in path:
            resid[e] -= sgn * bottleneck
            if e in arc_of_middle and sgn == dir_sign[e]:
                f_rec[arc_of_middle[e]] += bottleneck
    f_rec = np.clip(f_rec, 0.0, 1.0)
    if np.abs(f_rec - np.round(f_rec)).max() > 1e-6:
        return round_to_integral(net, f_rec).flow
    return np.round(f_rec)


def search_round(net, f):
    """``flow.round_to_integral`` as it was before its forward walk: each
    cycle is found by ``find_cycle``'s depth-first search, and each push is
    clamped to the capacity bounds as well as to the next integer.

    Unit capacities; works for undirected (signed flows in [-1, 1]) and
    directed (flows in [0, 1]) networks.  Cycle cancellation through a virtual
    return edge: each push rounds at least one edge to an integer and never
    decreases the value.
    """
    f = np.asarray(f, dtype=np.float64).copy()
    if net.source is None or net.sink is None:
        raise InputError("rounding needs designated source and sink")
    if not np.allclose(net.caps, 1.0):
        raise InputError("rounding requires unit capacities")
    lo = 0.0 if net.directed else -1.0
    if (f > 1.0 + _ROUND_TOL).any() or (f < lo - _ROUND_TOL).any():
        raise InputError("input flow violates capacities")
    f = np.clip(f, lo, 1.0)
    achieved = incidence_apply(net, f)
    inner = np.delete(achieved, [net.source, net.sink])
    if len(inner) and np.abs(inner).max() > _ROUND_TOL:
        raise InputError("input flow violates conservation")
    fval = float(achieved[net.sink])

    m = net.m
    tails, heads = net.tails.tolist(), net.heads.tolist()
    # adjacency over edges incl. the virtual return edge index m (t -> s)
    def frac(v):
        return abs(v - round(v)) > 1e-9

    ret = fval
    for _ in range(m + 2):
        # np.round rounds half to even, as round does in frac
        frac_edges = np.flatnonzero(np.abs(f - np.round(f)) > 1e-9).tolist()
        if not frac_edges and not frac(ret):
            break
        adj = [[] for _ in range(net.n)]
        for e in frac_edges:
            u, v = tails[e], heads[e]
            adj[u].append((v, e, 1.0))   # traverse along orientation
            adj[v].append((u, e, -1.0))  # traverse against orientation
        if frac(ret):
            adj[net.sink].append((net.source, m, 1.0))
            adj[net.source].append((net.sink, m, -1.0))
        cycle = find_cycle(net.n, adj)
        if cycle is None:
            raise SolverFault("fractional support without a cycle")
        # orient the push to increase the return edge if it participates
        direction = 1.0
        for _, e, sgn in cycle:
            if e == m and sgn < 0:
                direction = -1.0
                break
        delta = math.inf
        for _, e, sgn in cycle:
            val = ret if e == m else f[e]
            step = sgn * direction
            room = (math.ceil(val - 1e-12) - val) if step > 0 else (val - math.floor(val + 1e-12))
            if e != m:
                room = min(room, (1.0 - val) if step > 0 else (val - lo))
            delta = min(delta, room)
        if delta <= 1e-12:
            raise SolverFault("degenerate rounding cycle")
        for _, e, sgn in cycle:
            if e == m:
                ret += sgn * direction * delta
            else:
                f[e] += sgn * direction * delta
    out = FlowSolution.from_flow(net, np.round(f))
    if out.value < math.floor(fval - 1e-6):
        raise SolverFault("rounding lost flow value")
    return out


def find_cycle(n, adj):
    """Any cycle in the multigraph given by adjacency (neighbor, edge, sign)."""
    color = [0] * n
    for start in range(n):
        if color[start] or not adj[start]:
            continue
        stack = [(start, -1, iter(adj[start]))]
        color[start] = 1
        path = [(start, None)]
        on_path = {start: 0}
        while stack:
            u, in_edge, it = stack[-1]
            advanced = False
            for (w, e, sgn) in it:
                if e == in_edge:
                    continue
                if w in on_path:
                    # found a cycle: slice the path from w onward
                    k = on_path[w]
                    cyc = [(path[i][0], path[i][1][0], path[i][1][1])
                           for i in range(k + 1, len(path))]
                    cyc.append((w, e, sgn))
                    return cyc
                if color[w] == 0:
                    color[w] = 1
                    path.append((w, (e, sgn)))
                    on_path[w] = len(path) - 1
                    stack.append((w, e, iter(adj[w])))
                    advanced = True
                    break
            if not advanced:
                color[u] = 2
                stack.pop()
                dropped = path.pop()
                del on_path[dropped[0]]
        # reset path bookkeeping between components
        path.clear()
        on_path.clear()
    return None


def arc_pair_dinic(net):
    """``flow.dinic_oracle`` as it was before it walked the CSR incidence.

    Undirected edges are modeled as arc pairs sharing no capacity, which
    preserves the max-flow value; the reported per-edge flow is the net.  An
    arc is open while its flow is below ``room``: c - 1e-9 c on an arc of
    capacity c, and -1e-9 c on its reverse arc.  Every level search labels
    every vertex it reaches, and the phases end only when one finds no path.
    """
    if net.source is None or net.sink is None:
        raise InputError("max flow needs designated source and sink")
    if net.source == net.sink:
        raise InputError("max flow needs a source distinct from the sink")
    n = net.n
    heads, caps, room = [], [], []
    graph = [[] for _ in range(n)]

    def add_arc(u, v, c):
        graph[u].append(len(heads))
        heads.append(v)
        caps.append(c)
        room.append(c - 1e-9 * c)
        graph[v].append(len(heads))
        heads.append(u)
        caps.append(0.0)
        room.append(-1e-9 * c)

    for u, v, c in zip(net.tails.tolist(), net.heads.tolist(), net.caps.tolist()):
        add_arc(u, v, c)
        if not net.directed:
            add_arc(v, u, c)
    flow_arc = [0.0] * len(heads)
    s, t = net.source, net.sink
    total = 0.0
    while True:
        level = [-1] * n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for a in graph[u]:
                if flow_arc[a] < room[a] and level[heads[a]] < 0:
                    level[heads[a]] = level[u] + 1
                    q.append(heads[a])
        if level[t] < 0:
            break
        it = [0] * n
        while True:
            path = []
            u = s
            while u != t:
                arcs = graph[u]
                while it[u] < len(arcs):
                    a = arcs[it[u]]
                    if flow_arc[a] < room[a] and level[heads[a]] == level[u] + 1:
                        break
                    it[u] += 1
                else:
                    if not path:
                        break
                    u = heads[path.pop() ^ 1]
                    it[u] += 1
                    continue
                path.append(a)
                u = heads[a]
            if u != t:
                break
            pushed = min(caps[a] - flow_arc[a] for a in path)
            for a in path:
                flow_arc[a] += pushed
                flow_arc[a ^ 1] -= pushed
            total += pushed
    # the forward arcs of the arc pairs, in edge order: one per edge on a
    # digraph, and the edge's own arc then its opposite on an undirected graph
    f = np.array(flow_arc[0::2])
    if not net.directed:
        f = f[0::2] - f[1::2]
    out = FlowSolution.from_flow(net, f)
    out.value = total
    return out
