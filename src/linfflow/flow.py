"""Max-flow pipeline: congestion approximation, the regression reduction,
rounding, augmenting paths, and the directed-to-undirected reduction.

The approximate path routes demands on undirected graphs by a recursion of
box-constrained regression solves against a congestion approximator (a
maximum-capacity spanning tree here, exact on trees), each solved by a
certificate-driven bisection over the congestion radius.  The regression
matrix depends only on the tree, so each approximator builds it once; a probe
at radius r keeps that matrix and divides the rhs by r, since
``max|r A x - b| = r max|A x - b/r|``.
The approximator is built over index arrays: the spanning tree comes from
Borůvka rounds over numpy arrays (``FlowNetwork.max_spanning_tree``; Kruskal
on small graphs), every graph edge's tree path is walked at once, one tree
level per pass, and the cut capacities are sums of positive terms only
(subtracting at the LCA would cancel catastrophically when capacities span
many orders of magnitude).  Augmenting paths walk the network's CSR incidence
(``FlowNetwork.incidence``).
Exact unit-capacity flows follow by scaling to feasibility, rounding the
fractional flow with cycle cancellation, and finishing with augmenting paths;
a digraph is reduced to an undirected graph first.
A Dinic blocking-flow solver serves as the in-package oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .cdsolver import solve_box_linf
from .core import RegressionInstance, SparseMatrix
from .errors import InputError, SolverFault
from .graphs import FlowNetwork, FlowSolution, incidence_apply
from .mirrorprox import solve_flow_regress


# at most this many tree-path walks left: _climb finishes them in Python
_SCALAR_CLIMB = 64

# round_to_integral's slack on the capacity bounds and on conservation
_ROUND_TOL = 1e-6


class TreeApproximator:
    """Congestion approximator from a maximum-capacity spanning tree.

    One row per tree edge: the indicator of the subtree cut scaled by the
    inverse capacity crossing it.  Exact on trees; in general ``alpha`` holds
    the exact quality factor, at most m (every edge crossing a tree edge's cut
    has no larger capacity, by the cycle property of the maximum spanning
    tree).

    The tree is ``net.max_spanning_tree()``: Kruskal's tree under decreasing
    capacity with ties broken by edge index, picked by Borůvka rounds over
    numpy arrays from ``graphs._BULK_EDGES`` edges on and by Kruskal's
    union-find below, with ``tree_edges`` in Kruskal's order either way.  A
    stack DFS from vertex 0 over the tree edges, in that order, gives
    ``tree_parent``, ``depth`` and ``post_order``; the post order fixes the
    float order of ``subtree_sums``.

    Rows are indexed by position in ``tree_edges``: ``row_vertex[k]`` is the
    deeper endpoint of ``tree_edges[k]`` (the cut is the subtree below it) and
    ``cutcap[k]`` the total capacity of the graph edges whose tree path
    crosses it.  The tree paths are walked for all edges at once (``_climb``),
    one tree level per pass, and ``cutcap`` sums the capacities each pass
    adds.  It sums positive terms only: the shortcut of adding ``+cap`` at
    both endpoints and ``-2 cap`` at their LCA, then summing subtrees, cancels
    catastrophically when capacities span many orders of magnitude (a cap-1
    edge whose subtree holds edges of 1e20 would get cut capacity 0).
    """

    def __init__(self, net):
        self.net = net
        n = net.n
        self.tree_edges = tree = net.max_spanning_tree()
        if len(tree) != n - 1:
            raise InputError("graph must be connected")
        adj = [[] for _ in range(n)]
        for e, u, v in zip(tree.tolist(), net.tails[tree].tolist(),
                           net.heads[tree].tolist()):
            adj[u].append((v, e))
            adj[v].append((u, e))
        tree_parent = [-1] * n
        tree_parent_edge = [-1] * n
        depth = [0] * n
        order_v = []
        stack = [0]
        seen = [False] * n
        seen[0] = True
        while stack:
            u = stack.pop()
            order_v.append(u)
            for w, e in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    tree_parent[w] = u
                    tree_parent_edge[w] = e
                    depth[w] = depth[u] + 1
                    stack.append(w)
        self.post_order = order_v[::-1]
        # (child, parent) in post order: subtree_sums' accumulation sequence
        self._child_parent = [(u, tree_parent[u]) for u in self.post_order
                              if tree_parent[u] >= 0]
        self.tree_parent = np.array(tree_parent, dtype=np.int64)
        self.tree_parent_edge = np.array(tree_parent_edge, dtype=np.int64)
        self.depth = np.array(depth, dtype=np.int64)
        t, h = net.tails[tree], net.heads[tree]
        self.row_vertex = np.where(self.depth[t] > self.depth[h], t, h)
        self._head_is_row = self.row_vertex == h
        self.n_rows = len(tree)
        # the row of each non-root vertex's parent edge
        self._row_of_vertex = np.full(n, -1, dtype=np.int64)
        self._row_of_vertex[self.row_vertex] = np.arange(self.n_rows)
        cutcap = np.zeros(self.n_rows)
        for rows, edges, _ in self._climb():
            cutcap += np.bincount(rows, weights=net.caps[edges],
                                  minlength=self.n_rows)
        self.cutcap = cutcap
        # exact quality factor: tree routing congests edge e by
        # |Rd_e| * cutcap_e / u_e, so the max of that ratio bounds OPT from
        # above; it is at most m but usually far smaller
        ratios = cutcap / net.caps[self.tree_edges]
        self.alpha = float(max(ratios.max(), 1.0)) if self.n_rows else 1.0
        self._matrix = None  # built by the first regression_parts call

    def _climb(self):
        """Walk every graph edge's tree path, all edges one tree level a pass.

        Yields ``(rows, edges, signs)`` per pass: graph edge ``edges[i]``
        crosses the tree edge of row ``rows[i]`` with sign
        ``chi_S(head) - chi_S(tail)``, where S is the subtree below that tree
        edge.  S holds exactly the endpoint the edge was climbed from: the sign
        is -1 from the tail, +1 from the head.  Per edge the deeper endpoint
        moves, or both when depths are equal, until they meet at the LCA.

        A pass costs a few dozen numpy calls whatever its size, so once at most
        ``_SCALAR_CLIMB`` walks remain (a deep tree's long paths), they finish
        one step at a time over Python lists, in one last yield.
        """
        net = self.net
        parent, depth, row_of = self.tree_parent, self.depth, self._row_of_vertex
        edges, a, b = np.arange(net.m), net.tails, net.heads
        da, db = depth[a], depth[b]
        live = a != b
        while True:
            edges, a, b, da, db = edges[live], a[live], b[live], da[live], db[live]
            if len(edges) <= _SCALAR_CLIMB:
                break
            up_a, up_b = da >= db, db >= da
            moved_a, moved_b = a[up_a], b[up_b]
            yield (row_of[np.concatenate((moved_a, moved_b))],
                   np.concatenate((edges[up_a], edges[up_b])),
                   np.repeat((-1.0, 1.0), (len(moved_a), len(moved_b))))
            a[up_a] = parent[moved_a]  # a and b are copies: masked above
            b[up_b] = parent[moved_b]
            da -= up_a
            db -= up_b
            live = a != b
        if not len(edges):
            return
        parent, depth, row_of = parent.tolist(), depth.tolist(), row_of.tolist()
        rows, cols, signs = [], [], []
        for e, u, v in zip(edges.tolist(), a.tolist(), b.tolist()):
            while u != v:
                du, dv = depth[u], depth[v]
                if du >= dv:
                    rows.append(row_of[u])
                    signs.append(-1.0)
                    u = parent[u]
                if dv >= du:
                    rows.append(row_of[v])
                    signs.append(1.0)
                    v = parent[v]
            cols.extend([e] * (len(rows) - len(cols)))
        yield np.array(rows), np.array(cols), np.array(signs)

    def subtree_sums(self, d):
        """Net demand inside the subtree below each vertex, in O(n)."""
        s = np.asarray(d, dtype=np.float64).tolist()
        for u, p in self._child_parent:
            s[p] += s[u]
        return np.array(s)

    def apply(self, d):
        """R @ d: per tree edge, the subtree demand over the cut capacity."""
        return self.subtree_sums(d)[self.row_vertex] / self.cutcap

    def tree_route(self, d):
        """Exact routing of d on the spanning tree; O(n)."""
        # net flow that must enter the subtree below each row's vertex
        need = self.subtree_sums(d)[self.row_vertex]
        f = np.zeros(self.net.m)
        f[self.tree_edges] = np.where(self._head_is_row, need, -need)
        return f

    def regression_parts(self, d):
        """(A, b) with A = 2 alpha R B U and b = 2 alpha R d.

        A depends on the tree alone: the first call builds it, and every call
        returns that same matrix object.  Column f touches exactly the tree
        edges on f's endpoints' tree path, with the signs of ``_climb``.  An
        entry that underflows to 0 (capacities spanning hundreds of orders of
        magnitude) is dropped; no row empties, since a tree edge has the
        largest capacity across its cut, so its own entry is at least 2 alpha/m.
        """
        scale = 2.0 * self.alpha
        if self._matrix is None:
            empty = np.zeros(0, dtype=np.int64)
            passes = [(empty, empty, np.zeros(0)), *self._climb()]
            rows, cols, signs = (np.concatenate(p) for p in zip(*passes))
            vals = scale * signs * self.net.caps[cols] / self.cutcap[rows]
            kept = vals != 0.0
            self._matrix = SparseMatrix.from_arrays(rows[kept], cols[kept], vals[kept],
                                                    self.n_rows, self.net.m)
        return self._matrix, scale * self.apply(d)


ROUTING_SOLVERS = ("cd-l2", "cd-diag", "mirror-prox")


def _check_routing_solver(solver, net=None):
    """Reject a solver that cannot route flows, and a digraph ``net``: the
    routing regresses against an undirected approximator, so it would let
    flow run against an arc."""
    if solver not in ROUTING_SOLVERS:
        raise InputError(f"solver {solver} cannot route flows; use one of "
                         + ", ".join(ROUTING_SOLVERS))
    if net is not None and net.directed:
        raise InputError("approximate max flow needs an undirected graph: mark "
                         "an undirected DIMACS file with a 'c undirected' line, "
                         "or use --solver dinic or exact-flow on a digraph")


@dataclass
class RouteResult:
    flow: np.ndarray
    x: np.ndarray
    radius: float
    certified: bool
    probes: int
    meta: dict = field(default_factory=dict)


def almost_route(net, d, approx, eps, solver="cd-l2", seed=0):
    """Route d to composite factor (1 + eps): certificate-driven radius search.

    Solves the box-constrained regression against the approximator rows at a
    bisected congestion radius.  Every probe runs on the approximator's one
    matrix with the rhs divided by the radius r, and its verdict is read in
    the radius's units.  A probe ends in one of three states: accepted
    when the solver exhibits a point of value at most eps*r/2, a certified
    reject when the weak-duality bound (``value - gap``) stays above it, and
    undecided when the solver's budget ran out first.  An undecided probe moves
    the search like a reject but certifies nothing: only certified rejects
    raise ``meta["opt_lower"]``, ``meta["undecided_probes"]`` counts the rest,
    and ``certified`` is False when there were any.  The search never fails:
    the spanning tree routes d exactly, so its congestion is always an
    acceptable radius.
    """
    if not 0.0 < eps < 1.0:
        raise InputError("eps must lie in (0, 1)")
    _check_routing_solver(solver, net)
    d = np.asarray(d, dtype=np.float64)
    rd = approx.apply(d)
    rd_norm = float(np.abs(rd).max()) if len(rd) else 0.0
    if rd_norm == 0.0:
        return RouteResult(flow=np.zeros(net.m), x=np.zeros(net.m), radius=0.0,
                           certified=True, probes=0,
                           meta={"undecided_probes": 0})
    d_scaled = d / rd_norm
    iterations = 0
    undecided = 0

    def probe(r, stream, warm=None):
        """Returns ``(accepted, certified_reject, x)`` and counts undecided probes.

        ``max|r A x - b| = r max|A x - b/r|``: the solve sees rhs b/r with the
        threshold and epsilon divided by r, and the verdicts multiply back.
        """
        nonlocal iterations, undecided
        target = eps / 2.0
        inst = RegressionInstance(matrix=matrix, b=rhs / r,
                                  epsilon=max(eps / 4.0, 1e-12 / r))
        if solver == "mirror-prox":
            res = solve_flow_regress(inst, seed=seed, value_target=target,
                                     lb_target=target)
        else:
            mode = "diag" if solver == "cd-diag" else "l2"
            res = solve_box_linf(inst, mode=mode, seed=seed, stream=stream,
                                 value_target=target, x0=warm, lb_target=target)
        iterations += res.sampled_coordinates
        thresh = eps * r / 2.0
        accepted = r * res.value <= thresh + 1e-12
        rejected = not accepted and r * (res.value - res.gap) > thresh
        undecided += not (accepted or rejected)
        return accepted, rejected, res.x

    # the spanning tree routes the demands exactly, so its congestion is a
    # certified acceptable radius with a zero-residual point: the search only
    # pays for probes below it
    f_tree = approx.tree_route(d_scaled)
    x_tree = f_tree / net.caps
    cong_tree = max(float(np.abs(x_tree).max()), 1.0)
    lo, hi = 1.0, cong_tree
    best_r, best_x = hi, x_tree / cong_tree
    probes = 0
    largest_reject = None
    if hi > 1.0:
        # fetched only here: when the tree already routes at congestion 1, no
        # probe runs and the approximator never builds its matrix
        matrix, rhs = approx.regression_parts(d_scaled)
        ok_lo, rejected, x_lo = probe(lo, 1, warm=best_x * (best_r / lo))
        probes += 1
        if ok_lo:
            best_r, best_x = lo, x_lo
        else:
            if rejected:
                largest_reject = lo
            while hi / lo > 1.0 + eps / 4.0 and probes < 60:
                mid = math.sqrt(lo * hi)
                ok, rejected, x_mid = probe(mid, probes, warm=best_x * (best_r / mid))
                probes += 1
                if ok:
                    hi, best_r, best_x = mid, mid, x_mid
                else:
                    lo = mid
                    if rejected:
                        largest_reject = mid
    x = best_x * best_r * rd_norm
    flow = x * net.caps
    # opt_lower: certified rejected radii bound OPT from below; the approximator
    # row bound certifies OPT >= |R d| always
    opt_lower = rd_norm if largest_reject is None else largest_reject * rd_norm
    return RouteResult(flow=flow, x=x, radius=best_r * rd_norm,
                       certified=undecided == 0, probes=probes,
                       meta={"opt_lower": opt_lower, "iterations": iterations,
                             "undecided_probes": undecided})


def flow_to_regress(net, d, eps, solver="cd-l2", seed=0, approx=None):
    """Exact-demand routing with congestion within (1 + eps) of optimal.

    Round zero routes at accuracy eps; when the exact tree routing of the
    remaining residual already lands within (1 + eps) of the certified optimum
    lower bound the recursion finishes there, otherwise up to log(2m) further
    rounds route residual demands at accuracy 1/2 before the exact tree
    finish.  Residual contraction is asserted per round.  ``approx`` is a
    ``TreeApproximator`` of ``net`` to reuse (and its regression matrix with
    it); by default one is built.
    """
    _check_routing_solver(solver, net)
    d = np.asarray(d, dtype=np.float64)
    if approx is None:
        approx = TreeApproximator(net)
    rounds = max(1, math.ceil(math.log2(2 * max(net.m, 2))))
    f_total = np.zeros(net.m)
    d_k = d.copy()
    ratios = []
    opt_lower = 0.0
    iterations = 0
    for k in range(rounds + 1):
        eps_k = eps if k == 0 else 0.5
        rd_before = float(np.abs(approx.apply(d_k)).max())
        if rd_before <= 1e-14 * max(1.0, float(np.abs(d).max())):
            break
        route = almost_route(net, d_k, approx, eps_k, solver=solver,
                             seed=seed + k)
        iterations += route.meta.get("iterations", 0)
        f_total += route.flow
        d_k = d_k - incidence_apply(net, route.flow)
        rd_after = float(np.abs(approx.apply(d_k)).max())
        ratios.append((rd_before, rd_after, eps_k))
        if rd_after > eps_k * rd_before * (1.0 + 1e-6) + 1e-12:
            raise SolverFault(
                f"round {k}: residual contraction violated "
                f"({rd_after:.3e} vs {eps_k:.2f} * {rd_before:.3e})"
            )
        if k == 0:
            opt_lower = max(route.meta.get("opt_lower", 0.0), rd_before)
            # certified early finish: routing the residual exactly on the tree
            # may already land within (1 + eps) of the certified lower bound,
            # because the tree's quality factor matches the factor the
            # remaining rounds would grind down
            candidate = f_total + approx.tree_route(d_k)
            total_cong = float(np.abs(candidate / net.caps).max())
            if total_cong <= (1.0 + eps) * opt_lower + 1e-12:
                f_total = candidate
                d_k = d - incidence_apply(net, f_total)
                break
    f_total += approx.tree_route(d_k)
    sol = FlowSolution.from_flow(net, f_total)
    scale = max(1.0, float(np.abs(d).max()))
    if np.abs(sol.achieved_demand - d).max() > 1e-9 * scale:
        raise SolverFault("exact tree routing failed to close the demands")
    sol.meta["contraction"] = ratios
    sol.meta["iterations"] = iterations
    return sol


def round_to_integral(net, f):
    """Integral flow of value at least floor(F) from a feasible fractional one.

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
        cycle = _find_cycle(net.n, adj)
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


def _find_cycle(n, adj):
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


def augment_to_max(net, flow, rounds=None):
    """BFS augmenting rounds on the capacitated residual graph (Edmonds-Karp).

    An edge has residual ``cap - f`` along its orientation and ``f - lo cap``
    against it, with lo = 0 on digraphs and -1 on undirected graphs.  A
    direction is open while its residual exceeds 1e-9 times the edge's
    capacity (a bound on f, computed once per edge), so scaling every
    capacity scales the answer.  Runs until no augmenting path remains, or
    for at most ``rounds`` augmentations.
    """
    if net.source is None or net.sink is None:
        raise InputError("augmenting needs designated source and sink")
    f = np.asarray(flow, dtype=np.float64).tolist()
    caps = net.caps.tolist()
    lo = 0.0 if net.directed else -1.0
    # the direction along (against) e is open while f[e] < hi[e] (f[e] > low[e])
    hi = (net.caps - 1e-9 * net.caps).tolist()
    low = (lo * net.caps + 1e-9 * net.caps).tolist()
    ptr, neighbor, edge, sign = (a.tolist() for a in net.incidence())
    s, t = net.source, net.sink
    done = 0
    while rounds is None or done < rounds:
        # BFS; prev[w] is the vertex w was reached from, slot[w] the entry
        prev = [-1] * net.n
        slot = [0] * net.n
        prev[s] = s
        queue = [s]
        for u in queue:
            if prev[t] >= 0:
                break
            for k in range(ptr[u], ptr[u + 1]):
                w = neighbor[k]
                if prev[w] >= 0:
                    continue
                e = edge[k]
                if (f[e] < hi[e]) if sign[k] > 0 else (f[e] > low[e]):
                    prev[w] = u
                    slot[w] = k
                    queue.append(w)
        if prev[t] < 0:
            break
        # walk back, find bottleneck, push
        path = []
        w = t
        while w != s:
            path.append(slot[w])
            w = prev[w]
        bottleneck = math.inf
        for k in path:
            e = edge[k]
            residual = (caps[e] - f[e]) if sign[k] > 0 else (f[e] - lo * caps[e])
            bottleneck = min(bottleneck, residual)
        for k in path:
            f[edge[k]] += sign[k] * bottleneck
        done += 1
    return FlowSolution.from_flow(net, np.array(f))


def dinic_oracle(net):
    """Exact max flow via blocking flows; returns a FlowSolution.

    Undirected edges are modeled as arc pairs sharing no capacity, which
    preserves the max-flow value; the reported per-edge flow is the net.  An
    arc is open while its flow is below ``room``: c - 1e-9 c on an arc of
    capacity c, and -1e-9 c on its reverse arc.  The test scales with the
    capacities, so scaling every capacity by a power of two scales the flow
    exactly.
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
            # one s-t path of the level graph, walked with an explicit arc
            # stack so that path length is not bounded by the recursion limit
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
                    # dead end: step back and skip the arc that led here
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


def directed_reduce(net):
    """Unit digraph -> undirected triple construction with a half-saturating start.

    Every arc (u, v) becomes undirected edges (s, v), (v, u), (u, t) of
    capacity one half; the initial flow pushes one half along each.  Returns
    (undirected network, f_init, recover) where recover maps an undirected
    max flow back to an integral max flow of the digraph.  The undirected
    network spans s, t and the endpoints of the kept arcs, relabelled in
    increasing order.  With no arc kept the max flow is 0, and all three are
    None.
    """
    if not net.directed:
        raise InputError("directed reduction expects a digraph")
    if not np.allclose(net.caps, 1.0):
        raise InputError("directed reduction expects unit capacities")
    if net.source is None or net.sink is None:
        raise InputError("directed reduction needs source and sink")
    s, t = net.source, net.sink
    # arcs into the source or out of the sink never carry flow in some maximum
    # flow (drop cycles in a decomposition); dropping them avoids degenerate
    # self-loop legs in the construction
    keep = (net.heads != s) & (net.tails != t)
    kept = np.flatnonzero(keep).tolist()
    if not kept:
        return None, None, None
    # dropping arcs can isolate vertices; an order-preserving relabelling
    # keeps every lo < hi orientation below
    verts = np.unique(np.concatenate(([s, t], net.tails[keep], net.heads[keep])))
    label = np.zeros(net.n, dtype=np.int64)
    label[verts] = np.arange(len(verts))
    s, t = int(label[s]), int(label[t])
    edges = []
    init_along = []  # +1 when f_init follows the stored orientation
    for k in kept:
        u, v = int(label[net.tails[k]]), int(label[net.heads[k]])
        for (a, b) in ((s, v), (v, u), (u, t)):
            lo, hi = (a, b) if a < b else (b, a)
            edges.append((lo, hi, 0.5))
            init_along.append(1.0 if (lo, hi) == (a, b) else -1.0)
    middle_of_arc = [3 * idx + 1 for idx in range(len(kept))]
    und = FlowNetwork(len(verts), edges, directed=False, source=s, sink=t)
    f_init = 0.5 * np.array(init_along)

    def recover(f_final):
        diff = np.asarray(f_final, dtype=np.float64) - f_init
        # decompose diff into s->t paths, dropping cycles
        resid = diff.copy()
        f_rec = np.zeros(net.m)
        arc_of_middle = {}
        dir_sign = {}
        for idx, k in enumerate(kept):
            e = middle_of_arc[idx]
            arc_of_middle[e] = k
            # the init flow runs v -> u on the middle edge; recovered usage of
            # the arc (u, v) cancels it, i.e. traverses the middle edge u -> v
            u, v = int(net.tails[k]), int(net.heads[k])
            lo, hi = (v, u) if v < u else (u, v)
            dir_sign[e] = 1.0 if (lo, hi) == (u, v) else -1.0
        value = 0.0
        for _ in range(10 * net.m + 10):
            # walk a path s -> t through positive residual diff
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
            value += bottleneck
        f_rec = np.clip(f_rec, 0.0, 1.0)
        if np.abs(f_rec - np.round(f_rec)).max() > 1e-6:
            rounded = round_to_integral(net, f_rec)
            f_rec = rounded.flow
        else:
            f_rec = np.round(f_rec)
        return f_rec

    return und, f_init, recover


def exact_unit_maxflow(net, eps=None, solver="cd-l2", seed=0):
    """Exact integral max flow on unit-capacity graphs via the full pipeline.

    Approximate route, scale to feasibility, round, then augmenting paths.
    Directed inputs go through the undirected reduction first.
    """
    _check_routing_solver(solver)
    if not np.allclose(net.caps, 1.0):
        raise InputError("exact pipeline expects unit capacities")
    if net.source is None or net.sink is None:
        raise InputError("max flow needs designated source and sink")
    if net.directed:
        und, _, recover = directed_reduce(net)
        if und is None:  # a simple s-t path keeps all its arcs: there is none
            return augment_to_max(net, np.zeros(net.m))
        # scale to a unit multigraph for the recursive undirected solve
        scaled = FlowNetwork(
            und.n, [(int(u), int(v), 1.0) for u, v in zip(und.tails, und.heads)],
            directed=False, source=und.source, sink=und.sink,
        )
        inner = exact_unit_maxflow(scaled, eps=eps, solver=solver, seed=seed)
        f_final = inner.flow * 0.5
        f_rec = recover(f_final)
        aug = augment_to_max(net, f_rec)
        aug.meta["f_final"] = f_final
        return aug
    if eps is None:
        eps = min(0.25, max(0.02, net.n ** 0.25 / max(net.m, 1) ** 0.75))
    d = net.st_demand(1.0)
    sol = flow_to_regress(net, d, eps, solver=solver, seed=seed)
    congestion = sol.max_congestion
    if congestion <= 0:
        raise SolverFault("approximate route returned a zero flow")
    feasible = sol.flow / congestion
    rounded = round_to_integral(net, feasible)
    return augment_to_max(net, rounded.flow)
