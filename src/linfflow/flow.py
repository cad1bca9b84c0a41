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
Borůvka rounds over numpy arrays (``FlowNetwork.max_spanning_tree``), it is
rooted by a breadth-first search whose levels ``subtree_sums`` sums deepest
first, every graph edge's tree path is walked at once, one tree
level per pass, and the cut capacities are sums of positive terms only
(subtracting at the LCA would cancel catastrophically when capacities span
many orders of magnitude).
Exact unit-capacity flows follow by scaling to feasibility, rounding the
fractional flow with cycle cancellation (each cycle closed by one forward
walk over the fractional edges), and finishing with augmenting paths;
a digraph is reduced to a unit-capacity undirected graph first, and the flow
found there is decomposed into s-t paths over the digraph's own incidence.
A Dinic blocking-flow solver serves as the in-package oracle.  Augmenting
paths and Dinic walk the network's CSR incidence (``FlowNetwork.incidence``)
with one flow per edge, and both stop once every edge at s, or every edge
at t, is closed (``_star_closed``), without a last search that finds no
path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cdsolver import solve_box_linf
from .core import RegressionInstance, SparseMatrix
from .errors import InputError, SolverFault
from .graphs import FlowNetwork, FlowSolution, csr_incidence, incidence_apply
from .mirrorprox import solve_flow_regress


# at most this many tree-path walks left (_climb), or children in a tree level
# (_root_tree): Python lists beat numpy calls from here down
_SCALAR_CLIMB = 64

# round_to_integral's slack on the capacity bounds and on conservation
_ROUND_TOL = 1e-6


def _root_tree(n, tails, heads):
    """Root the tree with edges ``(tails[k], heads[k])`` at vertex 0.

    Returns ``(parent, depth, levels)``.  A breadth-first search finds the
    tree level by level, each vertex's children in descending order of k (the
    CSR of the edges reversed, ``csr_incidence``).  A level with more than
    ``_SCALAR_CLIMB`` children comes from one set of numpy gathers; narrower
    ones, a deep tree's long stretches, one vertex at a time over Python lists.

    ``levels`` is the search's order reversed, one entry per wide level and
    one per stretch of narrow levels, in ``subtree_sums``' format: every child
    comes after all of its own children, and each parent's children come in
    ascending order of k.  A wide level is ``(children, parents, None)``.  A
    stretch is ``(None, parents, verts)``: ``verts`` in the search's order,
    from the level above the stretch down, and ``parents`` the index in
    ``verts`` of the parent of each vertex below that level, last vertex first.
    """
    ptr, nbr, _, _ = csr_incidence(n, tails[::-1], heads[::-1])
    kids = ptr[1:] - ptr[:-1] - 1  # every neighbour but the parent
    kids[0] += 1
    parent = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    levels, lists = [], None
    children, parents, k = np.zeros(1, dtype=np.int64), np.array([-1]), 0
    while True:
        wide = kids[children].sum()
        if not wide:
            break
        if wide > _SCALAR_CLIMB:
            lo = ptr[children]
            cnt = ptr[children + 1] - lo
            slot = np.arange(cnt.sum()) + np.repeat(lo + cnt - np.cumsum(cnt), cnt)
            keep = nbr[slot] != np.repeat(parents, cnt)
            children, parents = nbr[slot[keep]], np.repeat(children, cnt)[keep]
            k += 1
            parent[children] = parents
            depth[children] = k
            levels.append((children[::-1], parents[::-1], None))
            continue
        if lists is None:
            lists = ptr.tolist(), nbr.tolist(), kids.tolist()
        ptr_l, nbr_l, kids_l = lists
        # the queue: the level at depth k, then the stretch level by level;
        # per vertex queued, its parent's index in the queue and its depth
        cs, ps, up, ds = children.tolist(), parents.tolist(), [], []
        push_c, push_p, push_u, push_d = cs.append, ps.append, up.append, ds.append
        first = end = len(cs)
        wide = 0
        for i, u in enumerate(cs):
            if i == end:  # cs[end:] is the next level, queued whole
                if not 0 < wide <= _SCALAR_CLIMB:
                    break
                end, wide, k = len(cs), 0, k + 1
            pu = ps[i]
            for w in nbr_l[ptr_l[u]:ptr_l[u + 1]]:
                if w != pu:
                    push_c(w)
                    push_p(u)
                    push_u(i)
                    push_d(k + 1)
                    wide += kids_l[w]
        verts = np.array(cs)
        parent[verts[first:]] = ps[first:]
        depth[verts[first:]] = ds
        levels.append((None, up[::-1], verts))
        children, parents, k = verts[end:], np.array(ps[end:]), k + 1
    return parent, depth, levels[::-1]


class TreeApproximator:
    """Congestion approximator from a maximum-capacity spanning tree.

    One row per tree edge: the indicator of the subtree cut scaled by the
    inverse capacity crossing it.  Exact on trees; in general ``alpha`` holds
    the exact quality factor, at most m (every edge crossing a tree edge's cut
    has no larger capacity, by the cycle property of the maximum spanning
    tree).

    The tree is ``net.max_spanning_tree()``: Kruskal's tree under decreasing
    capacity with ties broken by edge index, picked by Borůvka rounds over
    numpy arrays, with ``tree_edges`` in Kruskal's order.  A
    breadth-first search from vertex 0 (``_root_tree``) gives ``tree_parent``,
    ``depth`` and the levels that fix the float order of ``subtree_sums``:
    deepest level first, each parent's children in row order.

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
        t, h = net.tails[tree], net.heads[tree]
        self.tree_parent, self.depth, self._levels = _root_tree(n, t, h)
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
        """Net demand inside the subtree below each vertex, in O(n).

        Adds every child's sum to its parent's, deepest level first: one
        ``np.add.at`` per wide level, a narrow stretch one pair at a time over
        a list (``_root_tree``).  Each parent gets its children in row order.
        """
        s = np.array(d, dtype=np.float64)
        for children, parents, verts in self._levels:
            if verts is None:
                np.add.at(s, parents, s[children])
            else:
                # reversed(v) reads each sum after its children, queued later
                v = s[verts].tolist()
                for x, p in zip(reversed(v), parents):
                    v[p] += x
                s[verts] = v
        return s

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
            res = solve_flow_regress(inst, seed=seed, stream=stream,
                                     value_target=target, lb_target=target)
        else:
            res = solve_box_linf(inst, solver=solver, seed=seed, stream=stream,
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
        # each probe draws from stream = the number of probes before it
        ok_lo, rejected, x_lo = probe(lo, probes, warm=best_x * (best_r / lo))
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
    return edge t -> s: each push rounds at least one edge to an integer and
    never decreases the value.  With the return edge counted, every vertex
    has integral net flow, so a vertex on the fractional support has a second
    fractional edge; each cycle is closed by one forward walk that never
    leaves a vertex by the edge it came in on, with no search.  Conservation
    holds only to ``_ROUND_TOL``, so the walk can reach a vertex whose one
    fractional edge is the one it came in on: that edge is off an integer by
    the vertex's imbalance alone, and it is snapped to the nearer integer.
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

    def frac(v):
        return abs(v - round(v)) > 1e-9

    ret = fval
    for _ in range(m + 2):
        # np.round rounds half to even, as round does in frac
        frac_edges = np.flatnonzero(np.abs(f - np.round(f)) > 1e-9).tolist()
        if not frac_edges and not frac(ret):
            break
        # (neighbor, edge, sign) over the fractional edges and the return edge m
        adj = [[] for _ in range(net.n)]
        for e in frac_edges:
            u, v = tails[e], heads[e]
            adj[u].append((v, e, 1.0))   # traverse along orientation
            adj[v].append((u, e, -1.0))  # traverse against orientation
        if frac(ret):
            adj[net.sink].append((net.source, m, 1.0))
            adj[net.source].append((net.sink, m, -1.0))
        # a walk from the lowest vertex on the support that never leaves by the
        # edge it came in on closes a cycle where it first revisits a vertex
        u, in_edge = next(v for v in range(net.n) if adj[v]), -1
        walk, pos = [], {}  # steps (vertex reached, edge, sign); vertex -> step
        while u not in pos:
            pos[u] = len(walk)
            arc = next((a for a in adj[u] if a[1] != in_edge), None)
            if arc is None:
                # u's one fractional edge, the one the walk came in on, is
                # off an integer by u's imbalance alone: snap it there
                if in_edge == m:
                    ret = round(ret)
                else:
                    f[in_edge] = round(f[in_edge])
                break
            walk.append(arc)
            u, in_edge = arc[0], arc[1]
        if arc is None:
            continue
        cycle = walk[pos[u]:]
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
            # f lies in [lo, 1], so the next integer is a capacity bound or inside
            room = (math.ceil(val - 1e-12) - val) if step > 0 else (val - math.floor(val + 1e-12))
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


def _open_bounds(net):
    """``(lo, hi, low)``: an edge is open along its orientation while
    ``f < hi`` and against it while ``f > low``, with lo = 0 on digraphs and
    -1 on undirected graphs, and 1e-9 times the capacity of slack."""
    lo = 0.0 if net.directed else -1.0
    return lo, net.caps - 1e-9 * net.caps, lo * net.caps + 1e-9 * net.caps


def _star_closed(net):
    """The stop test of both exact solvers, as a function of a flow f.

    It holds when every edge of the s-star, or of the t-star, is closed
    under the ``_open_bounds``: ``f >= hi`` where a path would leave s (enter
    t) along the edge, ``f <= low`` where against it.  No augmenting path is
    left then, so no search has to find none.  Each edge is tested on its
    own: no float sum of capacities can hide an open one.
    """
    s, t = net.source, net.sink
    _, hi, low = _open_bounds(net)

    def edges(ends, v, bound):  # (edge, its bound) for the edges with end v
        idx = np.flatnonzero(ends == v)
        return list(zip(idx.tolist(), bound[idx].tolist()))

    stars = ((edges(net.tails, s, hi), edges(net.heads, s, low)),
             (edges(net.heads, t, hi), edges(net.tails, t, low)))
    return lambda f: any(all(f[e] >= b for e, b in along)
                         and all(f[e] <= b for e, b in against)
                         for along, against in stars)


def _check_terminals(net):
    if net.source is None or net.sink is None:
        raise InputError("max flow needs designated source and sink")
    if net.source == net.sink:
        raise InputError("max flow needs a source distinct from the sink")


def _residual_lists(net):
    """``(caps, lo, hi, low, ptr, neighbor, edge, sign)`` as lists: the CSR
    incidence and the ``_open_bounds``."""
    lo, hi, low = _open_bounds(net)
    return (net.caps.tolist(), lo, hi.tolist(), low.tolist(),
            *(a.tolist() for a in net.incidence()))


def _search(res, f, s, t):
    """BFS from s over the open slots, stopped once it labels t.

    Returns per vertex its level (-1 when unlabelled), the vertex it was
    reached from, and the slot it was reached by.
    """
    _, _, hi, low, ptr, neighbor, edge, sign = res
    n = len(ptr) - 1
    level, prev, slot = [-1] * n, [0] * n, [0] * n
    level[s] = 0
    queue = [s]
    for u in queue:
        if level[t] >= 0:
            break
        for k in range(ptr[u], ptr[u + 1]):
            w = neighbor[k]
            if level[w] < 0:
                e = edge[k]
                if (f[e] < hi[e]) if sign[k] > 0 else (f[e] > low[e]):
                    level[w] = level[u] + 1
                    prev[w] = u
                    slot[w] = k
                    queue.append(w)
    return level, prev, slot


def _push(res, f, path):
    """Push the smallest residual of the slots in ``path``; returns it."""
    caps, lo, _, _, _, _, edge, sign = res
    pushed = min((caps[edge[k]] - f[edge[k]]) if sign[k] > 0
                 else (f[edge[k]] - lo * caps[edge[k]]) for k in path)
    for k in path:
        f[edge[k]] += sign[k] * pushed
    return pushed


def augment_to_max(net, flow):
    """BFS augmenting rounds on the capacitated residual graph (Edmonds-Karp).

    An edge has residual ``cap - f`` along its orientation and ``f - lo cap``
    against it, with lo = 0 on digraphs and -1 on undirected graphs.  A
    direction is open while its residual exceeds 1e-9 times the edge's
    capacity (a bound on f, computed once per edge), so scaling every
    capacity scales the answer.  Runs until every edge of the s-star or of
    the t-star is closed (``_star_closed``, checked before any list is built)
    or no augmenting path remains.  ``meta`` records the ``searches``, the
    ``paths`` pushed and the ``stop``: ``"star_cut"`` or ``"no_path"``.
    """
    _check_terminals(net)
    out = FlowSolution.from_flow(net, np.array(flow, dtype=np.float64))
    closed = _star_closed(net)
    if closed(out.flow):
        out.meta.update(searches=0, paths=0, stop="star_cut")
        return out
    res = _residual_lists(net)
    f = out.flow.tolist()
    s, t = net.source, net.sink
    searches = paths = 0
    while not closed(f):
        searches += 1
        level, prev, slot = _search(res, f, s, t)
        if level[t] < 0:
            break
        path = []
        w = t
        while w != s:
            path.append(slot[w])
            w = prev[w]
        _push(res, f, path)
        paths += 1
    out = FlowSolution.from_flow(net, np.array(f))
    out.meta.update(searches=searches, paths=paths,
                    stop="star_cut" if closed(f) else "no_path")
    return out


def dinic_oracle(net):
    """Exact max flow via blocking flows (Dinic 1970); returns a FlowSolution.

    One flow per edge on the CSR incidence, open as in ``augment_to_max``.
    Each level search stops once it labels t: no vertex at t's level or
    beyond lies on a shortest s-t path.  A blocking flow is walked depth
    first with an explicit stack of incidence slots, so path length is not
    bounded by the recursion limit.  The phases end once ``_star_closed``
    holds or a level search misses t; ``value`` is the pushed total, and
    ``meta`` counts as ``augment_to_max``'s does.
    """
    _check_terminals(net)
    res = _residual_lists(net)
    _, _, hi, low, ptr, neighbor, edge, sign = res
    f = [0.0] * net.m
    s, t = net.source, net.sink
    closed = _star_closed(net)
    total = 0.0
    searches = paths = 0
    while not closed(f):
        searches += 1
        level, _, _ = _search(res, f, s, t)
        if level[t] < 0:
            break
        it = ptr[:-1]  # each vertex's next slot to try
        while True:
            # one s-t path of the level graph: the slots walked from s
            path = []
            u = s
            while u != t:
                k, end, nxt = it[u], ptr[u + 1], level[u] + 1
                while k < end:
                    e = edge[k]
                    if level[neighbor[k]] == nxt and (
                            (f[e] < hi[e]) if sign[k] > 0 else (f[e] > low[e])):
                        break
                    k += 1
                it[u] = k
                if k == end:
                    if not path:
                        break
                    # dead end: step back and skip the slot that led here
                    path.pop()
                    u = neighbor[path[-1]] if path else s
                    it[u] += 1
                    continue
                path.append(k)
                u = neighbor[k]
            if u != t:
                break
            total += _push(res, f, path)
            paths += 1
    out = FlowSolution.from_flow(net, np.array(f))
    out.value = total
    out.meta.update(searches=searches, paths=paths,
                    stop="star_cut" if closed(f) else "no_path")
    return out


def directed_reduce(net):
    """Unit digraph -> undirected triple construction with a saturating start.

    Every arc (u, v) becomes unit-capacity undirected edges (s, v), (v, u),
    (u, t); the initial flow pushes one unit along each (the paper's
    half-capacity network scaled by 2).  Returns (undirected network, f_init,
    recover) where recover maps an undirected max flow back to an integral
    max flow of the digraph.  The undirected network spans s, t and the
    endpoints of the kept arcs, relabelled in increasing order.  With no arc
    kept the max flow is 0, and all three are None.
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
    if not keep.any():
        return None, None, None
    # dropping arcs can isolate vertices; an order-preserving relabelling
    # keeps every lo < hi orientation below
    verts = np.unique(np.concatenate(([s, t], net.tails[keep], net.heads[keep])))
    label = np.zeros(net.n, dtype=np.int64)
    label[verts] = np.arange(len(verts))
    ls, lt = int(label[s]), int(label[t])
    edges = []
    init_along = []  # +1 when f_init follows the stored orientation
    for u, v in zip(label[net.tails[keep]].tolist(), label[net.heads[keep]].tolist()):
        for (a, b) in ((ls, v), (v, u), (u, lt)):
            lo, hi = (a, b) if a < b else (b, a)
            edges.append((lo, hi, 1.0))
            init_along.append(1.0 if (lo, hi) == (a, b) else -1.0)
    und = FlowNetwork(len(verts), edges, directed=False, source=ls, sink=lt)
    f_init = np.array(init_along)
    half_along = -0.5 * f_init[1::3]  # f_init runs each middle edge against its arc
    ptr, neighbor, edge, sign = (a.tolist() for a in net.incidence())

    def recover(f_final):
        # f_init saturates every leg away from s or toward t, so the flow
        # beyond it crosses a leg only into s or out of t: its s-t paths are
        # the digraph's directed s-t paths, each middle edge along its arc.
        # Decompose them on the digraph, in its units (half the reduction's).
        g = np.zeros(net.m)
        g[keep] = half_along * (np.asarray(f_final, dtype=np.float64) - f_init)[1::3]
        g = g.tolist()
        f_rec = [0.0] * net.m
        for _ in range(10 * net.m + 10):
            # BFS over out-arcs with flow left, as in augment_to_max
            prev = [-1] * net.n
            slot = [0] * net.n
            prev[s] = s
            queue = [s]
            for u in queue:
                if prev[t] >= 0:
                    break
                for k in range(ptr[u], ptr[u + 1]):
                    w = neighbor[k]
                    if prev[w] < 0 and sign[k] > 0 and g[edge[k]] > 1e-9:
                        prev[w] = u
                        slot[w] = k
                        queue.append(w)
            if prev[t] < 0:
                break
            path = []
            w = t
            while w != s:
                path.append(edge[slot[w]])
                w = prev[w]
            bottleneck = min(g[e] for e in path)
            for e in path:
                g[e] -= bottleneck
                f_rec[e] += bottleneck
        f_rec = np.clip(f_rec, 0.0, 1.0)
        if np.abs(f_rec - np.round(f_rec)).max() > 1e-6:
            return round_to_integral(net, f_rec).flow
        return np.round(f_rec)

    return und, f_init, recover


def exact_unit_maxflow(net, solver="cd-l2", seed=0):
    """Exact integral max flow on unit-capacity graphs via the full pipeline.

    Approximate route, scale to feasibility, round, then augmenting paths.
    Directed inputs are solved through the unit-capacity undirected reduction:
    ``meta["f_final"]`` holds the reduction's flow, in its units.
    """
    _check_routing_solver(solver)
    if not np.allclose(net.caps, 1.0):
        raise InputError("exact pipeline expects unit capacities")
    _check_terminals(net)
    if net.directed:
        und, _, recover = directed_reduce(net)
        if und is None:  # no arc kept: each enters s or leaves t, so the max flow is 0
            return augment_to_max(net, np.zeros(net.m))
        f_final = exact_unit_maxflow(und, solver=solver, seed=seed).flow
        aug = augment_to_max(net, recover(f_final))
        aug.meta["f_final"] = f_final
        return aug
    eps = min(0.25, max(0.02, net.n ** 0.25 / max(net.m, 1) ** 0.75))
    d = net.st_demand(1.0)
    sol = flow_to_regress(net, d, eps, solver=solver, seed=seed)
    congestion = sol.max_congestion
    if congestion <= 0:
        raise SolverFault("approximate route returned a zero flow")
    feasible = sol.flow / congestion
    rounded = round_to_integral(net, feasible)
    return augment_to_max(net, rounded.flow)
