"""Shared test oracles: LP solvers, finite differences, and instance generators.

Everything here is deliberately independent of the solver code paths it
checks: dense linear programming via scipy, brute-force enumeration, and
classical textbook routines.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy.optimize import linprog

from linfflow.core import RegressionInstance, SparseMatrix


def dense_to_sparse(a):
    a = np.asarray(a, dtype=np.float64)
    triplets = [
        (i, j, a[i, j])
        for i in range(a.shape[0])
        for j in range(a.shape[1])
        if a[i, j] != 0.0
    ]
    return SparseMatrix.from_triplets(triplets, a.shape[0], a.shape[1])


def random_sparse(rng, n, m, per_col=3, scale=1.0):
    """Random matrix with roughly per_col entries per column, none zero."""
    triplets = []
    for j in range(m):
        k = min(n, max(1, int(rng.integers(1, per_col + 1))))
        rows = rng.choice(n, size=k, replace=False)
        for i in rows:
            v = 0.0
            while v == 0.0:
                v = float(rng.normal()) * scale
            triplets.append((int(i), j, v))
    return SparseMatrix.from_triplets(triplets, n, m)


def random_instance(rng, n, m, per_col=3, eps=1e-2, scale=1.0, b_scale=1.0):
    matrix = random_sparse(rng, n, m, per_col=per_col, scale=scale)
    b = rng.normal(size=n) * b_scale
    return RegressionInstance(matrix=matrix, b=b, epsilon=eps)


def box_linf_opt(a_dense, b, radius=1.0):
    """Exact optimum of min_{|x|_inf <= radius} max_i |(A x - b)_i| via LP."""
    a = np.asarray(a_dense, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = a.shape
    # variables: (x, t); minimize t subject to  A x - t <= b, -A x - t <= -b
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.block([[a, -np.ones((n, 1))], [-a, -np.ones((n, 1))]])
    b_ub = np.concatenate([b, -b])
    bounds = [(-radius, radius)] * m + [(0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success, res.message
    return float(res.fun), np.array(res.x[:m])


def sup_norm_gap(params, delta_x):
    """The subproblem objective gap that puts its point within ``delta_x`` of
    the optimum in the sup norm.

    The subproblem is strongly convex with modulus (alpha / scale) * min d,
    so a gap of at most half the modulus times delta_x squared bounds the l2
    distance, and so the sup-norm distance, by delta_x.
    """
    d_min = float(params.d.min())
    assert d_min > 0, "diag mode needs a positive d floor"
    return 0.5 * (params.alpha / params.scale) * d_min * delta_x * delta_x


def min_congestion_opt(net, d):
    """Exact min congestion routing of demand d via LP (variables f, t)."""
    d = np.asarray(d, dtype=np.float64)
    m, n = net.m, net.n
    b_mat = np.zeros((n, m))
    for e, (u, v) in enumerate(zip(net.tails, net.heads)):
        b_mat[u, e] -= 1.0
        b_mat[v, e] += 1.0
    c = np.zeros(m + 1)
    c[-1] = 1.0
    # |f_e| <= t * u_e  expressed as f_e - u_e t <= 0 and -f_e - u_e t <= 0
    a_ub = np.block([
        [np.eye(m), -net.caps.reshape(-1, 1)],
        [-np.eye(m), -net.caps.reshape(-1, 1)],
    ])
    b_ub = np.zeros(2 * m)
    a_eq = np.hstack([b_mat, np.zeros((n, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=d,
                  bounds=[(None, None)] * m + [(0, None)], method="highs")
    assert res.success, res.message
    return float(res.fun), np.array(res.x[:m])


def central_diff_grad(f, x, h=1e-5):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def golden_section(f, lo, hi, tol=1e-10):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_search_min(f, dims, lo=-1.0, hi=1.0, resolution=1e-3):
    """Brute-force minimizer over a uniform grid on [lo, hi]^dims.

    ``f`` takes every grid point at once, as the rows of a ``(points, dims)``
    array in row-major grid order, and returns their values; the first
    minimum in that order wins.
    """
    if dims not in (1, 2):
        raise ValueError("grid oracle supports 1 or 2 dims")
    steps = int(round((hi - lo) / resolution)) + 1
    axis = np.linspace(lo, hi, steps)
    grids = np.meshgrid(*([axis] * dims), indexing="ij")
    points = np.stack(grids, axis=-1).reshape(-1, dims)
    values = np.asarray(f(points))
    k = int(np.argmin(values))
    return float(values[k]), points[k].copy()


def random_connected_graph(rng, n, extra_edges=None, unit=True):
    """Random connected undirected graph: spanning tree plus extras."""
    from linfflow.graphs import FlowNetwork

    edges = set()
    perm = rng.permutation(n)
    for k in range(1, n):
        u = int(perm[k])
        v = int(perm[rng.integers(0, k)])
        edges.add((min(u, v), max(u, v)))
    if extra_edges is None:
        extra_edges = max(1, n // 2)
    tries = 0
    while len(edges) < n - 1 + extra_edges and tries < 50 * n:
        tries += 1
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        edges.add((min(u, v), max(u, v)))
    caps = [1.0 if unit else float(rng.integers(1, 5)) for _ in edges]
    edge_list = [(u, v, c) for (u, v), c in zip(sorted(edges), caps)]
    source, sink = 0, n - 1
    return FlowNetwork(n, edge_list, directed=False, source=source, sink=sink)


def random_unit_digraph(rng, n, extra_arcs=None):
    """Random unit-capacity digraph with at least one s->t path."""
    from linfflow.graphs import FlowNetwork

    s, t = 0, n - 1
    arcs = set()
    # guarantee an s -> t path through a random permutation of inner vertices
    inner = list(rng.permutation(np.arange(1, n - 1)))
    path = [s] + [int(v) for v in inner[: max(0, int(rng.integers(0, max(1, n - 2))))]] + [t]
    for u, v in zip(path[:-1], path[1:]):
        arcs.add((u, v))
    if extra_arcs is None:
        extra_arcs = 2 * n
    tries = 0
    while len(arcs) < len(path) - 1 + extra_arcs and tries < 100 * n:
        tries += 1
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v or (u, v) in arcs:
            continue
        arcs.add((u, v))
    # ensure weak connectivity by linking isolated vertices into the path
    touched = {u for a in arcs for u in a}
    for v in range(n):
        if v not in touched:
            arcs.add((s, v))
            arcs.add((v, t))
    edge_list = [(u, v, 1.0) for (u, v) in sorted(arcs)]
    return FlowNetwork(n, edge_list, directed=True, source=s, sink=t)


def doubled_law(u):
    """The dual law over the rows of ``[A; -A]`` at mirror-prox's folded
    log-weights u: the rows of A, then the mirrors."""
    e = np.exp(np.concatenate([u, -u]) - np.abs(u).max())
    return e / e.sum()


def regularized_saddle(matrix2, b2, eps, s, iters=100_000, eta=None):
    """High-accuracy saddle of the entropy-regularized bilinear objective.

    Deterministic full-gradient mirror prox (Euclidean on x, entropic on y);
    a test oracle only.
    """
    import math as _math

    a = matrix2.to_dense()
    n2, m = a.shape
    log_n = max(_math.log(n2), 1.0)
    if eta is None:
        eta = 1.0 / (4.0 * (np.abs(a).sum(axis=1).max() + eps + 1.0))
    x = np.zeros(m)
    y = np.full(n2, 1.0 / n2)

    def g(xv, yv):
        gx = a.T @ yv + (eps / (2 * s)) * xv
        gy = b2 - a @ xv + (eps / (4 * log_n)) * np.log(yv)
        return gx, gy

    for _ in range(iters):
        gx, gy = g(x, y)
        wx = np.clip(x - eta * s * gx, -1.0, 1.0)
        wy = y * np.exp(-eta * gy)
        wy /= wy.sum()
        gx, gy = g(wx, wy)
        x = np.clip(x - eta * s * gx, -1.0, 1.0)
        y = y * np.exp(-eta * gy)
        y /= y.sum()
    return x, y


def ford_fulkerson_value(net):
    """Second independent max-flow implementation (BFS augmenting paths)."""
    from collections import deque

    n = net.n
    cap = {}
    for e in range(net.m):
        u, v, c = int(net.tails[e]), int(net.heads[e]), float(net.caps[e])
        cap[(u, v)] = cap.get((u, v), 0.0) + c
        if not net.directed:
            cap[(v, u)] = cap.get((v, u), 0.0) + c
        else:
            cap.setdefault((v, u), 0.0)
    adj = {}
    for (u, v) in cap:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    flow = {k: 0.0 for k in cap}
    s, t = net.source, net.sink
    total = 0.0
    while True:
        parent = {s: None}
        q = deque([s])
        while q and t not in parent:
            u = q.popleft()
            for w in adj.get(u, ()):
                if w not in parent and cap.get((u, w), 0.0) - flow.get((u, w), 0.0) > 1e-9:
                    parent[w] = u
                    q.append(w)
        if t not in parent:
            return total
        bott = float("inf")
        w = t
        while parent[w] is not None:
            u = parent[w]
            bott = min(bott, cap[(u, w)] - flow[(u, w)])
            w = u
        w = t
        while parent[w] is not None:
            u = parent[w]
            flow[(u, w)] = flow.get((u, w), 0.0) + bott
            flow[(w, u)] = flow.get((w, u), 0.0) - bott
            w = u
        total += bott


def kruskal_tree(net):
    """Kruskal's maximum spanning forest, edge by edge with a union-find.

    Edges go by ``sorted(key=(-cap, e))``: decreasing capacity, ties by edge
    index.  Returns the kept edges in the order Kruskal keeps them.
    """
    order = sorted(range(net.m), key=lambda e: (-net.caps[e], e))
    uf = list(range(net.n))

    def find(a):
        while uf[a] != a:
            uf[a] = uf[uf[a]]
            a = uf[a]
        return a

    tree = []
    for e in order:
        ra, rb = find(int(net.tails[e])), find(int(net.heads[e]))
        if ra != rb:
            uf[ra] = rb
            tree.append(e)
    return tree


class ReferenceTree:
    """The maximum-spanning-tree approximator built one edge at a time.

    Reference for ``linfflow.flow.TreeApproximator``: Kruskal by
    ``sorted(key=(-cap, e))``, a stack DFS from vertex 0 over the tree edges
    in that order (whose post order adds each parent's children in row order,
    as the approximator's levels do), and every graph edge's tree path walked
    vertex by vertex (``path_edges``), with the cut capacities summed edge by
    edge in edge order.  Rows are indexed by position in ``tree_edges``, as in
    the approximator.
    """

    def __init__(self, net):
        self.net = net
        n, m = net.n, net.m
        self.tree_edges = kruskal_tree(net)
        adj = [[] for _ in range(n)]
        for e in self.tree_edges:
            u, v = int(net.tails[e]), int(net.heads[e])
            adj[u].append((v, e))
            adj[v].append((u, e))
        self.tree_parent = [-1] * n
        self.tree_parent_edge = [-1] * n
        self.depth = [0] * n
        order_v, stack, seen = [], [0], [False] * n
        seen[0] = True
        while stack:
            u = stack.pop()
            order_v.append(u)
            for w, e in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    self.tree_parent[w] = u
                    self.tree_parent_edge[w] = e
                    self.depth[w] = self.depth[u] + 1
                    stack.append(w)
        self.post_order = order_v[::-1]
        self.row_vertex = []
        for e in self.tree_edges:
            a, b = int(net.tails[e]), int(net.heads[e])
            self.row_vertex.append(a if self.depth[a] > self.depth[b] else b)
        row_of = {e: k for k, e in enumerate(self.tree_edges)}
        self.cutcap = np.zeros(len(self.tree_edges))
        for e in range(m):
            for te, _ in self.path_edges(int(net.tails[e]), int(net.heads[e])):
                self.cutcap[row_of[te]] += net.caps[e]

    def path_edges(self, a, b):
        """``(tree edge, chi_S(b) - chi_S(a))`` along the tree path from a to b.

        S is the subtree below the edge, which holds exactly the endpoint it
        was climbed from: the sign is -1 for edges climbed from a, +1 from b.
        """
        parent, parent_edge, depth = self.tree_parent, self.tree_parent_edge, self.depth
        out = []
        while depth[a] > depth[b]:
            out.append((parent_edge[a], -1.0))
            a = parent[a]
        while depth[b] > depth[a]:
            out.append((parent_edge[b], 1.0))
            b = parent[b]
        while a != b:
            out.append((parent_edge[a], -1.0))
            out.append((parent_edge[b], 1.0))
            a, b = parent[a], parent[b]
        return out

    def subtree_sums(self, d):
        s = np.asarray(d, dtype=np.float64).copy()
        for u in self.post_order:
            p = self.tree_parent[u]
            if p >= 0:
                s[p] += s[u]
        return s

    def apply(self, d):
        s = self.subtree_sums(d)
        return np.array([s[v] / c for v, c in zip(self.row_vertex, self.cutcap)])

    def tree_route(self, d):
        s = self.subtree_sums(d)
        f = np.zeros(self.net.m)
        for e, v in zip(self.tree_edges, self.row_vertex):
            f[e] = s[v] if int(self.net.heads[e]) == v else -s[v]
        return f

    def regression_dense(self, alpha):
        """Dense 2 alpha R B U, one column per graph edge's signed tree path."""
        net = self.net
        row_of = {e: k for k, e in enumerate(self.tree_edges)}
        out = np.zeros((len(self.tree_edges), net.m))
        for f in range(net.m):
            for te, sign in self.path_edges(int(net.tails[f]), int(net.heads[f])):
                k = row_of[te]
                out[k, f] = 2.0 * alpha * sign * net.caps[f] / self.cutcap[k]
        return out


def flow_network_edge_error(n, edges, directed=False):
    """The first bad edge's message, checking edges one at a time in order.

    Reference for the edge checks of ``FlowNetwork``: per edge the range,
    then the self loop, then the capacity; None when every edge passes.
    """
    min_cap = float(np.finfo(np.float64).tiny)
    for k, (u, v, cap) in enumerate(edges):
        u, v, cap = int(u), int(v), float(cap)
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {k}: endpoint out of range"
        if u == v:
            return f"edge {k}: self loop at {u}"
        if not min_cap <= cap < math.inf:
            return (f"edge {k}: capacity {cap!r} must be finite and at least "
                    f"{min_cap!r}, so that its reciprocal is finite")
    return None


def triplet_error(triplets, n_rows, n_cols):
    """The first bad triplet's message, checking triplets one at a time in order.

    Reference for the entry checks of ``SparseMatrix``: per triplet the
    range, then a repeat of an earlier pair, then an explicit zero, then a
    non-finite value; None when every triplet passes.
    """
    seen = set()
    for k, (i, j, v) in enumerate(triplets):
        i, j, v = int(i), int(j), float(v)
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            return f"triplet {k}: index ({i}, {j}) out of range for {n_rows}x{n_cols}"
        if (i, j) in seen:
            return f"triplet {k}: duplicate entry at ({i}, {j})"
        seen.add((i, j))
        if v == 0.0:
            return f"triplet {k}: explicit zero at ({i}, {j})"
        if not math.isfinite(v):
            return f"triplet {k}: non-finite value {v!r} at ({i}, {j})"
    return None


class ReferenceSparse:
    """The sparse matrix built one column and one row at a time.

    Reference for ``linfflow.core.SparseMatrix``: per-column and per-row
    copies cut by ``searchsorted``, and the caches reduced over those copies
    one slice at a time.  Takes the arguments of the private constructor.
    """

    def __init__(self, n_rows, n_cols, rows, cols, vals):
        self.n_rows, self.n_cols = int(n_rows), int(n_cols)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        order = np.lexsort((rows, cols))
        self.rows_flat, self.cols_flat, self.vals_flat = (rows[order], cols[order],
                                                          vals[order])
        self.col_rows, self.col_vals = [], []
        start = np.searchsorted(self.cols_flat, np.arange(self.n_cols), side="left")
        stop = np.searchsorted(self.cols_flat, np.arange(self.n_cols), side="right")
        for j in range(self.n_cols):
            self.col_rows.append(self.rows_flat[start[j]:stop[j]].copy())
            self.col_vals.append(self.vals_flat[start[j]:stop[j]].copy())
        order_r = np.lexsort((cols, rows))
        rr, cc, vv = rows[order_r], cols[order_r], vals[order_r]
        self.row_cols, self.row_vals = [], []
        start = np.searchsorted(rr, np.arange(self.n_rows), side="left")
        stop = np.searchsorted(rr, np.arange(self.n_rows), side="right")
        for i in range(self.n_rows):
            self.row_cols.append(cc[start[i]:stop[i]].copy())
            self.row_vals.append(vv[start[i]:stop[i]].copy())
        self.col_maxabs = np.array(
            [np.abs(v).max() if len(v) else 0.0 for v in self.col_vals])
        self.row_l1 = np.array(
            [np.abs(v).sum() if len(v) else 0.0 for v in self.row_vals])
        self.col_nnz = np.array([len(v) for v in self.col_vals], dtype=np.int64)

    def col(self, j):
        return self.col_rows[j], self.col_vals[j]

    def row(self, i):
        return self.row_cols[i], self.row_vals[i]

    def flat_entries(self):
        return self.rows_flat, self.cols_flat, self.vals_flat

    def py_columns(self):
        cols, abs_cols = [], []
        for rows, vals in zip(self.col_rows, self.col_vals):
            vals = tuple(vals.tolist())
            abs_vals = tuple(abs(v) for v in vals)
            cols.append((tuple(rows.tolist()), vals))
            abs_cols.append((abs_vals, max(abs_vals, default=0.0)))
        return cols, abs_cols

    def triplets(self):
        order = np.lexsort((self.cols_flat, self.rows_flat))
        return [(int(self.rows_flat[k]), int(self.cols_flat[k]), float(self.vals_flat[k]))
                for k in order]

    def content_hash(self):
        h = hashlib.sha256()
        h.update(f"{self.n_rows},{self.n_cols};".encode())
        for i, j, v in self.triplets():
            h.update(f"{i},{j},{v!r};".encode())
        return h.hexdigest()[:16]


def lj_dense(matrix, y, s, eps):
    """Per-column curvature surrogates s*cm_j*<|a_j|, y> + eps*cm_j."""
    rows, cols, vals = matrix.flat_entries()
    ay = np.bincount(cols, weights=np.abs(vals) * y[rows], minlength=matrix.n_cols)
    return s * matrix.col_maxabs * ay + eps * matrix.col_maxabs


def lj_tilde(matrix, y, s, eps, j=None):
    """Square-rooted surrogate (sum_i sqrt(s cm_j |A_ij| y_i) + sqrt(eps cm_j))^2.

    Sandwiched between the plain surrogate and (c + 1) times it.
    """
    def one(jj):
        rows, vals = matrix.col(jj)
        cm = matrix.col_maxabs[jj]
        inner = float(np.sqrt(s * cm * np.abs(vals) * y[rows]).sum()) if len(rows) else 0.0
        return (inner + math.sqrt(eps * cm)) ** 2

    if j is not None:
        return one(j)
    return np.array([one(jj) for jj in range(matrix.n_cols)])


def rep_triple(maint):
    """(v_t, v_{t-1/2}, v_{t-1}) as a ``SimplexMaintainer`` represents them."""
    cols = []
    for k in range(3):
        a = maint._mt[:, k]
        cols.append(maint._q * a[0] + maint._r * a[1] + maint._s * a[2])
    return tuple(cols)


def debug_dump(maint):
    """One line per bucket of a ``SimplexMaintainer``."""
    lines = [f"t={maint.t} window={maint.window} buckets={len(maint.buckets)}"]
    for b in sorted(maint.buckets.values(), key=lambda x: x.bid):
        lines.append(
            f"  bucket {b.bid}: rank={b.rank} size={b.alive_count} "
            f"credits={b.credits} sigma={b.sigma:.3e} t0={b.t0} kind={b.creation_kind}"
        )
    return "\n".join(lines)
