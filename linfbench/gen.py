"""Seeded instance generators and file writers for the linfflow benchmark.

Nothing here imports linfflow: the inputs, the files and (in ``oracles``) the
checks are built apart from the program under test.  Every generator takes a
``numpy.random.Generator``; the same seed gives the same instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow


@dataclass
class MatrixInstance:
    """A regression instance as plain arrays: minimize max|Ax - b| over the unit box."""

    n_rows: int
    n_cols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray

    def dense(self):
        a = np.zeros((self.n_rows, self.n_cols))
        a[self.rows, self.cols] = self.vals
        return a


@dataclass
class Graph:
    """A unit- or integer-capacity graph with 0-based source and sink."""

    n: int
    tails: np.ndarray
    heads: np.ndarray
    caps: np.ndarray
    directed: bool
    source: int
    sink: int


def column_sparse(rng, n, m, c, b_scale=1.0):
    """Exactly c nonzeros per column at distinct rows, N(0, 1) values; b ~ N(0, b_scale^2)."""
    rows = np.concatenate([rng.choice(n, size=c, replace=False) for _ in range(m)])
    cols = np.repeat(np.arange(m), c)
    vals = rng.normal(size=m * c)
    vals[vals == 0.0] = 1.0
    return MatrixInstance(n, m, rows, cols, vals, b_scale * rng.normal(size=n))


def scale_to_optimum(inst, target, optimum, rtol=1e-4, max_steps=100):
    """Scale b so that ``optimum(inst)``, the LP optimum, is ``target`` within rtol.

    The optimum over b -> t b is t g(t) with g non-decreasing, so it grows
    with t.  Steps of t <- t target / optimum find a scale on each side of
    the target, and bisection closes in on it.  The cost of a CD solve
    at a fixed additive eps falls as the optimum grows; fixing it leaves the
    instances alike in difficulty.
    """
    b = inst.b.copy()
    lo, hi, t = 0.0, None, 1.0
    for _ in range(max_steps):
        inst.b = t * b
        opt = optimum(inst)
        if abs(opt - target) <= rtol * target:
            return inst
        if opt < target:
            lo = t
        else:
            hi = t
        if hi is None:
            t = 2.0 * t if opt <= 0.0 else t * target / opt
        else:
            t = 0.5 * (lo + hi)
    raise RuntimeError(f"optimum {opt!r} did not reach {target!r}")


def flow_shaped(rng, n, m):
    """Two nonzeros in m // 2 random columns, one in the rest, no empty row,
    scaled to ||A||_inf <= 1.

    The number of nonzeros is fixed because the mirror-prox time follows it.
    Values are N(0, 1/4); the matrix is redrawn until every row has an entry,
    then divided by max(largest row l1 norm, 1).  b ~ U(-0.8, 0.8).
    """
    while True:
        rows, cols, vals = [], [], []
        doubled = set(rng.choice(m, size=m // 2, replace=False).tolist())
        for j in range(m):
            k = 2 if j in doubled else 1
            for i in rng.choice(n, size=min(k, n), replace=False):
                v = 0.0
                while v == 0.0:
                    v = float(rng.normal()) * 0.5
                rows.append(int(i))
                cols.append(j)
                vals.append(v)
        rows, cols, vals = np.array(rows), np.array(cols), np.array(vals)
        if len(np.unique(rows)) == n:
            break
    row_l1 = np.bincount(rows, weights=np.abs(vals), minlength=n)
    vals = vals / max(float(row_l1.max()), 1.0)
    return MatrixInstance(n, m, rows, cols, vals, rng.uniform(-0.8, 0.8, n))


def _recursive_tree(rng, n):
    """Random recursive tree in label order: vertex k > 0 hangs from a uniform earlier vertex."""
    return [(int(rng.integers(0, k)), k) for k in range(1, n)]


def max_flow_value(g):
    """Max s-t flow value by scipy's csgraph solver (integer capacities)."""
    if g.directed:
        u, v, c = g.tails, g.heads, g.caps
    else:
        u = np.concatenate([g.tails, g.heads])
        v = np.concatenate([g.heads, g.tails])
        c = np.concatenate([g.caps, g.caps])
    mat = csr_matrix((c.astype(np.int32), (u, v)), shape=(g.n, g.n))
    mat.sum_duplicates()
    return int(maximum_flow(mat, g.source, g.sink).flow_value)


def necklace(rng, cycles, pendants):
    """Undirected unit graph: s to t through a chain of cycles, plus pendant edges.

    Cycles of 3 to 6 vertices are glued at cut vertices, s on the first and t
    on the last, so the max flow is 2 and every minimum cut is two edges of
    one cycle.  ``pendants`` further vertices hang from random vertices.
    Labels are shuffled.
    """
    edges, n, entry = [], 1, 0
    for _ in range(cycles):
        length = int(rng.integers(3, 7))
        ring = [entry] + list(range(n, n + length - 1))
        n += length - 1
        edges += [(ring[k], ring[(k + 1) % length]) for k in range(length)]
        entry = ring[int(rng.integers(1, length))]
    sink = entry
    for _ in range(pendants):
        edges.append((int(rng.integers(0, n)), n))
        n += 1
    label = rng.permutation(n)
    edges = sorted({(min(label[u], label[v]), max(label[u], label[v])) for u, v in edges})
    return Graph(n, np.array([e[0] for e in edges]), np.array([e[1] for e in edges]),
                 np.ones(len(edges)), False, int(label[0]), int(label[sink]))


def unit_digraph(rng, n, extra):
    """Weakly connected unit digraph with an s->t path, s = 0 and t = n - 1.

    An s->t path through the other vertices in random order makes it
    connected; ``extra`` distinct further arcs are added at random.
    """
    order = [0] + [int(v) for v in rng.permutation(np.arange(1, n - 1))] + [n - 1]
    arcs = set(zip(order[:-1], order[1:]))
    target = len(arcs) + extra
    while len(arcs) < target:
        u, v = (int(a) for a in rng.integers(0, n, size=2))
        if u != v:
            arcs.add((u, v))
    arcs = sorted(arcs)
    return Graph(n, np.array([a[0] for a in arcs]), np.array([a[1] for a in arcs]),
                 np.ones(len(arcs)), True, 0, n - 1)


def leaf_sink_graph(rng, n, m):
    """Sparse connected undirected unit graph with m edges whose sink is a leaf.

    A random recursive tree, labelled in attachment order, plus distinct extra
    edges that avoid the sink, so the sink keeps degree one and the max flow
    is 1.
    """
    tree = _recursive_tree(rng, n)
    degree = np.bincount(np.array(tree).ravel(), minlength=n)
    leaves = np.flatnonzero(degree == 1)
    sink = int(leaves[rng.integers(0, len(leaves))])
    edges = {tuple(sorted(e)) for e in tree}
    while len(edges) < m:
        u, v = (int(a) for a in rng.integers(0, n, size=2))
        if u != v and sink not in (u, v):
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    source = sink
    while source == sink:
        source = int(rng.integers(0, n))
    return Graph(n, np.array([e[0] for e in edges]), np.array([e[1] for e in edges]),
                 np.ones(len(edges)), False, source, sink)


def path_graph(n):
    """Undirected unit path 0 - 1 - ... - (n-1) from its first to its last vertex."""
    return Graph(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1), False, 0, n - 1)


def write_matrix(path, inst):
    """The ``linf-matrix v1`` text format: header, ``i j value`` lines, ``b i value`` lines."""
    lines = [f"linf-matrix v1 {inst.n_rows} {inst.n_cols} {len(inst.vals)}"]
    lines += [f"{i} {j} {float(v)!r}" for i, j, v in zip(inst.rows, inst.cols, inst.vals)]
    lines += [f"b {i} {float(v)!r}" for i, v in enumerate(inst.b) if v != 0.0]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_dimacs(path, g):
    """DIMACS max-flow text with 1-based ids; ``c undirected`` for undirected graphs."""
    lines = [] if g.directed else ["c undirected"]
    lines += [f"p max {g.n} {len(g.caps)}", f"n {g.source + 1} s", f"n {g.sink + 1} t"]
    lines += [f"a {u + 1} {v + 1} {int(c)}" for u, v, c in zip(g.tails, g.heads, g.caps)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
