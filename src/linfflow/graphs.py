"""Capacitated flow networks, flow solutions, and DIMACS I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


_MIN_CAP = float(np.finfo(np.float64).tiny)  # the smallest normal float


# from this many edges on, the graph setup works on numpy arrays (parsing,
# edge checks, connectivity), as do SparseMatrix's entry
# checks from this many entries: below it, the fixed cost of numpy's calls
# exceeds a loop
_BULK_EDGES = 64


class _EdgeArrays:
    """Edges already held as arrays (int64 endpoints, float64 capacities)."""

    __slots__ = ("tails", "heads", "caps")

    def __init__(self, tails, heads, caps):
        self.tails, self.heads, self.caps = tails, heads, caps

    def __len__(self):
        return len(self.caps)


def _checked_arrays(n, us, vs, caps, directed):
    """(tails, heads, caps) when every edge passes the checks, else None."""
    # int(u) lies in [0, n) iff -1 < u < n; every comparison fails on nan.
    # Beyond 2**53 the floats are inexact, so such a graph takes the loop.
    limit = min(n, 2 ** 53)
    if not ((us > -1) & (us < limit) & (vs > -1) & (vs < limit)
            & (caps >= _MIN_CAP) & (caps < math.inf)).all():
        return None
    tails, heads = us.astype(np.int64), vs.astype(np.int64)  # as int()
    if (tails == heads).any():
        return None
    if not directed:
        tails, heads = np.minimum(tails, heads), np.maximum(tails, heads)
    return tails, heads, caps


def _edge_arrays(n, edges, directed):
    """(tails, heads, caps) arrays of ``edges``, undirected ones as ``u < v``.

    ``edges`` is an iterable of ``(u, v, cap)`` triples or an ``_EdgeArrays``.
    Raises InputError for the first bad edge, checking its endpoints' range,
    then a self loop, then its capacity.  Many edges are first checked all at
    once; only a graph that fails there is walked edge by edge for the error.
    """
    if isinstance(edges, _EdgeArrays):
        checked = _checked_arrays(n, edges.tails, edges.heads, edges.caps, directed)
        if checked is None:
            edges = zip(edges.tails.tolist(), edges.heads.tolist(), edges.caps.tolist())
    else:
        edges = list(edges)
        checked = None if len(edges) < _BULK_EDGES else _checked_arrays(
            n, np.array([u for u, _, _ in edges], dtype=np.float64),
            np.array([v for _, v, _ in edges], dtype=np.float64),
            np.array([cap for _, _, cap in edges], dtype=np.float64), directed)
    if checked is not None:
        return checked
    tails, heads, caps = [], [], []
    for k, (u, v, cap) in enumerate(edges):
        u, v, cap = int(u), int(v), float(cap)
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge {k}: endpoint out of range")
        if u == v:
            raise InputError(f"edge {k}: self loop at {u}")
        if not _MIN_CAP <= cap < math.inf:  # also false for nan
            raise InputError(
                f"edge {k}: capacity {cap!r} must be finite and at least "
                f"{_MIN_CAP!r}, so that its reciprocal is finite")
        if not directed and u > v:
            u, v = v, u
        tails.append(u)
        heads.append(v)
        caps.append(cap)
    return (np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64),
            np.array(caps, dtype=np.float64))


def _merge_labels(label, tails, heads):
    """Component labels once the edges ``(tails[k], heads[k])`` are added.

    ``label`` maps every vertex to the least vertex of its component so far
    (``np.arange(n)`` before any edge); it is overwritten.  Each round hooks every label to the
    least label across its edges (``np.minimum.at``), then jumps pointers
    (``label = label[label]``) until every vertex points at a root again; edges
    inside one component drop out, and the rounds end when none is left.
    Labels only decrease, so the hooks form no cycle.
    """
    while True:
        lt, lh = label[tails], label[heads]
        apart = lt != lh
        if not apart.any():
            return label
        tails, heads, lt, lh = tails[apart], heads[apart], lt[apart], lh[apart]
        np.minimum.at(label, lt, lh)
        np.minimum.at(label, lh, lt)
        while True:
            jumped = label[label]
            if (jumped == label).all():
                break
            label = jumped


class FlowNetwork:
    """Capacitated graph with a fixed edge orientation, source and sink optional.

    Undirected edges are stored with ``u < v`` (lexicographic orientation), so
    the sign of an edge's flow does not depend on the order its endpoints were
    given in.  Parallel edges are allowed; self loops are not.  Capacities must
    be positive and finite, a designated source or sink must be a vertex, and
    the underlying graph must be connected.  A subnormal capacity is
    rejected: congestions divide by it.  Demands are passed to the routines
    that route them (``st_demand`` builds the s-t one).
    """

    __slots__ = ("n", "tails", "heads", "caps", "directed", "source", "sink")

    def __init__(self, n, edges, directed=False, source=None, sink=None):
        self.n = int(n)
        if self.n < 1:
            raise InputError(f"a flow network needs at least one vertex; got {self.n}")
        tails, heads, caps = _edge_arrays(self.n, edges, directed)
        if len(caps) < self.n - 1:  # before any O(n) allocation
            raise InputError("underlying graph must be connected")
        self.tails = tails
        self.heads = heads
        self.caps = caps
        self.directed = bool(directed)
        for role, vertex in (("source", source), ("sink", sink)):
            if vertex is not None and not 0 <= vertex < self.n:
                raise InputError(
                    f"{role} vertex {vertex} out of range for {self.n} vertices "
                    f"(0-indexed)")
        self.source = source
        self.sink = sink
        if self.n > 1 and not self._connected():
            raise InputError("underlying graph must be connected")

    def _connected(self):
        if self.m >= _BULK_EDGES:
            return not _merge_labels(np.arange(self.n), self.tails, self.heads).any()
        adj = [[] for _ in range(self.n)]
        for u, v in zip(self.tails.tolist(), self.heads.tolist()):
            adj[u].append(v)
            adj[v].append(u)
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    @property
    def m(self):
        return len(self.caps)

    def max_spanning_tree(self):
        """Edge indices of the maximum-capacity spanning tree, in Kruskal order.

        Kruskal's order is decreasing capacity with ties broken by edge index,
        a strict total order, so the tree is unique.  Borůvka rounds pick it
        at every size: every component picks its first crossing edge in that
        order (``np.minimum.at`` over the edges' ranks), ``_merge_labels``
        merges along the picks, and edges inside a component drop out.
        Sorted by rank, the picks are the edges Kruskal keeps, in the order
        it keeps them.  On a disconnected graph the result is a spanning
        forest.
        """
        n, m = self.n, self.m
        order = np.lexsort((np.arange(m), -self.caps))
        tails, heads = self.tails[order], self.heads[order]  # by rank
        label = np.arange(n)
        live = np.arange(m)  # ranks of the edges between two components
        picked = [live[:0]]  # keeps the concatenation defined with no edges
        while True:
            lt, lh = label[tails[live]], label[heads[live]]
            apart = lt != lh
            if not apart.any():
                break
            live, lt, lh = live[apart], lt[apart], lh[apart]
            first = np.full(n, m)
            np.minimum.at(first, lt, live)
            np.minimum.at(first, lh, live)
            chosen = np.unique(first[first < m])
            picked.append(chosen)
            label = _merge_labels(label, tails[chosen], heads[chosen])
        return order[np.sort(np.concatenate(picked))]

    def incidence(self):
        """CSR incidence of the network's edges (``csr_incidence``)."""
        return csr_incidence(self.n, self.tails, self.heads)

    def st_demand(self, amount=1.0):
        """Demand vector routing ``amount`` units from source to sink."""
        if self.source is None or self.sink is None:
            raise InputError("network has no designated source/sink")
        if self.source == self.sink:
            raise InputError("max flow needs a source distinct from the sink")
        d = np.zeros(self.n)
        d[self.source] = -amount
        d[self.sink] = amount
        return d


def csr_incidence(n, tails, heads):
    """CSR incidence: ``(ptr, neighbor, edge, sign)``, built by one stable sort.

    Edge e runs from ``tails[e]`` to ``heads[e]``.  Vertex u's entries are
    ``ptr[u]:ptr[u + 1]``, one per incident edge in edge order: the other
    endpoint, the edge, and sign +1.0 where u is the edge's tail (walking to
    the neighbor follows the orientation), -1.0 where u is its head.
    """
    ends = np.column_stack((tails, heads)).ravel()  # 2e: tail, 2e+1: head
    slots = np.argsort(ends, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ends, minlength=n), out=ptr[1:])
    return ptr, ends[slots ^ 1], slots >> 1, 1.0 - 2.0 * (slots & 1)


def incidence_apply(net, f):
    """B @ f under the stored orientation: -1 at the tail, +1 at the head."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (net.m,):
        raise InputError(f"flow length {f.shape} does not match {net.m} edges")
    out = np.bincount(net.heads, weights=f, minlength=net.n)
    out -= np.bincount(net.tails, weights=f, minlength=net.n)
    return out


@dataclass
class FlowSolution:
    """A flow with its congestion vector and the demand it achieves."""

    flow: np.ndarray
    congestion: np.ndarray
    achieved_demand: np.ndarray
    value: float = 0.0
    meta: dict = field(default_factory=dict)

    @classmethod
    def from_flow(cls, net, f):
        """The solution carrying flow f; its value is the flow into the sink."""
        f = np.asarray(f, dtype=np.float64)
        achieved = incidence_apply(net, f)
        return cls(
            flow=f,
            congestion=f / net.caps,
            achieved_demand=achieved,
            value=float(achieved[net.sink]) if net.sink is not None else 0.0,
        )

    @property
    def max_congestion(self):
        return float(np.abs(self.congestion).max()) if len(self.congestion) else 0.0


def _bulk_arcs(lines):
    """The arcs of the ``a <u> <v> <cap>`` lines as ``_EdgeArrays``, or None.

    None below ``_BULK_EDGES`` lines that start ``a ``, and when one of them
    does not parse: their tokens are split in one pass and converted by numpy,
    which converts a str as ``int()`` and ``float()`` do and raises where they
    raise (and on an int64 overflow).  Every line collected starts with the
    token ``a``, so one of fewer or more than four tokens either leaves the
    count short of four per line or moves an ``a`` into a numeric column.
    """
    if len(lines) < _BULK_EDGES:  # so are the arc lines: spare the scan
        return None
    arcs = [line for line in lines if line[:2] == "a "]
    if len(arcs) < _BULK_EDGES:
        return None
    tokens = " ".join(arcs).split()
    if len(tokens) != 4 * len(arcs) or tokens[::4].count("a") != len(arcs):
        return None
    try:
        tails = np.array(tokens[1::4], dtype=np.int64)
        heads = np.array(tokens[2::4], dtype=np.int64)
        caps = np.array(tokens[3::4], dtype=np.float64)
    except (ValueError, OverflowError):
        return None
    return _EdgeArrays(tails - 1, heads - 1, caps)


def _first_line(first, what, lineno):
    """Record that ``what`` is on line ``lineno``; raise if an earlier line had it."""
    if what in first:
        raise ValueError(f"a second {what}; the first is on line {first[what]}")
    first[what] = lineno


def _read_lines(path, lines, skip_arcs):
    """``(n, m, edges, source, sink, directed)`` read one line at a time.

    With ``skip_arcs`` the lines starting ``a `` are passed over: ``_bulk_arcs``
    has read them.  Raises InputError naming the first bad line.
    """
    n = m = None
    edges = []
    source = sink = None
    directed = True
    first = {}  # the line of the 'p', 'n s' and 'n t' lines: each may appear once
    for lineno, line in enumerate(lines, start=1):
        if skip_arcs and line[:2] == "a ":
            continue
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag == "c":
                if len(parts) > 1 and parts[1] == "undirected":
                    directed = False
            elif tag == "p":
                if len(parts) != 4 or parts[1] != "max":
                    raise ValueError("expected 'p max <n> <m>'")
                _first_line(first, "problem line", lineno)
                n, m = int(parts[2]), int(parts[3])
            elif tag == "n":
                if len(parts) != 3 or parts[2] not in ("s", "t"):
                    raise ValueError("expected 'n <id> s|t'")
                _first_line(first, ("source" if parts[2] == "s" else "sink")
                            + " designation", lineno)
                if parts[2] == "s":
                    source = int(parts[1]) - 1
                else:
                    sink = int(parts[1]) - 1
            elif tag == "a":
                if len(parts) != 4:
                    raise ValueError("expected 'a <u> <v> <cap>'")
                edges.append((int(parts[1]) - 1, int(parts[2]) - 1, float(parts[3])))
            else:
                raise ValueError(f"unknown line tag {tag!r}")
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    return n, m, edges, source, sink, directed


def read_dimacs(path):
    """Parse DIMACS max-flow input; ``c undirected`` switches the edge mode.

    From ``_BULK_EDGES`` arc lines on, ``_bulk_arcs`` converts them all at
    once and the network is built from its arrays.  Otherwise, or when that
    fails, the line loop reads every line and raises for the first bad one.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    arcs = _bulk_arcs(lines)
    n, m, edges, source, sink, directed = _read_lines(path, lines, arcs is not None)
    if arcs is not None:
        if edges:  # an arc line spelt otherwise ("a\t..."): read all in order
            n, m, edges, source, sink, directed = _read_lines(path, lines, False)
        else:
            edges = arcs
    if n is None:
        raise InputError(f"{path}: missing 'p max' problem line")
    if m is not None and m != len(edges):
        raise InputError(f"{path}: problem line promises {m} arcs, found {len(edges)}")
    if source is None or sink is None:
        raise InputError(f"{path}: missing source or sink designation")
    return FlowNetwork(n, edges, directed=directed, source=source, sink=sink)


def write_flow_file(path, net, solution):
    """Write ``e <u> <v> <flow>`` lines plus the summary line."""
    with open(path, "w") as fh:
        flow = np.asarray(solution.flow, dtype=np.float64).tolist()
        for u, v, f in zip(net.tails.tolist(), net.heads.tolist(), flow):
            fh.write(f"e {u + 1} {v + 1} {f!r}\n")
        fh.write(f"value {solution.value!r} congestion {solution.max_congestion!r}\n")
