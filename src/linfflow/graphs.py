"""Capacitated flow networks, flow solutions, and DIMACS I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError


_MIN_CAP = float(np.finfo(np.float64).tiny)  # the smallest normal float


# from this many edges on, FlowNetwork checks them with numpy: below it, the
# fixed cost of numpy's calls exceeds a loop over the edges
_BULK_EDGES = 64


def _edge_arrays(n, edges, directed):
    """(tails, heads, caps) arrays of ``edges``, undirected ones as ``u < v``.

    Raises InputError for the first bad edge, checking its endpoints' range,
    then a self loop, then its capacity.  Many edges are first checked all at
    once; only a graph that fails there is walked edge by edge for the error.
    """
    if len(edges) >= _BULK_EDGES:
        us = np.array([u for u, _, _ in edges], dtype=np.float64)
        vs = np.array([v for _, v, _ in edges], dtype=np.float64)
        caps = np.array([cap for _, _, cap in edges], dtype=np.float64)
        # int(u) lies in [0, n) iff -1 < u < n; every comparison fails on nan.
        # Beyond 2**53 the floats are inexact, so such a graph takes the loop.
        limit = min(n, 2 ** 53)
        if ((us > -1) & (us < limit) & (vs > -1) & (vs < limit)
                & (caps >= _MIN_CAP) & (caps < math.inf)).all():
            tails, heads = us.astype(np.int64), vs.astype(np.int64)  # as int()
            if not (tails == heads).any():
                if not directed:
                    tails, heads = np.minimum(tails, heads), np.maximum(tails, heads)
                return tails, heads, caps
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


class FlowNetwork:
    """Capacitated graph with a fixed edge orientation and a demand vector.

    Undirected edges are stored with ``u < v`` (lexicographic orientation), so
    the sign of an edge's flow does not depend on the order its endpoints were
    given in.  Parallel edges are allowed; self loops are not.  Capacities must
    be positive and finite, a designated source or sink must be a vertex, the
    demand vector must sum to zero and the underlying graph must be
    connected.  A subnormal capacity is rejected: congestions divide by it.
    """

    __slots__ = ("n", "tails", "heads", "caps", "directed", "demand", "source", "sink")

    def __init__(self, n, edges, directed=False, demand=None, source=None, sink=None):
        self.n = int(n)
        if self.n < 1:
            raise InputError(f"a flow network needs at least one vertex; got {self.n}")
        tails, heads, caps = _edge_arrays(self.n, list(edges), directed)
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
        if demand is None:
            demand = np.zeros(self.n)
        demand = np.asarray(demand, dtype=np.float64)
        if demand.shape != (self.n,):
            raise InputError("demand length does not match vertex count")
        if abs(demand.sum()) > 1e-9 * max(1.0, np.abs(demand).max()):
            raise InputError("demand entries must sum to zero")
        self.demand = demand
        if self.n > 1 and not self._connected():
            raise InputError("underlying graph must be connected")

    def _connected(self):
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


def read_dimacs(path):
    """Parse DIMACS max-flow input; ``c undirected`` switches the edge mode."""
    n = m = None
    edges = []
    source = sink = None
    directed = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
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
                    n, m = int(parts[2]), int(parts[3])
                elif tag == "n":
                    if len(parts) != 3 or parts[2] not in ("s", "t"):
                        raise ValueError("expected 'n <id> s|t'")
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
