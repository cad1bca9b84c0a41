"""Dynamic weighted sampling: sum trees, prefix sums, and the two-summand mixture.

Coordinate selection needs to track weights of the form
``static_j + coeff * sum_i p_i(x) * w_ij`` as x changes one coordinate at a
time.  The dynamic summand is sampled by descending a sum tree over rows
(leaf weight ``(expw_i + expw_neg_i) * row_mass_i``, one leaf for a row and
its mirror) and then drawing j from the row's ``w_ij``.  Every fixed law,
the static summand and each row's ``w_ij``, is drawn by inverse CDF: one
uniform, bisected into the law's prefix sums as
``bisect_right(cum, u * cum[-1], 0, n - 1)``.  Building prefix sums costs
one ``accumulate`` per law, and a draw costs about what a Walker alias
draw does at the law sizes these solvers see, so the package keeps no alias
tables.  All randomness flows through counter-based Philox generators keyed
by (seed, stream), so every run is replayable.

``CoordSampler.sample`` and ``CoordSampler.step`` are the reference
primitives, and the law tests call them; the baselines draw from a
``StaticAlias`` only.  The prox-CD hot loop (``cdsolver.lcd_steps``) inlines
both over the same tables, with the same draws in the same order; for it the
sampler keeps Python-list copies of the row masses and the curvature
parameters.  Given a mask of skipped columns, the kernel draws instead from
this law conditioned on the other columns: it bisects prefix sums of the
static summand rebuilt over them, and redraws any draw that lands on a
skipped column.  No solver reads a column's weight or the total mass on its
own: those step-by-step forms (``sampler_weight``, ``total_mass``,
``tree_total``) are test oracles in ``tests/reference_steps.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .errors import InputError, SolverFault


def make_rng(seed, stream=0):
    """Counter-based generator; distinct streams are statistically independent."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)])
    return np.random.Generator(np.random.Philox(key=key))


class BufferedUniforms:
    """Block-buffered uniform draws; same stream order as raw generator calls.

    The block is kept as a Python list: a draw is then a list index, and the
    values the hot loops multiply are Python floats.
    """

    __slots__ = ("rng", "block", "_buf", "_pos")

    def __init__(self, rng, block=4096):
        self.rng = rng
        self.block = block
        self._buf = rng.random(block).tolist()
        self._pos = 0

    def next(self):
        if self._pos == self.block:
            self._buf = self.rng.random(self.block).tolist()
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u


class DynamicTree:
    """Complete implicit binary tree over n leaves storing subtree sums.

    Updates touch one root-to-leaf path; sampling descends top-down with one
    uniform draw per level.  Weights must be nonnegative.
    """

    __slots__ = ("n", "size", "levels", "nodes", "touched_nodes", "update_count")

    def __init__(self, weights):
        weights = list(map(float, weights))
        self.n = len(weights)
        size = 1
        while size < max(self.n, 1):
            size *= 2
        self.size = size
        self.levels = size.bit_length()  # nodes on a root-to-leaf path
        nodes = [0.0] * (2 * size)
        for i, w in enumerate(weights):
            if w < 0:
                raise InputError(f"leaf {i}: negative weight")
            nodes[size + i] = w
        for k in range(size - 1, 0, -1):
            nodes[k] = nodes[2 * k] + nodes[2 * k + 1]
        self.nodes = nodes
        self.touched_nodes = 0
        self.update_count = 0

    def update(self, i, weight):
        """Set leaf i; refreshes the ancestor sums along one path.

        The running subtree sum is carried up the path and added to each
        sibling, which gives the same sums as re-adding both children.
        """
        if weight < 0:
            raise InputError(f"leaf {i}: negative weight")
        k = self.size + i
        nodes = self.nodes
        nodes[k] = weight
        while k > 1:
            weight += nodes[k ^ 1]
            k >>= 1
            nodes[k] = weight
        self.touched_nodes += self.levels
        self.update_count += 1

    def sample(self, uniforms):
        """Draw a leaf index proportionally to its weight.

        ``uniforms`` is a BufferedUniforms (or anything with .next()).
        """
        nodes = self.nodes
        total = nodes[1]
        if total <= 0.0:
            raise SolverFault("sampling from an empty tree")
        k = 1
        while k < self.size:
            left = nodes[2 * k]
            u = uniforms.next() * nodes[k]
            k = 2 * k if u < left else 2 * k + 1
        return k - self.size

    def rebuild(self, weights):
        nodes = self.nodes
        size = self.size
        for i in range(size):
            nodes[size + i] = float(weights[i]) if i < self.n else 0.0
        for k in range(size - 1, 0, -1):
            nodes[k] = nodes[2 * k] + nodes[2 * k + 1]


class StaticAlias:
    """Inverse-CDF sampler over a fixed nonnegative weight vector.

    It holds the prefix sums ``cum`` of the weights, and a draw is one
    bisection of ``u * total`` into them, ``hi = n - 1`` keeping the index
    in range even where ``u * total`` rounds up to ``total``.  A weight-0
    entry repeats its predecessor's prefix sum, so no uniform maps to it.
    The name predates the prefix sums (the package exports it, and the span
    tracer wraps ``StaticAlias.sample``).
    """

    __slots__ = ("n", "cum", "total")

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) == 0:
            raise InputError("a fixed law needs at least one weight")
        if (weights < 0).any():
            raise InputError("a fixed law's weights must be nonnegative")
        self.cum = list(accumulate(weights.tolist()))
        self.n = len(self.cum)
        self.total = self.cum[-1]
        if self.total <= 0:
            raise InputError("a fixed law needs positive total weight")

    def sample(self, uniforms):
        return bisect_right(self.cum, uniforms.next() * self.total, 0, self.n - 1)


def row_tables(matrix, w):
    """``(row_cdf, row_mass)`` over the row-major entry weights ``w``:
    ``row_cdf[i]`` is ``(column ids, prefix sums of the weights)`` of row i's
    slice as lists, or None where its mass is 0, and ``row_mass[i]`` is the
    last prefix sum (0 for an empty row)."""
    ptr = matrix.row_ptr.tolist()
    cols = matrix.row_entries()[0].tolist()
    w = w.tolist()
    row_cdf, row_mass = [], []
    for a, b in zip(ptr, ptr[1:]):
        cum = list(accumulate(w[a:b]))
        mass = cum[-1] if cum else 0.0
        row_mass.append(mass)
        row_cdf.append((cols[a:b], cum) if mass > 0 else None)
    return row_cdf, np.array(row_mass)


class CoordSampler:
    """Samples coordinates proportionally to their current smoothness weights.

    The weight ``L_j(x) / d_j`` of column j, ``d`` the regularizer weights,
    decomposes as ``static_j + (8/alpha) * sum_i p_i w_ij`` with everything
    except p precomputed: the static summand is drawn from the prefix sums of
    ``static_alias``; the dynamic summand routes through a row tree, then
    bisects the prefix sums of the row's ``w_ij`` in ``row_cdf``.  This is the
    full law; ``cdsolver.lcd_steps`` can also draw from it conditioned on a
    set of columns, over the same tree and row tables.
    A row of A and its mirrored row share their column pattern and their
    |A_ij|, so they share one leaf ``(expw_i + expw_neg_i) * row_mass_i``.
    The ``w_ij`` are computed for every entry at once, over the matrix's
    row-major arrays, and ``row_tables`` builds each row's prefix sums and
    ``row_mass`` from its slice.  The sampler stays in sync with its
    SoftmaxState by being the single mutation path (``step``), and by
    ``resync`` after the state is re-centred; sampling with a stale state
    raises.
    """

    def __init__(self, state, params):
        self.state = state
        self.params = params
        matrix = state.matrix
        self.static_alias = StaticAlias(params.sample_static)
        self.static_mass = float(params.sample_static.sum())
        self.dyn_coeff = 8.0 / state.alpha
        # per entry of the row-major arrays: |A_ij| * cm_j / d_j; an entry in
        # column j makes cm_j > 0, and every constructor keeps d_j >= cm_j
        cols, vals = matrix.row_entries()
        w = np.abs(vals) * matrix.col_maxabs[cols] / params.d[cols]
        self.row_cdf, self.row_mass = row_tables(matrix, w)
        # Python-list copies for the fused step loop (cdsolver.lcd_steps)
        self._row_mass = self.row_mass.tolist()
        self._curvature = params.curvature.tolist()
        self._static_l = params.static_l.tolist()
        self.tree = DynamicTree(self._leaves())
        self._synced_version = state.version
        self._synced_rebuilds = state.rebuild_count

    def _leaves(self):
        state = self.state
        return (np.array(state.expw) + np.array(state.expw_neg)) * self.row_mass

    def resync(self):
        """Full leaf refresh; needed after a state rebuild or ``recenter``."""
        self.tree.rebuild(self._leaves())
        self._synced_version = self.state.version
        self._synced_rebuilds = self.state.rebuild_count

    def step(self, j, delta):
        """Apply a coordinate update to the state and keep the tree in sync."""
        state = self.state
        rows = state.apply_coord_update(j, delta)
        if state.rebuild_count != self._synced_rebuilds:
            self.resync()
            return
        expw, expw_neg, mass = state.expw, state.expw_neg, self._row_mass
        update = self.tree.update
        for i in rows:
            update(i, (expw[i] + expw_neg[i]) * mass[i])
        self._synced_version = state.version

    def sample(self, uniforms):
        """Draw a column index j proportionally to its current weight."""
        if self.state.version != self._synced_version:
            raise SolverFault("sampler out of sync with its softmax state")
        dyn = self.dyn_coeff * self.tree.nodes[1]
        stat = self.static_mass * self.state.z
        if stat <= 0 and dyn <= 0:
            raise SolverFault("sampler has zero total mass")
        if uniforms.next() * (stat + dyn) < stat:
            return self.static_alias.sample(uniforms)
        cols, cum = self.row_cdf[self.tree.sample(uniforms)]
        return cols[bisect_right(cum, uniforms.next() * cum[-1], 0, len(cum) - 1)]
