"""Dynamic weighted sampling: sum trees, alias tables, and the two-summand mixture.

Coordinate selection needs to track weights of the form
``static_j + coeff * sum_i p_i(x) * w_ij`` as x changes one coordinate at a
time.  The static summand lives in a precomputed alias table; the dynamic
summand is sampled by descending a sum tree over rows (leaf weight
``(expw_i + expw_neg_i) * row_mass_i``, one leaf for a row and its mirror)
and then drawing from a per-row alias table over the ``w_ij``.  All
randomness flows through counter-based Philox generators keyed by
(seed, stream), so every run is replayable.

``CoordSampler.sample`` and ``CoordSampler.step`` are the reference
primitives, and the baselines and the law tests call them.  The prox-CD hot
loop (``cdsolver.lcd_steps``) inlines both over the same tables, with the same
draws in the same order; for it the sampler keeps Python-list copies of the
row masses and the curvature parameters.
"""

from __future__ import annotations

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

    @property
    def total(self):
        return self.nodes[1]

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
    """Walker alias table over a fixed nonnegative weight vector; O(1) draws."""

    __slots__ = ("n", "prob", "alias", "total")

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) == 0:
            raise InputError("alias table needs at least one weight")
        if (weights < 0).any():
            raise InputError("alias weights must be nonnegative")
        total = float(weights.sum())
        if total <= 0:
            raise InputError("alias table needs positive total weight")
        self.n = len(weights)
        self.total = total
        scaled = weights * (self.n / total)
        prob = np.ones(self.n)
        alias = np.arange(self.n)
        small = [i for i in range(self.n) if scaled[i] < 1.0]
        large = [i for i in range(self.n) if scaled[i] >= 1.0]
        scaled = scaled.tolist()
        while small and large:
            s = small.pop()
            g = large.pop()
            prob[s] = scaled[s]
            alias[s] = g
            scaled[g] = scaled[g] - (1.0 - scaled[s])
            (small if scaled[g] < 1.0 else large).append(g)
        self.prob = prob.tolist()
        self.alias = alias.tolist()

    def sample(self, uniforms):
        r = uniforms.next() * self.n
        i = int(r)
        if i == self.n:
            i -= 1
        return i if (r - i) < self.prob[i] else self.alias[i]


def row_tables(matrix, w):
    """``(row_alias, row_mass)`` over the row-major entry weights ``w``:
    ``row_mass[i]`` sums row i's slice, and ``row_alias[i]`` is ``(column
    ids as a list, alias over the slice)``, or None where that sum is 0."""
    ptr = matrix.row_ptr.tolist()
    cols = matrix.row_entries()[0].tolist()
    row_alias = []
    row_mass = np.zeros(matrix.n_rows)
    for i in range(matrix.n_rows):
        a, b = ptr[i], ptr[i + 1]
        if a < b:
            row_mass[i] = w[a:b].sum()
        row_alias.append((cols[a:b], StaticAlias(w[a:b])) if row_mass[i] > 0 else None)
    return row_alias, row_mass


class CoordSampler:
    """Samples coordinates proportionally to their current smoothness weights.

    The weight ``L_j(x) / d_j`` of column j, ``d`` the regularizer weights,
    decomposes as ``static_j + (8/alpha) * sum_i p_i w_ij`` with everything
    except p precomputed: the static summand uses an alias table; the dynamic
    summand routes through a row tree and a per-row alias over the ``w_ij``.
    A row of A and its mirrored row share their column pattern and their
    |A_ij|, so they share one leaf ``(expw_i + expw_neg_i) * row_mass_i``.
    The ``w_ij`` are computed for every entry at once, over the matrix's
    row-major arrays, and ``row_tables`` builds each row's alias table and
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
        self.row_alias, self.row_mass = row_tables(matrix, w)
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

    def dynamic_mass(self):
        return self.dyn_coeff * self.tree.total / self.state.z

    def total_mass(self):
        """Current sum of sampling weights over all columns."""
        return self.static_mass + self.dynamic_mass()

    def sample(self, uniforms):
        """Draw a column index j proportionally to its current weight."""
        if self.state.version != self._synced_version:
            raise SolverFault("sampler out of sync with its softmax state")
        dyn = self.dyn_coeff * self.tree.total
        stat = self.static_mass * self.state.z
        if stat <= 0 and dyn <= 0:
            raise SolverFault("sampler has zero total mass")
        if uniforms.next() * (stat + dyn) < stat:
            return self.static_alias.sample(uniforms)
        i = self.tree.sample(uniforms)
        cols, alias = self.row_alias[i]
        return cols[alias.sample(uniforms)]

    def weight(self, j):
        """Current sampling weight of column j (matches the drawn law exactly)."""
        rows, vals = self.state.matrix.col(j)
        if len(rows) == 0:
            dyn = 0.0
        else:
            w = self.params.row_entry_weight(j, vals)
            expw, expw_neg = self.state.expw, self.state.expw_neg
            p = np.array([expw[int(i)] + expw_neg[int(i)] for i in rows]) / self.state.z
            dyn = self.dyn_coeff * float(w @ p)
        return dyn + float(self.params.sample_static[j])

