"""Sparse matrices, regression instances, and the reductions to the canonical unit box.

The solvers in this package all operate on one canonical shape: minimize the
max-abs residual ``max_i |(A x - b)_i|`` over ``x`` in ``[-1, 1]^m``.  That is
the maximum entry of the sign-doubled system ``[A; -A] x - [b; -b]``
(``sign_double``).  No solver builds that matrix: each keeps the system
folded over the rows of ``A``, prox-CD and the baselines as one weight pair
per row, mirror-prox as one antisymmetric log-weight per row.  This module
holds the immutable matrix type, the instance record, the affine change of
variables that maps general boxes onto the unit box, the weak-duality
bounds and stop ledger (``Certificate``) of the solvers, and the one result
record (``RegressionResult``) that the ledger builds for both.

``SparseMatrix`` stores its entries as flat column-major and row-major arrays
with index pointers (CSC and CSR), read-only, and is the only module that
knows that layout: the solvers read columns, rows and the entry arrays
through its methods.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError
from .graphs import _BULK_EDGES  # below it a loop beats numpy's fixed cost


class SparseMatrix:
    """Immutable sparse matrix stored column-major (CSC) and row-major (CSR).

    The entries are held twice, as flat arrays: sorted by (col, row) with the
    column pointer ``col_ptr``, and sorted by (row, col) with ``row_ptr``, so
    column j is entries ``col_ptr[j]:col_ptr[j + 1]`` of the first and row i
    entries ``row_ptr[i]:row_ptr[i + 1]`` of the second.  Column access drives
    per-coordinate solver steps; row access builds the samplers' per-row
    tables.  Every stored array is read-only, and ``col``, ``row``,
    ``flat_entries`` and ``row_entries`` return views of them.  Per-column
    max-abs values and per-row l1 norms are cached at construction; each
    row's l1 norm is summed on its own slice rather than by one
    ``np.add.reduceat``, whose sequential order would move ``norm_inf`` (and
    with it alpha and every step constant) in the last bits.
    """

    __slots__ = (
        "n_rows",
        "n_cols",
        "_rows_flat",
        "_cols_flat",
        "_vals_flat",
        "col_ptr",
        "_csr_cols",
        "_csr_vals",
        "row_ptr",
        "col_maxabs",
        "row_l1",
        "col_nnz",
        "nnz",
        "_py_cols",
        "_py_abs",
    )

    def __init__(self, n_rows, n_cols, rows, cols, vals, _private=False):
        if not _private:
            raise TypeError("use SparseMatrix.from_triplets or from_arrays")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        self.nnz = len(vals)

        # one stable argsort of a combined key per order, the layout of a
        # lexsort over (col, row) and (row, col), duplicates adjacent in input
        # order; a key is below n_rows * n_cols, far inside int64 for any
        # matrix whose index arrays fit in memory
        order = np.argsort(cols * self.n_rows + rows, kind="stable")
        self._rows_flat = rows[order]
        self._cols_flat = cols[order]
        self._vals_flat = vals[order]
        self.col_nnz = np.bincount(cols, minlength=self.n_cols)
        self.col_ptr = np.concatenate([[0], np.cumsum(self.col_nnz)])

        order = np.argsort(rows * self.n_cols + cols, kind="stable")
        self._csr_cols = cols[order]
        self._csr_vals = vals[order]
        row_nnz = np.bincount(rows, minlength=self.n_rows)
        self.row_ptr = np.concatenate([[0], np.cumsum(row_nnz)])

        # reduceat gives a[i] for an empty segment, so only the non-empty
        # columns start one; a max is exact in any order
        self.col_maxabs = np.zeros(self.n_cols)
        full = np.flatnonzero(self.col_nnz)
        if len(full):
            self.col_maxabs[full] = np.maximum.reduceat(
                np.abs(self._vals_flat), self.col_ptr[full])
        # np.add.reduceat adds in sequence while .sum() adds pairwise, so each
        # row is summed on its own: norm_inf must not move with the layout
        self.row_l1 = np.zeros(self.n_rows)
        abs_row = np.abs(self._csr_vals)
        ptr = self.row_ptr.tolist()
        for i in np.flatnonzero(row_nnz).tolist():
            self.row_l1[i] = abs_row[ptr[i]:ptr[i + 1]].sum()

        for arr in (self._rows_flat, self._cols_flat, self._vals_flat, self.col_ptr,
                    self._csr_cols, self._csr_vals, self.row_ptr, self.col_maxabs,
                    self.row_l1, self.col_nnz):
            arr.setflags(write=False)
        self._py_cols = None  # lazy Python-scalar column caches (py_columns)
        self._py_abs = None

    @classmethod
    def from_triplets(cls, triplets, n_rows, n_cols):
        """Build from ``(row, col, value)`` triplets, checked as ``from_arrays``."""
        triplets = list(triplets)
        try:
            rows = [int(i) for i, _, _ in triplets]
            cols = [int(j) for _, j, _ in triplets]
            vals = [float(v) for _, _, v in triplets]
        except (TypeError, ValueError):
            # the first triplet that fails is reported, conversion or check
            _check_each(triplets, n_rows, n_cols)
            raise
        return cls.from_arrays(rows, cols, vals, n_rows, n_cols)

    @classmethod
    def from_arrays(cls, rows, cols, vals, n_rows, n_cols):
        """Build from parallel index and value arrays, checked with numpy.

        Out-of-range indices, duplicate ``(row, col)`` pairs and non-finite
        values are rejected; explicit zeros are rejected as well so the norm
        caches stay exact.  From ``graphs._BULK_EDGES`` entries on, the checks
        run on whole arrays, duplicates on the column-major order the matrix
        sorts its entries into anyway; only a failing input is walked entry by
        entry, to name the first bad one.  Fewer entries are walked at once.
        """
        if len(vals) < _BULK_EDGES:
            _check_each(zip(rows, cols, vals), n_rows, n_cols)
            return cls(n_rows, n_cols, rows, cols, vals, _private=True)
        try:
            r = np.asarray(rows, dtype=np.int64)
            c = np.asarray(cols, dtype=np.int64)
        except OverflowError:  # beyond int64, so out of range
            r = c = None
        v = np.asarray(vals, dtype=np.float64)
        if (r is not None and ((r >= 0) & (r < n_rows) & (c >= 0) & (c < n_cols)).all()
                and np.isfinite(v).all() and v.all()):
            matrix = cls(n_rows, n_cols, r, c, v, _private=True)
            rs, cs = matrix._rows_flat, matrix._cols_flat  # sorted by (col, row)
            if not ((rs[1:] == rs[:-1]) & (cs[1:] == cs[:-1])).any():
                return matrix
        _check_each(zip(rows, cols, vals), n_rows, n_cols)
        raise AssertionError("the bulk and entry-wise checks disagree")

    @property
    def norm_inf(self):
        """Largest l1 norm of a row."""
        return float(self.row_l1.max()) if self.n_rows else 0.0

    @property
    def max_col_nnz(self):
        """Column sparsity bound c."""
        return int(self.col_nnz.max()) if self.n_cols else 0

    def col(self, j):
        """(row indices, values) of column j; read-only views."""
        a, b = self.col_ptr[j], self.col_ptr[j + 1]
        return self._rows_flat[a:b], self._vals_flat[a:b]

    def row(self, i):
        """(col indices, values) of row i; read-only views."""
        a, b = self.row_ptr[i], self.row_ptr[i + 1]
        return self._csr_cols[a:b], self._csr_vals[a:b]

    def py_columns(self):
        """Column caches of Python scalars for the coordinate-step loops, built once.

        Returns ``(cols, abs_cols)``: ``cols[j]`` is the ``(rows, vals)`` pair of
        column j as tuples, and ``abs_cols[j]`` is ``(|vals|, max |vals|)``.  A
        step touches a handful of entries, where tuple indexing beats numpy call
        overhead by an order of magnitude.
        """
        if self._py_cols is None:
            ptr = self.col_ptr.tolist()
            bounds = list(zip(ptr, ptr[1:]))
            rows = self._rows_flat.tolist()
            vals = self._vals_flat.tolist()
            abs_vals = np.abs(self._vals_flat).tolist()
            self._py_cols = [(tuple(rows[a:b]), tuple(vals[a:b])) for a, b in bounds]
            self._py_abs = [(tuple(abs_vals[a:b]), cm)
                            for (a, b), cm in zip(bounds, self.col_maxabs.tolist())]
        return self._py_cols, self._py_abs

    def dot(self, x):
        """A @ x as a dense vector."""
        x = np.asarray(x, dtype=np.float64)
        prods = self._vals_flat * x[self._cols_flat]
        return np.bincount(self._rows_flat, weights=prods, minlength=self.n_rows)

    def t_dot(self, p):
        """A.T @ p as a dense vector."""
        p = np.asarray(p, dtype=np.float64)
        prods = self._vals_flat * p[self._rows_flat]
        return np.bincount(self._cols_flat, weights=prods, minlength=self.n_cols)

    def scaled(self, factor):
        """A / factor, built from the flat arrays in one pass."""
        return SparseMatrix(self.n_rows, self.n_cols, self._rows_flat, self._cols_flat,
                            self._vals_flat / factor, _private=True)

    def triplets(self):
        """Sorted (row, col, value) list; canonical order for hashing and tests."""
        rows = np.repeat(np.arange(self.n_rows), np.diff(self.row_ptr))
        return list(zip(rows.tolist(), self._csr_cols.tolist(), self._csr_vals.tolist()))

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        out[self._rows_flat, self._cols_flat] = self._vals_flat
        return out

    def flat_entries(self):
        """Column-sorted (rows, cols, vals) arrays; read-only views.

        Column j is entries ``col_ptr[j]:col_ptr[j + 1]``."""
        return self._rows_flat, self._cols_flat, self._vals_flat

    def row_entries(self):
        """Row-sorted (cols, vals) arrays; read-only views.

        Row i is entries ``row_ptr[i]:row_ptr[i + 1]``."""
        return self._csr_cols, self._csr_vals

    def content_hash(self):
        h = hashlib.sha256()
        h.update(f"{self.n_rows},{self.n_cols};".encode())
        for i, j, v in self.triplets():
            h.update(f"{i},{j},{v!r};".encode())
        return h.hexdigest()[:16]


def _check_each(triplets, n_rows, n_cols):
    """Raise InputError for the first bad ``(row, col, value)``, in order."""
    seen = set()
    for k, (i, j, v) in enumerate(triplets):
        i, j, v = int(i), int(j), float(v)
        if not (0 <= i < n_rows and 0 <= j < n_cols):
            raise InputError(
                f"triplet {k}: index ({i}, {j}) out of range for {n_rows}x{n_cols}"
            )
        if (i, j) in seen:
            raise InputError(f"triplet {k}: duplicate entry at ({i}, {j})")
        seen.add((i, j))
        if v == 0.0:
            raise InputError(f"triplet {k}: explicit zero at ({i}, {j})")
        if not math.isfinite(v):
            raise InputError(f"triplet {k}: non-finite value {v!r} at ({i}, {j})")


def sign_double(matrix, b):
    """Stack A on top of -A (and b on -b) so max-entry equals the max-abs residual.

    For every x the maximum entry of ``A' x - b'`` equals ``max_i |(A x - b)_i|``;
    the folded systems of the solvers are checked against it.
    """
    rows, cols, vals = matrix.flat_entries()
    b = np.asarray(b, dtype=np.float64)
    n = matrix.n_rows
    rows2 = np.concatenate([rows, rows + n])
    cols2 = np.concatenate([cols, cols])
    vals2 = np.concatenate([vals, -vals])
    doubled = SparseMatrix(2 * n, matrix.n_cols, rows2, cols2, vals2, _private=True)
    return doubled, np.concatenate([b, -b])


def weak_duality_bound(matrix, b, q):
    """``-||A^T q||_1 - q . b``: the minimum of ``q . (A x - b)`` over the unit box.

    For q on the simplex over the rows it lower-bounds ``min_x max_i (A x - b)_i``;
    for ``||q||_1 <= 1`` (the folded pair difference ``p - p_neg``) it
    lower-bounds the max-abs residual.
    """
    return -float(np.abs(matrix.t_dot(q)).sum()) - float(q @ b)


# softmax temperatures eps * 2^-k, k = 0 .. RESIDUAL_DUAL_LEVELS - 1
RESIDUAL_DUAL_LEVELS = 11


def residual_dual_bounds(matrix, b, r, eps):
    """Weak-duality bounds at the softmax duals of the residual ``r = A x - b``.

    The candidates are the softmax of the sign-doubled residuals ``[r; -r]``
    at temperatures ``eps * 2^-k`` for ``k = 0 .. RESIDUAL_DUAL_LEVELS - 1``
    (the smoothed-max dual points of x), then the hard max, the signed one-hot
    on the largest ``|r_i|``.  Each is folded to ``q = p[:n] - p[n:]``, so
    ``||q||_1 <= 1``, and entry k of the returned array is
    ``weak_duality_bound(matrix, b, q_k)``; the largest lower-bounds the
    max-abs residual over the unit box.  All candidates share one pass over
    the entries: one ``bincount`` over ``k * m + col``.
    """
    r = np.asarray(r, dtype=np.float64)
    n, m = matrix.n_rows, matrix.n_cols
    levels = RESIDUAL_DUAL_LEVELS
    q = np.zeros((levels + 1, n))
    abs_r = np.abs(r)
    i = int(np.argmax(abs_r))
    top = float(abs_r[i])
    # 1/t; the floor on eps keeps it finite (0 * inf would be NaN), and any
    # temperature gives a valid dual point
    inv_t = np.exp2(np.arange(levels)) / max(eps, 2.0 ** -1000)
    # e^{(+-r_i - top)/t} <= 1: the doubled weights, shifted by their max
    pos = np.exp((r - top) * inv_t[:, None])
    neg = np.exp((-r - top) * inv_t[:, None])
    q[:levels] = (pos - neg) / (pos.sum(axis=1) + neg.sum(axis=1))[:, None]
    q[levels, i] = 1.0 if r[i] >= 0 else -1.0
    rows, cols, vals = matrix.flat_entries()
    keys = (np.arange(levels + 1) * m)[:, None] + cols
    at_q = np.bincount(keys.ravel(), weights=(q[:, rows] * vals).ravel(),
                       minlength=(levels + 1) * m).reshape(levels + 1, m)
    return -np.abs(at_q).sum(axis=1) - q @ b


class Certificate:
    """A solve's best point, its value and its best weak-duality lower bound.

    The one stop policy of both regression solvers.  It is seeded with the
    start point, untested; ``offer`` folds in a point with its value, a
    bound, or both, then tests ``certified`` (gap at most ``eps``),
    ``value_target`` (best value at most it) and ``lb_target`` (best bound
    above it), in that order, and keeps the first reason that holds.  Values,
    bounds and ``eps`` are in solver units; ``scale`` maps the value and the
    bound to the targets' units.
    """

    def __init__(self, x, value, eps, scale=1.0, value_target=None, lb_target=None):
        self.x = np.array(x, dtype=np.float64)
        self.value, self.bound = value, -math.inf
        self.eps, self.scale = eps, scale
        self.value_target, self.lb_target = value_target, lb_target
        self.stop_reason = None

    @property
    def gap(self):
        return self.value - self.bound

    def meets_value_target(self, value):
        return self.value_target is not None and value * self.scale <= self.value_target

    def offer(self, x=None, value=math.inf, bound=-math.inf):
        """Fold in a candidate, copying x when it is the new best; True to stop."""
        if value < self.value:
            self.value, self.x = value, np.array(x, dtype=np.float64)
        if bound > self.bound:
            self.bound = bound
        if self.stop_reason is None:
            if self.gap <= self.eps:
                self.stop_reason = "certified"
            elif self.meets_value_target(self.value):
                self.stop_reason = "value_target"
            elif self.lb_target is not None and self.bound * self.scale > self.lb_target:
                self.stop_reason = "lb_target"
        return self.stop_reason is not None

    def result(self, seed, transcript, header, sampled_coordinates, moving_steps=0):
        """The solve's record, one outer iteration per transcript row, with the
        value and gap in the targets' units and ``outer_budget`` for the stop
        reason when no test held."""
        return RegressionResult(
            x=self.x, value=self.value * self.scale, gap=self.gap * self.scale,
            certified=self.stop_reason == "certified",
            stop_reason=self.stop_reason or "outer_budget",
            outer_iterations=len(transcript), sampled_coordinates=sampled_coordinates,
            moving_steps=moving_steps, transcript=transcript, header=header, seed=seed)


@dataclass
class RegressionResult:
    """A prox-CD or mirror-prox solve, as its ``Certificate`` leaves it.

    ``stop_reason`` is ``certified``, ``value_target`` or ``lb_target``, or
    ``outer_budget`` (every planned outer iteration, or mirror-prox phase,
    ran).  ``gap`` is ``value`` minus the best weak-duality lower bound
    offered, so ``value - gap`` never exceeds the optimum.  The transcript
    has one row per outer iteration under the solver's CSV ``header``;
    ``moving_steps`` counts the sampled prox-CD steps that moved x.
    """

    x: np.ndarray
    value: float
    certified: bool
    gap: float
    outer_iterations: int
    sampled_coordinates: int
    moving_steps: int
    transcript: list
    header: str
    seed: int
    stop_reason: str

    def transcript_csv(self):
        lines = [self.header]
        for row in self.transcript:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RegressionInstance:
    """One box-constrained max-abs-residual solve.

    ``s`` estimates the squared l2 norm of the optimizer and sizes the primal
    regularizer; ``m`` is always a valid (if loose) choice.
    """

    matrix: SparseMatrix
    b: np.ndarray
    radius: float = 1.0
    epsilon: float = 1e-2
    s: float | None = None

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        if b.shape != (self.matrix.n_rows,):
            raise InputError(
                f"rhs length {b.shape} does not match {self.matrix.n_rows} rows"
            )
        bad = np.flatnonzero(~np.isfinite(b))
        if len(bad):
            raise InputError(f"rhs entry {bad[0]} is not finite: {float(b[bad[0]])!r}")
        object.__setattr__(self, "b", b)
        if self.radius <= 0:
            raise InputError("box radius must be positive")
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")
        size = max(self.matrix.norm_inf, float(np.abs(b).max()) if len(b) else 0.0)
        if self.epsilon <= size * np.finfo(np.float64).eps:
            raise InputError(
                f"epsilon {self.epsilon!r} is below the floating-point resolution "
                f"of an instance whose row l1 norms or rhs reach {size:.3g}"
            )
        s = self.s if self.s is not None else float(self.matrix.n_cols)
        if not 0 < s <= self.matrix.n_cols:
            raise InputError(f"s must lie in (0, m]; got {s}")
        object.__setattr__(self, "s", float(s))

    def value_at(self, x):
        """Max-abs residual of x, evaluated directly."""
        r = self.matrix.dot(x) - self.b
        return float(np.abs(r).max()) if len(r) else 0.0

    def content_hash(self):
        h = hashlib.sha256()
        h.update(self.matrix.content_hash().encode())
        h.update(np.asarray(self.b, dtype=np.float64).tobytes())
        h.update(f"{self.radius!r},{self.epsilon!r},{self.s!r}".encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class BoxMap:
    """Affine change of variables x = x0 + radius * x_tilde."""

    x0: np.ndarray
    radius: float

    def forward(self, x):
        return (np.asarray(x, dtype=np.float64) - self.x0) / self.radius

    def back(self, x_tilde):
        return self.x0 + self.radius * np.asarray(x_tilde, dtype=np.float64)


def reduce_to_unit_box(inst, x0=None):
    """Normalize an instance to the unit box around center ``x0``.

    Returns ``(unit_instance, box_map)`` where the unit instance carries rhs
    ``(b - A x0) / radius`` and target accuracy ``epsilon / radius``; mapping an
    ``epsilon/radius``-approximate unit-box solution through ``box_map.back``
    gives an ``epsilon``-approximate solution of the original problem.
    """
    if inst.radius <= 0:
        raise InputError("box radius must be positive")
    m = inst.matrix.n_cols
    x0 = np.zeros(m) if x0 is None else np.asarray(x0, dtype=np.float64)
    if x0.shape != (m,):
        raise InputError("center length does not match column count")
    b_tilde = (inst.b - inst.matrix.dot(x0)) / inst.radius
    unit = replace(
        inst, b=b_tilde, radius=1.0, epsilon=inst.epsilon / inst.radius
    )
    return unit, BoxMap(x0=x0, radius=inst.radius)


MATRIX_HEADER = "linf-matrix v1"
# the solvers allocate dense vectors over the rows and columns and build a
# Python tuple per column (py_columns), so a header declaring far more rows or
# columns than entries would stall them
MAX_MATRIX_DIM = 1_000_000
# the step-size constants square the row l1 norms; with entries within 1e140
# and at most MAX_MATRIX_DIM of them per row, the squares stay finite
MAX_MATRIX_MAGNITUDE = 1e140


def write_matrix_file(path, matrix, b=None):
    """Write the text matrix format; optional rhs rows as ``b <i> <value>``."""
    with open(path, "w") as fh:
        fh.write(f"{MATRIX_HEADER} {matrix.n_rows} {matrix.n_cols} {matrix.nnz}\n")
        for i, j, v in matrix.triplets():
            fh.write(f"{i} {j} {v!r}\n")
        if b is not None:
            for i, v in enumerate(np.asarray(b, dtype=np.float64)):
                if v != 0.0:
                    fh.write(f"b {i} {float(v)!r}\n")


def read_matrix_file(path):
    """Parse the text matrix format; returns (SparseMatrix, rhs vector).

    Header: ``linf-matrix v1 <n_rows> <n_cols> <nnz>`` then ``i j value`` lines,
    0-indexed.  Optional trailing ``b <i> <value>`` lines populate the rhs
    (absent entries are zero).  Parse failures report the offending line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InputError(f"{path}:1: empty matrix file")
    head = lines[0].split()
    if len(head) != 5 or " ".join(head[:2]) != MATRIX_HEADER:
        raise InputError(f"{path}:1: expected header '{MATRIX_HEADER} n m nnz'")
    try:
        n_rows, n_cols, nnz = int(head[2]), int(head[3]), int(head[4])
    except ValueError as exc:
        raise InputError(f"{path}:1: bad header counts: {exc}") from exc
    if min(n_rows, n_cols, nnz) < 0 or n_rows == 0:
        raise InputError(f"{path}:1: header needs at least one row and "
                         "non-negative counts")
    if n_cols == 0:
        raise InputError(f"{path}:1: header declares 0 columns; a matrix needs "
                         "at least one")
    if max(n_rows, n_cols) > MAX_MATRIX_DIM:
        raise InputError(
            f"{path}:1: {n_rows}x{n_cols} exceeds the {MAX_MATRIX_DIM} rows or "
            "columns a matrix file may declare"
        )
    rows, cols, vals = [], [], []
    b = np.zeros(n_rows)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        try:
            if parts[0] == "b":
                if len(parts) != 3:
                    raise ValueError("expected 'b i value'")
                i, v = int(parts[1]), float(parts[2])
                if not 0 <= i < n_rows:
                    raise ValueError(f"rhs index {i} out of range")
                if not math.isfinite(v):
                    raise ValueError(f"rhs entry {i} is not finite: {v!r}")
                if abs(v) > MAX_MATRIX_MAGNITUDE:
                    raise ValueError(f"rhs entry {i} exceeds {MAX_MATRIX_MAGNITUDE:g}")
                b[i] = v
            else:
                if len(parts) != 3:
                    raise ValueError("expected 'i j value'")
                v = float(parts[2])
                if abs(v) > MAX_MATRIX_MAGNITUDE and math.isfinite(v):
                    raise ValueError(f"entry {v!r} exceeds {MAX_MATRIX_MAGNITUDE:g}")
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                vals.append(v)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    if len(vals) != nnz:
        raise InputError(
            f"{path}: header promises {nnz} entries, found {len(vals)}"
        )
    try:
        matrix = SparseMatrix.from_arrays(rows, cols, vals, n_rows, n_cols)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return matrix, b
