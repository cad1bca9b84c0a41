"""Sparse matrices, regression instances, and the reductions to the canonical unit box.

The solvers in this package all operate on one canonical shape: minimize the
max-abs residual ``max_i |(A x - b)_i|`` over ``x`` in ``[-1, 1]^m``.  That is
the maximum entry of the sign-doubled system ``[A; -A] x - [b; -b]``
(``sign_double``): the mirror-prox solver and the baselines build it, while
the coordinate descent path keeps it folded, one weight pair per row of
``A``.  This module holds the immutable matrix type (column and row views
both materialized), the instance record, and the affine change of variables
that maps general boxes onto the unit box.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError


class SparseMatrix:
    """Immutable sparse matrix with both column-major and row-major views.

    Column access drives per-coordinate solver steps; row access drives
    residual updates.  Per-column max-abs values and per-row l1 norms are
    cached at construction and never change.
    """

    __slots__ = (
        "n_rows",
        "n_cols",
        "_col_rows",
        "_col_vals",
        "_row_cols",
        "_row_vals",
        "_rows_flat",
        "_cols_flat",
        "_vals_flat",
        "col_maxabs",
        "row_l1",
        "col_nnz",
        "nnz",
        "_py_cols",
        "_py_abs",
    )

    def __init__(self, n_rows, n_cols, rows, cols, vals, _private=False):
        if not _private:
            raise TypeError("use SparseMatrix.from_triplets")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)

        order = np.lexsort((rows, cols))
        self._rows_flat = rows[order]
        self._cols_flat = cols[order]
        self._vals_flat = vals[order]
        self.nnz = len(vals)

        self._col_rows = []
        self._col_vals = []
        start = np.searchsorted(self._cols_flat, np.arange(self.n_cols), side="left")
        stop = np.searchsorted(self._cols_flat, np.arange(self.n_cols), side="right")
        for j in range(self.n_cols):
            self._col_rows.append(self._rows_flat[start[j]:stop[j]].copy())
            self._col_vals.append(self._vals_flat[start[j]:stop[j]].copy())

        order_r = np.lexsort((cols, rows))
        rr, cc, vv = rows[order_r], cols[order_r], vals[order_r]
        self._row_cols = []
        self._row_vals = []
        start = np.searchsorted(rr, np.arange(self.n_rows), side="left")
        stop = np.searchsorted(rr, np.arange(self.n_rows), side="right")
        for i in range(self.n_rows):
            self._row_cols.append(cc[start[i]:stop[i]].copy())
            self._row_vals.append(vv[start[i]:stop[i]].copy())

        self.col_maxabs = np.array(
            [np.abs(v).max() if len(v) else 0.0 for v in self._col_vals]
        )
        self.row_l1 = np.array(
            [np.abs(v).sum() if len(v) else 0.0 for v in self._row_vals]
        )
        self.col_nnz = np.array([len(v) for v in self._col_vals], dtype=np.int64)
        self._py_cols = None  # lazy Python-scalar column caches (py_columns)
        self._py_abs = None

    @classmethod
    def from_triplets(cls, triplets, n_rows, n_cols):
        """Build from ``(row, col, value)`` triplets.

        Out-of-range indices, duplicate ``(row, col)`` pairs and non-finite
        values are rejected; explicit zeros are rejected as well so the norm
        caches stay exact.
        """
        rows, cols, vals = [], [], []
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
            rows.append(i)
            cols.append(j)
            vals.append(v)
        return cls(n_rows, n_cols, rows, cols, vals, _private=True)

    @property
    def norm_inf(self):
        """Largest l1 norm of a row."""
        return float(self.row_l1.max()) if self.n_rows else 0.0

    @property
    def max_col_nnz(self):
        """Column sparsity bound c."""
        return int(self.col_nnz.max()) if self.n_cols else 0

    def col(self, j):
        """(row indices, values) of column j."""
        return self._col_rows[j], self._col_vals[j]

    def row(self, i):
        """(col indices, values) of row i."""
        return self._row_cols[i], self._row_vals[i]

    def py_columns(self):
        """Column caches of Python scalars for the coordinate-step loops, built once.

        Returns ``(cols, abs_cols)``: ``cols[j]`` is the ``(rows, vals)`` pair of
        column j as tuples, and ``abs_cols[j]`` is ``(|vals|, max |vals|)``.  A
        step touches a handful of entries, where tuple indexing beats numpy call
        overhead by an order of magnitude.
        """
        if self._py_cols is None:
            cols, abs_cols = [], []
            for rows, vals in zip(self._col_rows, self._col_vals):
                vals = tuple(vals.tolist())
                abs_vals = tuple(abs(v) for v in vals)
                cols.append((tuple(rows.tolist()), vals))
                abs_cols.append((abs_vals, max(abs_vals, default=0.0)))
            self._py_cols, self._py_abs = cols, abs_cols
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

    def triplets(self):
        """Sorted (row, col, value) list; canonical order for hashing and tests."""
        order = np.lexsort((self._cols_flat, self._rows_flat))
        return [
            (int(self._rows_flat[k]), int(self._cols_flat[k]), float(self._vals_flat[k]))
            for k in order
        ]

    def to_dense(self):
        out = np.zeros((self.n_rows, self.n_cols))
        out[self._rows_flat, self._cols_flat] = self._vals_flat
        return out

    def flat_entries(self):
        """Column-sorted (rows, cols, vals) arrays; read-only views."""
        return self._rows_flat, self._cols_flat, self._vals_flat

    def content_hash(self):
        h = hashlib.sha256()
        h.update(f"{self.n_rows},{self.n_cols};".encode())
        for i, j, v in self.triplets():
            h.update(f"{i},{j},{v!r};".encode())
        return h.hexdigest()[:16]


def sign_double(matrix, b, scale=1.0):
    """Stack A on top of -A (and b on -b) so max-entry equals the max-abs residual.

    For every x the maximum entry of ``A' x - b'`` equals ``max_i |(A x - b)_i|``.
    ``scale`` divides the entries and the rhs first, in the same single build.
    """
    rows, cols, vals = matrix.flat_entries()
    vals = vals / scale
    b = np.asarray(b, dtype=np.float64) / scale
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
    alpha_override: float | None = None

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
        if self.alpha_override is not None and self.alpha_override <= 0:
            raise InputError("alpha_override must be positive")

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
# SparseMatrix builds Python-level caches per row and per column, so a header
# declaring far more rows or columns than entries would stall the reader
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
    if max(n_rows, n_cols) > MAX_MATRIX_DIM:
        raise InputError(
            f"{path}:1: {n_rows}x{n_cols} exceeds the {MAX_MATRIX_DIM} rows or "
            "columns a matrix file may declare"
        )
    triplets = []
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
                triplets.append((int(parts[0]), int(parts[1]), v))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from exc
    if len(triplets) != nnz:
        raise InputError(
            f"{path}: header promises {nnz} entries, found {len(triplets)}"
        )
    try:
        matrix = SparseMatrix.from_triplets(triplets, n_rows, n_cols)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return matrix, b
