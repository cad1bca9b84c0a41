"""Log-sum-exp smoothing of the max residual, with per-coordinate curvature bounds.

The smoothed objective is ``alpha * log(sum_i exp((A x - b)_i / alpha))`` plus a
quadratic pull toward a center point, weighted per coordinate by
``LocalSmoothnessParams``.  The max-abs residual is the max over the
sign-doubled rows ``[A; -A]``; a state keeps such a system folded, one weight
pair per row of A: ``(A x - b)_i`` and its mirror ``(-A x - b_neg)_i``, whose
rhs differs once a proximal shift is applied.  Without a mirrored rhs the
mirror weights are identically zero and the state is the one-sided smoothing
of ``A x - b``.

Everything is maintained incrementally under single-coordinate updates of x:
the shifted log-weights change only at the rows of the touched column, and the
normalizer is patched in place, with a full rebuild whenever the running max
drifts more than REBUILD_DRIFT log units past the stored shift (overflow
hygiene).

The per-row caches are plain Python lists: coordinate steps touch only a
handful of entries, where list indexing beats numpy call overhead by an order
of magnitude.  Dense views are materialized on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

REBUILD_DRIFT = 30.0


class SoftmaxState:
    """Cached residual weights for one (matrix, alpha) pair and its current rhs.

    Owns the current iterate x.  ``expw`` holds exp(w - wref) where
    w = (A x - b)/alpha, ``expw_neg`` holds exp(w_neg - wref) where
    w_neg = (-A x - b_neg)/alpha, and wref is the shift captured at the last
    rebuild; ``z`` is the running sum of both.  With ``b_neg`` omitted the
    mirrored rows are absent: w_neg is -inf and expw_neg is zero.
    ``recenter`` rebinds the rhs pair in place, once per proximal step.
    """

    __slots__ = ("matrix", "b", "b_neg", "alpha", "x", "w", "w_neg", "wref",
                 "expw", "expw_neg", "z", "version", "rebuild_count", "_cols")

    def __init__(self, matrix, b, alpha, x0=None, b_neg=None):
        if alpha <= 0:
            raise InputError("alpha must be positive")
        self.matrix = matrix
        self.b = np.asarray(b, dtype=np.float64)
        self.b_neg = None if b_neg is None else np.asarray(b_neg, dtype=np.float64)
        self.alpha = float(alpha)
        m = matrix.n_cols
        self.x = np.zeros(m) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
        self.version = 0
        self.rebuild_count = 0
        self._cols = matrix.py_columns()[0]
        self._rebuild()

    def recenter(self, b, b_neg, ax):
        """Bind the rhs pair at the current x and rebuild every cache.

        ``ax`` is ``A x`` at the current x, or None to compute it.  A sampler
        that is not resynced afterwards will not draw."""
        self.b = np.asarray(b, dtype=np.float64)
        self.b_neg = None if b_neg is None else np.asarray(b_neg, dtype=np.float64)
        self.version += 1
        self._rebuild(ax)

    def _rebuild(self, ax=None):
        if ax is None:
            ax = self.matrix.dot(self.x)
        w = (ax - self.b) / self.alpha
        if self.b_neg is None:
            w_neg = np.full(len(w), -math.inf)
        else:
            w_neg = (-ax - self.b_neg) / self.alpha
        self.wref = float(max(w.max(), w_neg.max())) if len(w) else 0.0
        expw = np.exp(w - self.wref)
        expw_neg = np.exp(w_neg - self.wref)
        self.z = float(expw.sum() + expw_neg.sum())
        self.w = w.tolist()
        self.w_neg = w_neg.tolist()
        self.expw = expw.tolist()
        self.expw_neg = expw_neg.tolist()
        self.rebuild_count += 1

    def smax(self):
        """alpha * log sum exp of every smoothed row, in shifted form.

        It lies between the largest smoothed row value and that plus
        alpha * log n, with n the number of smoothed rows."""
        return self.alpha * (self.wref + math.log(self.z))

    def distribution(self):
        """Gradient of smax with respect to A x: p - p_neg; a fresh dense array.

        For a one-sided state this is the softmax distribution over rows.
        """
        return (np.array(self.expw) - np.array(self.expw_neg)) / self.z

    def w_array(self):
        """Log-weights of every smoothed row: the rows of A, then the mirrors."""
        if self.b_neg is None:
            return np.array(self.w)
        return np.array(self.w + self.w_neg)

    def apply_coord_update(self, j, delta):
        """Move x_j by delta; touches only the rows of column j.

        Returns the touched row indices (a tuple; empty for delta == 0).
        """
        if not math.isfinite(delta):
            raise InputError("coordinate update must be finite")
        rows, vals = self._cols[j]
        if delta == 0.0:
            return ()
        self.x[j] += delta
        self.version += 1
        if not rows:
            return ()
        scale = delta / self.alpha
        w, w_neg = self.w, self.w_neg
        expw, expw_neg = self.expw, self.expw_neg
        wref = self.wref
        z = self.z
        drift = False
        exp = math.exp
        for i, v in zip(rows, vals):
            step = v * scale
            wn = w[i] + step
            wm = w_neg[i] - step
            w[i] = wn
            w_neg[i] = wm
            if wn - wref > REBUILD_DRIFT or wm - wref > REBUILD_DRIFT:
                drift = True
            else:
                e = exp(wn - wref)
                f = exp(wm - wref)
                z += (e - expw[i]) + (f - expw_neg[i])
                expw[i] = e
                expw_neg[i] = f
        if drift:
            self._rebuild()
        else:
            self.z = z
        return rows


@dataclass(frozen=True)
class LocalSmoothnessParams:
    """Precomputed pieces of the per-coordinate curvature bounds.

    The regularizer is ``(alpha / scale) * sum_j d_j (x_j - c_j)^2 / 2``, and
    only the constructors tell the geometries apart: ``l2`` has ``d = 1``,
    ``scale = s``; ``diag`` the floored column maxima, ``scale = rows * ||A||``.
    ``curvature[j]`` is the regularizer's second derivative along coordinate j;
    ``static_l[j]`` is the x-independent part of the smoothness bound L_j;
    ``sample_static[j]`` is ``L_j / d_j``'s static summand, and
    ``row_entry_weight`` scales |A_ij| inside its dynamic one; ``mass_bound``
    bounds ``sum_j L_j(x) / d_j`` at every x.  ``rows`` counts the smoothed
    rows: ``2 * n_rows`` when the state folds the sign-doubled system, which
    keeps every size-dependent constant that of the doubled system.
    """

    alpha: float
    scale: float
    rows: int
    curvature: np.ndarray
    static_l: np.ndarray
    sample_static: np.ndarray
    d: np.ndarray
    mass_bound: float

    @classmethod
    def l2(cls, matrix, alpha, s, rows=None):
        if s <= 0:
            raise InputError("s must be positive")
        m = matrix.n_cols
        n = matrix.n_rows if rows is None else int(rows)
        norm_a = matrix.norm_inf
        curv = np.full(m, alpha / s)
        static_l = 16.0 * matrix.col_maxabs / s + alpha / s
        mass = ((8.0 / alpha) * norm_a ** 2 + 16.0 * min(m, n) * norm_a / s
                + m * alpha / s)
        return cls(alpha=float(alpha), scale=float(s), rows=n, curvature=curv,
                   static_l=static_l, sample_static=static_l, d=np.ones(m),
                   mass_bound=mass)

    @classmethod
    def diag(cls, matrix, alpha, d_floor=0.0, rows=None):
        norm_a = matrix.norm_inf
        if norm_a <= 0:
            raise InputError("diag mode needs a nonzero matrix")
        n = matrix.n_rows if rows is None else int(rows)
        scale = n * norm_a
        d = np.maximum(matrix.col_maxabs, d_floor)
        curv = alpha * d / scale
        static_l = (16.0 * matrix.col_maxabs * d + alpha * d) / scale
        sample_static = np.where(d > 0, static_l / np.where(d > 0, d, 1.0), 0.0)
        mass = (8.0 / alpha) * norm_a + float(sample_static.sum())
        return cls(alpha=float(alpha), scale=float(scale), rows=n, curvature=curv,
                   static_l=static_l, sample_static=sample_static, d=d,
                   mass_bound=mass)

    def row_entry_weight(self, j, vals):
        """Weights |A_ij| * colmax_j / d_j; an entry makes d_j >= colmax_j > 0."""
        vals = np.asarray(vals, dtype=np.float64)
        cm = np.abs(vals).max() if len(vals) else 0.0
        return np.abs(vals) * (cm / self.d[j])

    @property
    def mu(self):
        """Strong convexity of the regularized objective in its own norm."""
        return self.alpha / self.scale


def grad_coord(state, j, center, params):
    """Partial derivative of the regularized objective along coordinate j."""
    rows, vals = state._cols[j]
    expw, expw_neg = state.expw, state.expw_neg
    acc = 0.0
    for k in range(len(rows)):
        i = rows[k]
        acc += vals[k] * (expw[i] - expw_neg[i])
    return acc / state.z + float(params.curvature[j]) * (state.x[j] - center[j])


def local_smoothness(state, j, params):
    """Curvature bound valid over the step a coordinate iteration takes from x.

    Never smaller than the regularizer curvature along j.
    """
    rows, vals = state._cols[j]
    if rows:
        expw, expw_neg = state.expw, state.expw_neg
        acc = 0.0
        cm = 0.0
        for k in range(len(rows)):
            i = rows[k]
            v = vals[k]
            av = v if v >= 0 else -v
            if av > cm:
                cm = av
            acc += av * (expw[i] + expw_neg[i])
        dyn = (8.0 / state.alpha) * cm * acc / state.z
    else:
        dyn = 0.0
    return dyn + float(params.static_l[j])


def smax_hessian_diag(state, j):
    """Exact second derivative of the smoothed residual alone along coordinate j."""
    rows, vals = state._cols[j]
    if not rows:
        return 0.0
    expw, expw_neg = state.expw, state.expw_neg
    first = 0.0
    second = 0.0
    for k in range(len(rows)):
        i = rows[k]
        p, p_neg = expw[i] / state.z, expw_neg[i] / state.z
        first += vals[k] * vals[k] * (p + p_neg)
        second += vals[k] * (p - p_neg)
    return (first - second * second) / state.alpha


def hessian_diag_upper(state, j, params):
    """Upper envelope (1/alpha) * sum_i A_ij^2 (p_i + p_neg_i) plus the
    regularizer curvature.

    This is the bound the smoothness certificates are checked against; it
    dominates the exact diagonal.
    """
    rows, vals = state._cols[j]
    quad = 0.0
    expw, expw_neg = state.expw, state.expw_neg
    for k in range(len(rows)):
        i = rows[k]
        quad += vals[k] * vals[k] * (expw[i] + expw_neg[i])
    return quad / (state.z * state.alpha) + float(params.curvature[j])


def objective_value(state, center, params):
    """Regularized objective: smax plus the quadratic pull toward center."""
    diff = state.x - center
    reg = 0.5 * params.mu * float((params.d * diff) @ diff)
    return float(state.smax()) + reg
