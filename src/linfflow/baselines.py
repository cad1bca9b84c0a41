"""Reference first-order methods: sup-norm gradient descent and plain
coordinate descent with global smoothness constants.

Comparators and test oracles only; they consume the same smoothed objective
machinery as the main solvers so traces are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .sampling import BufferedUniforms, StaticAlias, make_rng
from .smoothing import SoftmaxState


class SmoothedObjective:
    """f(x) = alpha * log sum exp(([A; -A] x - [b; -b])/alpha), kept folded."""

    def __init__(self, matrix, b, alpha):
        self.matrix = matrix
        self.b = np.asarray(b, dtype=np.float64)
        self.alpha = float(alpha)

    def state_at(self, x):
        return SoftmaxState(self.matrix, self.b, self.alpha, x0=x, b_neg=-self.b)

    def value(self, x):
        return float(self.state_at(x).smax())

    def grad(self, x):
        return self.matrix.t_dot(self.state_at(x).distribution())

    @property
    def linf_smoothness(self):
        """Valid smoothness constant in the sup norm."""
        return self.matrix.norm_inf ** 2 / self.alpha

    def coord_smoothness(self):
        """Global per-coordinate curvature bounds colmax_j^2 / alpha."""
        return self.matrix.col_maxabs ** 2 / self.alpha


@dataclass
class BaselineTrace:
    x: np.ndarray
    values: list = field(default_factory=list)
    steps: int = 0


def gd_general_norm(objective, smoothness, iterations):
    """Unaccelerated gradient descent from 0 with steepest sup-norm steps.

    Each step goes along the sign pattern scaled by the dual (l1) norm of the
    gradient, which is the minimizer of the smoothness upper bound; descent is
    monotone by construction.
    """
    if iterations < 1:
        raise InputError("iteration budget must be at least 1")
    x = np.zeros(objective.matrix.n_cols)
    trace = BaselineTrace(x=x, values=[objective.value(x)])
    for _ in range(iterations):
        g = objective.grad(x)
        dual = float(np.abs(g).sum())
        if dual == 0.0:
            break
        x = x - (dual / smoothness) * np.sign(g)
        trace.values.append(objective.value(x))
        trace.steps += 1
    trace.x = x
    return trace


def plain_cd(objective, coord_smoothness, iterations, seed=0, x0=None,
             uniforms=None):
    """Coordinate descent sampling j proportional to its global constant L_j.

    Steps are the unconstrained minimizers of the per-coordinate quadratic
    upper bound.  Per-step cost is the column sparsity.
    """
    if iterations < 1:
        raise InputError("iteration budget must be at least 1")
    lj = np.asarray(coord_smoothness, dtype=np.float64)
    if (lj <= 0).any():
        raise InputError("coordinate smoothness bounds must be positive")
    state = objective.state_at(
        np.zeros(objective.matrix.n_cols) if x0 is None else x0
    )
    alias = StaticAlias(lj)
    u = uniforms if uniforms is not None else BufferedUniforms(make_rng(seed))
    trace = BaselineTrace(x=state.x, values=[float(state.smax())])
    cols = state._cols
    expw, expw_neg = state.expw, state.expw_neg
    for _ in range(iterations):
        j = alias.sample(u)
        rows, vals = cols[j]
        acc = 0.0
        for r, a in zip(rows, vals):
            acc += a * (expw[r] - expw_neg[r])
        gj = acc / state.z
        if gj != 0.0:
            state.apply_coord_update(j, -gj / lj[j])
            expw, expw_neg = state.expw, state.expw_neg  # rebuilds swap the lists
        trace.steps += 1
    trace.values.append(float(state.smax()))
    trace.x = state.x
    return trace
