"""The step-by-step primitives that the fused kernels inline, kept as test oracles.

The package computes the coordinate gradient and the per-point curvature
bound L_j(x) of a prox-CD subproblem, and the sampler's column weights, only
inside ``cdsolver.lcd_steps``.  The functions here compute each of them on
its own, one coordinate at a time, over the package's objects
(``SoftmaxState``, ``LocalSmoothnessParams``, ``CoordSampler``,
``DynamicTree``), so that the tests can check the kernel against them, and
them against finite differences, the sign-doubled system and the drawn laws.
``plain_phase`` is a mirror-prox phase without in-phase checks, the
reference for ``mirrorprox.run_phase``; the dense dual law of a phase is
``helpers.doubled_law(phase.u)``.  This file lives under a name pytest does
not collect.
"""

import numpy as np

from linfflow.mirrorprox import aggregate_point, phase_iterates


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


def row_entry_weight(params, j, vals):
    """Weights |A_ij| * colmax_j / d_j of column j's entries ``vals``; an
    entry makes d_j >= colmax_j > 0."""
    vals = np.asarray(vals, dtype=np.float64)
    cm = np.abs(vals).max() if len(vals) else 0.0
    return np.abs(vals) * (cm / params.d[j])


def tree_total(tree):
    """Sum of a ``DynamicTree``'s leaf weights: its root."""
    return tree.nodes[1]


def sampler_weight(sampler, j):
    """Current sampling weight ``L_j(x) / d_j`` of column j under a
    ``CoordSampler`` (matches the drawn law exactly)."""
    state, params = sampler.state, sampler.params
    rows, vals = state.matrix.col(j)
    if len(rows) == 0:
        dyn = 0.0
    else:
        w = row_entry_weight(params, j, vals)
        expw, expw_neg = state.expw, state.expw_neg
        p = np.array([expw[int(i)] + expw_neg[int(i)] for i in rows]) / state.z
        dyn = sampler.dyn_coeff * float(w @ p)
    return dyn + float(params.sample_static[j])


def total_mass(sampler):
    """Current sum of a ``CoordSampler``'s weights over all columns."""
    dynamic = sampler.dyn_coeff * tree_total(sampler.tree) / sampler.state.z
    return sampler.static_mass + dynamic


def plain_phase(phase, t_star, uniforms):
    """A phase without in-phase checks: t_star - 1 iterations, then the
    aggregate point, with the draws and floats of ``run_phase`` whose stop
    never holds."""
    phase_iterates(phase, uniforms, t_star - 1)
    return aggregate_point(phase)
