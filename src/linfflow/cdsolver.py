"""Box-constrained coordinate descent with per-point curvature bounds, wrapped in
a primal-dual proximal outer loop.

The outer loop maintains a pair (x in the box, p on the simplex over the
sign-doubled rows ``[A; -A]``).  The doubled matrix is never built: a row and
its mirror share their column pattern and |A_ij|, so the smoothing state, the
sampler tree and every column scan work over the n rows of A with one weight
pair per row.  Each outer iteration shifts the rhs by ``-alpha * log p``,
solves the resulting smoothed strongly convex subproblem with randomized
coordinate descent (sampling j proportionally to its current curvature
bound), then takes the closed-form dual response.  One softmax state and
one sampler serve every subproblem of a solve, re-centred in place on each
shifted rhs with the ``A x`` that also gave the last iterate's value and
bound.  Early exit in both loops is certificate-driven: the outer loop
stops when its ``core.Certificate`` ledger stops the solve, and the inner
loop when the projected-gradient bound on the subproblem's objective gap
falls to ``eps_iter / INNER_GAP_DIVISOR``, the outer iteration's accuracy
target over 16.  That rule holds because an
inexact proximal step needs its subproblem solved only to an additive
accuracy proportional to the outer target (Rockafellar 1976; Nemirovski
2004), and because every return is still gated by a weak-duality
certificate, so the inner target sets the work per outer iteration and never
the guarantee.  The divisor was measured: 8 or less sends near-threshold flow
probes through many more outer iterations, and larger divisors spend more
steps per outer iteration on the regression instances.  The worst-case
iteration budgets are kept as fallbacks so a run always terminates.

Two kinds of weak-duality bound feed that lower bound, and no other bound
does: the outer dual ``exp(logp)`` folded onto the rows of A, before every
outer iteration, and the softmax duals of the residual (``residual_dual_bounds``)
at the start point and after every outer iterate.  The second usually
certifies a primal within a few outer iterations of its becoming eps-optimal;
the outer dual alone lags many iterations behind.

The steps between two certificate checks run in one call of ``lcd_steps``, a
fused kernel that inlines the sampler draw, the column scan, the clamped step,
the weight-pair update and the tree refresh over local Python lists.  It
leaves every cache, counter and random draw exactly as the step-by-step
primitives in ``sampling`` and ``smoothing`` would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Certificate, residual_dual_bounds, weak_duality_bound
from .errors import InputError, SolverFault
from .sampling import BufferedUniforms, CoordSampler, make_rng
from .smoothing import REBUILD_DRIFT, LocalSmoothnessParams, SoftmaxState

# each subproblem stops at an objective gap of eps_iter over this divisor
INNER_GAP_DIVISOR = 16


def lcd_steps(state, sampler, center, uniforms, count):
    """Run ``count`` coordinate steps in one call; returns ``(moving, j, delta)``.

    Each step samples a coordinate j by its curvature weight and takes the
    clamped step toward ``center``; the gradient (pair difference) and the
    curvature (pair sum) share one scan of the column.  ``moving`` counts the
    steps that moved x, and ``(j, delta)`` is the last step's draw and move.

    The iterate, its softmax caches, the sampler tree with its counters and the
    uniform cursor end exactly as ``CoordSampler.sample``, ``grad_coord`` /
    ``local_smoothness``, the clamp and ``CoordSampler.step`` leave them one
    step at a time.  Their bodies are inlined here over local lists, because
    the call chain cost more than the O(c) work of a step.  The kernel is the
    only mutator while it runs, so the sync check is made once, at entry; a
    drift rebuild writes x back, rebuilds the state and resyncs the sampler.
    ``center`` is any float sequence (a list is fastest).
    """
    if sampler.state is not state or state.version != sampler._synced_version:
        raise SolverFault("sampler out of sync with its softmax state")
    cols, abs_cols = state.matrix.py_columns()
    curvature, static_l, row_mass = (sampler._curvature, sampler._static_l,
                                     sampler._row_mass)
    static_mass, dyn_coeff = sampler.static_mass, sampler.dyn_coeff
    row_alias = sampler.row_alias
    s_n, s_prob, s_alias = (sampler.static_alias.n, sampler.static_alias.prob,
                            sampler.static_alias.alias)
    tree = sampler.tree
    nodes, size = tree.nodes, tree.size
    rng, block, buf, pos = uniforms.rng, uniforms.block, uniforms._buf, uniforms._pos
    alpha = state.alpha
    coeff = 8.0 / alpha
    x = state.x.tolist()
    w, w_neg, expw, expw_neg = state.w, state.w_neg, state.expw, state.expw_neg
    wref, z, version = state.wref, state.z, state.version
    exp, isfinite, drift_limit = math.exp, math.isfinite, REBUILD_DRIFT
    moving = updates = 0
    j, delta = -1, 0.0
    try:
        for _ in range(count):
            # draw j: the static summand or the row tree, then the row alias
            total = nodes[1]
            dyn = dyn_coeff * total
            stat = static_mass * z
            if stat <= 0 and dyn <= 0:
                raise SolverFault("sampler has zero total mass")
            if pos == block:
                buf, pos = rng.random(block).tolist(), 0
            u = buf[pos]
            pos += 1
            if u * (stat + dyn) < stat:
                if pos == block:
                    buf, pos = rng.random(block).tolist(), 0
                r = buf[pos] * s_n
                pos += 1
                k = int(r)
                if k == s_n:
                    k -= 1
                j = k if (r - k) < s_prob[k] else s_alias[k]
            else:
                if total <= 0.0:
                    raise SolverFault("sampling from an empty tree")
                k = 1
                while k < size:
                    if pos == block:
                        buf, pos = rng.random(block).tolist(), 0
                    u = buf[pos] * nodes[k]
                    pos += 1
                    k = 2 * k if u < nodes[2 * k] else 2 * k + 1
                row_cols, alias = row_alias[k - size]
                if pos == block:
                    buf, pos = rng.random(block).tolist(), 0
                r = buf[pos] * alias.n
                pos += 1
                k = int(r)
                if k == alias.n:
                    k -= 1
                j = row_cols[k if (r - k) < alias.prob[k] else alias.alias[k]]

            # one column scan: gradient and curvature bound, then the clamp
            rows, vals = cols[j]
            abs_vals, cm = abs_cols[j]
            inner = 0.0
            abs_inner = 0.0
            for i, v, a in zip(rows, vals, abs_vals):
                e = expw[i]
                f = expw_neg[i]
                inner += v * (e - f)
                abs_inner += a * (e + f)
            xj = x[j]
            g = inner / z + curvature[j] * (xj - center[j])
            lj = coeff * cm * abs_inner / z + static_l[j]
            target = xj - g / lj
            if target > 1.0:
                target = 1.0
            elif target < -1.0:
                target = -1.0
            delta = target - xj
            if delta == 0.0:
                continue

            # the weight-pair update of the column's rows (apply_coord_update)
            if not isfinite(delta):
                raise InputError("coordinate update must be finite")
            moving += 1
            x[j] = xj + delta
            version += 1
            if not rows:
                continue
            scale = delta / alpha
            drift = False
            for i, v in zip(rows, vals):
                step = v * scale
                wn = w[i] + step
                wm = w_neg[i] - step
                w[i] = wn
                w_neg[i] = wm
                dn = wn - wref
                dm = wm - wref
                if dn > drift_limit or dm > drift_limit:
                    drift = True
                else:
                    e = exp(dn)
                    f = exp(dm)
                    z += (e - expw[i]) + (f - expw_neg[i])
                    expw[i] = e
                    expw_neg[i] = f
            if drift:
                state.x[:] = x
                state.version = version
                state._rebuild()
                sampler.resync()
                w, w_neg, expw, expw_neg = (state.w, state.w_neg, state.expw,
                                            state.expw_neg)
                wref, z, nodes = state.wref, state.z, tree.nodes
                continue

            # the leaf-path refresh of the same rows (DynamicTree.update)
            for i in rows:
                leaf = (expw[i] + expw_neg[i]) * row_mass[i]
                k = size + i
                nodes[k] = leaf
                while k > 1:
                    leaf += nodes[k ^ 1]
                    k >>= 1
                    nodes[k] = leaf
            updates += len(rows)
    finally:
        state.x[:] = x
        state.z = z
        state.version = sampler._synced_version = version
        uniforms._buf, uniforms._pos = buf, pos
        tree.update_count += updates
        tree.touched_nodes += updates * tree.levels
    return moving, j, delta


@dataclass
class SubproblemResult:
    certified: bool
    iterations: int


class SubproblemSolver:
    """Reusable machinery for the regularized smoothed subproblems of one solve.

    The matrix and ``params`` (alpha, the regularizer) are fixed across
    calls.  The first call builds ``state`` and ``sampler``; later calls move
    ``state.x`` to the warm start, re-centre the state on the new rhs and
    resync the sampler.  Callers read the iterate and its log-weights from
    ``state``.
    """

    def __init__(self, matrix, params):
        self.matrix = matrix
        self.params = params
        self.state = None
        self.sampler = None
        self.total_steps = 0
        self.moving_steps = 0

    def range_bound(self):
        p, norm_a = self.params, self.matrix.norm_inf
        reg_range = p.alpha * float(p.d.sum()) / (2.0 * p.scale)
        return p.alpha * math.log(max(p.rows, 2)) + 2.0 * norm_a + reg_range

    def budget(self, gap, fail_prob):
        ratio = max(self.range_bound() / (gap * fail_prob), 2.0)
        p = self.params
        return max(1, math.ceil(2.0 * p.mass_bound / p.mu * math.log(ratio)))

    def _certificate(self, state, center):
        """Upper bound on the objective gap from the projected gradient."""
        g = self.matrix.t_dot(state.distribution())  # A^T (p - p_neg)
        g += self.params.curvature * (state.x - center)
        c = self.params.curvature
        t = np.clip(state.x - g / c, -1.0, 1.0) - state.x
        return float(-(g * t + 0.5 * c * t * t).sum())

    def solve(self, b_t, center, x_start, gap, fail_prob, uniforms,
              stop_check=None, b_neg=None, ax=None):
        """Drive the iterate until the projected-gradient certificate bounds
        its objective gap to the subproblem optimum by ``gap``.

        ``b_neg``, when given, is the rhs of the mirrored rows ``-A x - b_neg``;
        ``ax``, when given, is ``A x_start``.  The returned flag is False
        when the iteration budget ran out before the projected-gradient
        certificate fired.  ``stop_check``, when given, is polled at
        certificate points with the current x and may abort the solve early
        (used for direct value targets).
        """
        state = self.state
        if state is None:
            state = self.state = SoftmaxState(self.matrix, b_t, self.params.alpha,
                                              x0=x_start, b_neg=b_neg)
            self.sampler = CoordSampler(state, self.params)
        else:
            state.x[:] = x_start
            state.recenter(b_t, b_neg, ax)
            self.sampler.resync()
        sampler = self.sampler
        budget = self.budget(gap, fail_prob)
        check_every = min(512, max(16, self.matrix.n_cols))
        center_list = np.asarray(center, dtype=np.float64).tolist()
        done = moving = 0
        certified = self._certificate(state, center) <= gap
        while not certified and done < budget:
            if stop_check is not None and stop_check(state.x):
                break
            chunk = min(check_every, budget - done)
            moving += lcd_steps(state, sampler, center_list, uniforms, chunk)[0]
            done += chunk
            certified = self._certificate(state, center) <= gap
        self.total_steps += done
        self.moving_steps += moving
        return SubproblemResult(certified=certified, iterations=done)


def _log_normalize(logw):
    m = float(logw.max())
    return logw - (m + math.log(float(np.exp(logw - m).sum())))


def prox_outer_iterate(solver, b, x, logp, eps_iter, fail_prob, uniforms,
                       stop_check=None, ax=None):
    """One proximal step from ``(x, logp)``, ``logp`` the dual over the 2n
    sign-doubled rows (A's, then the mirrors), and ``ax = A x`` if known:
    the shifted-rhs subproblem, then the dual response.  Returns ``(x, logp,
    result)``: a copy of the new iterate, its dual and the ``SubproblemResult``.

    The subproblem's cached log-weights already equal the dual-response
    exponents, so the response is a pure normalization.
    """
    n = solver.matrix.n_rows
    shift = solver.params.alpha * logp
    res = solver.solve(b_t=b - shift[:n], b_neg=-b - shift[n:], center=x, x_start=x,
                       gap=eps_iter / INNER_GAP_DIVISOR, fail_prob=fail_prob,
                       uniforms=uniforms, stop_check=stop_check, ax=ax)
    return solver.state.x.copy(), _log_normalize(solver.state.w_array()), res


@dataclass
class RegressionResult:
    """A prox-CD solve.  ``stop_reason`` is its ``Certificate``'s:
    ``certified``, ``value_target`` or ``lb_target``, or ``outer_budget``
    (every planned outer iteration ran).  ``gap`` is ``value`` minus the best
    lower bound found, the larger of the outer-dual bounds and the
    residual-softmax bounds (``residual_dual_bounds``) at the start point and
    every outer iterate; each is a weak-duality bound, so ``value - gap``
    never exceeds the optimum.  Transcript rows carry ``elapsed_ns`` only
    when the solve was timed."""

    x: np.ndarray
    value: float
    certified: bool
    gap: float
    outer_iterations: int
    sampled_coordinates: int
    transcript: list
    seed: int
    stop_reason: str
    moving_steps: int = 0  # sampled steps that moved x
    timed: bool = False

    def transcript_csv(self):
        if self.timed:
            lines = ["outer_iter,inner_iters,objective,elapsed_ns,seed"]
        else:
            lines = ["outer_iter,inner_iters,objective,seed"]
        for row in self.transcript:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def solve_box_linf(inst, mode="l2", seed=0, stream=0, timing=False,
                   max_outer=None, value_target=None, x0=None,
                   lb_target=None):
    """Solve one unit-box instance to additive epsilon with high probability.

    The max-abs residual is the max over the sign-doubled rows; the solver keeps
    that system folded (one weight pair per row of A, a 2n-entry dual) and
    never builds the doubled matrix.  The instance must already have radius
    one (use ``reduce_to_unit_box`` first otherwise).  ``value_target``, when
    given, adds an extra stop condition on the directly evaluated objective
    (used by scaling benchmarks where the optimum is known); ``lb_target``
    stops as soon as the weak-duality lower bound exceeds it (used to certify
    infeasibility early); ``x0`` warm-starts the primal iterate.

    One ``Certificate`` keeps the best point and bound and decides the stop.
    It is offered the start point, the outer dual before every outer
    iteration, every outer iterate and the averaged iterate.  Only two kinds
    of weak-duality bound reach it: the outer dual, and the best
    residual-softmax dual (``residual_dual_bounds``) of the start point and
    of every outer iterate, formed from the residual the value evaluation
    computes anyway.
    """
    if abs(inst.radius - 1.0) > 1e-12:
        raise InputError("instance must be reduced to the unit box first")
    if mode not in ("l2", "diag"):
        raise InputError(f"unknown mode {mode!r}")
    import time as _time

    matrix, b = inst.matrix, inst.b
    n, m = matrix.n_rows, matrix.n_cols
    n2 = 2 * n  # rows of the sign-doubled system
    eps = inst.epsilon
    s = inst.s
    norm_a = matrix.norm_inf
    uniforms = BufferedUniforms(make_rng(seed, stream))
    transcript = []

    if norm_a == 0.0:
        x = np.zeros(m)
        return RegressionResult(x=x, value=inst.value_at(x), certified=True, gap=0.0,
                                outer_iterations=0, sampled_coordinates=0,
                                transcript=transcript, seed=seed,
                                stop_reason="certified", timed=timing)

    if mode == "l2":
        alpha = max(eps, math.sqrt(s / m) * norm_a)
        params = LocalSmoothnessParams.l2(matrix, alpha, s, rows=n2)
    else:
        alpha = max(eps, math.sqrt(n2 / m) * norm_a)
        params = LocalSmoothnessParams.diag(matrix, alpha, d_floor=eps / m, rows=n2)

    t_planned = math.ceil(2.0 * alpha * (1.0 + math.log(n2)) / eps)
    if max_outer is not None:
        t_planned = min(t_planned, max_outer)
    fail_prob = 1.0 / (max(t_planned, 1) * n2 * n2)
    solver = SubproblemSolver(matrix, params)
    x = np.zeros(m) if x0 is None else np.clip(np.asarray(x0, dtype=float), -1, 1)
    logp = np.full(n2, -math.log(n2))
    evaluate = inst.value_at

    def value_and_bound(ax):
        """The value and the best residual-softmax dual bound at x, given A x."""
        r = ax - b
        return (float(np.abs(r).max()),
                float(residual_dual_bounds(matrix, b, r, eps).max()))

    ax = matrix.dot(x)  # shared by the value, the bound and the next re-centre
    val, lb = value_and_bound(ax)
    cert = Certificate(x, val, eps, value_target=value_target,
                       lb_target=lb_target)
    stop_check = None
    if value_target is not None:
        stop_check = lambda xv: cert.meets_value_target(evaluate(xv))
    x_sum = np.zeros(m)
    t_done = 0
    start = _time.perf_counter_ns()
    if cert.offer(bound=lb):
        t_planned = 0  # the start point already stops the solve
    for t in range(t_planned):
        p = np.exp(logp)
        q = p[:n] - p[n:]  # the doubled rows' dual, folded onto the rows of A
        if cert.offer(bound=weak_duality_bound(matrix, b, q)):
            break
        # adaptive slack: while the certified gap is far above eps, the
        # per-iteration subproblem accuracy tracks the gap instead of the
        # final tolerance; a halving-every-8-outers envelope forces descent to
        # the eps/2 rule regardless, and every return stays certificate-gated
        envelope = (abs(cert.value) + 1.0) * 0.917 ** t
        eps_iter = max(eps / 2.0, min(cert.gap / 8.0, envelope))
        x, logp, res = prox_outer_iterate(solver, b, x, logp, eps_iter, fail_prob,
                                          uniforms, stop_check=stop_check, ax=ax)
        t_done = t + 1
        x_sum += x
        ax = matrix.dot(x)
        val, lb = value_and_bound(ax)
        row = (t_done, res.iterations, repr(val))
        if timing:
            row += (_time.perf_counter_ns() - start,)
        transcript.append(row + (seed,))
        if cert.offer(x, val, lb):
            break

    if t_done > 0:
        x_avg = x_sum / t_done
        cert.offer(x_avg, evaluate(x_avg))
    return RegressionResult(
        x=cert.x,
        value=cert.value,
        certified=cert.stop_reason == "certified",
        gap=cert.gap,
        outer_iterations=t_done,
        sampled_coordinates=solver.total_steps,
        transcript=transcript,
        seed=seed,
        stop_reason=cert.stop_reason or "outer_budget",
        moving_steps=solver.moving_steps,
        timed=timing,
    )
