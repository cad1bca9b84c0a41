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
stops when its ``core.Certificate`` ledger stops the solve (the ledger then
builds the ``core.RegressionResult`` that mirror-prox returns too), and the
inner loop when the projected-gradient bound on the subproblem's objective
gap falls to ``eps_iter / INNER_GAP_DIVISOR``, the outer iteration's
accuracy target over 16.  That rule holds because an inexact proximal
step needs its subproblem solved only to an additive
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
the weight-pair update and the tree refresh over local Python lists.  Each
check also hands the kernel the columns whose projected step is 0: a column
at a box bound whose gradient pushes outward, or one whose gradient is
exactly 0 (its rows' softmax weights underflowed and it sits at its prox
centre).  The kernel's step on such a column is null, so until the next
check the kernel draws from the curvature law conditioned on the other
columns, and it drops a column whose step comes out null for the rest of the
call (the "shrinking" of dual coordinate descent: Joachims 1999; Hsieh et
al., ICML 2008).  That changes only the work: a column whose gradient turns
re-enters at the next check, at most ``check_every`` steps on, and every
return is gated by the full, unmasked certificate.  Without a mask the
kernel leaves every cache, counter and random draw exactly as the
step-by-step primitives in ``sampling`` and ``tests/reference_steps.py``
would.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Certificate, residual_dual_bounds, weak_duality_bound
from .errors import InputError, SolverFault
from .sampling import BufferedUniforms, CoordSampler, make_rng
from .smoothing import REBUILD_DRIFT, LocalSmoothnessParams, SoftmaxState

# each subproblem stops at an objective gap of eps_iter over this divisor
INNER_GAP_DIVISOR = 16


def lcd_steps(state, sampler, center, uniforms, count, skip=None):
    """Take up to ``count`` coordinate steps in one call; returns ``(steps,
    moving, j, delta)``.

    Each step samples a coordinate j by its curvature weight and takes the
    clamped step toward ``center``; the gradient (pair difference) and the
    curvature (pair sum) share one scan of the column.  ``steps`` counts the
    steps taken, ``moving`` those that moved x, and ``(j, delta)`` is the
    last step's draw and move.

    ``skip``, when given, is a boolean mask over the columns, True where a
    step is known to be null (``SubproblemSolver._certificate``'s zero mask).
    The kernel then draws from the curvature law conditioned on the other
    columns: the static summand's prefix sums are rebuilt over them, and any
    draw that lands on a skipped column (a row-tree draw, or a static one on
    a column skipped within the call) is redrawn and not counted.  A step
    that comes out null skips its column for the rest of the call, and once
    no column is left the call returns with the steps taken so far.
    Every column of static weight 0 is empty (its curvature law is 0), so it
    is skipped too, and each column left is drawn with positive probability.

    Without ``skip`` every column stays in, ``steps`` is ``count``, and the
    iterate, its softmax caches, the sampler tree with its counters and the
    uniform cursor end exactly as ``CoordSampler.sample``, ``grad_coord`` /
    ``local_smoothness`` (test oracles in ``tests/reference_steps.py``), the
    clamp and ``CoordSampler.step`` leave them one step at a time.  Their
    bodies are inlined here over local lists, because the call chain cost
    more than the O(c) work of a step.  The kernel is the only mutator while
    it runs, so the sync check is made once, at entry; a drift rebuild writes
    x back, rebuilds the state and resyncs the sampler.  ``center`` is any
    float sequence (a list is fastest).
    """
    if sampler.state is not state or state.version != sampler._synced_version:
        raise SolverFault("sampler out of sync with its softmax state")
    cols, abs_cols = state.matrix.py_columns()
    curvature, static_l, row_mass = (sampler._curvature, sampler._static_l,
                                     sampler._row_mass)
    dyn_coeff, row_cdf = sampler.dyn_coeff, sampler.row_cdf
    shrink = skip is not None
    if shrink:
        static = sampler.params.sample_static
        active = ~skip & (static > 0)
        left = int(np.count_nonzero(active))
        skipped = (~active).tolist()
        s_cum = np.cumsum(np.where(active, static, 0.0)).tolist()
        static_mass = s_cum[-1]
    else:
        left = state.matrix.n_cols
        skipped = [False] * left
        s_cum, static_mass = sampler.static_alias.cum, sampler.static_mass
    s_n = len(s_cum)
    tree = sampler.tree
    nodes, size = tree.nodes, tree.size
    rng, block, buf, pos = uniforms.rng, uniforms.block, uniforms._buf, uniforms._pos
    alpha = state.alpha
    coeff = 8.0 / alpha
    x = state.x.tolist()
    w, w_neg, expw, expw_neg = state.w, state.w_neg, state.expw, state.expw_neg
    wref, z, version = state.wref, state.z, state.version
    exp, isfinite, drift_limit = math.exp, math.isfinite, REBUILD_DRIFT
    steps = moving = updates = 0
    j, delta = -1, 0.0
    try:
        while steps < count and left:
            # draw j: the static summand or the row tree, then the row's
            # prefix sums; each fixed law is bisected with one uniform
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
                j = bisect_right(s_cum, buf[pos] * s_cum[-1], 0, s_n - 1)
                pos += 1
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
                row_cols, cum = row_cdf[k - size]
                if pos == block:
                    buf, pos = rng.random(block).tolist(), 0
                j = row_cols[bisect_right(cum, buf[pos] * cum[-1], 0, len(cum) - 1)]
                pos += 1
            if skipped[j]:
                continue
            steps += 1

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
                if shrink:
                    skipped[j] = True
                    left -= 1
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
    return steps, moving, j, delta


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
        """Upper bound on the objective gap from the projected gradient, and
        the mask of the columns whose projected step is 0.

        The kernel's curvature bound ``L_j(x)`` is at least ``c_j``, so where
        the step ``t_j`` clamped at curvature ``c_j`` is 0 (a zero gradient,
        or a bound that the gradient pushes past), the kernel's clamped step
        is null too: ``lcd_steps`` skips those columns until the next check.
        """
        g = self.matrix.t_dot(state.distribution())  # A^T (p - p_neg)
        g += self.params.curvature * (state.x - center)
        c = self.params.curvature
        t = np.clip(state.x - g / c, -1.0, 1.0) - state.x
        return float(-(g * t + 0.5 * c * t * t).sum()), t == 0.0

    def solve(self, b_t, center, x_start, gap, fail_prob, uniforms,
              stop_check=None, b_neg=None, ax=None):
        """Drive the iterate until the projected-gradient certificate bounds
        its objective gap to the subproblem optimum by ``gap``.

        ``b_neg``, when given, is the rhs of the mirrored rows ``-A x - b_neg``;
        ``ax``, when given, is ``A x_start``.  The returned flag is False
        when the iteration budget ran out before the projected-gradient
        certificate fired, or when no column could move.  ``stop_check``,
        when given, is polled at certificate points with the current x and
        may abort the solve early (used for direct value targets).  Between
        two checks the kernel skips the columns of the last check's zero
        mask; the budget and ``iterations`` count the steps taken, not the
        skipped draws.
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
        bound, null = self._certificate(state, center)
        certified = bound <= gap
        while not certified and done < budget:
            if stop_check is not None and stop_check(state.x):
                break
            steps, moved = lcd_steps(state, sampler, center_list, uniforms,
                                     min(check_every, budget - done), null)[:2]
            if not steps:
                break  # no column can move, so the certificate cannot fall
            done += steps
            moving += moved
            bound, null = self._certificate(state, center)
            certified = bound <= gap
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


def solve_box_linf(inst, solver="cd-l2", seed=0, stream=0, timing=False,
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
    infeasibility early); ``x0`` warm-starts the primal iterate.  ``solver``
    is ``cd-l2`` or ``cd-diag``; ``timing`` adds an ``elapsed_ns`` column.

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
    if solver not in ("cd-l2", "cd-diag"):
        raise InputError(f"unknown solver {solver!r}")
    import time as _time

    matrix, b = inst.matrix, inst.b
    n, m = matrix.n_rows, matrix.n_cols
    n2 = 2 * n  # rows of the sign-doubled system
    eps = inst.epsilon
    s = inst.s
    norm_a = matrix.norm_inf
    uniforms = BufferedUniforms(make_rng(seed, stream))
    transcript = []
    header = ("outer_iter,inner_iters,objective,elapsed_ns,seed" if timing
              else "outer_iter,inner_iters,objective,seed")

    if norm_a == 0.0:
        x = np.zeros(m)
        cert = Certificate(x, inst.value_at(x), eps)
        cert.offer(bound=cert.value)  # A = 0: every x has this value, the optimum
        return cert.result(seed, transcript, header, 0)

    if solver == "cd-l2":
        alpha = max(eps, math.sqrt(s / m) * norm_a)
        params = LocalSmoothnessParams.l2(matrix, alpha, s, rows=n2)
    else:
        alpha = max(eps, math.sqrt(n2 / m) * norm_a)
        params = LocalSmoothnessParams.diag(matrix, alpha, d_floor=eps / m, rows=n2)

    t_planned = math.ceil(2.0 * alpha * (1.0 + math.log(n2)) / eps)
    if max_outer is not None:
        t_planned = min(t_planned, max_outer)
    fail_prob = 1.0 / (max(t_planned, 1) * n2 * n2)
    sub = SubproblemSolver(matrix, params)
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
        x, logp, res = prox_outer_iterate(sub, b, x, logp, eps_iter, fail_prob,
                                          uniforms, stop_check=stop_check, ax=ax)
        x_sum += x
        ax = matrix.dot(x)
        val, lb = value_and_bound(ax)
        row = (t + 1, res.iterations, repr(val))
        if timing:
            row += (_time.perf_counter_ns() - start,)
        transcript.append(row + (seed,))
        if cert.offer(x, val, lb):
            break

    if transcript:
        x_avg = x_sum / len(transcript)
        cert.offer(x_avg, evaluate(x_avg))
    return cert.result(seed, transcript, header, sub.total_steps,
                       moving_steps=sub.moving_steps)
