"""Box-constrained coordinate descent with per-point curvature bounds, wrapped in
a primal-dual proximal outer loop.

The outer loop maintains a pair (x in the box, p on the simplex over the
sign-doubled rows ``[A; -A]``).  The doubled matrix is never built: a row and
its mirror share their column pattern and |A_ij|, so the smoothing state, the
sampler tree and every column scan work over the n rows of A with one weight
pair per row.  Each outer iteration shifts the rhs by ``-alpha * log p``,
solves the resulting smoothed strongly convex subproblem to a prescribed
sup-norm accuracy with randomized coordinate descent (sampling j
proportionally to its current curvature bound), then takes the closed-form
dual response.  Early exit in both loops is certificate-driven: the inner
loop stops when a projected-gradient bound certifies the required objective
gap, the outer loop when the primal value meets a weak-duality lower bound
within epsilon.  The worst-case iteration budgets are kept as fallbacks so a
run always terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .sampling import BufferedUniforms, CoordSampler, make_rng
from .smoothing import (
    LocalSmoothnessParams,
    SoftmaxState,
    grad_coord,
    local_smoothness,
    objective_value,
    sum_smoothness_bound,
)


def lcd_step(state, sampler, center, uniforms):
    """Sample a coordinate by its curvature weight and take the clamped step.

    ``sampler`` tracks ``state`` and carries the curvature parameters; the
    step pulls toward ``center``.  Returns ``(j, delta)``; the iterate, its
    softmax caches, and the sampler tree are updated in place.  The gradient
    (pair difference) and curvature (pair sum) share one scan of the column.
    """
    params = sampler.params
    j = sampler.sample(uniforms)
    rows, vals = state._cols[j]
    expw, expw_neg = state.expw, state.expw_neg
    inner = 0.0
    abs_inner = 0.0
    cm = 0.0
    for i, v in zip(rows, vals):
        e = expw[i]
        f = expw_neg[i]
        inner += v * (e - f)
        if v < 0:
            v = -v
        if v > cm:
            cm = v
        abs_inner += v * (e + f)
    xj = state.x[j]
    g = inner / state.z + params.curvature[j] * (xj - center[j])
    lj = (8.0 / state.alpha) * cm * abs_inner / state.z + params.static_l[j]
    target = xj - g / lj
    if target > 1.0:
        target = 1.0
    elif target < -1.0:
        target = -1.0
    delta = target - xj
    if delta != 0.0:
        sampler.step(j, delta)
    return j, delta


@dataclass
class SubproblemResult:
    x: np.ndarray
    certified: bool
    iterations: int
    final_w: np.ndarray
    objective: float


class SubproblemSolver:
    """Reusable machinery for the regularized smoothed subproblems.

    The matrix, alpha, and regularizer geometry are fixed across calls; each
    call binds a fresh rhs (with its mirrored half, for a folded sign-doubled
    system) and warm-start point.  The sampler's static alias structures are
    built once and rebound cheaply.
    """

    def __init__(self, matrix, alpha, params):
        self.matrix = matrix
        self.alpha = float(alpha)
        self.params = params
        self.norm_a = matrix.norm_inf
        self.s_bound = sum_smoothness_bound(matrix, alpha, params)
        self._sampler = None
        self.total_steps = 0

    def range_bound(self):
        n, m = self.params.rows, self.matrix.n_cols
        p = self.params
        if p.mode == "l2":
            reg_range = self.alpha * m / (2.0 * p.scale)
        else:
            reg_range = self.alpha * float(p.d.sum()) / (2.0 * p.scale)
        return self.alpha * math.log(max(n, 2)) + 2.0 * self.norm_a + reg_range

    def gap_target(self, delta_x):
        p = self.params
        if p.mode == "l2":
            return 0.5 * p.mu * delta_x * delta_x
        d_min = float(p.d.min())
        if d_min <= 0:
            raise InputError("diag mode requires a positive d floor")
        return 0.5 * (p.alpha / p.scale) * d_min * delta_x * delta_x

    def budget(self, delta_x, fail_prob):
        gap = self.gap_target(delta_x)
        ratio = max(self.range_bound() / (gap * fail_prob), 2.0)
        return max(1, math.ceil(2.0 * self.s_bound / self.params.mu * math.log(ratio)))

    def _certificate(self, state, center):
        """Upper bound on the objective gap from the projected gradient."""
        g = self.matrix.t_dot(state.distribution())  # A^T (p - p_neg)
        g += self.params.curvature * (state.x - center)
        c = self.params.curvature
        t = np.clip(state.x - g / c, -1.0, 1.0) - state.x
        return float(-(g * t + 0.5 * c * t * t).sum())

    def solve(self, b_t, center, x_start, delta_x, fail_prob, uniforms,
              budget_override=None, stop_check=None, b_neg=None):
        """Drive the iterate to within delta_x of the subproblem optimum (sup norm).

        ``b_neg``, when given, is the rhs of the mirrored rows ``-A x - b_neg``
        and ``final_w`` then covers both halves.  The returned flag is False
        when the iteration budget ran out before the projected-gradient
        certificate fired; the best iterate is still returned so the caller
        may retry with a new stream.  ``stop_check``, when given, is polled at
        certificate points with the current x and may abort the solve early
        (used for direct value targets).
        """
        state = SoftmaxState(self.matrix, b_t, self.alpha, x0=x_start, b_neg=b_neg)
        if self._sampler is None:
            self._sampler = CoordSampler(state, self.params)
        else:
            self._sampler.rebind(state)
        sampler = self._sampler
        gap_target = self.gap_target(delta_x)
        budget = budget_override if budget_override is not None else self.budget(
            delta_x, fail_prob)
        check_every = min(512, max(16, self.matrix.n_cols))
        done = 0
        certified = self._certificate(state, center) <= gap_target
        while not certified and done < budget:
            if stop_check is not None and stop_check(state.x):
                break
            chunk = min(check_every, budget - done)
            for _ in range(chunk):
                lcd_step(state, sampler, center, uniforms)
            done += chunk
            certified = self._certificate(state, center) <= gap_target
        self.total_steps += done
        return SubproblemResult(
            x=state.x.copy(),
            certified=certified,
            iterations=done,
            final_w=state.w_array(),
            objective=objective_value(state, center, self.params),
        )


def _log_normalize(logw):
    m = float(logw.max())
    return logw - (m + math.log(float(np.exp(logw - m).sum())))


def dual_response(matrix, x, b, logp_prev, alpha):
    """Closed-form simplex response: p' proportional to exp((A x - b)/alpha + log p)."""
    logw = (matrix.dot(x) - b) / alpha + logp_prev
    return _log_normalize(logw)


@dataclass
class ProxOuterState:
    """Current primal-dual pair of the outer loop over the sign-doubled system.

    The system stays folded: ``matrix`` and ``b`` are the original A and b,
    while ``logp`` is the dual over all 2n doubled rows (the rows of A, then
    their mirrors), so the shifted rhs of the two halves may differ.
    """

    matrix: object
    b: np.ndarray
    alpha: float
    params: LocalSmoothnessParams
    x: np.ndarray
    logp: np.ndarray
    eps_iter: float
    fail_prob: float
    solver: SubproblemSolver
    inner_iterations: list = field(default_factory=list)

    def delta_x_threshold(self):
        """Per-iteration sup-norm accuracy required of the subproblem solution."""
        norm_a = self.matrix.norm_inf
        m = self.matrix.n_cols
        eps = self.eps_iter
        if self.params.mode == "l2":
            mid = eps * self.params.scale / (8.0 * self.alpha * m)
        else:
            mid = eps * self.params.rows / (8.0 * self.alpha * m)
        return min(eps / (16.0 * norm_a), mid,
                   eps * self.alpha / (64.0 * norm_a * norm_a))


def prox_outer_iterate(outer, uniforms, stop_check=None):
    """One proximal step: shifted-rhs subproblem then the dual response.

    The subproblem's cached log-weights already equal the dual-response
    exponents, so the response is a pure normalization.
    """
    n = outer.matrix.n_rows
    shift = outer.alpha * outer.logp
    res = outer.solver.solve(
        b_t=outer.b - shift[:n],
        b_neg=-outer.b - shift[n:],
        center=outer.x,
        x_start=outer.x,
        delta_x=outer.delta_x_threshold(),
        fail_prob=outer.fail_prob,
        uniforms=uniforms,
        stop_check=stop_check,
    )
    outer.x = res.x
    outer.logp = _log_normalize(res.final_w)
    outer.inner_iterations.append(res.iterations)
    return res


@dataclass
class RegressionResult:
    x: np.ndarray
    value: float
    certified: bool
    gap: float
    outer_iterations: int
    sampled_coordinates: int
    transcript: list
    seed: int

    def transcript_csv(self):
        lines = ["outer_iter,inner_iters,objective,elapsed_ns,seed"]
        for row in self.transcript:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def solve_box_linf(inst, mode="l2", seed=0, stream=0, timing=False,
                   max_outer=None, value_target=None, rng=None, x0=None,
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
    uniforms = BufferedUniforms(rng if rng is not None else make_rng(seed, stream))
    transcript = []

    if norm_a == 0.0:
        x = np.zeros(m)
        return RegressionResult(x=x, value=inst.value_at(x), certified=True, gap=0.0,
                                outer_iterations=0, sampled_coordinates=0,
                                transcript=transcript, seed=seed)

    if inst.alpha_override is not None:
        alpha = inst.alpha_override
    elif mode == "l2":
        alpha = max(eps, math.sqrt(s / m) * norm_a)
    else:
        alpha = max(eps, math.sqrt(n2 / m) * norm_a)

    if mode == "l2":
        params = LocalSmoothnessParams.l2(matrix, alpha, s, rows=n2)
    else:
        params = LocalSmoothnessParams.diag(matrix, alpha, d_floor=eps / m, rows=n2)

    t_planned = math.ceil(2.0 * alpha * (1.0 + math.log(n2)) / eps)
    if max_outer is not None:
        t_planned = min(t_planned, max_outer)
    fail_prob = 1.0 / (max(t_planned, 1) * n2 * n2)
    solver = SubproblemSolver(matrix, alpha, params)
    x_init = np.zeros(m) if x0 is None else np.clip(np.asarray(x0, dtype=float), -1, 1)
    outer = ProxOuterState(
        matrix=matrix, b=b, alpha=alpha, params=params,
        x=x_init, logp=np.full(n2, -math.log(n2)),
        eps_iter=eps / 2.0, fail_prob=fail_prob, solver=solver,
    )
    evaluate = inst.value_at

    best_x = outer.x.copy()
    best_val = evaluate(best_x)
    best_lb = -math.inf
    x_sum = np.zeros(m)
    certified = best_val - best_lb <= eps
    t_done = 0
    start = _time.perf_counter_ns()
    if value_target is not None and best_val <= value_target:
        t_planned = 0  # warm start already meets the caller's target
    for t in range(t_planned):
        p = np.exp(outer.logp)
        q = p[:n] - p[n:]  # the doubled rows' dual, folded onto the rows of A
        lb = -float(np.abs(matrix.t_dot(q)).sum()) - float(q @ b)
        best_lb = max(best_lb, lb)
        if best_val - best_lb <= eps:
            certified = True
            break
        if lb_target is not None and best_lb > lb_target:
            break
        # adaptive slack: while the certified gap is far above eps, the
        # per-iteration subproblem accuracy tracks the gap instead of the
        # final tolerance; a halving-every-8-outers envelope forces descent to
        # the eps/2 rule regardless, and every return stays certificate-gated
        gap_now = best_val - best_lb if math.isfinite(best_lb) else best_val
        envelope = (abs(best_val) + 1.0) * 0.917 ** t
        outer.eps_iter = max(eps / 2.0, min(gap_now / 8.0, envelope))
        stop_check = None
        if value_target is not None:
            stop_check = lambda xv: evaluate(xv) <= value_target
        res = prox_outer_iterate(outer, uniforms, stop_check=stop_check)
        t_done = t + 1
        x_sum += outer.x
        val = evaluate(outer.x)
        if val < best_val:
            best_val = val
            best_x = outer.x.copy()
        elapsed = _time.perf_counter_ns() - start if timing else 0
        transcript.append((t_done, res.iterations, repr(val), elapsed, seed))
        if best_val - best_lb <= eps:
            certified = True
            break
        if value_target is not None and best_val <= value_target:
            break

    if t_done > 0:
        x_avg = x_sum / t_done
        avg_val = evaluate(x_avg)
        if avg_val < best_val:
            best_val = avg_val
            best_x = x_avg
    return RegressionResult(
        x=best_x,
        value=best_val,
        certified=certified,
        gap=best_val - best_lb,
        outer_iterations=t_done,
        sampled_coordinates=solver.total_steps,
        transcript=transcript,
        seed=seed,
    )
