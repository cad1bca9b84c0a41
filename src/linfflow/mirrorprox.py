"""Phased randomized primal-dual mirror prox for flow-shaped regression.

Minimizes the max entry of the sign-doubled residual over the unit box by
approximating the saddle point of the entropy-regularized bilinear objective

    h(x, y) = y (A x - b) + (eps/2) |x|^2/(2s) - (eps / 4 log n) * entropy-term.

Each phase runs a random number of half-step/full-step coordinate iterations,
then materializes the "aggregate point" (all-coordinate half step) at the
stopping iteration; the expected Bregman divergence to the regularized saddle
point halves per phase.  Primal coordinates are sampled from a two-branch
mixture built on sqrt-scale smoothness surrogates and floored by uniform
mixing, with the exact realized probability returned for debiasing.

The solve stops on a weak-duality certificate, and it checks it inside a
phase as well as at its end: ``run_phase`` forms the aggregate point at
geometrically spaced iterations and offers each to the solve's
``core.Certificate``, and the phase ends at the first after which the ledger
stops the solve.  A point formed inside a phase is only a candidate; the
next phase starts from the one at the drawn length, as the halving argument
requires.

The sampling tables depend only on (matrix, s, eps), so ``PhaseTables`` is
built once per solve and shared by every phase.  The iterations between two
aggregate points run in one call of the fused kernel ``phase_iterates``,
which inlines the draw, the exact p_j, both coordinate reads and clamps, and
the dense dual recursion over Python lists.  On the small instances a phase
can finish (its length grows with n), numpy's per-call overhead on 4- to
16-entry vectors cost more than the O(n + c) arithmetic of an iteration.
Somewhere between 64 and 256 sign-doubled rows the interpreted O(n) passes
start to cost more than numpy's would (CHANGES.md).  The dual point is
carried as the log-weights of a ``ReferenceSimplex``, whose ``sample``,
``prob``, ``update_half`` and ``update`` are the step-by-step
reference the kernel is tested against (with ``sample_pj``, the reference
draw); ``SimplexMaintainer`` answers the same queries with the paper's
implicit structure, but it was measured slower at every size tried
(CHANGES.md), so the iteration does not use it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .core import Certificate, sign_double, weak_duality_bound
from .errors import InputError, SolverFault
from .sampling import BufferedUniforms, StaticAlias, make_rng
from .simplexmaint import ReferenceSimplex


@dataclass
class MirrorProxConfig:
    """Phase sizing: kappa governs step size and per-phase iteration count."""

    eps: float
    s: float
    kappa: float
    t_per_phase: int
    phases: int
    c_sqrt: float

    @classmethod
    def for_instance(cls, matrix2, eps, s):
        """Sizes from the sign-doubled matrix: kappa, T, and the phase count."""
        n2, m = matrix2.n_rows, matrix2.n_cols
        c_sqrt = math.sqrt(max(matrix2.max_col_nnz, 1))
        kappa = (m * eps + 8.0 * math.sqrt(m * n2 * eps)
                 + 8.0 * c_sqrt * math.sqrt(n2 * s) + 16.0 * n2)
        log_n = max(math.log(n2), math.log(2.0))
        t_per_phase = math.ceil(8.0 * kappa * log_n / eps)
        theta0 = 1.0 + math.log(n2)
        phases = max(1, math.ceil(math.log2(16.0 * s * theta0 / (eps * eps))))
        return cls(eps=eps, s=s, kappa=kappa, t_per_phase=t_per_phase,
                   phases=phases, c_sqrt=c_sqrt)


class PhaseTables:
    """The sampling tables of one (sign-doubled matrix, s, eps), in list form.

    ``cols[j]`` is column j as ``(rows, vals)`` tuples.  The dynamic branch
    draws a row i by sqrt(y_i), then j from ``row_alias[i] = (cols, alias)``,
    a Walker table over sqrt(s cm_j |A_ij|); ``qij[j] = (rows, q)`` holds the
    conditional law q_ij of j given each row of column j, normalized per row.
    The weights are computed for every entry at once, over the matrix's
    row-major arrays; a row's table and its total ``row_w`` are slices of them.
    The static branch draws j from ``static_alias`` with law ``p_static``
    proportional to sqrt(eps cm_j).  ``w_dyn`` / ``w_static`` weigh the two
    branches.  ``q_rows``, ``q_cols`` and ``q`` are the q_ij as flat arrays,
    for the aggregate step's dense p_j.
    """

    def __init__(self, matrix2, config):
        n2, m = matrix2.n_rows, matrix2.n_cols
        s, eps = config.s, config.eps
        cm = matrix2.col_maxabs
        cols, vals = matrix2.row_entries()
        wij = np.sqrt(s * cm[cols] * np.abs(vals))  # row-major, like cols
        ptr = matrix2.row_ptr.tolist()
        cols = cols.tolist()
        row_w = np.zeros(n2)
        self.row_alias = []
        for i in range(n2):
            a, b = ptr[i], ptr[i + 1]
            if a == b:
                raise InputError(
                    f"row {i % (n2 // 2)} of the instance is empty; drop constant "
                    "rows before solving"
                )
            row_w[i] = wij[a:b].sum()
            if not row_w[i] > 0:
                raise InputError(
                    f"row {i % (n2 // 2)} of the instance is too small to sample: "
                    "its weights sqrt(s * colmax_j * |A_ij|) underflow to 0"
                )
            self.row_alias.append((cols[a:b], StaticAlias(wij[a:b])))
        # every row has a column whose weight did not underflow, so neither
        # does the static total
        static_w = np.sqrt(eps * cm)
        self.static_alias = StaticAlias(static_w)
        self.p_static = (static_w / float(static_w.sum())).tolist()
        rows, cols, vals = matrix2.flat_entries()  # column-major, rows ascending
        q = np.sqrt(s * cm[cols] * np.abs(vals)) / row_w[rows]
        self.q_rows, self.q_cols, self.q = rows, cols, q
        ptr = matrix2.col_ptr.tolist()
        rows_l, q_l = rows.tolist(), q.tolist()
        self.qij = [(rows_l[a:b], q_l[a:b]) for a, b in zip(ptr, ptr[1:])]
        self.cols = matrix2.py_columns()[0]
        mass_dyn = config.c_sqrt * math.sqrt(n2 * s)
        mass_static = math.sqrt(m * n2 * eps)
        self.mass_dyn, self.mass_static = mass_dyn, mass_static
        self.w_dyn = mass_dyn / (mass_dyn + mass_static)
        self.w_static = mass_static / (mass_dyn + mass_static)


class PhaseState:
    """Primal iterate, the dual simplex point and the dense residual shift delta.

    ``tables`` are shared across the phases of a solve; they are built here
    when not given.
    """

    def __init__(self, matrix2, b2, config, x0=None, y0=None, tables=None):
        self.matrix = matrix2
        self.b = b2
        self.config = config
        n2, m = matrix2.n_rows, matrix2.n_cols
        self.n2, self.m = n2, m
        self.x = np.zeros(m) if x0 is None else np.asarray(x0, dtype=float).copy()
        y0 = np.full(n2, 1.0 / n2) if y0 is None else np.asarray(y0, dtype=float)
        if (y0 <= 0).any():
            raise InputError("initial dual point must be strictly positive")
        self.tables = PhaseTables(matrix2, config) if tables is None else tables
        self.y = ReferenceSimplex(np.log(y0), config.eps, config.kappa)
        self.delta = (b2 - matrix2.dot(self.x)) / config.kappa
        self.iteration = 0

    def exact_y(self):
        v = self.y.values()
        e = np.exp(v - v.max())
        return e / e.sum()


def sample_pj(phase, uniforms):
    """Draw a column j and return (j, exact probability of the realized law).

    Realized law: with probability 1/2 uniform over columns; otherwise a biased
    coin picks the static branch (j ~ sqrt(eps cm_j)) or the dynamic branch
    (i ~ sqrt(y_i) through the dual, then j ~ q_ij).  The probability is
    assembled from the same quantities, with the sqrt(y) weights evaluated at
    the dual's partition estimate.  ``phase_iterates`` inlines this draw; this
    function is the reference it is tested against.
    """
    tables = phase.tables
    m = phase.m
    total_mass = tables.mass_dyn + tables.mass_static
    u = uniforms.next()
    if u < 0.5:
        j = int(uniforms.next() * m)
        if j == m:
            j -= 1
    else:
        if uniforms.next() * total_mass < tables.mass_dyn:
            i, _ = phase.y.sample(uniforms, power=0.5)
            cols, alias = tables.row_alias[i]
            j = cols[alias.sample(uniforms)]
        else:
            j = tables.static_alias.sample(uniforms)
    # exact probability of j under the mixture
    rows, q = tables.qij[j]
    p_dyn = 0.0
    for r, qk in zip(rows, q):
        if qk > 0.0:
            p_dyn += phase.y.prob(r, 0.5) * qk
    pj = 0.5 * (tables.w_dyn * p_dyn + tables.w_static * tables.p_static[j]) + 0.5 / m
    return j, pj


def phase_iterates(phase, uniforms, count):
    """Run ``count`` half-step/full-step pairs; returns the last ``(j, p_j, delta_j)``.

    Each pair draws a column j with its exact probability p_j (the law and
    the uniforms of ``sample_pj``), takes the primal half step in x_j against
    y, the dual half step ``vh = (1 - c) v - delta``, the primal full step
    against the half-step dual, and the full dual step
    ``v <- v - c vh - delta - zeta``, where the sparse correction zeta carries
    the half step's move of x_j; then it refreshes delta on the rows of the
    moved column.  Only x_j moves.

    The body inlines ``sample_pj`` and ``ReferenceSimplex.update_half`` /
    ``update`` over local lists and keeps their checks: a delta above the
    1/(8n) stability bound raises ``InputError``, and a dual correction above
    1/4 in sup norm (an undersized kappa or a probability-floor breach) raises
    ``SolverFault``.  Both update steps read the one delta, so they cannot
    disagree.  The state is written back when the call ends, also on a raise.
    """
    cfg = phase.config
    kappa, s = cfg.kappa, cfg.s
    reg = cfg.eps / (2.0 * s)
    tables = phase.tables
    cols, qij, row_alias, p_static = (tables.cols, tables.qij, tables.row_alias,
                                      tables.p_static)
    static_alias = tables.static_alias
    mass_dyn, w_dyn, w_static = tables.mass_dyn, tables.w_dyn, tables.w_static
    total_mass = mass_dyn + tables.mass_static
    m, n = phase.m, phase.n2
    floor = 0.5 / m
    dual = phase.y
    c = dual.c
    keep = 1.0 - c
    bound = 1.0 / (8.0 * n) + 1e-12
    x, v, delta = phase.x.tolist(), dual.v.tolist(), phase.delta.tolist()
    over = any(abs(d) > bound for d in delta)
    rng, block, buf, pos = uniforms.rng, uniforms.block, uniforms._buf, uniforms._pos
    exp = math.exp
    j, pj, delta_j = -1, 0.0, 0.0
    done = 0
    try:
        for _ in range(count):
            # draw j (sample_pj): uniform, or sqrt(y) row then row alias, or static
            vmax = max(v)
            e_half = [exp(0.5 * (vi - vmax)) for vi in v]
            sum_half = sum(e_half)
            if pos == block:
                buf, pos = rng.random(block).tolist(), 0
            u = buf[pos]
            pos += 1
            if pos == block:
                buf, pos = rng.random(block).tolist(), 0
            u2 = buf[pos]
            pos += 1
            if u < 0.5:
                j = int(u2 * m)
                if j == m:
                    j -= 1
            else:
                if u2 * total_mass < mass_dyn:
                    cdf = list(accumulate([e / sum_half for e in e_half]))
                    if pos == block:
                        buf, pos = rng.random(block).tolist(), 0
                    i = bisect_right(cdf, buf[pos] * cdf[-1])
                    pos += 1
                    if i >= n:
                        i = n - 1
                    row_cols, alias = row_alias[i]
                else:
                    row_cols, alias = None, static_alias
                if pos == block:
                    buf, pos = rng.random(block).tolist(), 0
                r = buf[pos] * alias.n
                pos += 1
                k = int(r)
                if k == alias.n:
                    k -= 1
                k = k if (r - k) < alias.prob[k] else alias.alias[k]
                j = k if row_cols is None else row_cols[k]
            q_rows, q = qij[j]
            p_dyn = 0.0
            for r, qk in zip(q_rows, q):
                if qk > 0.0:
                    p_dyn += e_half[r] / sum_half * qk
            pj = 0.5 * (w_dyn * p_dyn + w_static * p_static[j]) + floor

            # primal half step against y
            rows, vals = cols[j]
            e_one = [exp(vi - vmax) for vi in v]
            sum_one = sum(e_one)
            ay = 0.0
            for r, a in zip(rows, vals):
                ay += a * (e_one[r] / sum_one)
            xj = x[j]
            kp = kappa * pj
            x_half = xj - s * ((ay + reg * xj) / kp)
            if x_half > 1.0:
                x_half = 1.0
            elif x_half < -1.0:
                x_half = -1.0
            delta_j = x_half - xj

            # dual half step, then the primal full step against it
            if over:
                raise InputError("dense update exceeds the 1/(8n) stability bound")
            vh = [keep * vi - di for vi, di in zip(v, delta)]
            vh_max = max(vh)
            e_h = [exp(t - vh_max) for t in vh]
            sum_h = sum(e_h)
            ay_half = 0.0
            for r, a in zip(rows, vals):
                ay_half += a * (e_h[r] / sum_h)
            x_next = xj - s * ((ay_half + reg * x_half) / kp)
            if x_next > 1.0:
                x_next = 1.0
            elif x_next < -1.0:
                x_next = -1.0

            # full dual step with the sparse correction of the half step's move
            zeta = ()
            if delta_j != 0.0 and rows:
                scale = delta_j / kp
                zeta = [-a * scale for a in vals]
                zmax = max(map(abs, zeta))
                if zmax > 0.25 + 1e-12:
                    raise SolverFault(
                        f"iteration {phase.iteration + done}: dual correction "
                        f"{zmax:.3f} exceeds 1/4 (kappa={kappa:.3g}, p_j={pj:.3g}, j={j})"
                    )
            v = [vi - c * hi - di for vi, hi, di in zip(v, vh, delta)]
            for r, z in zip(rows, zeta):
                v[r] -= z

            # move x_j and refresh delta = (b - A x) / kappa on its rows
            if x_next != xj:
                x[j] = x_next
                f = (x_next - xj) / kappa
                for r, a in zip(rows, vals):
                    d = delta[r] - a * f
                    delta[r] = d
                    if abs(d) > bound:
                        over = True
            done += 1
    finally:
        phase.x[:] = x
        phase.delta[:] = delta
        dual.assign(v)
        phase.iteration += done
        uniforms._buf, uniforms._pos = buf, pos
    return j, pj, delta_j


def aggregate_point(phase):
    """The aggregate point of the phase's current iterate, as ``(x_out, y_out)``.

    x_out is the all-coordinate half step taken from the iterate with a fresh
    exact dense pass over y, each coordinate debiased by its p_j under the
    mixture law; y_out is the dense half-step dual.  O(nnz); it only reads
    the state, so the phase can go on from where it stands.
    """
    cfg, tables = phase.config, phase.tables
    matrix, kappa, s, eps = phase.matrix, cfg.kappa, cfg.s, cfg.eps
    y_exact = phase.exact_y()
    aty = matrix.t_dot(y_exact)
    grad = aty + (eps / (2.0 * s)) * phase.x
    # dense p_j of every column under the same mixture law
    sq = np.sqrt(y_exact)
    sq /= sq.sum()
    p_dyn = np.bincount(tables.q_cols, weights=sq[tables.q_rows] * tables.q,
                        minlength=phase.m)
    pj_all = (0.5 * (tables.w_dyn * p_dyn + tables.w_static * np.array(tables.p_static))
              + 0.5 / phase.m)
    x_out = np.clip(phase.x - s * grad / (kappa * pj_all), -1.0, 1.0)
    # dual aggregate: the dense half step from the current iterate
    v = phase.y.values()
    v_half = (1.0 - phase.y.c) * v - (phase.b - matrix.dot(phase.x)) / kappa
    e = np.exp(v_half - v_half.max())
    y_out = e / e.sum()
    return x_out, y_out


def run_phase(phase, t_star, uniforms, stop=None):
    """Run t_star - 1 iterations, then materialize the aggregate point.

    Returns ``aggregate_point(phase)`` after the last iteration run.  With a
    ``stop`` predicate the iterations run in chunks: the aggregate point is
    formed after 64 iterations, then after every further ``max(64, done // 4)``
    and at t_star, so a phase makes O(log t_star) checks and runs at most
    max(64, 25%) past the first iterate that would pass.  ``stop(x_out,
    y_out)`` is called on each, and the phase ends at the first where it
    holds; ``phase.iteration`` counts the iterations run.  Chunking leaves
    the trajectory and the random draws as one call would, so a predicate
    that never holds changes nothing.
    """
    count = t_star - 1
    if stop is None:
        phase_iterates(phase, uniforms, count)
        return aggregate_point(phase)
    done = 0
    while True:
        chunk = min(max(64, done // 4), count - done)
        phase_iterates(phase, uniforms, chunk)
        done += chunk
        x_out, y_out = aggregate_point(phase)
        if stop(x_out, y_out) or done == count:
            return x_out, y_out


@dataclass
class FlowRegressResult:
    """A mirror-prox solve.  ``stop_reason`` is its ``Certificate``'s:
    ``certified``, ``value_target`` or ``lb_target``, or ``phase_budget``
    (every planned phase ran).  The aggregate points formed inside each
    phase are offered too, so the last phase may end before its drawn
    length."""

    x: np.ndarray
    value: float
    phases_run: int
    iterations: int
    sampled_coordinates: int
    certified: bool
    gap: float
    seed: int
    stop_reason: str
    transcript: list

    def transcript_csv(self):
        """One row per phase: the iterations it ran, and the least value and
        the largest weak-duality lower bound over the aggregate points it
        formed, in the instance's units."""
        lines = ["phase,iterations,value,lower_bound"]
        for row in self.transcript:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def solve_flow_regress(inst, seed=0, value_target=None, max_phases=None,
                       lb_target=None):
    """Approximately minimize a flow-shaped instance to additive epsilon.

    The instance is rescaled so the matrix and rhs sup norms are at most one,
    sign-doubled, and solved by phases, phase k on seed stream k; requires
    the (rescaled) epsilon to exceed n^-3.  The doubled matrix and the
    sampling tables are built once and shared by every phase.  Every
    aggregate point is offered to one ``Certificate`` seeded with x = 0;
    ``value_target`` and ``lb_target`` are in the instance's units.
    """
    matrix, b = inst.matrix, inst.b
    if abs(inst.radius - 1.0) > 1e-12:
        raise InputError("instance must be reduced to the unit box first")
    scale = max(matrix.norm_inf, float(np.abs(b).max()) if len(b) else 0.0, 1.0)
    eps_s = inst.epsilon / scale
    matrix2, b2 = sign_double(matrix, b, scale=scale)
    n2 = matrix2.n_rows
    if n2 == 0:
        raise InputError("instance has no rows")
    if eps_s <= n2 ** -3.0:
        raise InputError(
            f"epsilon {inst.epsilon} below the n^-3 resolution of this method"
        )
    cfg = MirrorProxConfig.for_instance(matrix2, eps_s, inst.s)
    if max_phases is not None:
        cfg = replace(cfg, phases=min(cfg.phases, max_phases))
    tables = PhaseTables(matrix2, cfg)

    def evaluate(x):
        return float((matrix2.dot(x) - b2).max())

    x0 = np.zeros(matrix2.n_cols)
    cert = Certificate(x0, evaluate(x0), eps_s, scale=scale,
                       value_target=value_target, lb_target=lb_target)
    transcript = []

    def fold(x, y):
        """Offer an aggregate point and its dual to the ledger; True to stop.

        Every aggregate point a phase forms, inside it or at its end, passes
        here."""
        nonlocal phase_val, phase_lb
        val, lb = evaluate(x), weak_duality_bound(matrix2, b2, y)
        phase_val, phase_lb = min(phase_val, val), max(phase_lb, lb)
        return cert.offer(x, val, lb)

    total_iter = 0
    x_in = y_in = None
    k = 0
    for k in range(cfg.phases):
        # each phase starts from the previous phase's aggregate point
        phase = PhaseState(matrix2, b2, cfg, x0=x_in, y0=y_in, tables=tables)
        rng = make_rng(seed, stream=k)
        uniforms = BufferedUniforms(rng)
        t_star = int(rng.integers(1, cfg.t_per_phase + 1))
        phase_val, phase_lb = math.inf, -math.inf  # this phase's row
        x_in, y_in = run_phase(phase, t_star, uniforms, stop=fold)
        total_iter += phase.iteration
        transcript.append((k, phase.iteration, repr(phase_val * scale),
                           repr(phase_lb * scale)))
        if cert.stop_reason is not None:
            break
    if float(cert.x @ cert.x) > 2.0 * inst.s:
        import warnings

        warnings.warn("returned point has squared l2 norm above 2s; the given "
                      "sparsity estimate was too small", stacklevel=2)
    return FlowRegressResult(
        x=cert.x, value=cert.value * scale, phases_run=k + 1,
        iterations=total_iter, sampled_coordinates=total_iter,
        certified=cert.stop_reason == "certified", gap=cert.gap * scale,
        seed=seed, stop_reason=cert.stop_reason or "phase_budget",
        transcript=transcript,
    )
