"""Phased randomized primal-dual mirror prox for flow-shaped regression.

Minimizes the max entry of the sign-doubled residual ``[A; -A] x - [b; -b]``
over the unit box by approximating the saddle point of the
entropy-regularized bilinear objective

    h(x, y) = y (A' x - b') + (eps/2) |x|^2/(2s) - (eps / 4 log n) * entropy-term

over the doubled rows ``A'``, which no solve builds.  The mirror-prox
recursion (Nemirovski 2004) is linear in the log-weights, and its residual
and correction terms flip sign on the mirror rows, so from the uniform dual
the log-weights stay antisymmetric about a shift: the dual is carried as n
entries ``u``, with ``y_i`` and ``y_{i+n}`` proportional to ``e^{+-u_i}``.
Every size-dependent constant still counts 2n rows.

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
stops the solve.  The ledger builds the returned ``core.RegressionResult``,
the record prox-CD returns, with one outer iteration per phase.  A point
formed inside a phase is only a candidate; the next phase starts from the
one at the drawn length, as the halving argument requires.

The sampling tables depend only on (matrix, s, eps), so ``PhaseTables`` is
built once per solve and shared by every phase; each fixed law in them, the
static branch and every row's conditional law, is a list of prefix sums that
a draw bisects with one uniform, as the row-pair draw over the dense
sqrt(y) weights does.  The iterations between two
aggregate points run in one call of the fused kernel ``phase_iterates``,
which inlines the draw, the exact p_j, both coordinate reads and clamps, and
the dense dual recursion over Python lists.  On the small instances a phase
can finish (its length grows with n), numpy's per-call overhead on 2- to
8-entry vectors cost more than the O(n + c) arithmetic of an iteration; at
a few hundred rows the interpreted O(n) passes start to cost more than
numpy's would (CHANGES.md).  ``sample_pj`` is the reference draw the kernel
is tested against; ``simplexmaint.ReferenceSimplex`` over the doubled rows
is the reference recursion.  The plain phase, which runs to its drawn
length with no in-phase check, is a test oracle in
``tests/reference_steps.py``, and the dense law y over the doubled rows is
``tests/helpers.doubled_law``.  The paper's implicit structure for the dual,
``SimplexMaintainer``, was measured slower at every size tried (CHANGES.md);
it is kept as a tested reference under ``tests/``, not in the package.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .core import Certificate, weak_duality_bound
from .errors import InputError, SolverFault
from .sampling import BufferedUniforms, StaticAlias, make_rng, row_tables


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
    def for_instance(cls, matrix, eps, s):
        """Sizes of ``[A; -A]`` (2n rows, 2 nnz_j entries in column j), though no
        solver builds it: kappa, T and the phase count."""
        n2, m = 2 * matrix.n_rows, matrix.n_cols
        c_sqrt = math.sqrt(max(2 * matrix.max_col_nnz, 1))
        kappa = (m * eps + 8.0 * math.sqrt(m * n2 * eps)
                 + 8.0 * c_sqrt * math.sqrt(n2 * s) + 16.0 * n2)
        log_n = max(math.log(n2), math.log(2.0))
        t_per_phase = math.ceil(8.0 * kappa * log_n / eps)
        theta0 = 1.0 + math.log(n2)
        phases = max(1, math.ceil(math.log2(16.0 * s * theta0 / (eps * eps))))
        return cls(eps=eps, s=s, kappa=kappa, t_per_phase=t_per_phase,
                   phases=phases, c_sqrt=c_sqrt)


class PhaseTables:
    """The sampling tables of one (matrix, s, eps), in list form.

    ``cols[j]`` is column j as ``(rows, vals)`` tuples.  The dynamic branch
    draws a row i of A by the sqrt(y) mass of its pair {i, i + n}, then j
    from ``row_cdf[i] = (cols, cum)``, the prefix sums of
    sqrt(s cm_j |A_ij|) that the pair shares; ``qij[j] = (rows, q)`` holds
    the conditional law q_ij of j given each row of column j, normalized per
    row.  ``sampling.row_tables`` builds the row tables over the matrix's
    row-major arrays.  The static branch draws j from the prefix sums of
    ``static_alias`` with law ``p_static`` proportional to sqrt(eps cm_j).
    ``w_dyn`` / ``w_static`` weigh the two branches by the masses of 2n rows.  ``q_rows``, ``q_cols``
    and ``q`` are the q_ij as flat arrays, for the aggregate step's dense p_j.
    """

    def __init__(self, matrix, config):
        n, m = matrix.n_rows, matrix.n_cols
        s, eps = config.s, config.eps
        cm = matrix.col_maxabs
        cols, vals = matrix.row_entries()
        self.row_cdf, row_w = row_tables(matrix, np.sqrt(s * cm[cols] * np.abs(vals)))
        if None in self.row_cdf:
            i = self.row_cdf.index(None)
            raise InputError(f"row {i} of the instance is " + (
                "empty; drop constant rows before solving"
                if matrix.row_ptr[i] == matrix.row_ptr[i + 1] else
                "too small to sample: its weights sqrt(s * colmax_j * |A_ij|) underflow to 0"))
        # every row has a column whose weight did not underflow, so neither
        # does the static total
        static_w = np.sqrt(eps * cm)
        self.static_alias = StaticAlias(static_w)
        self.p_static = (static_w / float(static_w.sum())).tolist()
        rows, cols, vals = matrix.flat_entries()  # column-major, rows ascending
        q = np.sqrt(s * cm[cols] * np.abs(vals)) / row_w[rows]
        self.q_rows, self.q_cols, self.q = rows, cols, q
        ptr = matrix.col_ptr.tolist()
        rows_l, q_l = rows.tolist(), q.tolist()
        self.qij = [(rows_l[a:b], q_l[a:b]) for a, b in zip(ptr, ptr[1:])]
        self.cols = matrix.py_columns()[0]
        mass_dyn = config.c_sqrt * math.sqrt(2 * n * s)
        mass_static = math.sqrt(m * 2 * n * eps)
        self.mass_dyn, self.mass_static = mass_dyn, mass_static
        self.w_dyn = mass_dyn / (mass_dyn + mass_static)
        self.w_static = mass_static / (mass_dyn + mass_static)


class PhaseState:
    """Primal iterate x, dual log-weights u and the dense residual shift delta.

    ``u0`` defaults to 0, the uniform law; ``c`` is the dual step of 2n
    rows.  ``tables`` are shared across the phases of a solve; they are
    built here when not given.
    """

    def __init__(self, matrix, b, config, x0=None, u0=None, tables=None):
        self.matrix = matrix
        self.b = b
        self.config = config
        n, m = matrix.n_rows, matrix.n_cols
        self.n, self.m = n, m
        self.x = np.zeros(m) if x0 is None else np.asarray(x0, dtype=float).copy()
        u0 = np.zeros(n) if u0 is None else np.asarray(u0, dtype=float)
        if u0.shape != (n,) or not np.isfinite(u0).all():
            raise InputError(f"initial dual log-weights must be {n} finite numbers")
        self.tables = PhaseTables(matrix, config) if tables is None else tables
        self.u = u0.copy()
        self.c = config.eps / (4.0 * config.kappa * max(math.log(2 * n), 1.0))
        self.delta = (b - matrix.dot(self.x)) / config.kappa
        self.iteration = 0


def _signed_exp(u, power=1.0):
    """Weights ``e^{power (+-u - max |u|)}`` of the rows of A and of their mirrors."""
    top = float(np.abs(u).max())
    return np.exp(power * (u - top)), np.exp(power * (-u - top))


def _folded_dual(u):
    """``y[:n] - y[n:]`` of the law at u: ``A`` times it is ``[A; -A] y``."""
    pos, neg = _signed_exp(u)
    return (pos - neg) / (pos.sum() + neg.sum())


def sample_pj(phase, uniforms):
    """Draw a column j and return (j, exact probability of the realized law).

    Realized law: with probability 1/2 uniform over columns; otherwise a biased
    coin picks the static branch (j ~ sqrt(eps cm_j)) or the dynamic branch
    (a row pair by its sqrt(y) mass, then j ~ q_ij).  The probability is
    assembled from the same quantities.  ``phase_iterates`` inlines this
    draw; this function is the reference it is tested against.
    """
    tables = phase.tables
    m = phase.m
    total_mass = tables.mass_dyn + tables.mass_static
    weights = sum(_signed_exp(phase.u, 0.5))  # of each row pair under sqrt(y)
    law = weights / weights.sum()
    if uniforms.next() < 0.5:
        j = int(uniforms.next() * m)
        if j == m:
            j -= 1
    else:
        if uniforms.next() * total_mass < tables.mass_dyn:
            cdf = np.cumsum(weights).tolist()
            i = bisect_right(cdf, uniforms.next() * cdf[-1], 0, phase.n - 1)
            cols, cum = tables.row_cdf[i]
            j = cols[bisect_right(cum, uniforms.next() * cum[-1], 0, len(cum) - 1)]
        else:
            j = tables.static_alias.sample(uniforms)
    # exact probability of j under the mixture
    rows, q = tables.qij[j]
    p_dyn = 0.0
    for r, qk in zip(rows, q):
        if qk > 0.0:
            p_dyn += float(law[r]) * qk
    pj = 0.5 * (tables.w_dyn * p_dyn + tables.w_static * tables.p_static[j]) + 0.5 / m
    return j, pj


def phase_iterates(phase, uniforms, count):
    """Run ``count`` half-step/full-step pairs; returns the last ``(j, p_j, delta_j)``.

    Each pair draws a column j with its exact probability p_j (the law and
    the uniforms of ``sample_pj``), takes the primal half step in x_j against
    y, the dual half step ``uh = (1 - c) u - delta``, the primal full step
    against the half-step dual, and the full dual step
    ``u <- u - c uh - delta - zeta``, where the sparse correction zeta carries
    the half step's move of x_j; then it refreshes delta on the rows of the
    moved column.  Only x_j moves.

    It is the doubled system's recursion, folded (see the module docstring),
    so every O(n) pass runs over A's n rows.  A delta above the 1/(8n)
    stability bound of the 2n rows raises ``InputError``, and a dual
    correction above 1/4 in sup norm (an undersized kappa or a
    probability-floor breach) raises ``SolverFault``.  The state is written
    back when the call ends, also on a raise.
    """
    cfg = phase.config
    kappa, s = cfg.kappa, cfg.s
    reg = cfg.eps / (2.0 * s)
    tables = phase.tables
    cols, qij, row_cdf, p_static = (tables.cols, tables.qij, tables.row_cdf,
                                    tables.p_static)
    static_cum = tables.static_alias.cum
    mass_dyn, w_dyn, w_static = tables.mass_dyn, tables.w_dyn, tables.w_static
    total_mass = mass_dyn + tables.mass_static
    m, n = phase.m, phase.n
    floor = 0.5 / m
    c = phase.c
    keep = 1.0 - c
    bound = 1.0 / (16.0 * n) + 1e-12  # 1/(8n) of the doubled system's 2n rows
    x, u, delta = phase.x.tolist(), phase.u.tolist(), phase.delta.tolist()
    over = any(abs(d) > bound for d in delta)
    rng, block, buf, pos = uniforms.rng, uniforms.block, uniforms._buf, uniforms._pos
    exp = math.exp
    j, pj, delta_j = -1, 0.0, 0.0
    done = 0
    try:
        for _ in range(count):
            # draw j (sample_pj): uniform, or a row pair by sqrt(y) then the
            # row's prefix sums, or the static prefix sums
            top = max(max(u), -min(u))
            e_half = [exp(0.5 * (ui - top)) + exp(0.5 * (-ui - top)) for ui in u]
            sum_half = sum(e_half)
            if pos == block:
                buf, pos = rng.random(block).tolist(), 0
            r0 = buf[pos]
            pos += 1
            if pos == block:
                buf, pos = rng.random(block).tolist(), 0
            r1 = buf[pos]
            pos += 1
            if r0 < 0.5:
                j = int(r1 * m)
                if j == m:
                    j -= 1
            else:
                if r1 * total_mass < mass_dyn:
                    cdf = list(accumulate(e_half))
                    if pos == block:
                        buf, pos = rng.random(block).tolist(), 0
                    i = bisect_right(cdf, buf[pos] * cdf[-1], 0, n - 1)
                    pos += 1
                    row_cols, cum = row_cdf[i]
                else:
                    row_cols, cum = None, static_cum
                if pos == block:
                    buf, pos = rng.random(block).tolist(), 0
                k = bisect_right(cum, buf[pos] * cum[-1], 0, len(cum) - 1)
                pos += 1
                j = k if row_cols is None else row_cols[k]
            q_rows, q = qij[j]
            p_dyn = 0.0
            for r, qk in zip(q_rows, q):
                if qk > 0.0:
                    p_dyn += e_half[r] / sum_half * qk
            pj = 0.5 * (w_dyn * p_dyn + w_static * p_static[j]) + floor

            # primal half step against y; the two terms of e_half multiply
            # to e^-top, so the weights e^{+-u - top} sum to this
            rows, vals = cols[j]
            sum_one = sum([h * h for h in e_half]) - 2 * n * exp(-top)
            ay = 0.0
            for r, a in zip(rows, vals):
                t = u[r]
                ay += a * ((exp(t - top) - exp(-t - top)) / sum_one)
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
            uh = [keep * ui - di for ui, di in zip(u, delta)]
            top = max(max(uh), -min(uh))
            sum_h = sum([exp(t - top) + exp(-t - top) for t in uh])
            ay_half = 0.0
            for r, a in zip(rows, vals):
                t = uh[r]
                ay_half += a * ((exp(t - top) - exp(-t - top)) / sum_h)
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
            u = [ui - c * hi - di for ui, hi, di in zip(u, uh, delta)]
            for r, z in zip(rows, zeta):
                u[r] -= z

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
        phase.u[:] = u
        phase.iteration += done
        uniforms._buf, uniforms._pos = buf, pos
    return j, pj, delta_j


def aggregate_point(phase):
    """The aggregate point of the phase's current iterate, as ``(x_out, u_out)``.

    x_out is the all-coordinate half step taken from the iterate with a fresh
    exact dense pass over y, each coordinate debiased by its p_j under the
    mixture law; u_out is the dense half-step dual.  O(nnz); it only reads
    the state, so the phase can go on from where it stands.
    """
    cfg, tables = phase.config, phase.tables
    matrix, kappa, s, eps = phase.matrix, cfg.kappa, cfg.s, cfg.eps
    grad = matrix.t_dot(_folded_dual(phase.u)) + (eps / (2.0 * s)) * phase.x
    # dense p_j of every column under the same mixture law
    sq = sum(_signed_exp(phase.u, 0.5))
    sq /= sq.sum()
    p_dyn = np.bincount(tables.q_cols, weights=sq[tables.q_rows] * tables.q,
                        minlength=phase.m)
    pj_all = (0.5 * (tables.w_dyn * p_dyn + tables.w_static * np.array(tables.p_static))
              + 0.5 / phase.m)
    x_out = np.clip(phase.x - s * grad / (kappa * pj_all), -1.0, 1.0)
    # dual aggregate: the dense half step from the current iterate
    u_out = (1.0 - phase.c) * phase.u - (phase.b - matrix.dot(phase.x)) / kappa
    return x_out, u_out


def run_phase(phase, t_star, uniforms, stop):
    """Run up to t_star - 1 iterations, checking ``stop`` on aggregate points.

    Returns ``aggregate_point(phase)`` after the last iteration run.  The
    iterations run in chunks: the aggregate point is formed after 64
    iterations, then after every further ``max(64, done // 4)`` and at
    t_star, so a phase makes O(log t_star) checks and runs at most
    max(64, 25%) past the first iterate that would pass.  ``stop(x_out,
    u_out)`` is called on each, and the phase ends at the first where it
    holds; ``phase.iteration`` counts the iterations run.  Chunking leaves
    the trajectory and the random draws as one call would, so a predicate
    that never holds changes nothing.
    """
    count = t_star - 1
    done = 0
    while True:
        chunk = min(max(64, done // 4), count - done)
        phase_iterates(phase, uniforms, chunk)
        done += chunk
        x_out, u_out = aggregate_point(phase)
        if stop(x_out, u_out) or done == count:
            return x_out, u_out


def solve_flow_regress(inst, seed=0, stream=0, value_target=None, max_outer=None,
                       lb_target=None):
    """Approximately minimize a flow-shaped instance to additive epsilon.

    The instance is rescaled so the matrix and rhs sup norms are at most one
    and solved by phases over its folded sign-doubled system, phase k on the
    seed's Philox stream ``stream * 2**32 + k``, which is k for stream 0;
    requires the (rescaled) epsilon to exceed (2n)^-3.  The
    rescaled matrix and the sampling tables are built once and shared by
    every phase.  Every aggregate point is offered to one ``Certificate``
    seeded with x = 0, its value ``max |A x - b|`` and its dual folded to
    ``(e^u - e^-u) / Z``; ``value_target`` and ``lb_target`` are in the
    instance's units.  ``max_outer`` caps the phases.  The transcript has one
    row per phase: the iterations it ran, and the least value and the
    largest weak-duality lower bound over the aggregate points it formed, in
    the instance's units.
    """
    matrix, b = inst.matrix, inst.b
    if abs(inst.radius - 1.0) > 1e-12:
        raise InputError("instance must be reduced to the unit box first")
    scale = max(matrix.norm_inf, float(np.abs(b).max()) if len(b) else 0.0, 1.0)
    eps_s = inst.epsilon / scale
    n2 = 2 * matrix.n_rows
    if n2 == 0:
        raise InputError("instance has no rows")
    if eps_s <= n2 ** -3.0:
        raise InputError(
            f"epsilon {inst.epsilon} below the n^-3 resolution of this method"
        )
    matrix, b = matrix.scaled(scale), b / scale
    cfg = MirrorProxConfig.for_instance(matrix, eps_s, inst.s)
    if max_outer is not None:
        cfg = replace(cfg, phases=min(cfg.phases, max_outer))
    tables = PhaseTables(matrix, cfg)

    def evaluate(x):
        return float(np.abs(matrix.dot(x) - b).max())

    x0 = np.zeros(matrix.n_cols)
    cert = Certificate(x0, evaluate(x0), eps_s, scale=scale,
                       value_target=value_target, lb_target=lb_target)
    transcript = []

    def fold(x, u):
        """Offer an aggregate point and its dual to the ledger; True to stop.

        Every aggregate point a phase forms, inside it or at its end, passes
        here."""
        nonlocal phase_val, phase_lb
        val, lb = evaluate(x), weak_duality_bound(matrix, b, _folded_dual(u))
        phase_val, phase_lb = min(phase_val, val), max(phase_lb, lb)
        return cert.offer(x, val, lb)

    total_iter = 0
    x_in = u_in = None
    for k in range(cfg.phases):
        # each phase starts from the previous phase's aggregate point
        phase = PhaseState(matrix, b, cfg, x0=x_in, u0=u_in, tables=tables)
        rng = make_rng(seed, stream=(stream << 32) + k)
        uniforms = BufferedUniforms(rng)
        t_star = int(rng.integers(1, cfg.t_per_phase + 1))
        phase_val, phase_lb = math.inf, -math.inf  # this phase's row
        x_in, u_in = run_phase(phase, t_star, uniforms, stop=fold)
        total_iter += phase.iteration
        transcript.append((k, phase.iteration, repr(phase_val * scale),
                           repr(phase_lb * scale)))
        if cert.stop_reason is not None:
            break
    if float(cert.x @ cert.x) > 2.0 * inst.s:
        import warnings

        warnings.warn("returned point has squared l2 norm above 2s; the given "
                      "sparsity estimate was too small", stacklevel=2)
    return cert.result(seed, transcript, "phase,iterations,value,lower_bound",
                       total_iter)
