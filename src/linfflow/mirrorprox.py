"""Phased randomized primal-dual mirror prox for flow-shaped regression.

Minimizes the max entry of the sign-doubled residual over the unit box by
approximating the saddle point of the entropy-regularized bilinear objective

    h(x, y) = y (A x - b) + (eps/2) |x|^2/(2s) - (eps / 4 log n) * entropy-term.

Each phase runs a random number of half-step/full-step coordinate iterations,
then materializes the "aggregate point" (all-coordinate half step) at the
stopping iteration; the expected Bregman divergence to the regularized saddle
point halves per phase.  The dual simplex point lives in a dense
ReferenceSimplex, queried only through coord, coord_half, update_half, update,
sample, prob and values; SimplexMaintainer answers the same queries with the
paper's implicit structure, but it was measured slower at every size tried
(CHANGES.md), so the iteration does not use it.
Primal coordinates are sampled from a two-branch mixture built on sqrt-scale
smoothness surrogates and floored by uniform mixing, with the exact realized
probability returned for debiasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import sign_double, weak_duality_bound
from .errors import InputError, SolverFault
from .sampling import BufferedUniforms, StaticAlias, make_rng
from .simplexmaint import ReferenceSimplex


def lj_dense(matrix, y, s, eps):
    """Per-column curvature surrogates s*cm_j*<|a_j|, y> + eps*cm_j."""
    rows, cols, vals = matrix.flat_entries()
    ay = np.bincount(cols, weights=np.abs(vals) * y[rows], minlength=matrix.n_cols)
    return s * matrix.col_maxabs * ay + eps * matrix.col_maxabs


def lj_tilde(matrix, y, s, eps, j=None):
    """Square-rooted surrogate (sum_i sqrt(s cm_j |A_ij| y_i) + sqrt(eps cm_j))^2.

    Sandwiched between the plain surrogate and (c + 1) times it.
    """
    def one(jj):
        rows, vals = matrix.col(jj)
        cm = matrix.col_maxabs[jj]
        inner = float(np.sqrt(s * cm * np.abs(vals) * y[rows]).sum()) if len(rows) else 0.0
        return (inner + math.sqrt(eps * cm)) ** 2

    if j is not None:
        return one(j)
    return np.array([one(jj) for jj in range(matrix.n_cols)])


@dataclass
class MirrorProxConfig:
    """Phase sizing: kappa governs step size and per-phase iteration count."""

    eps: float
    s: float
    kappa: float
    t_per_phase: int
    phases: int
    c_sqrt: float
    seed: int = 0
    fail_prob: float = 0.5

    @classmethod
    def for_instance(cls, matrix2, eps, s, seed=0, fail_prob=0.5):
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
                   phases=phases, c_sqrt=c_sqrt, seed=seed, fail_prob=fail_prob)


class PhaseState:
    """Primal iterate, the dual simplex point, and the precomputed sampling tables."""

    def __init__(self, matrix2, b2, config, x0=None, y0=None):
        self.matrix = matrix2
        self.b = b2
        self.config = config
        n2, m = matrix2.n_rows, matrix2.n_cols
        self.n2, self.m = n2, m
        self.log_n = max(math.log(n2), 1.0)
        self.x = np.zeros(m) if x0 is None else np.asarray(x0, dtype=float).copy()
        y0 = np.full(n2, 1.0 / n2) if y0 is None else np.asarray(y0, dtype=float)
        if (y0 <= 0).any():
            raise InputError("initial dual point must be strictly positive")
        eps, s = config.eps, config.s
        cm = matrix2.col_maxabs
        # static branch: j ~ sqrt(eps * cm_j)
        self.static_w = np.sqrt(eps * cm)
        self.static_sum = float(self.static_w.sum())
        self.static_alias = StaticAlias(self.static_w) if self.static_sum > 0 else None
        # dynamic branch: i ~ sqrt(y_i) then j ~ sqrt(s cm_j |A_ij|); w_i are the
        # per-row normalizers of the q_ij conditional table
        self.row_alias = []
        self.row_w = np.zeros(n2)
        for i in range(n2):
            cols, vals = matrix2.row(i)
            if len(cols) == 0:
                raise InputError(
                    f"row {i % (n2 // 2)} of the instance is empty; drop constant "
                    "rows before solving"
                )
            wij = np.sqrt(s * cm[cols] * np.abs(vals))
            self.row_w[i] = wij.sum()
            self.row_alias.append((cols, StaticAlias(wij), wij)
                                  if self.row_w[i] > 0 else None)
        self.mass_dyn = config.c_sqrt * math.sqrt(n2 * s)
        self.mass_static = math.sqrt(m * n2 * eps)
        # per-column q_ij tables for the exact probability of a sampled j
        self.qij = []
        for j in range(m):
            rows, vals = matrix2.col(j)
            q = np.sqrt(s * cm[j] * np.abs(vals))
            denom = self.row_w[rows]
            with np.errstate(invalid="ignore", divide="ignore"):
                q = np.where(denom > 0, q / np.where(denom > 0, denom, 1.0), 0.0)
            self.qij.append((rows, q))
        self.y = ReferenceSimplex(np.log(y0), eps, config.kappa)
        self.delta = (b2 - matrix2.dot(self.x)) / config.kappa
        self.iteration = 0
        self.update_norm_violations = 0

    def exact_y(self):
        v = self.y.values()
        e = np.exp(v - v.max())
        return e / e.sum()

    def sqrt_y_prob(self, i):
        """P(i) under the sqrt(y) law, consistent with the dual's sampler."""
        return self.y.prob(i, 0.5)


def sample_pj(phase, uniforms):
    """Draw a column j and return (j, exact probability of the realized law).

    Realized law: with probability 1/2 uniform over columns; otherwise a biased
    coin picks the static branch (j ~ sqrt(eps cm_j)) or the dynamic branch
    (i ~ sqrt(y_i) through the dual, then j ~ q_ij).  The probability is
    assembled from the same quantities, with the sqrt(y) weights evaluated at
    the dual's partition estimate.
    """
    m = phase.m
    total_mass = phase.mass_dyn + phase.mass_static
    u = uniforms.next()
    if u < 0.5:
        j = int(uniforms.next() * m)
        if j == m:
            j -= 1
    else:
        if uniforms.next() * total_mass < phase.mass_dyn:
            i, _ = phase.y.sample(uniforms, power=0.5)
            cols, alias, _ = phase.row_alias[i]
            j = int(cols[alias.sample(uniforms)])
        else:
            j = phase.static_alias.sample(uniforms)
    # exact probability of j under the mixture
    rows, q = phase.qij[j]
    p_dyn = 0.0
    for k in range(len(rows)):
        if q[k] > 0.0:
            p_dyn += phase.sqrt_y_prob(int(rows[k])) * q[k]
    w1 = phase.mass_dyn / total_mass
    w2 = phase.mass_static / total_mass
    p_static = phase.static_w[j] / phase.static_sum if phase.static_sum > 0 else 0.0
    pj = 0.5 * (w1 * p_dyn + w2 * p_static) + 0.5 / m
    return j, pj


def _clamp(v):
    if v > 1.0:
        return 1.0
    if v < -1.0:
        return -1.0
    return v


def phase_iterate(phase, uniforms):
    """One half-step/full-step pair; the primal moves in one coordinate.

    Update-size guards assert the sparse dual correction stays below 1/4 in
    sup norm; a violation indicates an undersized kappa or a probability-floor
    breach and is surfaced as a fault.
    """
    cfg = phase.config
    matrix, kappa, s, eps = phase.matrix, cfg.kappa, cfg.s, cfg.eps
    j, pj = sample_pj(phase, uniforms)
    rows, vals = matrix.col(j)

    ay = 0.0
    for k in range(len(rows)):
        ay += vals[k] * phase.y.coord(int(rows[k]))
    xj = phase.x[j]
    g_half = (ay + (eps / (2.0 * s)) * xj) / (kappa * pj)
    x_half_j = _clamp(xj - s * g_half)
    delta_j = x_half_j - xj

    phase.y.update_half(phase.delta)

    ay_half = 0.0
    for k in range(len(rows)):
        ay_half += vals[k] * phase.y.coord_half(int(rows[k]))
    g_full = (ay_half + (eps / (2.0 * s)) * x_half_j) / (kappa * pj)
    x_next_j = _clamp(xj - s * g_full)

    zeta = []
    if delta_j != 0.0 and len(rows):
        scale = delta_j / (kappa * pj)
        zvals = -vals * scale
        if np.abs(zvals).max() > 0.25 + 1e-12:
            raise SolverFault(
                f"iteration {phase.iteration}: dual correction {np.abs(zvals).max():.3f}"
                f" exceeds 1/4 (kappa={kappa:.3g}, p_j={pj:.3g}, j={j})"
            )
        zeta = list(zip((int(i) for i in rows), zvals.tolist()))
    phase.y.update(phase.delta, zeta)

    if x_next_j != xj:
        phase.x[j] = x_next_j
        move = x_next_j - xj
        phase.delta[rows] -= vals * (move / kappa)
    phase.iteration += 1
    return j, pj, delta_j


def run_phase(phase, t_star, uniforms):
    """Run t_star - 1 iterations, then materialize the aggregate point.

    Returns (x_out, y_out): the all-coordinate half step taken from the final
    iterate with a fresh exact dense pass over y, and the dense half-step dual.
    """
    cfg = phase.config
    for _ in range(t_star - 1):
        phase_iterate(phase, uniforms)
    matrix, kappa, s, eps = phase.matrix, cfg.kappa, cfg.s, cfg.eps
    y_exact = phase.exact_y()
    aty = matrix.t_dot(y_exact)
    grad = aty + (eps / (2.0 * s)) * phase.x
    # dense p_j of every column under the same mixture law
    sq = np.sqrt(y_exact)
    sq_sum = sq.sum()
    p_dyn = np.zeros(phase.m)
    for j in range(phase.m):
        rows, q = phase.qij[j]
        if len(rows):
            p_dyn[j] = float((sq[rows] / sq_sum) @ q)
    total_mass = phase.mass_dyn + phase.mass_static
    w1 = phase.mass_dyn / total_mass
    w2 = phase.mass_static / total_mass
    p_static = (phase.static_w / phase.static_sum if phase.static_sum > 0
                else np.zeros(phase.m))
    pj_all = 0.5 * (w1 * p_dyn + w2 * p_static) + 0.5 / phase.m
    x_out = np.clip(phase.x - s * grad / (kappa * pj_all), -1.0, 1.0)
    # dual aggregate: the dense half step from the final iterate
    v = phase.y.values()
    c = eps / (4.0 * kappa * max(math.log(phase.n2), 1.0))
    v_half = (1.0 - c) * v - (phase.b - matrix.dot(phase.x)) / kappa
    e = np.exp(v_half - v_half.max())
    y_out = e / e.sum()
    return x_out, y_out


@dataclass
class FlowRegressResult:
    x: np.ndarray
    value: float
    phases_run: int
    iterations: int
    sampled_coordinates: int
    certified: bool
    gap: float
    seed: int
    transcript: list = field(default_factory=list)

    def transcript_csv(self):
        lines = ["phase,iter,sampled_j,p_j,objective_sample,divergence_estimate"]
        for row in self.transcript:
            lines.append(",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"


def solve_flow_regress(inst, seed=0, s=None, fail_prob=0.5,
                       value_target=None, max_phases=None, collect_transcript=False):
    """Approximately minimize a flow-shaped instance to additive epsilon.

    The instance is rescaled so the matrix and rhs sup norms are at most one,
    sign-doubled, and solved by phases; requires the (rescaled) epsilon to
    exceed n^-3.  Independent runs (``ceil(log2(1/fail_prob))`` of them, on
    disjoint seed streams) are compared by direct evaluation and the best
    returned.
    """
    runs = max(1, math.ceil(math.log2(1.0 / fail_prob)))
    best = None
    for r in range(runs):
        res = _solve_flow_regress_once(inst, seed=seed, run_index=r, s=s,
                                       value_target=value_target,
                                       max_phases=max_phases,
                                       collect_transcript=collect_transcript)
        if best is None or res.value < best.value:
            best = res
        if value_target is not None and best.value <= value_target:
            break
    return best


def _solve_flow_regress_once(inst, seed, run_index, s, value_target,
                             max_phases, collect_transcript):
    matrix, b = inst.matrix, inst.b
    if abs(inst.radius - 1.0) > 1e-12:
        raise InputError("instance must be reduced to the unit box first")
    scale = max(matrix.norm_inf, float(np.abs(b).max()) if len(b) else 0.0, 1.0)
    eps_s = inst.epsilon / scale
    matrix2, b2 = sign_double(matrix, b / scale if scale != 1.0 else b)
    if scale != 1.0:
        rows, cols, vals = matrix2.flat_entries()
        from .core import SparseMatrix

        matrix2 = SparseMatrix(matrix2.n_rows, matrix2.n_cols, rows, cols,
                               vals / scale, _private=True)
    n2 = matrix2.n_rows
    if eps_s <= n2 ** -3.0:
        raise InputError(
            f"epsilon {inst.epsilon} below the n^-3 resolution of this method"
        )
    s_val = float(s if s is not None else inst.s)
    cfg = MirrorProxConfig.for_instance(matrix2, eps_s, s_val, seed=seed)
    if max_phases is not None:
        cfg = MirrorProxConfig(**{**cfg.__dict__, "phases": min(cfg.phases, max_phases)})
    phase = PhaseState(matrix2, b2, cfg)
    transcript = []

    def evaluate(x):
        return float((matrix2.dot(x) - b2).max())

    best_x = phase.x.copy()
    best_val = evaluate(best_x)
    best_lb = -math.inf
    total_iter = 0
    certified = False
    k = 0
    for k in range(cfg.phases):
        rng = make_rng(seed, stream=(run_index << 20) | k)
        uniforms = BufferedUniforms(rng)
        t_star = int(rng.integers(1, cfg.t_per_phase + 1))
        x_out, y_out = run_phase(phase, t_star, uniforms)
        total_iter += t_star - 1
        val = evaluate(x_out)
        if val < best_val:
            best_val = val
            best_x = x_out.copy()
        lb = weak_duality_bound(matrix2, b2, y_out)
        best_lb = max(best_lb, lb)
        if collect_transcript:
            transcript.append((k, t_star - 1, -1, "", repr(val), ""))
        # next phase starts from the aggregate point
        phase = PhaseState(matrix2, b2, cfg, x0=x_out, y0=y_out)
        if best_val - best_lb <= eps_s:
            certified = True
            break
        if value_target is not None and best_val * scale <= value_target:
            break
    if float(best_x @ best_x) > 2.0 * s_val:
        import warnings

        warnings.warn("returned point has squared l2 norm above 2s; the given "
                      "sparsity estimate was too small", stacklevel=2)
    return FlowRegressResult(
        x=best_x, value=best_val * scale, phases_run=k + 1,
        iterations=total_iter, sampled_coordinates=total_iter,
        certified=certified, gap=(best_val - best_lb) * scale, seed=seed,
        transcript=transcript,
    )
