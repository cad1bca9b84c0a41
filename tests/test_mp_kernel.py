"""The fused mirror-prox kernel against the step-by-step reference.

``phase_iterates`` inlines ``sample_pj`` and the folded dual recursion.
``reference_step`` below is that iteration written with ``sample_pj`` and
numpy.  Two copies of one phase, one driven by each, must draw the same
columns from the same uniforms and end with the same x, delta and dual
log-weights.  The kernel evaluates the normalizing exponentials with
``math.exp`` and sums them in order, numpy with its own exp and pairwise
sums, so p_j and the state agree to rounding (1e-12), not bit for bit.

The fold itself is checked against the sign-doubled system: a 2n-row
``ReferenceSimplex`` driven with the doubled delta and zeta keeps
``(v[:n] - v[n:]) / 2`` equal to the kernel's u.
"""

import copy
import math

import numpy as np
import pytest

from helpers import doubled_law, random_sparse
from linfflow.core import SparseMatrix, sign_double
from linfflow.errors import InputError, SolverFault
from linfflow.mirrorprox import (
    MirrorProxConfig,
    PhaseState,
    PhaseTables,
    phase_iterates,
    sample_pj,
)
from linfflow.sampling import BufferedUniforms, make_rng
from simplex_maintainer import ReferenceSimplex

TOL = 1e-12


def _clamp(v):
    return min(1.0, max(-1.0, v))


def reference_step(phase, uniforms, clamps):
    """One half-step/full-step pair through ``sample_pj`` and the dense folded dual."""
    cfg = phase.config
    matrix, kappa, s, eps, n = phase.matrix, cfg.kappa, cfg.s, cfg.eps, phase.n
    j, pj = sample_pj(phase, uniforms)
    rows, vals = matrix.col(j)

    y = doubled_law(phase.u)
    ay = float(vals @ (y[rows] - y[rows + n]))
    xj = phase.x[j]
    g_half = (ay + (eps / (2.0 * s)) * xj) / (kappa * pj)
    x_half_j = _clamp(xj - s * g_half)
    delta_j = x_half_j - xj

    if np.abs(phase.delta).max() > 1.0 / (8.0 * 2 * n) + 1e-12:
        raise InputError("dense update exceeds the 1/(8n) stability bound")
    uh = (1.0 - phase.c) * phase.u - phase.delta
    yh = doubled_law(uh)
    ay_half = float(vals @ (yh[rows] - yh[rows + n]))
    g_full = (ay_half + (eps / (2.0 * s)) * x_half_j) / (kappa * pj)
    x_next_j = _clamp(xj - s * g_full)
    clamps[0] += abs(x_half_j) == 1.0 or abs(x_next_j) == 1.0

    zeta = np.zeros(n)
    if delta_j != 0.0 and len(rows):
        zeta[rows] = -vals * (delta_j / (kappa * pj))
        if np.abs(zeta).max() > 0.25 + 1e-12:
            raise SolverFault("dual correction exceeds 1/4")
    phase.u[:] = phase.u - phase.c * uh - phase.delta - zeta

    if x_next_j != xj:
        phase.x[j] = x_next_j
        move = x_next_j - xj
        phase.delta[rows] -= vals * (move / kappa)
    phase.iteration += 1
    return j, pj, delta_j


def instance(n, m, seed):
    """n x (m + 1) instance whose last column has one entry."""
    rng = np.random.default_rng(seed)
    while True:
        matrix = random_sparse(rng, n, m, per_col=min(3, n), scale=0.4)
        if (matrix.row_l1 > 0).all():
            break
    scale = max(matrix.norm_inf, 1.0)
    trip = [(i, j, v / scale) for i, j, v in matrix.triplets()]
    trip.append((n - 1, m, 0.3))
    matrix = SparseMatrix.from_triplets(trip, n, m + 1)
    assert matrix.col_nnz[m] == 1
    b = rng.uniform(-0.9, 0.9, size=n)
    return matrix, b, rng


def twin_phases(n, m, seed, x0=None, u0=None):
    """Builder of identical (phase, uniforms) pairs over one shared table set."""
    matrix, b, _ = instance(n, m, seed)
    cfg = MirrorProxConfig.for_instance(matrix, 0.3, float(matrix.n_cols))
    tables = PhaseTables(matrix, cfg)

    def build():
        phase = PhaseState(matrix, b, cfg, x0=x0, u0=u0, tables=tables)
        return phase, BufferedUniforms(make_rng(seed, 5), block=64)

    return build


def assert_close(kernel, reference):
    kp, ku = kernel
    rp, ru = reference
    np.testing.assert_allclose(kp.x, rp.x, rtol=0, atol=TOL)
    np.testing.assert_allclose(kp.delta, rp.delta, rtol=0, atol=TOL)
    np.testing.assert_allclose(kp.u, rp.u, rtol=0, atol=TOL)
    assert kp.iteration == rp.iteration
    assert ku._pos == ru._pos
    assert ku._buf == ru._buf


@pytest.mark.parametrize("n", [2, 4, 8])
def test_kernel_matches_reference_steps(n):
    m = 2 * n + 1
    rng = np.random.default_rng(n)
    # start some coordinates on the box faces, where the steps clamp
    x0 = rng.uniform(-0.9, 0.9, size=m)
    x0[::3] = np.sign(x0[::3])
    u0 = rng.normal(size=n)
    build = twin_phases(n, 2 * n, seed=10 + n, x0=x0, u0=u0)
    kernel, reference = build(), build()
    clamps = [0]
    seen = set()
    total = 0
    for count in (1, 1, 7, 64, 500, 1427):
        got = phase_iterates(kernel[0], kernel[1], count)
        for _ in range(count):
            last = reference_step(reference[0], reference[1], clamps)
            seen.add(last[0])
        total += count
        assert got[0] == last[0]
        assert got[1] == pytest.approx(last[1], rel=TOL, abs=0)
        assert got[2] == pytest.approx(last[2], rel=0, abs=TOL)
        assert_close(kernel, reference)
    assert total >= 2000 and kernel[0].iteration == total
    assert clamps[0] > 0
    assert m - 1 in seen  # the one-entry column was drawn


def test_every_draw_matches_one_step_at_a_time():
    build = twin_phases(4, 6, seed=3)
    kernel, reference = build(), build()
    clamps = [0]
    for _ in range(2000):
        j, pj, dj = phase_iterates(*kernel, 1)
        rj, rpj, rdj = reference_step(*reference, clamps)
        assert j == rj
        assert pj == pytest.approx(rpj, rel=TOL, abs=0)
        assert dj == pytest.approx(rdj, rel=0, abs=TOL)
        assert kernel[1]._pos == reference[1]._pos
    assert_close(kernel, reference)


def test_zero_count_leaves_the_phase_alone():
    build = twin_phases(2, 3, seed=4)
    phase, uniforms = build()
    before = (phase.x.copy(), phase.delta.copy(), phase.u.copy(), uniforms._pos)
    assert phase_iterates(phase, uniforms, 0) == (-1, 0.0, 0.0)
    after = (phase.x, phase.delta, phase.u, uniforms._pos)
    for a, b in zip(before[:3], after[:3]):
        np.testing.assert_array_equal(a, b)
    assert before[3] == after[3] and phase.iteration == 0


def test_undersized_kappa_raises_solver_fault_like_the_reference():
    # b = A x0 puts delta at 0, so the stability check passes; a tiny kappa
    # then inflates the dual correction of the first move past 1/4
    matrix, b, rng = instance(4, 6, seed=6)
    x0 = rng.uniform(0.3, 0.9, size=matrix.n_cols)
    b = matrix.dot(x0)
    cfg = MirrorProxConfig.for_instance(matrix, 0.3, 7.0)
    cfg.kappa = 1e-3
    kernel = (PhaseState(matrix, b, cfg, x0=x0), BufferedUniforms(make_rng(6, 5)))
    reference = copy.deepcopy(kernel)
    with pytest.raises(SolverFault, match="exceeds 1/4"):
        phase_iterates(*kernel, 100)
    with pytest.raises(SolverFault):
        for _ in range(100):
            reference_step(*reference, [0])
    assert kernel[0].iteration == reference[0].iteration
    assert kernel[1]._pos == reference[1]._pos
    np.testing.assert_allclose(kernel[0].x, reference[0].x, rtol=0, atol=TOL)


def test_oversized_delta_raises_input_error_like_the_reference():
    build = twin_phases(4, 6, seed=7)
    kernel, reference = build(), build()
    for phase, _ in (kernel, reference):
        phase.delta[2] = 1.0  # far above 1/(8n)
    with pytest.raises(InputError, match="1/\\(8n\\)"):
        phase_iterates(*kernel, 10)
    with pytest.raises(InputError, match="1/\\(8n\\)"):
        reference_step(*reference, [0])
    assert kernel[0].iteration == reference[0].iteration == 0
    assert kernel[1]._pos == reference[1]._pos


def test_delta_pushed_over_the_bound_mid_call_raises_at_the_next_step():
    # a tiny kappa with delta at 0 at the start: the first move refreshes delta
    # by |a| * move / kappa, far past 1/(8n); the reference raises one
    # iteration later, in update_half, and so must the kernel
    matrix, b, rng = instance(4, 6, seed=8)
    x0 = rng.uniform(0.3, 0.9, size=matrix.n_cols)
    b = matrix.dot(x0)
    cfg = MirrorProxConfig.for_instance(matrix, 0.3, 7.0)
    cfg.kappa = 2.0
    kernel = (PhaseState(matrix, b, cfg, x0=x0), BufferedUniforms(make_rng(8, 5)))
    reference = copy.deepcopy(kernel)
    with pytest.raises(InputError):
        phase_iterates(*kernel, 200)
    with pytest.raises(InputError):
        for _ in range(200):
            reference_step(*reference, [0])
    assert 0 < kernel[0].iteration == reference[0].iteration
    assert kernel[1]._pos == reference[1]._pos
    np.testing.assert_allclose(kernel[0].delta, reference[0].delta, rtol=0, atol=TOL)


@pytest.mark.parametrize("u0", [[0.5, np.nan], [0.5, np.inf], [0.5, 0.0, 0.0]])
def test_initial_dual_must_be_n_finite_log_weights(u0):
    matrix, b, _ = instance(2, 3, seed=9)
    cfg = MirrorProxConfig.for_instance(matrix, 0.3, 4.0)
    with pytest.raises(InputError, match="2 finite numbers"):
        PhaseState(matrix, b, cfg, u0=np.array(u0))


@pytest.mark.parametrize("n", [2, 4, 8])
def test_fold_equals_the_doubled_recursion(n):
    """The doubled system's own recursion, over a 2n-row ``ReferenceSimplex``
    started from ``[u0; -u0]`` and updated with ``[delta; -delta]`` and the
    doubled zeta, at the columns and p_j ``sample_pj`` draws from its law."""
    matrix, b, rng = instance(n, 2 * n, seed=20 + n)
    matrix2, b2 = sign_double(matrix, b)
    m = matrix.n_cols
    cfg = MirrorProxConfig.for_instance(matrix, 0.3, float(m))
    kappa, s, reg = cfg.kappa, cfg.s, cfg.eps / (2.0 * cfg.s)
    u0 = 0.5 * rng.normal(size=n)
    kernel = PhaseState(matrix, b, cfg, u0=u0)
    draws = PhaseState(matrix, b, cfg, u0=u0, tables=kernel.tables)
    k_uniforms, d_uniforms = (BufferedUniforms(make_rng(n, 5), block=64)
                              for _ in range(2))
    ref = ReferenceSimplex(np.concatenate([u0, -u0]), cfg.eps, kappa)
    assert ref.c == kernel.c
    x = np.zeros(m)
    seen, moves = set(), 0
    for _ in range(2000):
        j_kernel, _, _ = phase_iterates(kernel, k_uniforms, 1)
        v = ref.values()
        draws.u[:] = (v[:n] - v[n:]) / 2
        j, pj = sample_pj(draws, d_uniforms)
        assert j == j_kernel
        seen.add(j)
        rows, vals = matrix2.col(j)
        ay = sum(a * ref.coord(int(r)) for r, a in zip(rows, vals))
        x_half = _clamp(x[j] - s * (ay + reg * x[j]) / (kappa * pj))
        delta2 = (b2 - matrix2.dot(x)) / kappa
        ref.update_half(delta2)
        ay_half = sum(a * ref.coord_half(int(r)) for r, a in zip(rows, vals))
        x_next = _clamp(x[j] - s * (ay_half + reg * x_half) / (kappa * pj))
        move = (x_half - x[j]) / (kappa * pj)
        ref.update(delta2, [(int(r), -a * move) for r, a in zip(rows, vals)])
        moves += move != 0.0
        x[j] = x_next
        v = ref.values()
        np.testing.assert_allclose(kernel.u, (v[:n] - v[n:]) / 2, rtol=0, atol=TOL)
    np.testing.assert_allclose(kernel.x, x, rtol=0, atol=TOL)
    assert len(seen) == m and moves > 0


@pytest.mark.parametrize("n, m, seed", [(1, 3, 30), (3, 5, 31), (6, 4, 32)])
def test_config_sizes_the_doubled_system(n, m, seed):
    matrix, b, _ = instance(n, m, seed)
    matrix2, _ = sign_double(matrix, b)
    n2, cols = matrix2.n_rows, matrix2.n_cols
    for eps, s in ((0.3, 1.0), (0.05, float(cols))):
        c_sqrt = math.sqrt(max(matrix2.max_col_nnz, 1))
        kappa = (cols * eps + 8.0 * math.sqrt(cols * n2 * eps)
                 + 8.0 * c_sqrt * math.sqrt(n2 * s) + 16.0 * n2)
        log_n = max(math.log(n2), math.log(2.0))
        phases = max(1, math.ceil(math.log2(16.0 * s * (1.0 + math.log(n2))
                                            / (eps * eps))))
        want = MirrorProxConfig(eps=eps, s=s, kappa=kappa,
                                t_per_phase=math.ceil(8.0 * kappa * log_n / eps),
                                phases=phases, c_sqrt=c_sqrt)
        cfg = MirrorProxConfig.for_instance(matrix, eps, s)
        assert cfg == want
        phase = PhaseState(matrix, b, cfg)
        assert phase.c == ReferenceSimplex(np.zeros(n2), eps, kappa).c
        assert phase.tables.mass_dyn == c_sqrt * math.sqrt(n2 * s)
        assert phase.tables.mass_static == math.sqrt(cols * n2 * eps)
