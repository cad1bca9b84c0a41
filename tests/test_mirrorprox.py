"""Randomized mirror prox: sampling law, update guards, phase behavior."""

import math

import numpy as np
import pytest
from scipy import stats

from helpers import box_linf_opt, dense_to_sparse, random_sparse
from linfflow.core import RegressionInstance, SparseMatrix, sign_double
from linfflow.errors import InputError
from linfflow.mirrorprox import (
    MirrorProxConfig,
    PhaseState,
    lj_dense,
    lj_tilde,
    phase_iterate,
    run_phase,
    sample_pj,
    solve_flow_regress,
)
from linfflow.sampling import BufferedUniforms, make_rng


def uniforms(seed=0, stream=0):
    return BufferedUniforms(make_rng(seed, stream))


def flow_shaped(rng, n, m, per_col=2):
    """Random instance with sup norms at most one and no empty rows."""
    while True:
        matrix = random_sparse(rng, n, m, per_col=per_col, scale=0.4)
        if (matrix.row_l1 > 0).all():
            break
    scale = max(matrix.norm_inf, 1.0)
    trip = [(i, j, v / scale) for i, j, v in matrix.triplets()]
    matrix = SparseMatrix.from_triplets(trip, n, m)
    b = rng.uniform(-0.9, 0.9, size=n)
    return matrix, b


def make_phase(matrix, b, eps=0.25, s=None, seed=0):
    matrix2, b2 = sign_double(matrix, b)
    s = float(s if s is not None else matrix.n_cols)
    cfg = MirrorProxConfig.for_instance(matrix2, eps, s, seed=seed)
    return PhaseState(matrix2, b2, cfg), cfg


class TestLjTilde:
    def test_empty_column_zero(self):
        m = SparseMatrix.from_triplets([(0, 0, 1.0)], 1, 2)
        y = np.array([1.0])
        assert lj_tilde(m, y, s=1.0, eps=1.0, j=1) == 0.0

    def test_single_entry_direct(self):
        m = SparseMatrix.from_triplets([(0, 0, 1.0)], 1, 1)
        y = np.array([1.0])
        assert lj_tilde(m, y, s=1.0, eps=1.0, j=0) == pytest.approx(4.0)

    def test_sandwich(self):
        rng = np.random.default_rng(0)
        m = random_sparse(rng, 8, 10, per_col=3, scale=0.3)
        c = m.max_col_nnz
        for _ in range(20):
            y = rng.dirichlet(np.ones(8))
            lo = lj_dense(m, y, s=2.0, eps=0.1)
            hi = lj_tilde(m, y, s=2.0, eps=0.1)
            assert (hi >= lo - 1e-12).all()
            assert (hi <= (c + 1) * lo + 1e-12).all()


class TestSamplePj:
    def test_single_column(self):
        m = SparseMatrix.from_triplets([(0, 0, 0.5)], 1, 1)
        phase, _ = make_phase(m, np.array([0.2]))
        u = uniforms(1)
        for _ in range(50):
            j, pj = sample_pj(phase, u)
            assert j == 0
            assert pj == pytest.approx(1.0, rel=1e-9)

    def test_symmetric_columns(self):
        m = SparseMatrix.from_triplets([(0, 0, 0.5), (1, 1, 0.5)], 2, 2)
        phase, _ = make_phase(m, np.zeros(2))
        u = uniforms(2)
        n = 100_000
        hits = 0
        for _ in range(n):
            j, pj = sample_pj(phase, u)
            hits += j
            assert pj == pytest.approx(0.5, rel=1e-6)
        assert abs(hits - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_law_matches_dense_mixture(self):
        rng = np.random.default_rng(3)
        matrix, b = flow_shaped(rng, 6, 9)
        phase, cfg = make_phase(matrix, b, eps=0.3)
        tables = phase.tables
        u = uniforms(3)
        n = 100_000
        counts = np.zeros(9)
        psum = np.zeros(9)
        for _ in range(n):
            j, pj = sample_pj(phase, u)
            counts[j] += 1
            psum[j] = pj
        # dense law: same mixture computed from the exact y
        y = phase.exact_y()
        sq = np.sqrt(y)
        p_dyn = np.zeros(9)
        for j in range(9):
            rows, q = tables.qij[j]
            if len(rows):
                p_dyn[j] = float((sq[rows] / sq.sum()) @ q)
        tm = tables.mass_dyn + tables.mass_static
        static_w = np.sqrt(cfg.eps * phase.matrix.col_maxabs)
        law = 0.5 * (tables.mass_dyn / tm * p_dyn
                     + tables.mass_static / tm * static_w / static_w.sum())
        law += 0.5 / 9
        np.testing.assert_allclose(psum[counts > 0], law[counts > 0], rtol=1e-6)
        assert stats.chisquare(counts, law * n).pvalue > 0.001

    def test_floor(self):
        rng = np.random.default_rng(4)
        matrix, b = flow_shaped(rng, 5, 7)
        phase, _ = make_phase(matrix, b)
        u = uniforms(4)
        for _ in range(500):
            _, pj = sample_pj(phase, u)
            assert pj >= 1.0 / (4 * 7)


class TestPhaseIterate:
    def test_hand_traced_single_column(self):
        # A = [0.5] doubled, b = 0.3; first iteration from x = 0, y uniform
        m = SparseMatrix.from_triplets([(0, 0, 0.5)], 1, 1)
        phase, cfg = make_phase(m, np.array([0.3]), eps=0.25, s=1.0)
        kappa, eps, s = cfg.kappa, cfg.eps, cfg.s
        y = phase.exact_y()
        a_col = np.array([0.5, -0.5])
        ay = float(a_col @ y)
        g = (ay + 0.0) / (kappa * 1.0)
        x_half = np.clip(0.0 - s * g, -1, 1)
        # dual half step with delta = (b2 - 0)/kappa
        c = eps / (4 * kappa * max(math.log(2), 1.0))
        b2 = np.array([0.3, -0.3])
        v_half = (1 - c) * np.log(y) - b2 / kappa
        yh = np.exp(v_half - v_half.max())
        yh /= yh.sum()
        g_full = (float(a_col @ yh) + (eps / (2 * s)) * x_half) / kappa
        x_next = np.clip(0.0 - s * g_full, -1, 1)
        j, pj, delta_j = phase_iterate(phase, uniforms(5))
        assert j == 0 and pj == pytest.approx(1.0)
        assert delta_j == pytest.approx(float(x_half), abs=1e-9)
        assert phase.x[0] == pytest.approx(float(x_next), abs=1e-9)

    def test_stationary_point_stays(self):
        # b = A x0 with x0 = 0 and symmetric doubling: gradients vanish at 0
        m = SparseMatrix.from_triplets([(0, 0, 0.5), (1, 1, 0.5)], 2, 2)
        phase, _ = make_phase(m, np.zeros(2), eps=0.25)
        u = uniforms(6)
        for _ in range(30):
            phase_iterate(phase, u)
        np.testing.assert_allclose(phase.x, 0.0, atol=1e-12)

    def test_update_bounds_hold_over_run(self):
        rng = np.random.default_rng(7)
        matrix, b = flow_shaped(rng, 4, 6)
        phase, cfg = make_phase(matrix, b, eps=0.3)
        u = uniforms(7)
        n2 = phase.n2
        for _ in range(400):
            phase_iterate(phase, u)
            assert np.abs(phase.delta).max() <= 1.0 / (8 * n2) + 1e-12
            assert (np.abs(phase.x) <= 1.0).all()

    def test_stability_factor_eight(self):
        rng = np.random.default_rng(8)
        matrix, b = flow_shaped(rng, 4, 6)
        phase, cfg = make_phase(matrix, b, eps=0.3)
        u = uniforms(8)
        y_prev = phase.exact_y()
        for _ in range(200):
            phase_iterate(phase, u)
            y_now = phase.exact_y()
            assert (y_now / y_prev).max() <= 8.0
            y_prev = y_now


class TestDebiasing:
    def test_aggregate_point_identity(self):
        rng = np.random.default_rng(9)
        matrix, b = flow_shaped(rng, 4, 5)
        matrix2, b2 = sign_double(matrix, b)
        eps, s = 0.3, 5.0
        cfg = MirrorProxConfig.for_instance(matrix2, eps, s)
        kappa = cfg.kappa
        n2, m = matrix2.n_rows, matrix2.n_cols
        log_n = max(math.log(n2), 1.0)
        c = eps / (4 * kappa * log_n)
        x = rng.uniform(-0.9, 0.9, m)
        y = rng.dirichlet(np.ones(n2))
        a = matrix2.to_dense()
        # dense mixture law
        sq = np.sqrt(y)
        cm = matrix2.col_maxabs
        w_i = np.array([np.sqrt(s * cm[matrix2.row(i)[0]] *
                                np.abs(matrix2.row(i)[1])).sum()
                        for i in range(n2)])
        p_dyn = np.zeros(m)
        for j in range(m):
            rows, vals = matrix2.col(j)
            q = np.sqrt(s * cm[j] * np.abs(vals))
            q = np.where(w_i[rows] > 0, q / np.where(w_i[rows] > 0, w_i[rows], 1), 0)
            p_dyn[j] = float((sq[rows] / sq.sum()) @ q)
        mass_dyn = cfg.c_sqrt * math.sqrt(n2 * s)
        mass_static = math.sqrt(m * n2 * eps)
        static = np.sqrt(eps * cm)
        law = 0.5 * (mass_dyn / (mass_dyn + mass_static) * p_dyn
                     + mass_static / (mass_dyn + mass_static) * static / static.sum())
        law += 0.5 / m
        # common dual half step
        v_half = (1 - c) * np.log(y) - (b2 - a @ x) / kappa
        yh = np.exp(v_half - v_half.max())
        yh /= yh.sum()
        # per-j primal half steps
        deltas = np.zeros(m)
        for j in range(m):
            g = (float(a[:, j] @ y) + (eps / (2 * s)) * x[j]) / (kappa * law[j])
            deltas[j] = np.clip(x[j] - s * g, -1, 1) - x[j]
        x_bar = x + deltas
        g_bar_x = a.T @ yh + (eps / (2 * s)) * x_bar
        g_bar_y = b2 - a @ x_bar + (eps / (4 * log_n)) * np.log(yh)
        for trial in range(20):
            ux = rng.uniform(-1, 1, m)
            uy = rng.dirichlet(np.ones(n2))
            rhs = float(g_bar_x @ (x_bar - ux)) + float(g_bar_y @ (yh - uy))
            lhs = 0.0
            for j in range(m):
                xj = x.copy()
                xj[j] = x[j] + deltas[j]
                gx = (float(a[:, j] @ yh) + (eps / (2 * s)) * xj[j]) / law[j]
                gy = b2 - a @ (x + deltas[j] / law[j] * _e(m, j)) \
                    + (eps / (4 * log_n)) * np.log(yh)
                lhs += law[j] * (gx * (xj[j] - ux[j]) + float(gy @ (yh - uy)))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def _e(m, j):
    v = np.zeros(m)
    v[j] = 1.0
    return v


class TestRunPhase:
    def test_t_star_one_zero_rhs_fixed_point(self):
        m = SparseMatrix.from_triplets([(0, 0, 0.5), (1, 1, 0.5)], 2, 2)
        phase, _ = make_phase(m, np.zeros(2), eps=0.25)
        x_out, y_out = run_phase(phase, t_star=1, uniforms=uniforms(10))
        np.testing.assert_allclose(x_out, 0.0, atol=1e-12)
        assert y_out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_output_in_domains(self):
        rng = np.random.default_rng(11)
        matrix, b = flow_shaped(rng, 3, 5)
        phase, cfg = make_phase(matrix, b, eps=0.4)
        x_out, y_out = run_phase(phase, t_star=50, uniforms=uniforms(11))
        assert (np.abs(x_out) <= 1.0).all()
        assert (y_out > 0).all()
        assert y_out.sum() == pytest.approx(1.0, abs=1e-9)


class TestRegToDiv:
    def test_regret_dominates_divergence(self):
        rng = np.random.default_rng(12)
        matrix, b = flow_shaped(rng, 3, 4)
        matrix2, b2 = sign_double(matrix, b)
        eps, s = 0.3, 4.0
        from helpers import regularized_saddle

        xt, yt = regularized_saddle(matrix2, b2, eps, s, iters=40_000)
        a = matrix2.to_dense()
        log_n = max(math.log(matrix2.n_rows), 1.0)
        for _ in range(20):
            x = rng.uniform(-1, 1, matrix2.n_cols)
            y = rng.dirichlet(np.ones(matrix2.n_rows))
            gx = a.T @ y + (eps / (2 * s)) * x
            gy = b2 - a @ x + (eps / (4 * log_n)) * np.log(y)
            reg = float(gx @ (x - xt)) + float(gy @ (y - yt))
            vx = float((x - xt) @ (x - xt)) / (2 * s)
            vy = float((yt * np.log(yt / y)).sum())
            assert reg >= (eps / (4 * log_n)) * (vx + vy) - 1e-7


class TestSolveFlowRegress:
    def test_zero_rhs(self):
        m = dense_to_sparse(0.5 * np.eye(2))
        inst = RegressionInstance(matrix=m, b=np.zeros(2), epsilon=0.1)
        res = solve_flow_regress(inst, seed=1)
        assert res.value <= 0.1

    def test_matches_lp_on_small_instances(self):
        rng = np.random.default_rng(13)
        for k in range(3):
            matrix, b = flow_shaped(rng, 3, 4 + k)
            inst = RegressionInstance(matrix=matrix, b=b, epsilon=0.1)
            opt, _ = box_linf_opt(matrix.to_dense(), b)
            res = solve_flow_regress(inst, seed=k, fail_prob=0.25)
            assert res.value <= opt + inst.epsilon + 1e-9

    def test_epsilon_floor_rejected(self):
        m = dense_to_sparse(0.5 * np.eye(4))
        inst = RegressionInstance(matrix=m, b=np.zeros(4), epsilon=1e-9)
        with pytest.raises(InputError, match="n\\^-3"):
            solve_flow_regress(inst)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        matrix, b = flow_shaped(rng, 3, 4)
        inst = RegressionInstance(matrix=matrix, b=b, epsilon=0.15)
        r1 = solve_flow_regress(inst, seed=7, collect_transcript=True)
        r2 = solve_flow_regress(inst, seed=7, collect_transcript=True)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.transcript_csv() == r2.transcript_csv()


class TestPhaseHalving:
    def test_expected_divergence_halves(self):
        # small version of the acceptance run: one instance, 60 seeds
        rng = np.random.default_rng(15)
        matrix, b = flow_shaped(rng, 2, 4)
        matrix2, b2 = sign_double(matrix, b)
        eps, s = 0.5, 2.0
        from helpers import regularized_saddle

        xt, yt = regularized_saddle(matrix2, b2, eps, s, iters=60_000)
        cfg = MirrorProxConfig.for_instance(matrix2, eps, s)

        def div(x, y):
            vx = float((x - xt) @ (x - xt)) / (2 * s)
            vy = float((yt * (np.log(yt) - np.log(y))).sum())
            return vx + vy

        ratios = []
        for seed in range(25):
            rng_k = make_rng(seed, stream=0)
            u = BufferedUniforms(rng_k)
            phase = PhaseState(matrix2, b2, cfg)
            v_in = div(phase.x, np.full(matrix2.n_rows, 1.0 / matrix2.n_rows))
            t_star = int(rng_k.integers(1, cfg.t_per_phase + 1))
            x_out, y_out = run_phase(phase, t_star, u)
            ratios.append(div(x_out, y_out) / v_in)
        assert float(np.mean(ratios)) <= 0.75


class TestSqrtSmoothnessSum:
    def test_sum_under_analytic_bound_over_run(self):
        rng = np.random.default_rng(21)
        matrix, b = flow_shaped(rng, 4, 7)
        phase, cfg = make_phase(matrix, b, eps=0.3)
        m2 = phase.matrix
        n2, m = m2.n_rows, m2.n_cols
        bound = cfg.c_sqrt * math.sqrt(n2 * cfg.s) + math.sqrt(m * n2 * cfg.eps)
        u = uniforms(21)
        for k in range(150):
            phase_iterate(phase, u)
            if k % 10 == 0:
                y = phase.exact_y()
                from linfflow.mirrorprox import lj_tilde

                total = float(np.sqrt(lj_tilde(m2, y, cfg.s, cfg.eps)).sum())
                assert total <= bound + 1e-9


class TestFlowShapedPathInstance:
    def test_two_edge_path_reduction_solves_to_zero(self):
        # the regression instance induced by routing one unit along a 2-edge
        # path has optimum zero at the routing congestion
        from linfflow.flow import TreeApproximator
        from linfflow.graphs import FlowNetwork

        net = FlowNetwork(3, [(0, 1, 1.0), (1, 2, 1.0)], source=0, sink=2)
        approx = TreeApproximator(net)
        d = net.st_demand(1.0)
        matrix, rhs = approx.regression_parts(d)
        eps = 0.1
        inst = RegressionInstance(matrix=matrix, b=rhs, epsilon=eps)
        res = solve_flow_regress(inst, seed=2)
        assert res.value <= eps + 1e-9
        # the solution routes close to one unit on each edge
        assert np.abs(res.x - 1.0).max() <= 0.6


class TestStopReason:
    @pytest.fixture
    def inst(self):
        rng = np.random.default_rng(14)
        matrix, b = flow_shaped(rng, 3, 4)
        return RegressionInstance(matrix=matrix, b=b, epsilon=0.15)

    def test_certified(self, inst):
        res = solve_flow_regress(inst, seed=7)
        assert res.certified and res.stop_reason == "certified"
        assert res.gap <= inst.epsilon

    def test_phase_budget(self, inst):
        res = solve_flow_regress(inst, seed=7, max_phases=1)
        assert not res.certified and res.stop_reason == "phase_budget"
        assert res.phases_run == 1

    def test_value_target(self, inst):
        res = solve_flow_regress(inst, seed=7, value_target=10.0)
        assert not res.certified and res.stop_reason == "value_target"
        assert res.phases_run == 1

    def test_transcript_rows_follow_the_phases(self, inst):
        res = solve_flow_regress(inst, seed=7, collect_transcript=True)
        assert len(res.transcript) == res.phases_run
        assert sum(row[1] for row in res.transcript) == res.iterations
        assert min(float(row[2]) for row in res.transcript) >= res.value
        best_lb = max(float(row[3]) for row in res.transcript)
        assert res.gap == pytest.approx(res.value - best_lb, abs=1e-12)
