"""Coordinate-descent subproblem solver and the proximal outer loop."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    box_linf_opt,
    dense_to_sparse,
    golden_section,
    random_connected_graph,
    random_instance,
    random_sparse,
    sup_norm_gap,
)
from linfflow import flow
from linfflow.cdsolver import (
    SubproblemSolver,
    lcd_steps,
    prox_outer_iterate,
    solve_box_linf,
)
from linfflow.core import RegressionInstance, SparseMatrix, sign_double
from linfflow.errors import SolverFault
from linfflow.sampling import BufferedUniforms, CoordSampler, make_rng
from linfflow.smoothing import LocalSmoothnessParams, SoftmaxState
from reference_steps import grad_coord, local_smoothness, objective_value


def uniforms(seed=0, stream=0):
    return BufferedUniforms(make_rng(seed, stream))


def make_iterate(matrix, b, alpha, s, x0=None, center=None):
    state = SoftmaxState(matrix, b, alpha, x0=x0)
    params = LocalSmoothnessParams.l2(matrix, alpha, s)
    sampler = CoordSampler(state, params)
    center = np.zeros(matrix.n_cols) if center is None else center
    return SimpleNamespace(state=state, params=params, center=center, sampler=sampler)


def step(it, u):
    """One coordinate step; returns ``(j, delta)``."""
    return lcd_steps(it.state, it.sampler, it.center, u, 1)[2:]


class TestLcdStep:
    def test_stationary_coordinate_stays(self):
        # doubled system with b = A x and center = x: gradient is zero everywhere
        m = dense_to_sparse([[1.0, 0.5], [0.2, -1.0]])
        x = np.array([0.3, -0.2])
        d, b2 = sign_double(m, m.dot(x))
        it = make_iterate(d, b2, alpha=1.0, s=2.0, x0=x.copy(), center=x.copy())
        u = uniforms(1)
        for _ in range(20):
            _, delta = step(it, u)
            assert delta == 0.0
        np.testing.assert_array_equal(it.state.x, x)

    def test_step_clamped_at_boundary(self):
        # negative gradient at x = 1: the unclamped step exits the box, so the
        # coordinate stays pinned at 1
        m = SparseMatrix.from_triplets([(0, 0, -1.0)], 1, 1)
        b = np.array([0.0])
        it = make_iterate(m, b, alpha=1.0, s=1.0, x0=np.array([1.0]),
                          center=np.array([1.0]))
        u = uniforms(2)
        _, delta = step(it, u)
        assert delta == 0.0
        assert it.state.x[0] == 1.0

    def test_iterates_stay_in_box(self):
        rng = np.random.default_rng(0)
        inst = random_instance(rng, 6, 5, eps=1e-2)
        d, b2 = sign_double(inst.matrix, inst.b)
        it = make_iterate(d, b2, alpha=0.5, s=5.0)
        u = uniforms(3)
        for _ in range(500):
            step(it, u)
            assert (np.abs(it.state.x) <= 1.0 + 1e-15).all()

    def test_one_dim_converges_to_golden_section(self):
        # A = [1] doubled, b = 0.3, alpha = 0.1, s = 1, center 0
        m = SparseMatrix.from_triplets([(0, 0, 1.0)], 1, 1)
        d, b2 = sign_double(m, np.array([0.3]))
        alpha, s = 0.1, 1.0
        it = make_iterate(d, b2, alpha=alpha, s=s)
        u = uniforms(4)
        for _ in range(3000):
            step(it, u)

        params = it.params

        def h(v):
            stv = SoftmaxState(d, b2, alpha, x0=np.array([v]))
            return objective_value(stv, np.zeros(1), params)

        xstar = golden_section(h, -1.0, 1.0)
        assert abs(it.state.x[0] - xstar) <= 1e-6

    def test_descent_inequality_each_step(self):
        rng = np.random.default_rng(9)
        inst = random_instance(rng, 5, 4, eps=1e-2)
        d, b2 = sign_double(inst.matrix, inst.b)
        alpha, s = 0.6, 4.0
        it = make_iterate(d, b2, alpha=alpha, s=s)
        u = uniforms(5)

        for _ in range(200):
            before = objective_value(it.state, it.center, it.params)
            # recompute the quantities the step will use
            j = None
            x_before = it.state.x.copy()
            j, delta = step(it, u)
            g = grad_coord(
                SoftmaxState(d, b2, alpha, x0=x_before), j, it.center, it.params
            )
            lj = local_smoothness(
                SoftmaxState(d, b2, alpha, x0=x_before), j, it.params
            )
            after = objective_value(it.state, it.center, it.params)
            assert after <= before + g * delta + 0.5 * lj * delta * delta + 1e-10


class TestSolveSubproblem:
    def test_centered_rhs_returns_center(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 3))
        m = dense_to_sparse(a)
        x_bar = rng.uniform(-0.5, 0.5, 3)
        d, b2 = sign_double(m, m.dot(x_bar))
        alpha = 10.0
        params = LocalSmoothnessParams.l2(d, alpha, 3.0)
        solver = SubproblemSolver(d, params)
        res = solver.solve(b_t=b2, center=x_bar, x_start=x_bar,
                           gap=sup_norm_gap(params, 1e-4),
                           fail_prob=1e-3, uniforms=uniforms(6))
        assert res.certified
        np.testing.assert_allclose(solver.state.x, x_bar, atol=1e-4)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 2))
        m = dense_to_sparse(a)
        b = rng.normal(size=3) * 0.5
        d, b2 = sign_double(m, b)
        alpha, s = 0.5, 2.0
        params = LocalSmoothnessParams.l2(d, alpha, s)
        solver = SubproblemSolver(d, params)
        center = np.zeros(2)
        res = solver.solve(b_t=b2, center=center, x_start=center,
                           gap=sup_norm_gap(params, 1e-4),
                           fail_prob=1e-3, uniforms=uniforms(7))

        # dense vectorized grid evaluation of the regularized objective
        axis = np.linspace(-1.0, 1.0, 2001)
        x0g, x1g = np.meshgrid(axis, axis, indexing="ij")
        pts = np.stack([x0g.ravel(), x1g.ravel()], axis=1)
        resid = pts @ d.to_dense().T - b2
        mx = resid.max(axis=1, keepdims=True)
        smax = alpha * (np.log(np.exp((resid - mx) / alpha).sum(axis=1)) + mx[:, 0] / alpha)
        h_vals = smax + (alpha / (2 * s)) * (pts ** 2).sum(axis=1)
        x_grid = pts[int(np.argmin(h_vals))]
        # compare against the grid point; grid resolution dominates
        assert np.abs(solver.state.x - x_grid).max() <= 2e-3

    def test_empty_column_moves_only_to_center(self):
        m = SparseMatrix.from_triplets([(0, 0, 1.0), (1, 0, -1.0)], 2, 2)
        center = np.array([0.0, 0.25])
        params = LocalSmoothnessParams.l2(m, 1.0, 2.0)
        solver = SubproblemSolver(m, params)
        res = solver.solve(b_t=np.zeros(2), center=center,
                           x_start=np.array([0.0, -0.8]),
                           gap=sup_norm_gap(params, 1e-6),
                           fail_prob=1e-3, uniforms=uniforms(8))
        assert solver.state.x[1] == pytest.approx(0.25, abs=1e-5)

    def test_budget_exhaustion_flags_result(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        m = dense_to_sparse(a)
        d, b2 = sign_double(m, rng.normal(size=4))
        params = LocalSmoothnessParams.l2(d, 0.05, 4.0)
        solver = SubproblemSolver(d, params)
        solver.budget = lambda gap, fail_prob: 3
        res = solver.solve(b_t=b2, center=np.zeros(4), x_start=np.zeros(4),
                           gap=sup_norm_gap(params, 1e-9), fail_prob=1e-6,
                           uniforms=uniforms(9))
        assert not res.certified
        assert res.iterations == 3

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_certified_result_meets_its_gap(self, mode):
        rng = np.random.default_rng(4)
        m = random_sparse(rng, 6, 5, per_col=2)
        d, b2 = sign_double(m, rng.normal(size=6))
        alpha = 0.5
        if mode == "l2":
            params = LocalSmoothnessParams.l2(d, alpha, 5.0)
        else:
            params = LocalSmoothnessParams.diag(d, alpha, d_floor=0.02)
        solver = SubproblemSolver(d, params)
        center = rng.uniform(-0.5, 0.5, 5)
        gap = sup_norm_gap(params, 1e-3)
        res = solver.solve(b_t=b2, center=center, x_start=np.zeros(5), gap=gap,
                           fail_prob=1e-3, uniforms=uniforms(10))
        assert res.certified and res.iterations > 0
        # the certificate recomputed from a fresh state at the returned point
        assert solver._certificate(SoftmaxState(d, b2, alpha, x0=solver.state.x),
                                   center)[0] <= gap


class TestProxOuter:
    def make_outer(self, matrix, b, alpha, s, eps):
        """``(solver, outer)``: ``outer`` carries the pair ``prox_outer_iterate``
        steps, ``step(outer, u)`` advances it."""
        n2 = 2 * matrix.n_rows
        params = LocalSmoothnessParams.l2(matrix, alpha, s, rows=n2)
        solver = SubproblemSolver(matrix, params)
        outer = SimpleNamespace(b=b, x=np.zeros(matrix.n_cols),
                                logp=np.full(n2, -math.log(n2)), eps_iter=eps / 2)
        return solver, outer

    @staticmethod
    def step(solver, outer, u):
        outer.x, outer.logp, res = prox_outer_iterate(
            solver, outer.b, outer.x, outer.logp, outer.eps_iter, 1e-4, u)
        return res

    def test_zero_rhs_stays_at_zero(self):
        m = dense_to_sparse(np.eye(2))
        solver, outer = self.make_outer(m, np.zeros(2), alpha=1.0, s=2.0, eps=1e-2)
        u = uniforms(10)
        for _ in range(3):
            self.step(solver, outer, u)
            np.testing.assert_allclose(outer.x, 0.0, atol=1e-6)

    def test_identity_instance_reaches_opt(self):
        m = dense_to_sparse(np.eye(2))
        b = np.array([2.0, -2.0])
        eps = 5e-2
        solver, outer = self.make_outer(m, b, alpha=1.0, s=2.0, eps=eps)
        u = uniforms(11)
        d, b2 = sign_double(m, b)
        vals = []
        for _ in range(40):
            self.step(solver, outer, u)
            vals.append(float((d.dot(outer.x) - b2).max()))
        assert min(vals) <= 1.0 + eps
        # the tail of the trajectory keeps the value near the optimum
        assert vals[-1] <= 1.0 + 3 * eps

    def test_regret_certificate(self):
        rng = np.random.default_rng(6)
        m = dense_to_sparse(rng.normal(size=(3, 2)) * 0.5)
        b = rng.normal(size=3) * 0.3
        alpha, s, eps = 1.0, 2.0, 1e-2
        solver, outer = self.make_outer(m, b, alpha, s, eps)
        d, b2 = sign_double(m, b)
        _, x_star = box_linf_opt(m.to_dense(), b)
        u = uniforms(12)
        t_outer = 12
        zs = []
        for _ in range(t_outer):
            self.step(solver, outer, u)
            zs.append((outer.x.copy(), np.exp(outer.logp)))
        # g(z) = (A^T p, b - A x); u = (x*, e_best)
        total = 0.0
        for x_t, p_t in zs:
            resid = d.dot(x_t) - b2
            best = np.zeros(d.n_rows)
            best[int(np.argmax(resid))] = 1.0
            gap_t = float(p_t @ (d.dot(x_t) - b2)) - float(best @ (d.dot(x_star) - b2))
            # regret term against u for the bilinear objective
            total += float(d.t_dot(p_t) @ (x_t - x_star)) + float(
                (b2 - d.dot(x_t)) @ (p_t - best)
            )
        avg = total / t_outer
        theta = 0.5 + math.log(d.n_rows)
        assert avg <= alpha * theta / t_outer + eps / 2 + 1e-9

    def test_dual_is_the_closed_form_response(self):
        # p' is proportional to exp((A x' - b)/alpha + log p) over the doubled
        # rows [r; -r], r = A x' - b, after every step: the re-centred state's
        # log-weights give the response with the rhs shift folded in
        rng = np.random.default_rng(13)
        m = dense_to_sparse(rng.normal(size=(5, 3)) * 0.5)
        b = rng.normal(size=5) * 0.3
        alpha = 0.7
        solver, outer = self.make_outer(m, b, alpha, s=3.0, eps=1e-2)
        u = uniforms(13)
        for _ in range(6):
            logp_prev = outer.logp
            self.step(solver, outer, u)
            r = m.dot(outer.x) - b
            logw = np.concatenate([r, -r]) / alpha + logp_prev
            mx = logw.max()
            expected = logw - (mx + math.log(np.exp(logw - mx).sum()))
            np.testing.assert_allclose(outer.logp, expected, rtol=0, atol=1e-9)

    def test_state_and_sampler_built_once(self):
        rng = np.random.default_rng(14)
        m = dense_to_sparse(rng.normal(size=(4, 3)) * 0.5)
        solver, outer = self.make_outer(m, rng.normal(size=4) * 0.3, 1.0, 3.0, 1e-2)
        u = uniforms(14)
        self.step(solver, outer, u)
        state, sampler = solver.state, solver.sampler
        for _ in range(3):
            self.step(solver, outer, u)
        assert solver.state is state and solver.sampler is sampler
        assert sampler.state is state

    def test_recenter_without_resync_raises(self):
        rng = np.random.default_rng(15)
        m = dense_to_sparse(rng.normal(size=(4, 3)) * 0.5)
        b = rng.normal(size=4) * 0.3
        solver, outer = self.make_outer(m, b, 1.0, 3.0, 1e-2)
        self.step(solver, outer, uniforms(15))
        state = solver.state
        state.recenter(b, -b, m.dot(state.x))
        with pytest.raises(SolverFault, match="out of sync"):
            lcd_steps(state, solver.sampler, [0.0] * 3, uniforms(16), 1)
        solver.sampler.resync()
        lcd_steps(state, solver.sampler, [0.0] * 3, uniforms(16), 1)


class TestSolveBoxLinf:
    def test_zero_rhs(self):
        m = dense_to_sparse(np.eye(2))
        inst = RegressionInstance(matrix=m, b=np.zeros(2), epsilon=1e-2)
        res = solve_box_linf(inst, seed=1)
        assert res.value <= 1e-2

    def test_interior_solution(self):
        m = dense_to_sparse([[1.0, 1.0], [1.0, -1.0]])
        inst = RegressionInstance(matrix=m, b=np.array([1.0, 0.0]), epsilon=1e-2)
        res = solve_box_linf(inst, seed=2)
        assert res.value <= 1e-2 + 1e-9

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_random_instances_match_lp(self, mode):
        rng = np.random.default_rng(100)
        for k in range(5):
            n = int(rng.integers(3, 10))
            m_cols = int(rng.integers(2, 10))
            inst = random_instance(rng, n, m_cols, eps=1e-2)
            opt, _ = box_linf_opt(inst.matrix.to_dense(), inst.b)
            res = solve_box_linf(inst, f"cd-{mode}", seed=k)
            assert res.value <= opt + inst.epsilon + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        inst = random_instance(rng, 5, 4, eps=1e-2)
        r1 = solve_box_linf(inst, seed=33)
        r2 = solve_box_linf(inst, seed=33)
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.transcript == r2.transcript
        assert r1.transcript_csv() == r2.transcript_csv()

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_one_state_and_sampler_per_solve(self, monkeypatch, mode):
        builds = {"state": 0, "sampler": 0}
        for cls, name in ((SoftmaxState, "state"), (CoordSampler, "sampler")):
            def counted(self, *args, _init=cls.__init__, _name=name, **kwargs):
                builds[_name] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        inst = random_instance(np.random.default_rng(8), 10, 10, eps=1e-2)
        res = solve_box_linf(inst, f"cd-{mode}", seed=3)
        assert res.outer_iterations >= 3
        assert builds == {"state": 1, "sampler": 1}

    def test_flow_probe_steps_mostly_move(self, monkeypatch):
        # the maxflow-cd-l2 golden's graph and run: its one probe sits at
        # box bounds and underflowed rows, where a draw from the full law
        # took a null step 29% of the time; skipping the columns whose
        # projected step is 0 leaves almost only moving steps
        results = []

        def recorded(*args, **kwargs):
            results.append(solve_box_linf(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(flow, "solve_box_linf", recorded)
        net = random_connected_graph(np.random.default_rng(33), 8, extra_edges=6)
        flow.flow_to_regress(net, net.st_demand(1.0), 0.2, solver="cd-l2", seed=5)
        steps = sum(r.sampled_coordinates for r in results)
        assert results and steps > 0
        assert sum(r.moving_steps for r in results) / steps >= 0.95

    def test_rejects_non_unit_radius(self):
        m = dense_to_sparse(np.eye(2))
        inst = RegressionInstance(matrix=m, b=np.zeros(2), radius=2.0)
        from linfflow.errors import InputError

        with pytest.raises(InputError, match="unit box"):
            solve_box_linf(inst)


class TestRateProperties:
    def test_geometric_decay_slope(self):
        # log optimality gap along one subproblem solve decays at least at
        # half the theoretical per-step rate
        rng = np.random.default_rng(77)
        from helpers import random_sparse
        from linfflow.sampling import CoordSampler

        matrix = random_sparse(rng, 4, 4, per_col=2)
        b = rng.normal(size=4) * 0.5
        d, b2 = sign_double(matrix, b)
        alpha, s = 0.8, 4.0
        params = LocalSmoothnessParams.l2(d, alpha, s)
        center = np.zeros(4)
        # dense high-accuracy optimum
        a_dense = d.to_dense()
        lips = d.norm_inf ** 2 / alpha + alpha / s
        xo = center.copy()
        for _ in range(60_000):
            r = (a_dense @ xo - b2) / alpha
            e = np.exp(r - r.max())
            p = e / e.sum()
            g = a_dense.T @ p + (alpha / s) * (xo - center)
            xo = np.clip(xo - g / lips, -1, 1)
        sto = SoftmaxState(d, b2, alpha, x0=xo)
        h_star = objective_value(sto, center, params)

        gaps = []
        state = SoftmaxState(d, b2, alpha)
        sampler = CoordSampler(state, params)
        u = uniforms(7)
        for k in range(1500):
            lcd_steps(state, sampler, center, u, 1)
            if k % 10 == 0:
                gaps.append(objective_value(state, center, params) - h_star)
        gaps = np.array(gaps)
        keep = gaps > 1e-8
        ks = 10.0 * np.arange(len(gaps))[keep]
        slope = float(np.polyfit(ks, np.log(gaps[keep]), 1)[0])
        s_bound = params.mass_bound
        mu = alpha / s
        assert slope <= -mu / (4.0 * s_bound), (slope, -mu / (4 * s_bound))

    def test_outer_iteration_count_within_budget(self):
        rng = np.random.default_rng(78)
        from helpers import random_instance

        for k in range(4):
            inst = random_instance(rng, 5, 5, eps=2e-2)
            res = solve_box_linf(inst, seed=k)
            d, _ = sign_double(inst.matrix, inst.b)
            n2 = d.n_rows
            alpha = max(inst.epsilon, math.sqrt(inst.s / 5) * d.norm_inf)
            cap = 2 * math.ceil(alpha * (1 + math.log(n2)) / inst.epsilon)
            assert res.outer_iterations <= cap


class TestResidualDualCertificate:
    """The softmax duals of the residual certify a primal that is already
    eps-optimal, long before the outer dual catches up."""

    # outer iterations when only the outer dual fed the lower bound
    OUTER_DUAL_ONLY = {"l2": 23, "diag": 31}

    @pytest.fixture(scope="class")
    def inst(self):
        # 120x120, 4 entries per column at distinct rows, N(0, 1) values,
        # b ~ N(0, 9) scaled toward an LP optimum of 6.0, eps = 0.5
        rng = np.random.default_rng(1)
        n = 120
        rows = np.concatenate([rng.choice(n, size=4, replace=False) for _ in range(n)])
        cols = np.repeat(np.arange(n), 4)
        matrix = SparseMatrix.from_triplets(zip(rows, cols, rng.normal(size=4 * n)),
                                            n, n)
        b = 3.0 * rng.normal(size=n)
        for _ in range(3):
            b = b * (6.0 / box_linf_opt(matrix.to_dense(), b)[0])
        opt, _ = box_linf_opt(matrix.to_dense(), b)
        return RegressionInstance(matrix=matrix, b=b, epsilon=0.5), opt

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_certified_in_half_the_outers(self, inst, mode):
        inst, opt = inst
        res = solve_box_linf(inst, f"cd-{mode}", seed=0)
        assert res.stop_reason == "certified" and res.certified
        assert res.gap <= inst.epsilon
        assert opt - 1e-9 <= res.value <= opt + inst.epsilon
        assert res.value - res.gap <= opt + 1e-9
        assert res.outer_iterations <= self.OUTER_DUAL_ONLY[mode] // 2

    # coordinate steps at seed 0 when each subproblem had to reach the
    # sup-norm radius's objective gap (half mu times its square)
    SUP_NORM_TARGET_STEPS = {"l2": 17_040, "diag": 16_200}

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_inner_gap_target_cuts_the_steps(self, inst, mode):
        inst, opt = inst
        res = solve_box_linf(inst, f"cd-{mode}", seed=0)
        assert res.stop_reason == "certified"
        assert opt - 1e-9 <= res.value <= opt + inst.epsilon
        assert res.sampled_coordinates <= self.SUP_NORM_TARGET_STEPS[mode] // 3


class TestStopReason:
    @pytest.fixture
    def inst(self):
        rng = np.random.default_rng(1)
        matrix = random_sparse(rng, 6, 6, per_col=2)
        return RegressionInstance(matrix=matrix, b=rng.normal(size=6), epsilon=0.1)

    def test_certified(self, inst):
        res = solve_box_linf(inst, seed=2)
        assert res.certified and res.stop_reason == "certified"

    def test_lb_target(self, inst):
        # every weak-duality bound is at least the one at the uniform dual,
        # q = 0, which is 0 > -1: the solve stops before its first outer
        res = solve_box_linf(inst, seed=2, lb_target=-1.0)
        assert res.stop_reason == "lb_target" and res.outer_iterations == 0

    def test_value_target(self, inst):
        start = inst.value_at(np.zeros(6))
        warm = solve_box_linf(inst, seed=2, value_target=start)
        assert warm.stop_reason == "value_target" and warm.outer_iterations == 0
        best = solve_box_linf(inst, seed=2).value
        res = solve_box_linf(inst, seed=2, value_target=(best + start) / 2)
        assert res.stop_reason == "value_target" and res.outer_iterations > 0
        assert res.value <= (best + start) / 2

    def test_zero_matrix_is_certified(self):
        matrix = SparseMatrix.from_triplets([], 2, 2)
        res = solve_box_linf(RegressionInstance(matrix=matrix, b=np.ones(2)))
        assert res.certified and res.stop_reason == "certified"
