"""Smoothed-max evaluation, gradients, curvature bounds, incremental updates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import central_diff_grad, dense_to_sparse, random_sparse
from linfflow.cdsolver import SubproblemSolver
from linfflow.core import sign_double
from linfflow.sampling import CoordSampler, row_tables
from linfflow.smoothing import (
    LocalSmoothnessParams,
    SoftmaxState,
    grad_coord,
    hessian_diag_upper,
    local_smoothness,
    objective_value,
    smax_hessian_diag,
)


def state_for(dense, b, alpha, x=None):
    m = dense_to_sparse(dense)
    return SoftmaxState(m, np.asarray(b, dtype=float), alpha, x0=x)


class TestSmaxEval:
    def test_symmetric_pair(self):
        # residual (0, 0) at alpha = 1 sits exactly alpha*log(2) above the max
        st_ = state_for(np.eye(2), [0.0, 0.0], 1.0)
        assert st_.smax() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_single_row_is_exact(self):
        for alpha in (0.1, 1.0, 7.0):
            st_ = state_for([[1.0]], [-2.5], alpha, x=np.array([0.0]))
            assert st_.smax() == pytest.approx(2.5, abs=1e-12)

    def test_one_zero_pair(self):
        # frozen from the defining formula evaluated in extended precision
        st_ = state_for(np.eye(2), [-1.0, 0.0], 1.0)
        assert st_.smax() == pytest.approx(1.3132616875182228, abs=1e-12)

    def test_no_overflow_for_tiny_alpha(self):
        st_ = state_for(np.eye(2), [-1000.0, 1000.0], 1e-3)
        v = st_.smax()
        assert np.isfinite(v)
        assert v == pytest.approx(1000.0, abs=1e-9)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8),
           st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_sandwich(self, resid, alpha):
        n = len(resid)
        st_ = state_for(np.eye(n), [-r for r in resid], alpha)
        v = st_.smax()
        mx = max(resid)
        assert mx - 1e-12 <= v <= mx + alpha * math.log(n) + 1e-12


class TestDistribution:
    def test_uniform_on_equal_residuals(self):
        st_ = state_for(np.eye(3), np.zeros(3), 1.0)
        np.testing.assert_allclose(st_.distribution(), 1.0 / 3.0)

    def test_dominant_entry(self):
        st_ = state_for(np.eye(2), [-40.0, 0.0], 1.0)
        p = st_.distribution()
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference_of_smax(self):
        rng = np.random.default_rng(0)
        resid = rng.normal(size=6)

        def smax_of(r):
            s = state_for(np.eye(6), -r, 0.7)
            return s.smax()

        p = state_for(np.eye(6), -resid, 0.7).distribution()
        g = central_diff_grad(smax_of, resid)
        np.testing.assert_allclose(p, g, rtol=1e-6)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        st_ = state_for(rng.normal(size=(5, 4)), rng.normal(size=5), 0.3,
                        x=rng.uniform(-1, 1, 4))
        p = st_.distribution()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p >= 0).all()


class TestGradCoord:
    def test_empty_column(self):
        dense = np.zeros((2, 2))
        dense[0, 0] = 1.0
        dense[1, 0] = 1.0
        m = dense_to_sparse(dense) if dense.any() else None
        # column 1 is empty: build via triplets directly
        from linfflow.core import SparseMatrix

        m = SparseMatrix.from_triplets([(0, 0, 1.0), (1, 0, 1.0)], 2, 2)
        st_ = SoftmaxState(m, np.zeros(2), 1.0, x0=np.array([0.0, 0.4]))
        params = LocalSmoothnessParams.l2(m, alpha=1.0, s=1.0)
        center = np.zeros(2)
        assert grad_coord(st_, 1, center, params) == pytest.approx(0.4)

    def test_uniform_p_unit_column(self):
        from linfflow.core import SparseMatrix

        m = SparseMatrix.from_triplets([(0, 0, 1.0), (1, 0, 1.0)], 2, 1)
        st_ = SoftmaxState(m, np.zeros(2), 1.0)
        params = LocalSmoothnessParams.l2(m, alpha=1.0, s=1.0)
        assert grad_coord(st_, 0, np.zeros(1), params) == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_matches_finite_difference_of_objective(self, mode):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 5))
        m = dense_to_sparse(a)
        b = rng.normal(size=6)
        alpha, s = 0.8, 3.0
        center = rng.uniform(-0.5, 0.5, size=5)
        x = rng.uniform(-0.8, 0.8, size=5)
        if mode == "l2":
            params = LocalSmoothnessParams.l2(m, alpha, s)
        else:
            params = LocalSmoothnessParams.diag(m, alpha, d_floor=1e-3)

        def h(z):
            stz = SoftmaxState(m, b, alpha, x0=z)
            return objective_value(stz, center, params)

        st_ = SoftmaxState(m, b, alpha, x0=x)
        g_fd = central_diff_grad(h, x)
        for j in range(5):
            assert grad_coord(st_, j, center, params) == pytest.approx(
                g_fd[j], rel=1e-6, abs=1e-8
            )


class TestLocalSmoothness:
    def test_empty_column_floor(self):
        from linfflow.core import SparseMatrix

        m = SparseMatrix.from_triplets([(0, 0, 1.0)], 1, 2)
        st_ = SoftmaxState(m, np.zeros(1), 1.0)
        params = LocalSmoothnessParams.l2(m, alpha=1.0, s=1.0)
        assert local_smoothness(st_, 1, params) == pytest.approx(1.0)  # alpha/s

    def test_direct_substitution(self):
        st_ = state_for([[1.0]], [0.0], 1.0)
        params = LocalSmoothnessParams.l2(st_.matrix, alpha=1.0, s=1.0)
        # 8 * 1 * (1 + 2) + 1
        assert local_smoothness(st_, 0, params) == pytest.approx(25.0)

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_hessian_bound_along_step_segment(self, mode):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n, m_cols = 6, 5
            a = rng.normal(size=(n, m_cols))
            m = dense_to_sparse(a)
            b = rng.normal(size=n)
            alpha = 0.5
            if mode == "l2":
                params = LocalSmoothnessParams.l2(m, alpha, s=float(m_cols))
            else:
                params = LocalSmoothnessParams.diag(m, alpha, d_floor=1e-3)
            x = rng.uniform(-1, 1, size=m_cols)
            st_ = SoftmaxState(m, b, alpha, x0=x)
            center = rng.uniform(-1, 1, size=m_cols)
            for j in range(m_cols):
                lj = local_smoothness(st_, j, params)
                g = grad_coord(st_, j, center, params)
                step = g / lj
                for t in np.linspace(-1, 1, 21):
                    y = x.copy()
                    y[j] += t * step
                    sty = SoftmaxState(m, b, alpha, x0=y)
                    assert hessian_diag_upper(sty, j, params) <= lj * (1 + 1e-9)

    def test_sum_bound_holds(self):
        rng = np.random.default_rng(8)
        m = random_sparse(rng, 10, 12, per_col=3)
        alpha, s = 0.7, 5.0
        params = LocalSmoothnessParams.l2(m, alpha, s)
        bound = params.mass_bound
        for _ in range(20):
            st_ = SoftmaxState(m, rng.normal(size=10), alpha,
                               x0=rng.uniform(-1, 1, 12))
            total = sum(local_smoothness(st_, j, params) for j in range(12))
            assert total <= bound * (1 + 1e-12)


class TestL2IsUnitDiag:
    """The l2 geometry is the weighted one with unit weights: each consumer's
    one formula gives the l2 closed forms bit for bit."""

    def cases(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            matrix = random_sparse(rng, n, m, per_col=int(rng.integers(1, 6)),
                                   scale=float(10.0 ** rng.uniform(-3, 3)))
            alpha = float(10.0 ** rng.uniform(-2, 1))
            s = float(rng.uniform(0.5, 2.0 * m))
            rows = n if rng.random() < 0.5 else 2 * n
            yield rng, matrix, alpha, s, LocalSmoothnessParams.l2(matrix, alpha, s,
                                                                  rows=rows)

    def test_unit_weights_and_mass_bound(self):
        for _, matrix, alpha, s, params in self.cases():
            m, n, norm_a = matrix.n_cols, params.rows, matrix.norm_inf
            assert params.d.dtype == np.float64
            assert np.array_equal(params.d, np.ones(m))
            assert params.mass_bound == ((8.0 / alpha) * norm_a ** 2
                                         + 16.0 * min(m, n) * norm_a / s + m * alpha / s)

    def test_range_bound(self):
        for _, matrix, alpha, s, params in self.cases():
            m, n, norm_a = matrix.n_cols, params.rows, matrix.norm_inf
            assert SubproblemSolver(matrix, params).range_bound() == (
                alpha * math.log(max(n, 2)) + 2.0 * norm_a + alpha * m / (2.0 * s))

    def test_objective_value(self):
        for rng, matrix, alpha, s, params in self.cases():
            m = matrix.n_cols
            st_ = SoftmaxState(matrix, rng.normal(size=matrix.n_rows), alpha,
                               x0=rng.uniform(-1, 1, m))
            center = rng.uniform(-1, 1, m)
            diff = st_.x - center
            assert objective_value(st_, center, params) == (
                float(st_.smax()) + 0.5 * params.mu * float(diff @ diff))

    def test_sampler_entry_weights(self):
        for rng, matrix, alpha, s, params in self.cases():
            st_ = SoftmaxState(matrix, rng.normal(size=matrix.n_rows), alpha)
            sampler = CoordSampler(st_, params)
            cols, vals = matrix.row_entries()
            _, mass = row_tables(matrix, np.abs(vals) * matrix.col_maxabs[cols])
            assert np.array_equal(sampler.row_mass, mass)
            for j in range(matrix.n_cols):
                _, col_vals = matrix.col(j)
                assert np.array_equal(params.row_entry_weight(j, col_vals),
                                      np.abs(col_vals) * np.abs(col_vals).max())


class TestTraceBound:
    def test_trace_of_smoothed_residual(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, m_cols = 7, 6
            m = random_sparse(rng, n, m_cols, per_col=3)
            alpha = 0.4
            st_ = SoftmaxState(m, rng.normal(size=n), alpha,
                               x0=rng.uniform(-1, 1, m_cols))
            trace = sum(smax_hessian_diag(st_, j) for j in range(m_cols))
            assert trace <= m.norm_inf ** 2 / alpha + 1e-9


class TestApplyCoordUpdate:
    def test_zero_delta_noop(self):
        rng = np.random.default_rng(0)
        m = random_sparse(rng, 5, 4)
        st_ = SoftmaxState(m, rng.normal(size=5), 0.5)
        w0, z0 = st_.w.copy(), st_.z
        st_.apply_coord_update(2, 0.0)
        np.testing.assert_array_equal(st_.w, w0)
        assert st_.z == z0

    def test_scalar_case(self):
        st_ = state_for([[1.0]], [0.0], 1.0)
        st_.apply_coord_update(0, 2.0)
        assert st_.w[0] == pytest.approx(2.0)
        assert st_.smax() == pytest.approx(2.0)

    def test_many_updates_match_recompute(self):
        rng = np.random.default_rng(21)
        m = random_sparse(rng, 50, 80, per_col=4)
        b = rng.normal(size=50)
        st_ = SoftmaxState(m, b, 0.3)
        for _ in range(10_000):
            j = int(rng.integers(0, 80))
            delta = float(rng.normal() * 0.05)
            st_.apply_coord_update(j, delta)
        fresh = SoftmaxState(m, b, 0.3, x0=st_.x)
        np.testing.assert_allclose(
            st_.distribution(), fresh.distribution(), rtol=1e-8
        )

    def test_incremental_w_drift_bound(self):
        rng = np.random.default_rng(22)
        m = random_sparse(rng, 20, 10, per_col=3)
        b = rng.normal(size=20)
        st_ = SoftmaxState(m, b, 1.0)
        k = 2000
        for _ in range(k):
            st_.apply_coord_update(int(rng.integers(0, 10)),
                               float(rng.normal() * 0.01))
        fresh = (m.dot(st_.x) - b) / 1.0
        assert np.abs(st_.w_array() - fresh).max() <= k * 1e-14 * max(m.norm_inf, 1.0)

    def test_rebuild_on_drift(self):
        st_ = state_for([[1.0]], [0.0], 1.0)
        rebuilds = st_.rebuild_count
        st_.apply_coord_update(0, 100.0)  # drift of 100 log units forces rebuild
        assert st_.rebuild_count == rebuilds + 1
        assert st_.smax() == pytest.approx(100.0)


def test_doubled_system_centered_gradient_vanishes():
    # sign-doubled columns have zero sum, so the uniform distribution is
    # stationary for the unregularized part
    rng = np.random.default_rng(2)
    m = random_sparse(rng, 6, 5, per_col=3)
    x = rng.uniform(-0.5, 0.5, 5)
    d, b2 = sign_double(m, m.dot(x))
    st_ = SoftmaxState(d, b2, 2.0, x0=x)
    params = LocalSmoothnessParams.l2(d, alpha=2.0, s=5.0)
    for j in range(5):
        assert grad_coord(st_, j, x, params) == pytest.approx(0.0, abs=1e-12)
