"""The folded sign-doubled system against the doubled matrix it stands for.

A folded ``SoftmaxState`` keeps one weight pair per row of A, with the rhs of
the two halves drawn independently as after a proximal shift.  Every quantity
the coordinate-descent path reads from it must match a one-sided state over
``sign_double``'s explicit ``[A; -A]`` with the stacked rhs.
"""

import numpy as np
import pytest
from scipy import stats

from helpers import random_sparse
from linfflow.cdsolver import SubproblemSolver
from linfflow.core import sign_double
from linfflow.errors import SolverFault
from linfflow.sampling import BufferedUniforms, CoordSampler, make_rng
from linfflow.smoothing import (
    LocalSmoothnessParams,
    SoftmaxState,
    grad_coord,
    hessian_diag_upper,
    local_smoothness,
    objective_value,
    smax_hessian_diag,
)


def params_for(matrix, alpha, mode, rows=None):
    if mode == "l2":
        return LocalSmoothnessParams.l2(matrix, alpha, float(matrix.n_cols), rows=rows)
    return LocalSmoothnessParams.diag(matrix, alpha, d_floor=1e-3, rows=rows)


def folded_and_doubled(seed, n=9, m=12, alpha=0.4, mode="l2", per_col=3):
    """(folded state, params, doubled state, params) at a random x."""
    rng = np.random.default_rng(seed)
    matrix = random_sparse(rng, n, m, per_col=per_col)
    b_pos = rng.normal(size=n)
    b_neg = rng.normal(size=n)
    x = rng.uniform(-1, 1, m)
    folded = SoftmaxState(matrix, b_pos, alpha, x0=x, b_neg=b_neg)
    doubled_matrix, _ = sign_double(matrix, b_pos)
    doubled = SoftmaxState(doubled_matrix, np.concatenate([b_pos, b_neg]), alpha, x0=x)
    return (folded, params_for(matrix, alpha, mode, rows=2 * n),
            doubled, params_for(doubled_matrix, alpha, mode))


def assert_states_match(folded, fparams, doubled, dparams):
    m = folded.matrix.n_cols
    center = np.linspace(-0.5, 0.5, m)
    assert folded.smax() == pytest.approx(doubled.smax(), rel=1e-12, abs=1e-12)
    assert objective_value(folded, center, fparams) == pytest.approx(
        objective_value(doubled, center, dparams), rel=1e-12, abs=1e-12)
    for j in range(m):
        assert grad_coord(folded, j, center, fparams) == pytest.approx(
            grad_coord(doubled, j, center, dparams), rel=1e-10, abs=1e-12)
        assert local_smoothness(folded, j, fparams) == pytest.approx(
            local_smoothness(doubled, j, dparams), rel=1e-12)
        assert hessian_diag_upper(folded, j, fparams) == pytest.approx(
            hessian_diag_upper(doubled, j, dparams), rel=1e-12)
        assert smax_hessian_diag(folded, j) == pytest.approx(
            smax_hessian_diag(doubled, j), rel=1e-10, abs=1e-12)
    np.testing.assert_allclose(folded.w_array(), doubled.w_array(), rtol=1e-12,
                               atol=1e-12)


class TestFoldedState:
    @pytest.mark.parametrize("mode", ["l2", "diag"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_doubled_state(self, seed, mode):
        assert_states_match(*folded_and_doubled(seed, mode=mode))

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_params_read_doubled_row_count(self, mode):
        folded, fparams, doubled, dparams = folded_and_doubled(3, mode=mode)
        assert fparams.rows == dparams.rows == doubled.matrix.n_rows
        assert fparams.scale == dparams.scale
        np.testing.assert_array_equal(fparams.static_l, dparams.static_l)
        np.testing.assert_array_equal(fparams.curvature, dparams.curvature)

    def test_updates_keep_matching(self):
        folded, fparams, doubled, dparams = folded_and_doubled(4)
        rng = np.random.default_rng(40)
        for _ in range(300):
            j = int(rng.integers(0, folded.matrix.n_cols))
            delta = float(rng.normal() * 0.1)
            folded.apply_coord_update(j, delta)
            doubled.apply_coord_update(j, delta)
        assert_states_match(folded, fparams, doubled, dparams)

    @pytest.mark.parametrize("half", [1.0, -1.0])
    def test_drift_rebuild_from_either_half(self, half):
        # column 0 has one entry A_i0: a large move of x_0 raises w_i when
        # half * A_i0 > 0 and its mirror w_neg_i otherwise, so the sign of the
        # move picks the half that drifts past the shift
        folded, fparams, doubled, dparams = folded_and_doubled(5, alpha=0.2,
                                                               per_col=1)
        rows, vals = folded.matrix.col(0)
        assert len(rows) == 1
        i, v = int(rows[0]), float(vals[0])
        delta = half * 200.0 * folded.alpha / abs(v)
        rebuilds = folded.rebuild_count
        folded.apply_coord_update(0, delta)
        doubled.apply_coord_update(0, delta)
        assert folded.rebuild_count == rebuilds + 1
        top = folded.w[i] if half * v > 0 else folded.w_neg[i]
        assert top == folded.wref  # the drifted half now sets the shift
        assert_states_match(folded, fparams, doubled, dparams)

    def test_one_sided_mirror_is_empty(self):
        rng = np.random.default_rng(6)
        matrix = random_sparse(rng, 5, 4)
        state = SoftmaxState(matrix, rng.normal(size=5), 0.5)
        state.apply_coord_update(1, 0.3)
        assert state.expw_neg == [0.0] * 5
        assert state.w_array().shape == (5,)
        np.testing.assert_allclose(state.distribution(),
                                   np.array(state.expw) / state.z)


class TestFoldedSampler:
    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_weights_and_mass_match_doubled(self, mode):
        folded, fparams, doubled, dparams = folded_and_doubled(7, mode=mode)
        fs, ds = CoordSampler(folded, fparams), CoordSampler(doubled, dparams)
        assert fs.tree.n == doubled.matrix.n_rows // 2
        rng = np.random.default_rng(70)
        for k in range(200):
            j = int(rng.integers(0, folded.matrix.n_cols))
            delta = float(rng.normal() * 0.1)
            fs.step(j, delta)
            ds.step(j, delta)
            if k % 50 == 0:
                for jj in range(folded.matrix.n_cols):
                    assert fs.weight(jj) == pytest.approx(ds.weight(jj), rel=1e-10)
        assert fs.total_mass() == pytest.approx(ds.total_mass(), rel=1e-10)

    def test_resync_tracks_recentred_state(self):
        folded, fparams, _, _ = folded_and_doubled(8)
        sampler = CoordSampler(folded, fparams)
        folded.x[:] = 0.0
        folded.recenter(folded.b, -folded.b, None)
        with pytest.raises(SolverFault, match="out of sync"):
            sampler.sample(BufferedUniforms(make_rng(0)))
        sampler.resync()
        fresh = SoftmaxState(folded.matrix, folded.b, folded.alpha,
                             x0=np.zeros(folded.matrix.n_cols), b_neg=-folded.b)
        np.testing.assert_array_equal(folded.w_array(), fresh.w_array())
        dense = sum(local_smoothness(fresh, j, fparams)
                    for j in range(fresh.matrix.n_cols))
        assert sampler.total_mass() == pytest.approx(dense, rel=1e-12)
        sampler.sample(BufferedUniforms(make_rng(0)))  # in sync: no fault

    def test_draws_follow_doubled_law(self):
        folded, fparams, doubled, dparams = folded_and_doubled(9, alpha=0.3)
        sampler = CoordSampler(folded, fparams)
        reference = CoordSampler(doubled, dparams)
        m = folded.matrix.n_cols
        expected = np.array([reference.weight(j) for j in range(m)])
        u = BufferedUniforms(make_rng(9))
        n = 100_000
        counts = np.bincount([sampler.sample(u) for _ in range(n)], minlength=m)
        assert stats.chisquare(counts, expected / expected.sum() * n).pvalue > 0.001


class TestFoldedCertificate:
    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_certificate_matches_doubled(self, mode):
        folded, fparams, doubled, dparams = folded_and_doubled(10, mode=mode)
        center = np.zeros(folded.matrix.n_cols)
        fsolver = SubproblemSolver(folded.matrix, fparams)
        dsolver = SubproblemSolver(doubled.matrix, dparams)
        assert fsolver._certificate(folded, center) == pytest.approx(
            dsolver._certificate(doubled, center), rel=1e-10, abs=1e-12)
        assert fsolver.range_bound() == dsolver.range_bound()
        assert fparams.mass_bound == dparams.mass_bound
