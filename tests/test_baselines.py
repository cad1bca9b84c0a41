"""Reference methods: descent guarantees and the rate-separation benchmark."""

import numpy as np
import pytest

from helpers import box_linf_opt, dense_to_sparse, random_sparse
from linfflow.baselines import SmoothedObjective, gd_general_norm, plain_cd
from linfflow.cdsolver import solve_box_linf
from linfflow.core import RegressionInstance, sign_double
from linfflow.smoothing import SoftmaxState


def make_objective(rng, n, m, alpha=0.5):
    matrix = random_sparse(rng, n, m, per_col=3)
    b = rng.normal(size=n)
    return SmoothedObjective(matrix, b, alpha), matrix, b


def test_objective_is_the_smoothed_doubled_system():
    # the folded state smooths every row of [A; -A] x - [b; -b]
    rng = np.random.default_rng(9)
    obj, matrix, b = make_objective(rng, 5, 4)
    m2, b2 = sign_double(matrix, b)
    for _ in range(10):
        x = rng.uniform(-1, 1, 4)
        doubled = SoftmaxState(m2, b2, obj.alpha, x0=x)
        assert obj.value(x) == pytest.approx(doubled.smax(), rel=1e-12)
        np.testing.assert_allclose(obj.grad(x), m2.t_dot(doubled.distribution()),
                                   rtol=0, atol=1e-12)


class TestGdGeneralNorm:
    def test_monotone_descent_every_step(self):
        rng = np.random.default_rng(1)
        obj, _, _ = make_objective(rng, 6, 5)
        tr = gd_general_norm(obj, obj.linf_smoothness, 200)
        diffs = np.diff(np.array(tr.values))
        assert (diffs <= 1e-12).all()

    def test_per_step_progress_bound(self):
        rng = np.random.default_rng(2)
        obj, _, _ = make_objective(rng, 5, 4)
        L = obj.linf_smoothness
        x = np.zeros(4)
        for _ in range(50):
            g = obj.grad(x)
            before = obj.value(x)
            x_next = x - (float(np.abs(g).sum()) / L) * np.sign(g)
            after = obj.value(x_next)
            assert before - after >= float(np.abs(g).sum()) ** 2 / (2 * L) - 1e-10
            x = x_next

    def test_final_gap_bound(self):
        rng = np.random.default_rng(3)
        obj, matrix, b = make_objective(rng, 5, 4, alpha=0.2)
        T = 400
        tr = gd_general_norm(obj, obj.linf_smoothness, T)
        # f* bounded below by OPT of the underlying residual problem
        opt, xstar = box_linf_opt(matrix.to_dense(), b, radius=50.0)
        fstar_ub = obj.value(xstar)
        gap = tr.values[-1] - opt
        radius = max(np.abs(tr.x - xstar).max(), np.abs(xstar).max(), 1.0)
        assert gap <= 2 * obj.linf_smoothness * radius ** 2 / T + (
            fstar_ub - opt) + 1e-9


class TestPlainCd:
    def test_separable_quadratic_unavailable_uses_smax(self):
        # zeroing behavior: on a sign-doubled instance with b = A x0 the
        # gradient vanishes at x0 and steps stay put
        rng = np.random.default_rng(4)
        matrix = random_sparse(rng, 4, 3, per_col=2)
        x0 = rng.uniform(-0.4, 0.4, 3)
        obj = SmoothedObjective(matrix, matrix.dot(x0), 1.0)
        tr = plain_cd(obj, np.maximum(obj.coord_smoothness(), 1e-9), 100,
                      seed=0, x0=x0)
        np.testing.assert_allclose(tr.x, x0, atol=1e-12)

    def test_symmetric_sampling(self):
        rng = np.random.default_rng(5)
        matrix = dense_to_sparse(np.eye(2))
        obj = SmoothedObjective(matrix, np.zeros(2), 1.0)
        lj = obj.coord_smoothness()
        from linfflow.sampling import BufferedUniforms, StaticAlias, make_rng

        alias = StaticAlias(lj)
        u = BufferedUniforms(make_rng(6))
        n = 100_000
        hits = sum(alias.sample(u) for _ in range(n))
        assert abs(hits - n / 2) <= 3 * (n * 0.25) ** 0.5

    def test_mean_gap_within_rate_bound(self):
        rng = np.random.default_rng(7)
        matrix = random_sparse(rng, 4, 3, per_col=2)
        b = rng.normal(size=4) * 0.5
        obj = SmoothedObjective(matrix, b, 0.5)
        lj = np.maximum(obj.coord_smoothness(), 1e-9)
        s_total = float(lj.sum())
        T = 300
        opt, xstar = box_linf_opt(matrix.to_dense(), b, radius=50.0)
        fstar = obj.value(xstar)  # upper bound on the true smoothed optimum
        gaps = []
        for seed in range(8):
            tr = plain_cd(obj, lj, T, seed=seed)
            gaps.append(tr.values[-1] - opt)
        radius = max(np.abs(xstar).max() + 1.0, 1.0) * np.sqrt(3)
        bound = 2 * s_total * radius ** 2 / T + (fstar - opt)
        assert float(np.mean(gaps)) <= 2 * bound + 1e-9


def test_rate_separation_local_vs_global():
    """Locally adaptive CD reaches the target in fewer sampled coordinates.

    Family: tall sign-doubled instances whose softmax mass concentrates on a
    few rows, so local curvature estimates are far below the global ones.
    """
    rng = np.random.default_rng(8)
    wins = 0
    trials = 5
    for t in range(trials):
        matrix = random_sparse(rng, 12, 8, per_col=3, scale=1.5)
        b = rng.normal(size=12) * 2.0
        inst = RegressionInstance(matrix=matrix, b=b, epsilon=0.05)
        opt, _ = box_linf_opt(matrix.to_dense(), b)
        target = opt + 0.05
        res = solve_box_linf(inst, seed=t, value_target=target)
        local_count = res.sampled_coordinates

        obj = SmoothedObjective(matrix, b, 0.05 / (2 * np.log(2 * matrix.n_rows)))
        lj = np.maximum(obj.coord_smoothness(), 1e-9)
        global_count = None
        state_steps = 0
        from linfflow.sampling import BufferedUniforms, make_rng as mk

        u = BufferedUniforms(mk(t, 99))
        chunk = 200
        x = np.zeros(8)
        for _ in range(400):
            tr = plain_cd(obj, lj, chunk, x0=x, uniforms=u)
            x = np.clip(tr.x, -1, 1)
            state_steps += chunk
            if inst.value_at(x) <= target:
                global_count = state_steps
                break
        if global_count is None or local_count < global_count:
            wins += 1
    assert wins >= 4, f"local smoothness won only {wins}/{trials}"
