"""The fused coordinate-step kernel against the step-by-step primitives.

``lcd_steps`` inlines ``CoordSampler.sample``, ``grad_coord`` /
``local_smoothness`` (``reference_steps``), the clamp and
``CoordSampler.step``.  These tests drive two identical setups, one through
the kernel and one through the primitives, and require the two to end bit
for bit alike.  With a ``skip`` mask the kernel draws from the law
conditioned on the columns left, and the later tests check that law and the
skipping itself.
"""

import numpy as np
import pytest
from scipy import stats

from helpers import random_sparse
from linfflow.cdsolver import lcd_steps, solve_box_linf
from linfflow.core import RegressionInstance, SparseMatrix
from linfflow.errors import InputError, SolverFault
from linfflow.sampling import BufferedUniforms, CoordSampler, make_rng
from linfflow.smoothing import LocalSmoothnessParams, SoftmaxState
from reference_steps import grad_coord, local_smoothness, sampler_weight


def reference_step(state, sampler, center, uniforms):
    j = sampler.sample(uniforms)
    g = grad_coord(state, j, center, sampler.params)
    lj = local_smoothness(state, j, sampler.params)
    xj = state.x[j]
    target = xj - g / lj
    if target > 1.0:
        target = 1.0
    elif target < -1.0:
        target = -1.0
    delta = target - xj
    if delta != 0.0:
        sampler.step(j, delta)
    return j, delta


def with_empty_column(matrix):
    """The same entries plus one column that has none."""
    return SparseMatrix.from_triplets(matrix.triplets(), matrix.n_rows,
                                      matrix.n_cols + 1)


def setup(mode, folded, alpha, seed, drift=False):
    """Builder of fresh (state, sampler, uniforms) triples, and the center.

    ``drift`` builds 3 dense rows over 40 positive columns with every residual
    at zero at x0 = -1, and a strong pull (small s) toward the center +1: the
    residuals then rise by far more than ``alpha * REBUILD_DRIFT``.
    """
    rng = np.random.default_rng(seed)
    if drift:
        matrix = SparseMatrix.from_triplets(
            [(i, j, rng.uniform(0.5, 1.0)) for i in range(3) for j in range(40)], 3, 40)
        x0, center = -np.ones(40), np.ones(40)
        b = matrix.dot(x0)
    else:
        matrix = with_empty_column(random_sparse(rng, 9, 12, per_col=3))
        x0 = rng.uniform(-1, 1, matrix.n_cols)
        center = rng.uniform(-1, 1, matrix.n_cols)
        b = rng.normal(size=matrix.n_rows)
    n, m = matrix.n_rows, matrix.n_cols
    b_neg = None
    if folded:
        b_neg = -b if drift else -b + rng.normal(size=n) * 0.3
    rows = 2 * n if folded else n
    if mode == "l2":
        s = 0.05 if drift else float(m)
        params = LocalSmoothnessParams.l2(matrix, alpha, s, rows=rows)
    else:
        params = LocalSmoothnessParams.diag(matrix, alpha, d_floor=0.01, rows=rows)

    def build():
        state = SoftmaxState(matrix, b, alpha, x0=x0, b_neg=b_neg)
        sampler = CoordSampler(state, params)
        return state, sampler, BufferedUniforms(make_rng(seed, 7), block=64)

    return build, center


def assert_same_bits(a, b):
    assert np.asarray(a, dtype=np.float64).tobytes() == \
        np.asarray(b, dtype=np.float64).tobytes()


def assert_identical(kernel, reference):
    (ks, kt, ku), (rs, rt, ru) = kernel, reference
    for name in ("x", "w", "w_neg", "expw", "expw_neg"):
        assert_same_bits(getattr(ks, name), getattr(rs, name))
    assert_same_bits([ks.z, ks.wref], [rs.z, rs.wref])
    assert (ks.version, ks.rebuild_count) == (rs.version, rs.rebuild_count)
    assert kt._synced_version == rt._synced_version == ks.version
    assert_same_bits(kt.tree.nodes, rt.tree.nodes)
    assert kt.tree.update_count == rt.tree.update_count
    assert kt.tree.touched_nodes == rt.tree.touched_nodes
    assert ku._pos == ru._pos
    assert_same_bits(ku._buf, ru._buf)
    assert [ku.next() for _ in range(5)] == [ru.next() for _ in range(5)]


@pytest.mark.parametrize("mode", ["l2", "diag"])
@pytest.mark.parametrize("folded", [True, False])
def test_kernel_matches_reference_steps(mode, folded):
    build, center = setup(mode, folded, alpha=0.4, seed=3)
    kernel, reference = build(), build()
    center_list = center.tolist()
    moving = 0
    last = None
    for count in (1, 7, 64, 300, 128):
        got = lcd_steps(kernel[0], kernel[1], center_list, kernel[2], count)
        for _ in range(count):
            last = reference_step(reference[0], reference[1], center, reference[2])
            moving += last[1] != 0.0
        assert got == (count, moving, *last)
        moving = 0
        assert_identical(kernel, reference)
    assert kernel[1].tree.update_count > 0


def test_kernel_drift_rebuild_mid_chunk():
    build, center = setup("l2", True, alpha=1.0, seed=5, drift=True)
    kernel, reference = build(), build()
    rebuild_at = []
    count = 2000
    for k in range(count):
        before = reference[0].rebuild_count
        reference_step(reference[0], reference[1], center, reference[2])
        if reference[0].rebuild_count != before:
            rebuild_at.append(k)
    assert rebuild_at and rebuild_at[0] < count - 1
    lcd_steps(kernel[0], kernel[1], center.tolist(), kernel[2], count)
    assert kernel[0].rebuild_count == reference[0].rebuild_count > 1
    assert_identical(kernel, reference)


def test_lcd_step_is_one_kernel_step():
    build, center = setup("diag", True, alpha=0.4, seed=8)
    kernel, reference = build(), build()
    for _ in range(50):
        assert lcd_steps(kernel[0], kernel[1], center, kernel[2], 1)[2:] == \
            reference_step(reference[0], reference[1], center, reference[2])
    assert_identical(kernel, reference)


def test_stale_sampler_raises():
    build, center = setup("l2", True, alpha=0.4, seed=2)
    state, sampler, uniforms = build()
    state.apply_coord_update(0, 0.1)  # moves x behind the sampler's back
    with pytest.raises(SolverFault, match="out of sync"):
        lcd_steps(state, sampler, center, uniforms, 10)
    with pytest.raises(SolverFault, match="out of sync"):
        lcd_steps(state, sampler, center, uniforms, 1)
    other = SoftmaxState(state.matrix, state.b, state.alpha, x0=state.x,
                         b_neg=state.b_neg)
    with pytest.raises(SolverFault, match="out of sync"):
        lcd_steps(other, sampler, center, uniforms, 10)


def test_non_finite_step_raises_and_keeps_state_synced():
    build, center = setup("l2", True, alpha=0.4, seed=4)
    state, sampler, uniforms = build()
    x_before = state.x.copy()
    with pytest.raises(InputError, match="finite"):
        lcd_steps(state, sampler, [float("nan")] * len(center), uniforms, 10)
    np.testing.assert_array_equal(state.x, x_before)
    assert sampler._synced_version == state.version == 0
    lcd_steps(state, sampler, center, uniforms, 10)  # still usable


def still_setup(mode, seed):
    """A folded (state, sampler, uniforms) at x = center = 0 with b_neg = b:
    every row and its mirror carry the same weight, so every gradient is
    exactly 0 and every step is null, while the rows' weights still differ."""
    rng = np.random.default_rng(seed)
    matrix = with_empty_column(random_sparse(rng, 9, 12, per_col=3))
    b = rng.normal(size=matrix.n_rows)
    if mode == "l2":
        params = LocalSmoothnessParams.l2(matrix, 0.4, float(matrix.n_cols), rows=18)
    else:
        params = LocalSmoothnessParams.diag(matrix, 0.4, d_floor=0.01, rows=18)
    state = SoftmaxState(matrix, b, 0.4, x0=np.zeros(matrix.n_cols), b_neg=b)
    sampler = CoordSampler(state, params)
    return state, sampler, BufferedUniforms(make_rng(seed, 7), block=64)


@pytest.mark.parametrize("mode", ["l2", "diag"])
def test_skipped_columns_are_never_drawn_and_never_move(mode):
    build, center = setup(mode, True, alpha=0.4, seed=3)
    state, sampler, uniforms = build()
    m = state.matrix.n_cols
    skip = np.zeros(m, dtype=bool)
    skip[::3] = True
    x_skipped = state.x[skip].copy()
    drawn = set()
    for _ in range(200):
        steps, _, j, _ = lcd_steps(state, sampler, center.tolist(), uniforms, 1, skip)
        assert steps == 1
        drawn.add(j)
    steps, moving, _, _ = lcd_steps(state, sampler, center.tolist(), uniforms, 500, skip)
    assert 0 < moving <= steps <= 500
    assert drawn.isdisjoint(np.flatnonzero(skip)) and len(drawn) > 1
    assert_same_bits(state.x[skip], x_skipped)
    assert sampler._synced_version == state.version


@pytest.mark.parametrize("mode", ["l2", "diag"])
def test_masked_law_is_the_full_law_conditioned_on_the_columns_left(mode):
    state, sampler, uniforms = still_setup(mode, seed=11)
    m = state.matrix.n_cols
    skip = np.zeros(m, dtype=bool)
    skip[[0, 4, 5, m - 1]] = True
    weights = np.array([sampler_weight(sampler, j) for j in range(m)])
    weights[skip] = 0.0
    center = [0.0] * m
    n = 40_000
    counts = np.zeros(m)
    for _ in range(n):
        steps, moving, j, _ = lcd_steps(state, sampler, center, uniforms, 1, skip)
        assert (steps, moving) == (1, 0)  # a null step leaves the law alone
        counts[j] += 1
    assert not counts[skip].any()
    keep = weights > 0
    expected = weights[keep] / weights.sum() * n
    assert stats.chisquare(counts[keep], expected).pvalue > 0.001


@pytest.mark.parametrize("mode", ["l2", "diag"])
def test_null_steps_skip_their_columns_for_the_rest_of_the_call(mode):
    state, sampler, uniforms = still_setup(mode, seed=12)
    m = state.matrix.n_cols
    skip = np.zeros(m, dtype=bool)
    skip[2] = True
    # each column left is drawn once, its step is null, and then it is out
    assert lcd_steps(state, sampler, [0.0] * m, uniforms, 10_000, skip)[:2] == (m - 1, 0)


def test_every_column_skipped_returns_at_once():
    build, center = setup("l2", True, alpha=0.4, seed=6)
    kernel, reference = build(), build()
    skip = np.ones(kernel[0].matrix.n_cols, dtype=bool)
    assert lcd_steps(kernel[0], kernel[1], center.tolist(), kernel[2], 10_000,
                     skip) == (0, 0, -1, 0.0)
    assert_identical(kernel, reference)  # not one uniform drawn


def test_regression_result_counts_moving_steps():
    rng = np.random.default_rng(1)
    matrix = random_sparse(rng, 6, 6, per_col=2)
    inst = RegressionInstance(matrix=matrix, b=rng.normal(size=6), epsilon=0.1)
    res = solve_box_linf(inst, seed=2)
    assert 0 < res.moving_steps <= res.sampled_coordinates
    # the rhs is met at x = 0, the warm start: nothing moves
    still = solve_box_linf(RegressionInstance(matrix=matrix, b=np.zeros(6),
                                              epsilon=0.1), seed=2)
    assert still.moving_steps == 0
