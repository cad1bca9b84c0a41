"""Sum tree, prefix-sum laws, and the smoothness-weight mixture sampler."""

import math

import numpy as np
import pytest
from scipy import stats

from helpers import ReferenceSparse, random_sparse
from linfflow.errors import InputError, SolverFault
from linfflow.sampling import (
    BufferedUniforms,
    CoordSampler,
    DynamicTree,
    StaticAlias,
    make_rng,
)
from linfflow.smoothing import LocalSmoothnessParams, SoftmaxState
from reference_steps import local_smoothness, sampler_weight, total_mass, tree_total


def uniforms(seed=0, stream=0):
    return BufferedUniforms(make_rng(seed, stream))


class TestDynamicTree:
    def test_single_live_leaf(self):
        t = DynamicTree([0.0, 0.0, 0.0, 0.0])
        t.update(0, 1.0)
        assert tree_total(t) == 1.0
        u = uniforms()
        assert all(t.sample(u) == 0 for _ in range(50))

    def test_uniform_total(self):
        t = DynamicTree([1.0] * 8)
        assert tree_total(t) == 8.0

    def test_total_tracks_many_updates(self):
        rng = np.random.default_rng(0)
        n = 64
        w = rng.random(n)
        t = DynamicTree(w)
        for _ in range(100_000):
            i = int(rng.integers(0, n))
            w[i] = float(rng.random())
            t.update(i, w[i])
        assert tree_total(t) == pytest.approx(w.sum(), rel=1e-9)

    def test_rejects_negative(self):
        t = DynamicTree([1.0, 2.0])
        with pytest.raises(InputError):
            t.update(0, -1.0)

    def test_rejects_empty_total(self):
        t = DynamicTree([0.0, 0.0])
        with pytest.raises(SolverFault):
            t.sample(uniforms())

    def test_degenerate_weight_vector(self):
        t = DynamicTree([1.0, 0.0, 0.0])
        u = uniforms(3)
        assert all(t.sample(u) == 0 for _ in range(100))

    def test_two_leaf_frequencies(self):
        t = DynamicTree([1.0, 1.0])
        u = uniforms(1)
        n = 100_000
        hits = sum(t.sample(u) for _ in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(hits - n / 2) <= 3 * sigma

    def test_chi_square_against_exact_law(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        t = DynamicTree(w)
        u = uniforms(2)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[t.sample(u)] += 1
        expected = w / w.sum() * n
        assert stats.chisquare(counts, expected).pvalue > 0.001

    def test_touched_nodes_logarithmic(self):
        t = DynamicTree([1.0] * 128)
        before = t.touched_nodes
        t.update(5, 2.0)
        assert t.touched_nodes - before <= math.ceil(math.log2(128)) + 1


class TestStaticAlias:
    def test_point_mass(self):
        a = StaticAlias([0.0, 1.0, 0.0])
        u = uniforms(4)
        assert all(a.sample(u) == 1 for _ in range(100))

    def test_frequencies(self):
        w = np.array([0.5, 1.0, 2.5, 1.0, 5.0])
        a = StaticAlias(w)
        u = uniforms(5)
        n = 100_000
        counts = np.zeros(5)
        for _ in range(n):
            counts[a.sample(u)] += 1
        expected = w / w.sum() * n
        assert stats.chisquare(counts, expected).pvalue > 0.001

    def test_rejects_all_zero(self):
        with pytest.raises(InputError):
            StaticAlias([0.0, 0.0])


# the extreme uniforms: the largest float below 1 maps to the top of a law
LAST_U = 1.0 - 2.0 ** -53


class FixedUniforms:
    """Hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = iter(values)

    def next(self):
        return next(self.values)


class TestZeroWeights:
    """A weight-0 entry repeats its predecessor's prefix sum, so no uniform
    draws it, at either end of [0, 1) and wherever it sits in the law."""

    LAWS = ([0.0, 1.0, 0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [3.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.5], [0.0, 4.0, 0.0])

    def test_static_alias(self):
        for w in self.LAWS:
            a = StaticAlias(w)
            for u in (0.0, LAST_U):
                assert w[a.sample(FixedUniforms([u]))] > 0.0

    def test_subnormal_total_stays_in_range(self):
        # u * total rounds up to total, past every prefix sum
        for w in ([5e-324], [5e-324, 0.0], [1e-320, 0.0, 0.0], [0.0, 1e-310]):
            a = StaticAlias(w)
            assert LAST_U * a.total == a.total
            assert a.sample(FixedUniforms([LAST_U])) < len(w)

    def sampler(self, trips, n_cols, mode, alpha=0.5):
        from linfflow.core import SparseMatrix

        matrix = SparseMatrix.from_triplets(trips, 1, n_cols)
        state = SoftmaxState(matrix, np.zeros(1), alpha)
        if mode == "l2":
            params = LocalSmoothnessParams.l2(matrix, alpha, 1.0)
        else:
            params = LocalSmoothnessParams.diag(matrix, alpha, d_floor=0.0)
        return CoordSampler(state, params)

    @staticmethod
    def last_u_takes_dynamic_branch(sampler):
        dyn = sampler.dyn_coeff * sampler.tree.nodes[1]
        stat = sampler.static_mass * sampler.state.z
        return not LAST_U * (stat + dyn) < stat

    def test_coord_sampler_row_law(self):
        # |A_0j| * colmax_j underflows to 0 in columns 0, 2 and 4
        tiny = 1e-200
        sampler = self.sampler([(0, j, tiny if j % 2 == 0 else 1.0) for j in range(5)],
                               5, "l2")
        assert sampler.row_cdf[0] == ([0, 1, 2, 3, 4], [0.0, 1.0, 1.0, 2.0, 2.0])
        assert self.last_u_takes_dynamic_branch(sampler)
        for u in (0.0, LAST_U):
            # one row, so no tree descent
            assert sampler.sample(FixedUniforms([LAST_U, u])) in (1, 3)

    def test_coord_sampler_static_law(self):
        # diag with a zero floor gives the empty columns 0, 2 and 4 no weight
        sampler = self.sampler([(0, 1, 1.0), (0, 3, -2.0)], 5, "diag")
        assert [w > 0 for w in sampler.params.sample_static] == [
            False, True, False, True, False]
        for u in (0.0, LAST_U):
            # 0 takes the static branch
            assert sampler.sample(FixedUniforms([0.0, u])) in (1, 3)

    def test_coord_sampler_subnormal_row_total(self):
        # the row's weights are 1e-320 and 0; a tiny alpha keeps the dynamic
        # branch's mass above 0
        sampler = self.sampler([(0, 0, 1e-160), (0, 1, 1e-200)], 2, "l2", alpha=1e-300)
        _, cum = sampler.row_cdf[0]
        assert cum[-1] < np.finfo(float).tiny and LAST_U * cum[-1] == cum[-1]
        assert self.last_u_takes_dynamic_branch(sampler)
        assert sampler.sample(FixedUniforms([LAST_U, LAST_U])) < 2


class TestMixtureSampler:
    def make(self, rng, n, m, alpha=0.5, s=None, mode="l2", per_col=3):
        matrix = random_sparse(rng, n, m, per_col=per_col)
        b = rng.normal(size=n)
        state = SoftmaxState(matrix, b, alpha, x0=rng.uniform(-1, 1, m))
        if mode == "l2":
            params = LocalSmoothnessParams.l2(matrix, alpha, s or float(m))
        else:
            params = LocalSmoothnessParams.diag(matrix, alpha, d_floor=1e-6)
        return state, params, CoordSampler(state, params)

    def test_single_column(self):
        from linfflow.core import SparseMatrix

        matrix = SparseMatrix.from_triplets([(0, 0, 1.0)], 1, 1)
        state = SoftmaxState(matrix, np.zeros(1), 1.0)
        params = LocalSmoothnessParams.l2(matrix, 1.0, 1.0)
        sampler = CoordSampler(state, params)
        u = uniforms(6)
        assert all(sampler.sample(u) == 0 for _ in range(50))

    def test_symmetric_columns(self):
        from linfflow.core import SparseMatrix

        matrix = SparseMatrix.from_triplets([(0, 0, 1.0), (1, 1, 1.0)], 2, 2)
        state = SoftmaxState(matrix, np.zeros(2), 1.0)
        params = LocalSmoothnessParams.l2(matrix, 1.0, 1.0)
        sampler = CoordSampler(state, params)
        u = uniforms(7)
        n = 100_000
        hits = sum(sampler.sample(u) for _ in range(n))
        assert abs(hits - n / 2) <= 3 * math.sqrt(n * 0.25)

    def test_matches_dense_weights(self):
        rng = np.random.default_rng(11)
        state, params, sampler = self.make(rng, 10, 15, alpha=0.4)
        u = uniforms(8)
        n = 100_000
        counts = np.zeros(15)
        for _ in range(n):
            counts[sampler.sample(u)] += 1
        dense = np.array([local_smoothness(state, j, params) for j in range(15)])
        expected = dense / dense.sum() * n
        assert stats.chisquare(counts, expected).pvalue > 0.001

    @pytest.mark.parametrize("mode", ["l2", "diag"])
    def test_weight_matches_local_smoothness(self, mode):
        rng = np.random.default_rng(12)
        state, params, sampler = self.make(rng, 8, 10, mode=mode)
        for j in range(10):
            lj = local_smoothness(state, j, params)
            expect = lj / params.d[j]
            assert sampler_weight(sampler, j) == pytest.approx(expect, rel=1e-12)

    def test_total_mass_tracks_dense_sum(self):
        rng = np.random.default_rng(13)
        state, params, sampler = self.make(rng, 12, 9)
        u = uniforms(9)
        for _ in range(500):
            j = int(rng.integers(0, 9))
            sampler.step(j, float(rng.normal() * 0.1))
        dense = sum(local_smoothness(state, j, params) for j in range(9))
        assert total_mass(sampler) == pytest.approx(dense, rel=1e-8)

    def test_stale_state_rejected(self):
        rng = np.random.default_rng(14)
        state, params, sampler = self.make(rng, 6, 6)
        state.apply_coord_update(0, 0.1)  # bypasses the sampler
        with pytest.raises(SolverFault, match="sync"):
            sampler.sample(uniforms(10))

    def test_survives_state_rebuild(self):
        rng = np.random.default_rng(15)
        state, params, sampler = self.make(rng, 6, 6, alpha=0.05)
        # large moves force log-weight rebuilds; sampler must resync
        for k in range(50):
            sampler.step(k % 6, 0.9 if k % 2 == 0 else -0.9)
        dense = sum(local_smoothness(state, j, params) for j in range(6))
        assert total_mass(sampler) == pytest.approx(dense, rel=1e-8)

    def test_touched_nodes_per_step(self):
        rng = np.random.default_rng(16)
        state, params, sampler = self.make(rng, 64, 40, per_col=5)
        c = state.matrix.max_col_nnz
        cap = c * (math.ceil(math.log2(sampler.tree.size)) + 1)
        for _ in range(200):
            j = int(rng.integers(0, 40))
            before = sampler.tree.touched_nodes
            sampler.step(j, float(rng.normal() * 0.05))
            assert sampler.tree.touched_nodes - before <= cap


def reference_row_tables(matrix, params):
    """The per-row prefix sums and row masses, built entry by entry over the
    per-row copies of ``ReferenceSparse``."""
    ref = ReferenceSparse(matrix.n_rows, matrix.n_cols, *matrix.flat_entries())
    tables, mass = [], np.zeros(matrix.n_rows)
    for i in range(matrix.n_rows):
        cols, vals = ref.row(i)
        cum, total = [], 0.0
        for j, v in zip(cols, vals):
            total += float(abs(v) * ref.col_maxabs[j] / params.d[j])
            cum.append(total)
        mass[i] = total
        tables.append((cols.tolist(), cum) if total > 0 else None)
    return tables, mass


class TestRowTables:
    """CoordSampler's per-row tables, computed over the row-major arrays,
    against the entry-by-entry construction."""

    def cases(self):
        rng = np.random.default_rng(31)
        for k in range(12):
            n, m = int(rng.integers(2, 40)), int(rng.integers(2, 40))
            matrix = random_sparse(rng, n, m, per_col=int(rng.integers(1, 8)),
                                   scale=float(10.0 ** rng.uniform(-3, 3)))
            yield matrix, SoftmaxState(matrix, rng.normal(size=n), 0.5)

    def test_l2(self):
        for matrix, state in self.cases():
            params = LocalSmoothnessParams.l2(matrix, 0.5, float(matrix.n_cols))
            sampler = CoordSampler(state, params)
            tables, mass = reference_row_tables(matrix, params)
            assert np.array_equal(sampler.row_mass, mass)
            assert sampler.row_cdf == tables

    def test_diag_with_zero_d_floor(self):
        for matrix, state in self.cases():
            params = LocalSmoothnessParams.diag(matrix, 0.5, d_floor=0.0)
            sampler = CoordSampler(state, params)
            tables, mass = reference_row_tables(matrix, params)
            assert np.array_equal(sampler.row_mass, mass)
            assert sampler.row_cdf == tables


def test_make_rng_streams_differ_and_reproduce():
    a1 = make_rng(42, 0).random(5)
    a2 = make_rng(42, 0).random(5)
    b = make_rng(42, 1).random(5)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)

