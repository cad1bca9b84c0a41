"""Instance substrate: sparse matrix views, sign doubling, box reduction, incidence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ReferenceSparse,
    box_linf_opt,
    dense_to_sparse,
    grid_search_min,
    random_sparse,
    triplet_error,
)
from linfflow.core import (
    RESIDUAL_DUAL_LEVELS,
    Certificate,
    RegressionInstance,
    SparseMatrix,
    read_matrix_file,
    reduce_to_unit_box,
    residual_dual_bounds,
    sign_double,
    weak_duality_bound,
    write_matrix_file,
)
from linfflow.errors import InputError
from linfflow.graphs import FlowNetwork, FlowSolution, incidence_apply, read_dimacs


class TestSparseMatrix:
    def test_identity_like(self):
        m = SparseMatrix.from_triplets([(0, 0, 1), (1, 1, 1)], 2, 2)
        assert m.norm_inf == 1.0
        assert m.max_col_nnz == 1
        np.testing.assert_allclose(m.col_maxabs, [1.0, 1.0])

    def test_row_l1_and_col_sparsity(self):
        m = SparseMatrix.from_triplets(
            [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)], 2, 2
        )
        assert m.norm_inf == 2.0
        np.testing.assert_allclose(m.row_l1, [2.0, 2.0])
        assert m.max_col_nnz == 2

    def test_views_agree_on_random_matrix(self):
        rng = np.random.default_rng(7)
        m = random_sparse(rng, 20, 30, per_col=5)
        col_trips = sorted(
            (int(i), j, float(v))
            for j in range(m.n_cols)
            for i, v in zip(*m.col(j))
        )
        row_trips = sorted(
            (i, int(j), float(v))
            for i in range(m.n_rows)
            for j, v in zip(*m.row(i))
        )
        assert col_trips == row_trips == m.triplets()

    def test_cached_norms_match_recompute(self):
        rng = np.random.default_rng(3)
        m = random_sparse(rng, 15, 12, per_col=4)
        dense = m.to_dense()
        np.testing.assert_allclose(m.col_maxabs, np.abs(dense).max(axis=0))
        np.testing.assert_allclose(m.row_l1, np.abs(dense).sum(axis=1))
        assert m.norm_inf == pytest.approx(np.abs(dense).sum(axis=1).max())

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError, match=r"\(2, 0\)"):
            SparseMatrix.from_triplets([(2, 0, 1.0)], 2, 2)

    def test_rejects_duplicates(self):
        with pytest.raises(InputError, match="duplicate"):
            SparseMatrix.from_triplets([(0, 0, 1.0), (0, 0, 2.0)], 2, 2)

    def test_rejects_stored_zero(self):
        with pytest.raises(InputError, match="zero"):
            SparseMatrix.from_triplets([(0, 0, 0.0)], 1, 1)

    @staticmethod
    def bad_triplets(n):
        return [(n, 0, 1.0), (-1, 1, 1.0), (0, n, 1.0), (2 ** 70, 0, 1.0), (1, 1, 5.0),
                (2, 3, 0.0), (2, 3, -0.0), (2, 3, float("nan")), (2, 3, float("inf")),
                (n, 1, float("nan")), (1, 1, 0.0)]

    @pytest.mark.parametrize("size", [20, 100], ids=["loop", "bulk"])
    @pytest.mark.parametrize("entry", ["triplets", "arrays"])
    def test_first_bad_entry_reported(self, entry, size):
        n = 12
        rng = np.random.default_rng(81)
        cells = rng.permutation(n * n)[:size].tolist()
        valid = [(c // n, c % n, float(rng.uniform(0.5, 2.0))) for c in cells
                 if c // n != 1 or c % n != 1]
        valid.insert(5, (1, 1, 3.0))  # repeated by (1, 1, 5.0) and (1, 1, 0.0)
        for bad in self.bad_triplets(n):
            for pos in (0, 20, len(valid)):
                for later in (None, (n, 0, 1.0), (0, 0, 0.0)):
                    trips = valid[:pos] + [bad] + valid[pos:]
                    if later is not None:
                        trips.append(later)
                    expected = triplet_error(trips, n, n)
                    if expected is None:
                        continue
                    with pytest.raises(InputError) as info:
                        if entry == "triplets":
                            SparseMatrix.from_triplets(trips, n, n)
                        else:
                            SparseMatrix.from_arrays(*zip(*trips), n, n)
                    assert str(info.value) == expected

    @pytest.mark.parametrize("n, n_cols", [(4, 8), (30, 40)], ids=["loop", "bulk"])
    def test_arrays_build_what_triplets_build(self, n, n_cols):
        rng = np.random.default_rng(82)
        m = random_sparse(rng, n, n_cols, per_col=3)
        trips = m.triplets()
        order = rng.permutation(len(trips))
        rows, cols, vals = (np.array(a)[order] for a in zip(*trips))
        built = SparseMatrix.from_arrays(rows, cols, vals, n, n_cols)
        assert built.triplets() == m.triplets()
        assert built.content_hash() == m.content_hash()

    def test_conversion_errors_keep_their_place(self):
        # a triplet that int() or float() rejects raises where the loop reaches it
        with pytest.raises(InputError, match="triplet 0: index"):
            SparseMatrix.from_triplets([(5, 0, 1.0), ("x", 0, 1.0)], 2, 2)
        with pytest.raises(ValueError, match="invalid literal"):
            SparseMatrix.from_triplets([(0, 0, 1.0), ("x", 0, 1.0)], 2, 2)
        with pytest.raises(ValueError):
            SparseMatrix.from_triplets([(0, 0, 1.0), (1, 1)], 2, 2)

    def test_matvec_against_dense(self):
        rng = np.random.default_rng(11)
        m = random_sparse(rng, 9, 14, per_col=3)
        x = rng.normal(size=14)
        p = rng.normal(size=9)
        dense = m.to_dense()
        np.testing.assert_allclose(m.dot(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(m.t_dot(p), dense.T @ p, atol=1e-12)

    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5),
                  st.floats(-10, 10).filter(lambda v: abs(v) > 1e-6)),
        min_size=1, max_size=20, unique_by=lambda t: (t[0], t[1]),
    ))
    @settings(max_examples=50, deadline=None)
    def test_triplet_round_trip(self, trips):
        m = SparseMatrix.from_triplets(trips, 6, 6)
        assert m.triplets() == sorted((i, j, float(v)) for i, j, v in trips)
        dense = m.to_dense()
        assert m.norm_inf == pytest.approx(np.abs(dense).sum(axis=1).max())


def _layout_case(rng, n_rows, n_cols, nnz, lo=-300.0, hi=140.0):
    """Unique random positions with magnitudes 10**U(lo, hi) and random signs."""
    idx = rng.choice(n_rows * n_cols, size=nnz, replace=False)
    vals = rng.choice([-1.0, 1.0], size=nnz) * 10.0 ** rng.uniform(lo, hi, size=nnz)
    return n_rows, n_cols, [(int(k // n_cols), int(k % n_cols), float(v))
                            for k, v in zip(idx, vals)]


def _assert_same_layout(n_rows, n_cols, trips):
    m = SparseMatrix.from_triplets(trips, n_rows, n_cols)
    rows, cols, vals = (np.array([t[k] for t in trips]) for k in range(3))
    ref = ReferenceSparse(n_rows, n_cols, rows.astype(np.int64), cols.astype(np.int64),
                          vals.astype(np.float64))
    for name in ("col_maxabs", "row_l1", "col_nnz"):
        got, want = getattr(m, name), getattr(ref, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), name
    for j in range(n_cols):
        for got, want in zip(m.col(j), ref.col(j)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    for i in range(n_rows):
        for got, want in zip(m.row(i), ref.row(i)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in zip(m.flat_entries(), ref.flat_entries()):
        assert np.array_equal(got, want)
    assert m.triplets() == ref.triplets()
    assert m.py_columns() == ref.py_columns()
    assert m.content_hash() == ref.content_hash()
    assert m.norm_inf == (float(ref.row_l1.max()) if n_rows else 0.0)
    return m


class TestSparseLayout:
    """The flat CSC/CSR storage against the per-column and per-row copies."""

    def test_one_by_one(self):
        _assert_same_layout(1, 1, [(0, 0, -2.5)])
        _assert_same_layout(1, 1, [])

    def test_empty_rows_and_columns(self):
        m = _assert_same_layout(5, 6, [(1, 4, 2.0), (1, 0, -1.0), (3, 4, 0.5)])
        assert m.col_nnz.tolist() == [1, 0, 0, 0, 2, 0]
        assert m.row_l1.tolist() == [0.0, 3.0, 0.0, 0.5, 0.0]
        assert m.col(1)[0].size == 0 and m.row(4)[1].size == 0

    def test_random_shapes_and_magnitudes(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n_rows, n_cols = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            nnz = int(rng.integers(0, n_rows * n_cols + 1))
            _assert_same_layout(*_layout_case(rng, n_rows, n_cols, nnz))

    def test_rows_of_one_to_sixty_entries(self):
        # row i holds i + 1 entries, so every length that pairwise summation
        # handles differently from a running sum is covered
        rng = np.random.default_rng(13)
        trips = []
        for i in range(60):
            for j in rng.choice(64, size=i + 1, replace=False):
                trips.append((i, int(j), float(rng.choice([-1.0, 1.0])
                                               * 10.0 ** rng.uniform(-300, 140))))
        _assert_same_layout(60, 64, trips)
        # entries of one scale, where the order of the additions shows in the
        # last bits of row_l1; given in shuffled order
        trips = [(i, j, float(rng.normal())) for i, j, _ in trips]
        rng.shuffle(trips)
        _assert_same_layout(60, 64, trips)

    def test_sign_doubled_matches_reference(self):
        # and so does the copy divided by a scale, which mirror-prox solves on
        rng = np.random.default_rng(14)
        m = random_sparse(rng, 12, 9, per_col=4)
        scaled = m.scaled(3.0)
        assert scaled.triplets() == [(i, j, v / 3.0) for i, j, v in m.triplets()]
        for d in (sign_double(m, np.zeros(12))[0], scaled):
            ref = ReferenceSparse(d.n_rows, d.n_cols, *d.flat_entries())
            for name in ("col_maxabs", "row_l1", "col_nnz"):
                assert np.array_equal(getattr(d, name), getattr(ref, name))
            assert d.py_columns() == ref.py_columns()

    def test_key_sort_is_the_lexsort_layout(self):
        # duplicate pairs stay adjacent and in input order, which from_arrays'
        # duplicate check needs; the private constructor takes them unchecked
        rng = np.random.default_rng(15)
        for _ in range(60):
            n_rows, n_cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            nnz = int(rng.integers(0, 200))
            rows = rng.integers(0, n_rows, nnz)
            cols = rng.integers(0, n_cols, nnz)
            vals = rng.normal(size=nnz)
            m = SparseMatrix(n_rows, n_cols, rows, cols, vals, _private=True)
            csc, csr = np.lexsort((rows, cols)), np.lexsort((cols, rows))
            got = m.flat_entries() + m.row_entries()
            want = (rows[csc], cols[csc], vals[csc], cols[csr], vals[csr])
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_views_are_read_only(self):
        m = SparseMatrix.from_triplets([(0, 1, 2.0), (1, 0, -1.0)], 2, 2)
        arrays = [*m.col(1), *m.row(0), *m.flat_entries(), *m.row_entries(),
                  m.col_ptr, m.row_ptr, m.col_maxabs, m.row_l1, m.col_nnz]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        assert m.triplets() == [(0, 1, 2.0), (1, 0, -1.0)]

    @pytest.mark.parametrize("size", [10**5, 10**6])
    def test_huge_dimensions_few_entries(self, size):
        trips = [(0, size - 1, 3.0), (size - 1, 0, -4.0), (size // 2, size // 2, 0.5)]
        m = SparseMatrix.from_triplets(trips, size, size)
        assert m.norm_inf == 4.0 and m.max_col_nnz == 1
        assert m.triplets() == sorted(trips)
        assert m.col(size - 1)[0].tolist() == [0]
        assert m.row(size - 1)[0].tolist() == [0]
        assert int(m.col_nnz.sum()) == 3 and len(m.row_ptr) == size + 1


class TestSignDouble:
    def test_scalar_case(self):
        m = SparseMatrix.from_triplets([(0, 0, 2.0)], 1, 1)
        d, b2 = sign_double(m, np.array([3.0]))
        np.testing.assert_allclose(d.to_dense(), [[2.0], [-2.0]])
        np.testing.assert_allclose(b2, [3.0, -3.0])

    def test_max_entry_equals_sup_norm(self):
        m = dense_to_sparse([[1.0, 2.0], [3.0, -1.0]])
        d, b2 = sign_double(m, np.array([0.5, -0.5]))
        x = np.array([0.3, -0.9])
        res = m.dot(x) - np.array([0.5, -0.5])
        assert (d.dot(x) - b2).max() == pytest.approx(np.abs(res).max())

    def test_random_dense_evaluation(self):
        rng = np.random.default_rng(5)
        m = random_sparse(rng, 10, 10, per_col=4)
        b = rng.normal(size=10)
        d, b2 = sign_double(m, b)
        assert d.n_rows == 20
        for _ in range(100):
            x = rng.uniform(-1, 1, size=10)
            lhs = (d.dot(x) - b2).max()
            rhs = np.abs(m.dot(x) - b).max()
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestResidualDualBounds:
    """The softmax duals of a residual, each a weak-duality bound."""

    def test_never_exceeds_lp_optimum(self):
        rng = np.random.default_rng(12)
        for _ in range(24):
            n, m = int(rng.integers(2, 14)), int(rng.integers(1, 14))
            matrix = random_sparse(rng, n, m, per_col=3)
            b = rng.normal(size=n) * float(rng.choice([0.2, 1.0, 5.0]))
            opt, x_star = box_linf_opt(matrix.to_dense(), b)
            eps = float(rng.choice([1e-3, 0.1, 1.0]))
            for x in (np.zeros(m), rng.uniform(-1, 1, m), np.clip(x_star, -1, 1)):
                bounds = residual_dual_bounds(matrix, b, matrix.dot(x) - b, eps)
                assert bounds.shape == (RESIDUAL_DUAL_LEVELS + 1,)
                assert bounds.max() <= opt + 1e-9

    def test_hard_max_is_the_signed_one_hot(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            matrix = random_sparse(rng, n, m, per_col=3)
            b = rng.normal(size=n)
            r = matrix.dot(rng.uniform(-1, 1, m)) - b
            i = int(np.argmax(np.abs(r)))
            q = np.zeros(n)
            q[i] = 1.0 if r[i] >= 0 else -1.0
            bounds = residual_dual_bounds(matrix, b, r, 0.1)
            assert bounds[-1] == weak_duality_bound(matrix, b, q)

    def test_softmax_candidates_are_folded_duals(self):
        matrix = dense_to_sparse([[1.0, -2.0], [0.5, 0.0], [0.0, 3.0]])
        b = np.array([0.3, -1.0, 2.0])
        r = matrix.dot(np.array([0.4, -0.7])) - b
        bounds = residual_dual_bounds(matrix, b, r, 0.5)
        v = np.concatenate([r, -r])
        for k in range(RESIDUAL_DUAL_LEVELS):
            w = np.exp((v - v.max()) / (0.5 * 2.0 ** -k))
            p = w / w.sum()
            want = weak_duality_bound(matrix, b, p[:3] - p[3:])
            assert bounds[k] == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("r", [[2.0, -2.0, 2.0], [0.0, 0.0, 0.0],
                                   [1e300, -1e300, 0.0]])
    @pytest.mark.parametrize("eps", [5e-324, 1e-3, 1.0, 1e300])
    def test_ties_and_zero_residuals_finite(self, r, eps):
        matrix = dense_to_sparse([[1.0, 0.5], [0.5, -1.0], [0.0, 1.0]])
        b = np.array([0.2, -0.4, 0.1])
        with np.errstate(over="ignore"):
            bounds = residual_dual_bounds(matrix, b, np.array(r), eps)
        assert np.isfinite(bounds).all()
        if not any(r):
            # the softmax of a zero residual is uniform and folds to q = 0
            assert (bounds[:-1] == 0.0).all()


class TestCertificate:
    def test_stop_order(self):
        # the offer below meets all three tests at once: certified wins
        both = dict(value_target=10.0, lb_target=-10.0)
        cert = Certificate(np.zeros(2), 5.0, eps=0.5, **both)
        assert cert.stop_reason is None
        assert cert.offer(np.ones(2), 1.0, 0.75)
        assert cert.stop_reason == "certified"
        # value_target before lb_target
        cert = Certificate(np.zeros(2), 5.0, eps=0.5, **both)
        assert cert.offer(bound=0.0) and cert.stop_reason == "value_target"
        cert = Certificate(np.zeros(2), 50.0, eps=0.5, **both)
        assert cert.offer(bound=0.0) and cert.stop_reason == "lb_target"
        # no target set and a wide gap: no reason
        cert = Certificate(np.zeros(2), 50.0, eps=0.5)
        assert not cert.offer(np.ones(2), 40.0, 0.0)
        assert cert.stop_reason is None

    def test_the_start_point_is_not_tested(self):
        cert = Certificate(np.zeros(2), 1.0, eps=0.5, value_target=10.0)
        assert cert.stop_reason is None and cert.bound == -np.inf

    def test_first_reason_is_kept(self):
        cert = Certificate(np.zeros(2), 50.0, eps=0.5, value_target=10.0,
                           lb_target=5.0)
        assert cert.offer(bound=6.0) and cert.stop_reason == "lb_target"
        assert cert.offer(np.ones(2), 6.25, 6.0)  # now certified and on target
        assert cert.stop_reason == "lb_target"
        assert cert.value == 6.25

    def test_gap_is_value_minus_best_bound(self):
        cert = Certificate(np.zeros(3), 4.0, eps=1e-3)
        cert.offer(np.ones(3), 3.0, 1.0)
        cert.offer(np.full(3, 2.0), 3.5, 0.5)  # worse point, worse bound
        assert (cert.value, cert.bound) == (3.0, 1.0)
        assert cert.gap == cert.value - cert.bound == 2.0
        np.testing.assert_array_equal(cert.x, np.ones(3))

    def test_stored_point_is_a_copy(self):
        x0, x1 = np.zeros(2), np.ones(2)
        cert = Certificate(x0, 4.0, eps=1e-3)
        x0[0] = 7.0
        assert cert.x[0] == 0.0
        cert.offer(x1, 2.0)
        x1[:] = 9.0
        np.testing.assert_array_equal(cert.x, [1.0, 1.0])

    def test_targets_compare_in_scaled_units(self):
        # the ledger holds solver units; the targets are in instance units
        cert = Certificate(np.zeros(1), 0.3, eps=1e-3, scale=4.0, value_target=1.0)
        assert not cert.meets_value_target(0.3)
        assert cert.meets_value_target(0.25)
        assert not cert.offer(bound=0.0)
        assert cert.offer(np.ones(1), 0.25) and cert.stop_reason == "value_target"
        cert = Certificate(np.zeros(1), 5.0, eps=1e-3, scale=4.0, lb_target=2.0)
        assert not cert.offer(bound=0.5)  # 2.0 is not above 2.0
        assert cert.offer(bound=0.5000001) and cert.stop_reason == "lb_target"
        # eps is in solver units: no scaling
        cert = Certificate(np.zeros(1), 1.0, eps=0.5, scale=4.0)
        assert cert.offer(bound=0.5) and cert.stop_reason == "certified"

    def test_result_is_in_target_units(self):
        cert = Certificate(np.zeros(1), 5.0, eps=1e-3, scale=4.0)
        cert.offer(np.ones(1), 3.0, 1.0)
        res = cert.result(9, [(0, 12, "12.0", "4.0")],
                          "phase,iterations,value,lower_bound", 12)
        assert (res.value, res.gap, res.certified) == (12.0, 8.0, False)
        assert res.stop_reason == "outer_budget"  # no test held
        assert (res.outer_iterations, res.sampled_coordinates, res.seed) == (1, 12, 9)
        np.testing.assert_array_equal(res.x, [1.0])
        assert res.transcript_csv() == "phase,iterations,value,lower_bound\n0,12,12.0,4.0\n"


class TestReduceToUnitBox:
    def test_identity_when_already_unit(self):
        m = dense_to_sparse(np.eye(2))
        inst = RegressionInstance(matrix=m, b=np.array([0.5, 0.5]), radius=1.0)
        unit, box = reduce_to_unit_box(inst)
        np.testing.assert_allclose(unit.b, inst.b)
        x = np.array([0.3, -0.7])
        np.testing.assert_allclose(box.back(x), x)

    def test_two_dim_closed_form(self):
        m = dense_to_sparse(np.eye(2))
        inst = RegressionInstance(matrix=m, b=np.array([4.0, 4.0]), radius=2.0)
        unit, box = reduce_to_unit_box(inst)
        np.testing.assert_allclose(unit.b, [2.0, 2.0])
        assert unit.radius == 1.0
        # per-coordinate the unit-box minimizer clamps at 1
        x_tilde = np.array([1.0, 1.0])
        x = box.back(x_tilde)
        np.testing.assert_allclose(x, [2.0, 2.0])
        assert inst.value_at(x) == pytest.approx(2.0)

    def test_unconstrained_promise_against_grid(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 2))
        m = dense_to_sparse(a)
        b = rng.normal(size=2) * 0.5
        x0 = rng.uniform(-0.2, 0.2, size=2)
        r = 1.5
        inst = RegressionInstance(matrix=m, b=b, radius=r, epsilon=1e-2)
        unit, box = reduce_to_unit_box(inst, x0=x0)
        # minimize the reduced problem by grid search, map back, compare with
        # a grid search on the original box around x0
        val_u, x_u = grid_search_min(
            lambda z: np.abs(z @ a.T - unit.b).max(axis=1), dims=2, resolution=2e-3
        )
        x_back = box.back(x_u)
        val_orig, _ = grid_search_min(
            lambda z: np.abs((x0 + r * z) @ a.T - b).max(axis=1), dims=2,
            resolution=2e-3
        )
        assert inst.value_at(x_back) <= val_orig * r / r + 1e-2

    def test_round_trip(self):
        m = dense_to_sparse(np.eye(3))
        inst = RegressionInstance(matrix=m, b=np.zeros(3), radius=2.5)
        _, box = reduce_to_unit_box(inst, x0=np.array([0.1, -0.2, 0.3]))
        x = np.array([0.7, -1.4, 2.0])
        np.testing.assert_allclose(box.back(box.forward(x)), x, atol=1e-12)

    def test_rejects_bad_radius(self):
        m = dense_to_sparse(np.eye(2))
        with pytest.raises(InputError, match="radius"):
            RegressionInstance(matrix=m, b=np.zeros(2), radius=-1.0)


class TestFlowNetwork:
    @pytest.mark.parametrize("n", [0, -1])
    def test_no_vertices_rejected(self, n):
        with pytest.raises(InputError, match="at least one vertex"):
            FlowNetwork(n, [])

    def test_single_edge_incidence(self):
        net = FlowNetwork(2, [(0, 1, 1.0)], source=0, sink=1)
        np.testing.assert_allclose(incidence_apply(net, np.array([1.0])), [-1.0, 1.0])

    def test_cycle_circulation_conserves(self):
        net = FlowNetwork(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        # unit circulation around the triangle honoring stored orientations
        f = np.array([1.0, 1.0, -1.0])
        np.testing.assert_allclose(incidence_apply(net, f), 0.0, atol=1e-12)

    def test_incidence_matches_dense(self):
        rng = np.random.default_rng(2)
        from helpers import random_connected_graph

        net = random_connected_graph(rng, 12, extra_edges=10)
        f = rng.normal(size=net.m)
        dense = np.zeros((net.n, net.m))
        for e, (u, v) in enumerate(zip(net.tails, net.heads)):
            dense[u, e] = -1.0
            dense[v, e] = 1.0
        np.testing.assert_allclose(incidence_apply(net, f), dense @ f, atol=1e-12)

    def test_rejects_length_mismatch(self):
        net = FlowNetwork(2, [(0, 1, 1.0)])
        with pytest.raises(InputError):
            incidence_apply(net, np.array([1.0, 2.0]))

    def test_rejects_disconnected(self):
        with pytest.raises(InputError, match="connected"):
            FlowNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_flow_solution_congestion_exact(self):
        net = FlowNetwork(2, [(0, 1, 4.0)], source=0, sink=1)
        sol = FlowSolution.from_flow(net, np.array([2.0]))
        assert sol.congestion[0] == 0.5
        assert sol.value == pytest.approx(2.0)

    def test_undirected_orientation_lexicographic(self):
        net = FlowNetwork(3, [(2, 0, 1.0), (1, 2, 1.0)])
        assert list(net.tails) == [0, 1]
        assert list(net.heads) == [2, 2]


class TestFileFormats:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = random_sparse(rng, 6, 8, per_col=2)
        b = rng.normal(size=6)
        path = tmp_path / "m.linf"
        write_matrix_file(path, m, b)
        m2, b2 = read_matrix_file(path)
        assert m2.triplets() == m.triplets()
        np.testing.assert_allclose(b2, b)

    def test_matrix_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.linf"
        path.write_text("linf-matrix v1 2 2 1\n0 0 not-a-number\n")
        with pytest.raises(InputError, match="bad.linf:2"):
            read_matrix_file(path)

    @pytest.mark.parametrize("body, message", [
        ("0 0 1.0\n1 1 2.0\n0 0 3.0\n", "triplet 2: duplicate entry at (0, 0)"),
        ("0 0 1.0\n99999999999999999999 1 2.0\n0 1 3.0\n",
         "triplet 1: index (99999999999999999999, 1) out of range for 2x2"),
        ("0 0 1.0\n1 1 0.0\n0 1 3.0\n", "triplet 1: explicit zero at (1, 1)"),
        ("0 0 1.0\n1 1 nan\n0 1 3.0\n", "triplet 1: non-finite value nan at (1, 1)"),
    ])
    def test_matrix_entry_errors_name_the_entry(self, tmp_path, body, message):
        path = tmp_path / "bad.linf"
        path.write_text("linf-matrix v1 2 2 3\n" + body)
        with pytest.raises(InputError) as info:
            read_matrix_file(path)
        assert str(info.value) == f"{path}: {message}"

    def test_dimacs_round_trip(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text(
            "c undirected\np max 3 2\nn 1 s\nn 3 t\na 1 2 1\na 2 3 1\n"
        )
        net = read_dimacs(path)
        assert not net.directed
        assert net.source == 0 and net.sink == 2
        assert net.m == 2

    def test_dimacs_missing_terminal(self, tmp_path):
        path = tmp_path / "g.dimacs"
        path.write_text("p max 2 1\nn 1 s\na 1 2 1\n")
        with pytest.raises(InputError, match="sink"):
            read_dimacs(path)


def test_lp_oracle_consistency():
    # the LP oracle itself against a closed-form instance: A = I, b = (2, -2)
    val, x = box_linf_opt(np.eye(2), np.array([2.0, -2.0]))
    assert val == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(x, [1.0, -1.0], atol=1e-9)
