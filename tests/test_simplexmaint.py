"""Simplex maintainer versus the dense-recursion oracle twin."""

import math

import numpy as np
import pytest
from scipy import stats

from helpers import debug_dump, rep_triple
from linfflow.errors import InputError, SolverFault
from linfflow.sampling import BufferedUniforms, make_rng
from simplex_maintainer import ReferenceSimplex, SimplexMaintainer, taylor_degree


def uniforms(seed=0, stream=0):
    return BufferedUniforms(make_rng(seed, stream))


def make_pair(v0, eps=0.05, kappa=None, tau=1e-6, n=None, kind="maintainer"):
    """(structure under test, dense oracle); ``kind`` picks the structure."""
    v0 = np.asarray(v0, dtype=float)
    n = len(v0)
    kappa = kappa if kappa is not None else 16.0 * n + 4.0
    under_test = (SimplexMaintainer(v0, eps, kappa, tau=tau) if kind == "maintainer"
                  else ReferenceSimplex(v0, eps, kappa))
    return under_test, ReferenceSimplex(v0, eps, kappa)


def random_delta_stream(rng, n, steps, flips_per_step=2):
    """Dense vectors bounded by 1/(8n) whose consecutive diffs are sparse."""
    cap = 1.0 / (8.0 * n)
    delta = rng.uniform(-cap, cap, size=n)
    out = [delta.copy()]
    for _ in range(steps - 1):
        delta = delta.copy()
        for _ in range(flips_per_step):
            delta[rng.integers(0, n)] = rng.uniform(-cap, cap)
        out.append(delta.copy())
    return out


def drive(maint, ref, rng, steps, n, zeta_scale=0.2, zeta_count=2, check_every=None,
          tol=1e-6, check_half=True):
    """Run both structures in lockstep, comparing full distributions periodically."""
    deltas = random_delta_stream(rng, n, steps)
    for k, delta in enumerate(deltas):
        zeta = []
        for _ in range(zeta_count):
            if rng.random() < 0.7:
                zeta.append((int(rng.integers(0, n)),
                             float(rng.uniform(-zeta_scale, zeta_scale))))
        maint.update_half(delta)
        ref.update_half(delta)
        if check_half and (check_every and k % check_every == 0):
            yh = ref.y_half()
            for i in range(n):
                assert maint.coord_half(i) == pytest.approx(yh[i], rel=tol)
        maint.update(delta, zeta)
        ref.update(delta, zeta)
        if check_every and k % check_every == check_every - 1:
            y = ref.y()
            for i in range(n):
                assert maint.coord(i) == pytest.approx(y[i], rel=tol)
    return maint, ref


class TestInit:
    def test_singleton_simplex(self):
        m, _ = make_pair([0.7])
        assert m.coord(0) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_anchor(self):
        m, _ = make_pair(np.zeros(8))
        for i in range(8):
            assert m.coord(i) == pytest.approx(1.0 / 8.0, rel=1e-9)

    def test_random_anchor_matches_softmax(self):
        rng = np.random.default_rng(0)
        v0 = rng.normal(size=64) * 2.0
        m, ref = make_pair(v0)
        y = ref.y()
        for i in range(64):
            assert m.coord(i) == pytest.approx(y[i], rel=1e-6)

    def test_rejects_bad_args(self):
        with pytest.raises(InputError):
            SimplexMaintainer(np.zeros(4), eps=-1.0, kappa=64.0)
        with pytest.raises(InputError):
            SimplexMaintainer(np.zeros(0), eps=0.1, kappa=64.0)

    def test_taylor_degree_floor_and_growth(self):
        assert taylor_degree(1e-6) >= 8
        assert taylor_degree(1e-12) > taylor_degree(1e-6)


class TestRepInvariant:
    def test_triple_matches_naive_recursion(self):
        rng = np.random.default_rng(1)
        n = 32
        v0 = rng.normal(size=n)
        m, _ = make_pair(v0, eps=0.05)
        c = m.c
        # naive triple histories
        v = v0 - v0.max()
        v_prev = (v + (1 - c) * np.zeros(n)) / m._c2
        vh_prev = ((1 - c) * v) / m._c2
        deltas = random_delta_stream(rng, n, n)
        naive_v, naive_vh, naive_vm1 = v.copy(), None, None
        hist = [v.copy()]
        half_hist = []
        zprev = np.zeros(n)
        dprev = np.zeros(n)
        for delta in deltas:
            zeta = np.zeros(n)
            j = int(rng.integers(0, n))
            zeta[j] = rng.uniform(-0.2, 0.2)
            m.update_half(delta)
            m.update(delta, [(j, float(zeta[j]))])
            vh = (1 - c) * naive_v - delta
            vnew = naive_v - c * vh - delta - zeta
            half_hist.append(vh.copy())
            hist.append(vnew.copy())
            naive_v = vnew
        rep_v, rep_vh, rep_vm1 = rep_triple(m)
        np.testing.assert_allclose(rep_v, hist[-1], atol=1e-8)
        np.testing.assert_allclose(rep_vh, half_hist[-1], atol=1e-8)
        np.testing.assert_allclose(rep_vm1, hist[-2], atol=1e-8)


class TestUpdate:
    def test_noop_update_preserves_coords(self):
        rng = np.random.default_rng(2)
        v0 = rng.normal(size=16)
        m, ref = make_pair(v0)
        before = [m.coord(i) for i in range(16)]
        zero = np.zeros(16)
        m.update_half(zero)
        m.update(zero, [])
        ref.update(zero, [])
        y = ref.y()
        for i in range(16):
            assert m.coord(i) == pytest.approx(y[i], rel=1e-6)
            # c is tiny, so the distribution barely moves
            assert m.coord(i) == pytest.approx(before[i], rel=1e-3)

    def test_ln2_zeta_doubles_relative_weight(self):
        rng = np.random.default_rng(3)
        v0 = rng.normal(size=8)
        m, ref = make_pair(v0)
        zero = np.zeros(8)
        before_ratio = m.coord(3) / m.coord(5)
        m.update_half(zero)
        m.update(zero, [(3, -math.log(2.0))])  # zeta is subtracted
        ref.update(zero, [(3, -math.log(2.0))])
        after_ratio = m.coord(3) / m.coord(5)
        # v_3 rose by ln 2 minus the tiny c-mixing; ratio about doubles
        assert after_ratio / before_ratio == pytest.approx(2.0, rel=1e-3)
        y = ref.y()
        for i in range(8):
            assert m.coord(i) == pytest.approx(y[i], rel=1e-6)

    def test_long_random_run_matches_oracle(self):
        rng = np.random.default_rng(4)
        n = 64
        m, ref = make_pair(rng.normal(size=n) * 1.5, eps=0.05)
        drive(m, ref, rng, steps=600, n=n, check_every=60)

    def test_rejects_oversized_delta(self):
        m, _ = make_pair(np.zeros(8))
        bad = np.zeros(8)
        bad[0] = 1.0
        with pytest.raises(InputError, match="1/\\(8n\\)"):
            m.update_half(bad)

    def test_window_exhaustion_raises(self):
        n = 4
        m, _ = make_pair(np.zeros(n))
        zero = np.zeros(n)
        for _ in range(n):
            m.update(zero, [])
        with pytest.raises(SolverFault, match="window"):
            m.update(zero, [])


class _HalfStepCases:
    """Half-step laws of either backend; ``kind`` picks it."""

    def test_tiny_c_limit_half_equals_full(self):
        rng = np.random.default_rng(5)
        v0 = rng.normal(size=8)
        m, _ = make_pair(v0, kappa=1e12, kind=self.kind)  # c -> 0
        zero = np.zeros(8)
        m.update_half(zero)
        for i in range(8):
            assert m.coord_half(i) == pytest.approx(m.coord(i), rel=1e-9)

    def test_two_coordinate_hand_recursion(self):
        v0 = np.array([0.3, -0.2])
        eps, kappa = 0.05, 36.0
        m, _ = make_pair(v0, eps=eps, kappa=kappa, kind=self.kind)
        c = m.c
        delta = np.array([0.01, -0.02])
        m.update_half(delta)
        v = v0 - v0.max()
        vh = (1 - c) * v - delta
        yh = np.exp(vh - vh.max())
        yh /= yh.sum()
        for i in range(2):
            assert m.coord_half(i) == pytest.approx(yh[i], rel=1e-6)

    def test_coord_half_requires_stage(self):
        m, _ = make_pair(np.zeros(4), kind=self.kind)
        with pytest.raises(SolverFault, match="update_half"):
            m.coord_half(0)


class TestUpdateHalf(_HalfStepCases):
    kind = "maintainer"

    def test_half_queries_match_oracle_over_run(self):
        rng = np.random.default_rng(6)
        n = 32
        m, ref = make_pair(rng.normal(size=n), eps=0.05)
        drive(m, ref, rng, steps=200, n=n, check_every=20, check_half=True)


class TestUpdateHalfDense(_HalfStepCases):
    kind = "dense"


class TestCoord:
    def test_adversarial_range_squish(self):
        # range exactly at the squish window: nothing is actually moved
        n = 16
        eps = 0.5
        w = 16.0 * math.log(n) / min(eps, 1.0 / 7.0)
        v0 = np.linspace(-w, 0.0, n)
        m, ref = make_pair(v0, eps=eps)
        y = ref.y()
        for i in range(n):
            assert m.coord(i) == pytest.approx(y[i], rel=1e-6)

    def test_beyond_window_squish_bounds_distribution_error(self):
        # coordinates far below max get raised; their weight stays negligible
        n = 8
        eps = 0.5
        w = 16.0 * math.log(n) / min(eps, 1.0 / 7.0)
        v0 = np.zeros(n)
        v0[0] = 0.0
        v0[1:] = -w - 50.0
        m, ref = make_pair(v0, eps=eps)
        assert m.coord(0) == pytest.approx(1.0, abs=1e-9)
        # squished mass is bounded by n * exp(-w)
        for i in range(1, n):
            assert m.coord(i) <= n * math.exp(-w) * 2.0


class TestSample:
    kind = "maintainer"

    def test_singleton(self):
        m, _ = make_pair([0.0], kind=self.kind)
        i, p = m.sample(uniforms(1), power=1.0)
        assert i == 0
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_uniform_frequencies(self):
        n = 8
        m, _ = make_pair(np.zeros(n), kind=self.kind)
        u = uniforms(2)
        draws = 40_000
        counts = np.zeros(n)
        for _ in range(draws):
            i, _ = m.sample(u, power=1.0)
            counts[i] += 1
        assert stats.chisquare(counts, np.full(n, draws / n)).pvalue > 0.001

    def test_power_half_law(self):
        rng = np.random.default_rng(7)
        n = 16
        v0 = rng.normal(size=n)
        m, ref = make_pair(v0, kind=self.kind)
        law = ref.y_power(0.5)
        u = uniforms(3)
        draws = 40_000
        counts = np.zeros(n)
        for _ in range(draws):
            i, p = m.sample(u, power=0.5)
            counts[i] += 1
            assert p == pytest.approx(law[i], rel=1e-6)
        assert stats.chisquare(counts, law * draws).pvalue > 0.001

    def test_sample_after_updates_matches_law(self):
        rng = np.random.default_rng(8)
        n = 16
        m, ref = make_pair(rng.normal(size=n), kind=self.kind)
        drive(m, ref, rng, steps=100, n=n, check_every=None)
        law = ref.y()
        u = uniforms(4)
        draws = 40_000
        counts = np.zeros(n)
        for _ in range(draws):
            i, _ = m.sample(u, power=1.0)
            counts[i] += 1
        assert stats.chisquare(counts, law * draws).pvalue > 0.001


class TestDualInterface:
    def test_prob_matches_power_law_over_run(self):
        rng = np.random.default_rng(16)
        n = 32
        m, ref = make_pair(rng.normal(size=n))
        for steps in (0, 40, 40):
            drive(m, ref, rng, steps=steps, n=n)
            for power in (1.0, 0.5):
                law = ref.y_power(power)
                for i in range(n):
                    assert m.prob(i, power) == pytest.approx(law[i], rel=1e-6)
        # log-weights agree up to the shift that leaves y unchanged
        v = m.values()
        np.testing.assert_allclose(v - v.max(), ref.v - ref.v.max(), atol=1e-6)

    @pytest.mark.parametrize("kind", ["maintainer", "dense"])
    def test_input_checks(self, kind):
        n = 8
        m, _ = make_pair(np.zeros(n), kind=kind)
        with pytest.raises(InputError, match="length"):
            m.update_half(np.zeros(n + 1))
        with pytest.raises(InputError, match="1/\\(8n\\)"):
            m.update(np.full(n, 1.0 / n), [])
        m.update_half(np.zeros(n))
        other = np.zeros(n)
        other[0] = 1.0 / (16.0 * n)
        with pytest.raises(InputError, match="differs"):
            m.update(other, [])


class TestRestart:
    def test_restart_after_init_is_idempotent(self):
        rng = np.random.default_rng(9)
        v0 = rng.normal(size=16)
        m, _ = make_pair(v0)
        before = [m.coord(i) for i in range(16)]
        m.restart()
        for i in range(16):
            assert m.coord(i) == pytest.approx(before[i], rel=1e-9)

    def test_restart_matches_oracle_after_window(self):
        rng = np.random.default_rng(10)
        n = 16
        m, ref = make_pair(rng.normal(size=n))
        drive(m, ref, rng, steps=n, n=n)
        m.restart()
        y = ref.y()
        for i in range(n):
            assert m.coord(i) == pytest.approx(y[i], rel=1e-6)
        assert m.window == 0

    def test_restart_clears_drift(self):
        rng = np.random.default_rng(11)
        n = 8
        m, ref = make_pair(rng.normal(size=n))
        drive(m, ref, rng, steps=n, n=n)
        m.restart()
        for b in m.buckets.values():
            assert b.sigma == 0.0
            assert abs(m._drift_at(b, b.istar)) <= 1e-12


class TestHeapDiscipline:
    def run_and_check(self, seed, n, steps):
        rng = np.random.default_rng(seed)
        m, ref = make_pair(rng.normal(size=n))
        deltas = random_delta_stream(rng, n, steps)
        for delta in deltas:
            if m.window >= m.window_cap:
                m.restart()
            zeta = [(int(rng.integers(0, n)), float(rng.uniform(-0.2, 0.2)))]
            m.update(delta, zeta)
            # at most one bucket per rank
            for rank, ids in m.by_rank.items():
                assert len(ids) <= 1, debug_dump(m)
            # membership is a partition of the coordinates
            seen = set()
            for b in m.buckets.values():
                live = set(int(ci) for ci in b.coords[b.alive])
                assert not (seen & live)
                seen |= live
            assert seen == set(range(n))
            # credits never negative and sized by the creation rule
            for b in m.buckets.values():
                assert b.credits >= 0
        return m

    def test_shape_small(self):
        self.run_and_check(12, 16, 40)

    def test_shape_medium(self):
        m = self.run_and_check(13, 64, 200)
        assert m.merges_type2 > 0  # the discipline actually exercised merges

    def test_type2_merge_mass_accounting(self):
        # per merge: a rank-k type-2 merge consumes at least 2^(k-1) + 2
        # coordinates; per window: total type-2 merge work is bounded by the
        # deletion count times a log factor (the amortization the credits pay for)
        rng = np.random.default_rng(14)
        n = 64
        m, ref = make_pair(rng.normal(size=n))
        deltas = random_delta_stream(rng, n, 3 * n)
        for delta in deltas:
            if m.window >= m.window_cap:
                m.restart()
            zeta = [(int(rng.integers(0, n)), float(rng.uniform(-0.2, 0.2)))]
            m.update(delta, zeta)
        assert m.merge_log, "no type-2 merges happened"
        for rank, size, _ in m.merge_log:
            floor = 2 ** (rank - 1) + 2 if rank >= 2 else 2
            assert size >= floor, (rank, size)
        total_work = sum(size for _, size, _ in m.merge_log)
        log_factor = math.ceil(math.log2(n)) + 1
        assert total_work <= 4 * (m.deletions + n) * log_factor

    def test_credit_creation_rule(self):
        rng = np.random.default_rng(15)
        n = 32
        m, _ = make_pair(rng.normal(size=n))
        deltas = random_delta_stream(rng, n, n)
        for delta in deltas:
            if m.window >= m.window_cap:
                m.restart()
            m.update(delta, [(int(rng.integers(0, n)), 0.1)])
        for b in m.buckets.values():
            if b.creation_kind in ("type1", "type2"):
                assert b.credits + len(b.coords) == 2 ** (b.rank + 1)
