"""Acceptance criteria: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criterion 10's reduction identity is implemented faithfully and expected to
fail (strict xfail): the claimed identity does not hold for multi-hop flows.
The analysis lives in the decisions ledger.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from helpers import (
    box_linf_opt,
    dense_to_sparse,
    doubled_law,
    random_connected_graph,
    random_sparse,
    random_unit_digraph,
    regularized_saddle,
)
from linfflow.cdsolver import solve_box_linf
from linfflow.core import RegressionInstance, SparseMatrix, sign_double
from linfflow.flow import dinic_oracle, directed_reduce, exact_unit_maxflow, flow_to_regress
from linfflow.graphs import incidence_apply
from linfflow.mirrorprox import (
    MirrorProxConfig,
    PhaseState,
    phase_iterates,
    solve_flow_regress,
)
from linfflow.sampling import BufferedUniforms, make_rng
from linfflow.smoothing import LocalSmoothnessParams, SoftmaxState
from reference_steps import (
    grad_coord,
    hessian_diag_upper,
    local_smoothness,
    objective_value,
    plain_phase,
    smax_hessian_diag,
)
from simplex_maintainer import ReferenceSimplex, SimplexMaintainer


def report(number, name, elapsed, budget, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {name}: {status} ({elapsed:.1f}s of {budget:.0f}s budget)")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


@pytest.mark.slow
def test_criterion_01_softmax_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        alpha = float(rng.uniform(0.02, 5.0))
        resid = rng.uniform(-40, 40, size=n)
        matrix = dense_to_sparse(np.eye(n))
        st = SoftmaxState(matrix, -resid, alpha)
        v = float(st.smax())
        mx = float(resid.max())
        assert mx - 1e-12 <= v <= mx + alpha * math.log(n) + 1e-12
    report(1, "softmax sandwich", time.perf_counter() - start, 1.0)


@pytest.mark.slow
def test_criterion_02_local_smoothness_validity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    for trial in range(100):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(2, 21))
        matrix = random_sparse(rng, n, m, per_col=min(n, 4))
        b = rng.normal(size=n)
        alpha = float(rng.uniform(0.2, 2.0))
        mode = "l2" if trial % 2 == 0 else "diag"
        if mode == "l2":
            s = float(rng.uniform(1.0, m))
            params = LocalSmoothnessParams.l2(matrix, alpha, s)
        else:
            params = LocalSmoothnessParams.diag(matrix, alpha, d_floor=1e-3)
        x = rng.uniform(-1, 1, m)
        center = rng.uniform(-1, 1, m)
        st = SoftmaxState(matrix, b, alpha, x0=x)
        for j in range(m):
            lj = local_smoothness(st, j, params)
            step = grad_coord(st, j, center, params) / lj
            for t in np.linspace(-1.0, 1.0, 50):
                y = x.copy()
                y[j] += t * step
                sty = SoftmaxState(matrix, b, alpha, x0=y)
                assert hessian_diag_upper(sty, j, params) <= lj * (1 + 1e-9) + 1e-9
    report(2, "local smoothness validity", time.perf_counter() - start, 30.0)


@pytest.mark.slow
def test_criterion_03_trace_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 15))
        m = int(rng.integers(2, 15))
        matrix = random_sparse(rng, n, m, per_col=min(n, 4))
        alpha = float(rng.uniform(0.1, 2.0))
        st = SoftmaxState(matrix, rng.normal(size=n), alpha,
                          x0=rng.uniform(-1, 1, m))
        trace = sum(smax_hessian_diag(st, j) for j in range(m))
        assert trace <= matrix.norm_inf ** 2 / alpha + 1e-9
    report(3, "trace bound", time.perf_counter() - start, 30.0)


def _subproblem_opt(matrix2, b2, alpha, params, center, iters=40_000):
    """High-accuracy minimizer of the regularized subproblem (dense oracle)."""
    a = matrix2.to_dense()
    curv = params.curvature
    lips = matrix2.norm_inf ** 2 / alpha + float(curv.max())
    x = center.copy()
    for _ in range(iters):
        r = (a @ x - b2) / alpha
        e = np.exp(r - r.max())
        p = e / e.sum()
        g = a.T @ p + curv * (x - center)
        x = np.clip(x - g / lips, -1.0, 1.0)
    st = SoftmaxState(matrix2, b2, alpha, x0=x)
    return objective_value(st, center, params)


@pytest.mark.slow
def test_criterion_04_cd_expected_progress():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    for trial in range(10):
        mode = "l2" if trial % 2 == 0 else "diag"
        n = int(rng.integers(3, 7))
        m = int(rng.integers(3, 7))
        matrix = random_sparse(rng, n, m, per_col=2)
        b = rng.normal(size=n) * 0.6
        m2, b2 = sign_double(matrix, b)
        alpha = float(rng.uniform(0.3, 1.0))
        if mode == "l2":
            s = float(m)
            params = LocalSmoothnessParams.l2(m2, alpha, s)
            mu = alpha / s
        else:
            params = LocalSmoothnessParams.diag(m2, alpha, d_floor=1e-3)
            mu = alpha / (m2.n_rows * m2.norm_inf)
        center = rng.uniform(-0.5, 0.5, m)
        x = rng.uniform(-1, 1, m)
        st = SoftmaxState(m2, b2, alpha, x0=x)
        h_x = objective_value(st, center, params)
        h_star = _subproblem_opt(m2, b2, alpha, params, center)
        # per-coordinate outcomes of one step
        lj = np.array([local_smoothness(st, j, params) for j in range(m)])
        weights = lj / params.d
        h_next = np.empty(m)
        for j in range(m):
            g = grad_coord(st, j, center, params)
            target = float(np.clip(x[j] - g / lj[j], -1, 1))
            y = x.copy()
            y[j] = target
            sty = SoftmaxState(m2, b2, alpha, x0=y)
            h_next[j] = objective_value(sty, center, params)
        probs = weights / weights.sum()
        draws = rng.choice(m, size=10_000, p=probs)
        samples = h_next[draws]
        mean = float(samples.mean())
        se = float(samples.std(ddof=1)) / math.sqrt(len(samples))
        s_bound = params.mass_bound
        bound = h_star + (1.0 - mu / (2.0 * s_bound)) * (h_x - h_star)
        assert mean <= bound + 3.0 * se + 1e-9, (mode, mean, bound, se)
    report(4, "cd expected progress", time.perf_counter() - start, 120.0)


@pytest.mark.slow
def test_criterion_05_end_to_end_regression():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    successes = 0
    for k in range(20):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(2, 11))
        inst = RegressionInstance(
            matrix=random_sparse(rng, n, m, per_col=min(n, 3)),
            b=rng.normal(size=n),
            epsilon=1e-2,
        )
        opt, _ = box_linf_opt(inst.matrix.to_dense(), inst.b)
        mode = "l2" if k % 2 == 0 else "diag"
        res = solve_box_linf(inst, f"cd-{mode}", seed=1000 + k)
        if res.value <= opt + inst.epsilon + 1e-9:
            successes += 1
    assert successes >= 19, f"{successes}/20 within eps of the LP optimum"
    report(5, "end-to-end regression accuracy", time.perf_counter() - start, 60.0)


def _fixed_scaling_instance():
    # fixed 4x8 instance whose targets at every grid epsilon need real work,
    # so the measured counts reflect steady convergence rather than the free
    # initial descent
    rng = np.random.default_rng(7)
    while True:
        matrix = random_sparse(rng, 4, 8, per_col=2, scale=0.4)
        if (matrix.row_l1 > 0).all():
            break
    scale = max(matrix.norm_inf, 1.0)
    matrix = SparseMatrix.from_triplets(
        [(i, j, v / scale) for i, j, v in matrix.triplets()], 4, 8)
    b = rng.uniform(-0.9, 0.9, size=4)
    return matrix, b


def _mirror_prox_count(matrix, b, opt, eps, seed, check=25):
    cfg = MirrorProxConfig.for_instance(matrix, eps, float(matrix.n_cols))
    phase = PhaseState(matrix, b, cfg)
    u = BufferedUniforms(make_rng(seed, stream=0))
    target = opt + eps
    total = 0
    for _ in range(cfg.phases):
        for _ in range(cfg.t_per_phase):
            phase_iterates(phase, u, 1)
            total += 1
            if total % check == 0:
                if float(np.abs(matrix.dot(phase.x) - b).max()) <= target:
                    return total
        x_out, u_out = plain_phase(phase, 1, u)
        phase = PhaseState(matrix, b, cfg, x0=x_out, u0=u_out)
    return total


@pytest.mark.slow
def test_criterion_06_iteration_scaling():
    start = time.perf_counter()
    matrix, b = _fixed_scaling_instance()
    opt, _ = box_linf_opt(matrix.to_dense(), b)
    grid = (0.1, 0.05, 0.025)
    seeds = range(5)

    mp_counts = []
    for eps in grid:
        mp_counts.append(np.mean([
            _mirror_prox_count(matrix, b, opt, eps, seed)
            for seed in seeds
        ]))
    cd_counts = []
    for eps in grid:
        counts = []
        for seed in seeds:
            inst = RegressionInstance(matrix=matrix, b=b, epsilon=eps)
            res = solve_box_linf(inst, "cd-l2", seed=seed,
                                 value_target=opt + eps)
            counts.append(res.sampled_coordinates)
        cd_counts.append(np.mean(counts))

    for name, counts in (("mirror-prox", mp_counts), ("prox-cd", cd_counts)):
        x = np.log([1.0 / e for e in grid])
        y = np.log(counts)
        slope = float(np.polyfit(x, y, 1)[0])
        assert slope <= 1.4, f"{name} slope {slope:.3f} (counts {counts})"
        print(f"  {name}: counts {[int(c) for c in counts]} slope {slope:.2f}")
    report(6, "O(1/eps) iteration scaling", time.perf_counter() - start, 300.0)


@pytest.mark.slow
def test_criterion_07_simplex_maintainer_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    n = 256
    eps, kappa = 0.05, 16.0 * n + 8.0
    v0 = rng.normal(size=n) * 1.5
    maint = SimplexMaintainer(v0, eps, kappa, tau=1e-6)
    ref = ReferenceSimplex(v0, eps, kappa)
    cap = 1.0 / (8.0 * n)
    delta = rng.uniform(-cap, cap, size=n)
    iters = 10_000
    check_every = 250
    for k in range(iters):
        if maint.window >= maint.window_cap:
            maint.restart()
        for _ in range(2):
            delta[rng.integers(0, n)] = rng.uniform(-cap, cap)
        zeta = []
        if rng.random() < 0.8:
            zeta.append((int(rng.integers(0, n)),
                         float(rng.uniform(-0.2, 0.2))))
        maint.update_half(delta)
        ref.update_half(delta)
        if k % check_every == check_every - 1:
            yh = ref.y_half()
            for i in range(n):
                assert maint.coord_half(i) == pytest.approx(yh[i], rel=1e-6)
        maint.update(delta, zeta)
        ref.update(delta, zeta)
        if k % check_every == check_every - 1:
            y = ref.y()
            for i in range(n):
                assert maint.coord(i) == pytest.approx(y[i], rel=1e-6)
    # sampling law
    law = ref.y()
    u = BufferedUniforms(make_rng(7070))
    draws = 100_000
    counts = np.zeros(n)
    for _ in range(draws):
        i, _ = maint.sample(u, power=1.0)
        counts[i] += 1
    assert stats.chisquare(counts, law * draws).pvalue > 0.001
    # amortized touched-entry counter
    per_iter = maint.work / iters
    cap_work = 8.0 * maint.d ** 5 * math.log2(n)
    assert per_iter <= cap_work, (per_iter, cap_work)
    report(7, "simplex maintainer oracle equivalence",
           time.perf_counter() - start, 120.0)


def _phase_halving_instance(seed, n_rows, m_cols):
    rng = np.random.default_rng(seed)
    while True:
        matrix = random_sparse(rng, n_rows, m_cols, per_col=1, scale=0.5)
        if (matrix.row_l1 > 0).all():
            break
    scale = max(matrix.norm_inf, 1.0)
    matrix = SparseMatrix.from_triplets(
        [(i, j, v / scale) for i, j, v in matrix.triplets()], n_rows, m_cols)
    b = rng.uniform(-0.8, 0.8, size=n_rows)
    return matrix, b


@pytest.mark.slow
def test_criterion_08_phase_halving():
    start = time.perf_counter()
    cases = [
        (_phase_halving_instance(81, 1, 4), 0.5, 1.0),
        (_phase_halving_instance(82, 2, 3), 0.6, 1.0),
        (_phase_halving_instance(83, 1, 5), 0.5, 2.0),
    ]
    for (matrix, b), eps, s in cases:
        matrix2, b2 = sign_double(matrix, b)
        xt, yt = regularized_saddle(matrix2, b2, eps, s, iters=60_000)
        cfg = MirrorProxConfig.for_instance(matrix, eps, s)

        def div(x, y):
            vx = float((x - xt) @ (x - xt)) / (2 * s)
            vy = float((yt * (np.log(yt) - np.log(y))).sum())
            return vx + vy

        n2 = matrix2.n_rows
        ratios = []
        for seed in range(200):
            rng_k = make_rng(seed, stream=0)
            u = BufferedUniforms(rng_k)
            phase = PhaseState(matrix, b, cfg)
            v_in = div(phase.x, np.full(n2, 1.0 / n2))
            t_star = int(rng_k.integers(1, cfg.t_per_phase + 1))
            x_out, u_out = plain_phase(phase, t_star, u)
            ratios.append(div(x_out, doubled_law(u_out)) / v_in)
        mean_ratio = float(np.mean(ratios))
        assert mean_ratio <= 0.6, f"mean divergence ratio {mean_ratio:.3f}"
        print(f"  instance ratio {mean_ratio:.3f} over 200 seeds")
    report(8, "phase halving", time.perf_counter() - start, 300.0)


def _criterion9_graphs():
    rng = np.random.default_rng(109)
    graphs = []
    for k in range(50):
        if k < 40:
            n = int(rng.integers(6, 17))
        elif k < 48:
            n = int(rng.integers(17, 29))
        else:
            n = int(rng.integers(29, 41))
        graphs.append(random_connected_graph(rng, n, extra_edges=max(2, n // 3)))
    return graphs


@pytest.mark.slow
def test_criterion_09_and_11_approximate_maxflow_and_contraction():
    start = time.perf_counter()
    eps = 0.05
    for k, net in enumerate(_criterion9_graphs()):
        d = net.st_demand(1.0)
        sol = flow_to_regress(net, d, eps, seed=2000 + k)
        achieved = incidence_apply(net, sol.flow)
        assert np.abs(achieved - d).max() <= 1e-9
        exact = dinic_oracle(net).value
        value = 1.0 / sol.max_congestion
        assert value >= (1.0 - eps) * exact - 1e-9, (k, value, exact)
        # criterion 11: per-round residual contraction on the same runs
        for before, after, eps_k in sol.meta["contraction"]:
            assert after <= eps_k * before * (1 + 1e-6) + 1e-12
    elapsed = time.perf_counter() - start
    report(9, "approximate max flow", elapsed, 120.0)
    report(11, "residual contraction", elapsed, 120.0)


@pytest.mark.slow
def test_criterion_10_exact_pipelines():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    for k in range(50):
        net = random_connected_graph(rng, int(rng.integers(5, 15)),
                                     extra_edges=int(rng.integers(2, 8)))
        out = exact_unit_maxflow(net, seed=3000 + k)
        assert out.value == pytest.approx(dinic_oracle(net).value, abs=1e-9)
    for k in range(30):
        net = random_unit_digraph(rng, int(rng.integers(4, 10)))
        out = exact_unit_maxflow(net, seed=4000 + k)
        assert out.value == pytest.approx(dinic_oracle(net).value, abs=1e-9)
    report(10, "exact pipelines equal blocking-flow values",
           time.perf_counter() - start, 180.0)


@pytest.mark.xfail(
    strict=True,
    reason="the claimed identity |f_init - f_max|^2 = F only holds when every "
    "flow path uses a single arc; the squared distance equals the edge mass "
    "of the recovered flow (sum of path lengths), which exceeds F on any "
    "multi-hop instance.  See the decisions ledger.",
)
def test_criterion_10_directed_reduction_identity():
    rng = np.random.default_rng(111)
    for k in range(30):
        net = random_unit_digraph(rng, int(rng.integers(4, 10)))
        und, f_init, recover = directed_reduce(net)
        f_final = dinic_oracle(und)
        # recovered optimum via the exact pipeline
        out = exact_unit_maxflow(net, seed=5000 + k)
        f_value = out.value
        # reconstruct the undirected maximum flow the pipeline worked from; the
        # reduction has unit capacities, twice the paper's half capacities
        inner = out.meta.get("f_final")
        assert inner is not None
        dist = float(((0.5 * (f_init - inner)) ** 2).sum())
        assert dist == pytest.approx(f_value, abs=1e-6), (dist, f_value)


@pytest.mark.slow
def test_criterion_12_determinism():
    start = time.perf_counter()
    rng = np.random.default_rng(112)
    matrix = random_sparse(rng, 5, 4, per_col=3)
    b = rng.normal(size=5)
    inst = RegressionInstance(matrix=matrix, b=b, epsilon=0.05)
    r1 = solve_box_linf(inst, seed=9, timing=False)
    r2 = solve_box_linf(inst, seed=9, timing=False)
    assert r1.transcript_csv().encode() == r2.transcript_csv().encode()
    np.testing.assert_array_equal(r1.x, r2.x)

    while True:
        fm = random_sparse(rng, 3, 4, per_col=2, scale=0.3)
        if (fm.row_l1 > 0).all():
            break
    fi = RegressionInstance(matrix=fm, b=rng.uniform(-0.5, 0.5, 3), epsilon=0.2)
    m1 = solve_flow_regress(fi, seed=11)
    m2 = solve_flow_regress(fi, seed=11)
    assert m1.transcript_csv().encode() == m2.transcript_csv().encode()
    np.testing.assert_array_equal(m1.x, m2.x)

    net = random_connected_graph(rng, 8, extra_edges=4)
    s1 = flow_to_regress(net, net.st_demand(1.0), 0.1, seed=13)
    s2 = flow_to_regress(net, net.st_demand(1.0), 0.1, seed=13)
    np.testing.assert_array_equal(s1.flow, s2.flow)
    report(12, "determinism", time.perf_counter() - start, 120.0)
