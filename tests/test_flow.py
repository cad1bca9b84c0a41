"""Max-flow pipeline: approximator, routing recursion, rounding, exact flows."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    ford_fulkerson_value,
    min_congestion_opt,
    random_connected_graph,
    random_unit_digraph,
)
from linfflow import flow as flow_module
from linfflow.errors import InputError
from linfflow.flow import (
    TreeApproximator,
    almost_route,
    augment_to_max,
    dinic_oracle,
    directed_reduce,
    exact_unit_maxflow,
    flow_to_regress,
    round_to_integral,
)
from linfflow.graphs import FlowNetwork, incidence_apply


def path_net(k, cap=1.0):
    return FlowNetwork(k + 1, [(i, i + 1, cap) for i in range(k)],
                       source=0, sink=k)


class TestTreeApproximator:
    def test_exact_on_trees(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            net = random_connected_graph(rng, 8, extra_edges=0)
            approx = TreeApproximator(net)
            d = rng.normal(size=8)
            d -= d.mean()
            opt, _ = min_congestion_opt(net, d)
            assert float(np.abs(approx.apply(d)).max()) == pytest.approx(
                opt, rel=1e-6, abs=1e-9
            )

    def test_two_edge_path_row_values(self):
        net = path_net(2, cap=2.0)
        approx = TreeApproximator(net)
        d = np.array([-1.0, 0.0, 1.0])
        rd = approx.apply(d)
        # each tree-edge cut is crossed only by itself: entries 1/cap
        np.testing.assert_allclose(sorted(np.abs(rd)), [0.5, 0.5])

    def test_sandwich_on_cycle(self):
        net = FlowNetwork(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
                          source=0, sink=2)
        approx = TreeApproximator(net)
        d = net.st_demand(1.0)
        opt, _ = min_congestion_opt(net, d)
        rd = float(np.abs(approx.apply(d)).max())
        assert rd <= opt + 1e-9
        assert opt <= net.m * rd + 1e-9

    def test_sandwich_random(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            net = random_connected_graph(rng, 7, extra_edges=4)
            d = rng.normal(size=7)
            d -= d.mean()
            approx = TreeApproximator(net)
            opt, _ = min_congestion_opt(net, d)
            rd = float(np.abs(approx.apply(d)).max())
            assert rd <= opt + 1e-9
            assert opt <= net.m * rd + 1e-9

    def test_tree_route_exact(self):
        rng = np.random.default_rng(2)
        net = random_connected_graph(rng, 9, extra_edges=5)
        approx = TreeApproximator(net)
        d = rng.normal(size=9)
        d -= d.mean()
        f = approx.tree_route(d)
        np.testing.assert_allclose(incidence_apply(net, f), d, atol=1e-9)

    def test_regression_matrix_matches_definition(self):
        # A = 2 alpha R B U, built densely from subtree membership (walking
        # tree_parent) and an incidence matrix, on trees deeper than 2
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            n = int(rng.integers(6, 13))
            base = random_connected_graph(rng, n, extra_edges=int(rng.integers(2, 8)))
            net = FlowNetwork(n, [(int(u), int(v), float(rng.uniform(0.5, 4.0)))
                                  for u, v in zip(base.tails, base.heads)])
            approx = TreeApproximator(net)
            if approx.depth.max() <= 2:
                continue
            below = np.zeros((n, n))  # below[v, w] = 1 when w is in v's subtree
            for w in range(n):
                v = w
                while v >= 0:
                    below[v, w] = 1.0
                    v = int(approx.tree_parent[v])
            incidence = np.zeros((n, net.m))
            incidence[net.tails, np.arange(net.m)] = -1.0
            incidence[net.heads, np.arange(net.m)] = 1.0
            cuts = np.array([below[max(net.tails[e], net.heads[e],
                                       key=lambda v: approx.depth[v])]
                             for e in approx.tree_edges])
            cutcap = np.abs(cuts @ incidence) @ net.caps
            tree_caps = net.caps[approx.tree_edges]
            alpha = max(float((cutcap / tree_caps).max()), 1.0)
            assert approx.alpha == pytest.approx(alpha, rel=1e-12)
            expected = 2.0 * alpha * (cuts / cutcap[:, None]) @ incidence @ np.diag(net.caps)
            d1, d2 = rng.normal(size=n), rng.normal(size=n)
            d1 -= d1.mean()
            d2 -= d2.mean()
            m1, rhs1 = approx.regression_parts(d1)
            m2, rhs2 = approx.regression_parts(d2)
            assert m2 is m1
            np.testing.assert_allclose(m1.to_dense(), expected, rtol=1e-12, atol=1e-12)
            np.testing.assert_array_equal(rhs1, 2.0 * approx.alpha * approx.apply(d1))
            np.testing.assert_array_equal(rhs2, 2.0 * approx.alpha * approx.apply(d2))
            checked += 1
            if checked == 10:
                break
        assert checked == 10

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            FlowNetwork(4, [(0, 1, 1.0), (2, 3, 1.0)])


class TestAlmostRoute:
    """Probe verdicts stubbed in by radius: accept at r >= 1.6, a reject below
    1.3, and between them either a certified reject or an undecided probe."""

    def route(self, monkeypatch, middle):
        eps = 0.1
        probes = []  # (max |rhs|, matrix) per probe; the first is at r = 1

        def probe(inst, value_target, **_):
            probes.append((float(np.abs(inst.b).max()), inst.matrix))
            r = probes[0][0] / probes[-1][0]  # a probe at radius r sees rhs b / r
            verdict = "accept" if r >= 1.6 else "reject" if r < 1.3 else middle
            value, gap = {"accept": (0.0, 0.0), "reject": (2 * value_target, 0.0),
                          "undecided": (2 * value_target, 2 * value_target)}[verdict]
            return SimpleNamespace(value=value, gap=gap, sampled_coordinates=1,
                                   x=np.zeros(inst.matrix.n_cols))

        monkeypatch.setattr(flow_module, "solve_box_linf", probe)
        # two disjoint s-t paths: the tree routes 2 units at congestion 2
        net = FlowNetwork(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)],
                          source=0, sink=3)
        approx = TreeApproximator(net)
        d = net.st_demand(2.0)
        rd_norm = float(np.abs(approx.apply(d)).max())
        route = almost_route(net, d, approx, eps)
        # every probe of the route runs on one matrix
        assert all(matrix is probes[0][1] for _, matrix in probes)
        return route, rd_norm

    def test_undecided_probes_do_not_certify(self, monkeypatch):
        certified, rd_norm = self.route(monkeypatch, "reject")
        undecided, _ = self.route(monkeypatch, "undecided")
        # an undecided probe moves the search exactly as a reject does
        assert undecided.probes == certified.probes >= 4
        assert undecided.radius == certified.radius
        assert certified.certified and certified.meta["undecided_probes"] == 0
        assert not undecided.certified
        assert undecided.meta["undecided_probes"] >= 1
        # but only certified rejects raise the lower bound
        lb_certified = certified.meta["opt_lower"] / rd_norm
        lb_undecided = undecided.meta["opt_lower"] / rd_norm
        assert 1.3 <= lb_certified < 1.6
        assert 1.0 <= lb_undecided < 1.3 and lb_undecided < lb_certified


class TestFlowToRegress:
    def test_tree_routes_exactly(self):
        rng = np.random.default_rng(3)
        net = random_connected_graph(rng, 6, extra_edges=0)
        d = net.st_demand(1.0)
        sol = flow_to_regress(net, d, eps=0.2, seed=0)
        np.testing.assert_allclose(incidence_apply(net, sol.flow), d, atol=1e-9)
        opt, _ = min_congestion_opt(net, d)
        assert sol.max_congestion <= (1 + 0.2) * opt + 1e-9

    def test_diamond_splits(self):
        # two disjoint s-t paths; 2 units route at congestion 1
        net = FlowNetwork(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)],
                          source=0, sink=3)
        d = net.st_demand(2.0)
        sol = flow_to_regress(net, d, eps=0.1, seed=1)
        np.testing.assert_allclose(incidence_apply(net, sol.flow), d, atol=1e-9)
        assert sol.max_congestion <= 1.1 + 1e-9

    def test_random_graphs_near_optimal(self):
        rng = np.random.default_rng(4)
        for k in range(6):
            net = random_connected_graph(rng, int(rng.integers(5, 10)),
                                         extra_edges=3)
            d = rng.normal(size=net.n)
            d -= d.mean()
            eps = 0.15
            sol = flow_to_regress(net, d, eps=eps, seed=k)
            np.testing.assert_allclose(incidence_apply(net, sol.flow), d,
                                       atol=1e-9)
            opt, _ = min_congestion_opt(net, d)
            assert sol.max_congestion <= (1 + eps) * opt + 1e-9
            # per-round residual contraction was recorded
            for before, after, eps_k in sol.meta["contraction"]:
                assert after <= eps_k * before * (1 + 1e-6) + 1e-12

    def test_zero_demand(self):
        net = path_net(2)
        sol = flow_to_regress(net, np.zeros(3), eps=0.5)
        np.testing.assert_allclose(sol.flow, 0.0, atol=1e-12)


class TestRoundToIntegral:
    def test_integral_input_unchanged(self):
        net = path_net(3)
        f = np.array([1.0, 1.0, 1.0])
        out = round_to_integral(net, f)
        np.testing.assert_array_equal(out.flow, f)
        assert out.value == 1.0

    def test_split_parallel_paths(self):
        net = FlowNetwork(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)],
                          source=0, sink=3)
        f = np.array([0.5, 0.5, 0.5, 0.5])
        out = round_to_integral(net, f)
        assert out.value >= 1.0 - 1e-9
        assert set(np.abs(out.flow)) <= {0.0, 1.0}

    def test_random_fractional_flows(self):
        rng = np.random.default_rng(5)
        for k in range(8):
            net = random_connected_graph(rng, int(rng.integers(5, 9)),
                                         extra_edges=4)
            d = net.st_demand(1.0)
            sol = flow_to_regress(net, d, eps=0.2, seed=k)
            feasible = sol.flow / max(sol.max_congestion, 1.0)
            fval = incidence_apply(net, feasible)[net.sink]
            out = round_to_integral(net, feasible)
            assert np.abs(out.flow - np.round(out.flow)).max() == 0.0
            assert out.value >= math.floor(fval - 1e-9)
            inner = np.delete(out.achieved_demand, [net.source, net.sink])
            if len(inner):
                assert np.abs(inner).max() <= 1e-9

    def test_rejects_infeasible(self):
        net = path_net(2)
        with pytest.raises(InputError, match="capacit"):
            round_to_integral(net, np.array([2.0, 2.0]))
        with pytest.raises(InputError, match="conservation"):
            round_to_integral(net, np.array([1.0, 0.0]))


class TestAugmentToMax:
    def test_maximal_input_early_stop(self):
        net = path_net(2)
        out = augment_to_max(net, np.array([1.0, 1.0]))
        assert out.value == 1.0

    def test_empty_flow_on_path(self):
        net = path_net(2)
        out = augment_to_max(net, np.zeros(2), rounds=1)
        assert out.value == 1.0

    def test_reaches_exact_value(self):
        rng = np.random.default_rng(6)
        for k in range(6):
            net = random_connected_graph(rng, int(rng.integers(5, 9)),
                                         extra_edges=5)
            out = augment_to_max(net, np.zeros(net.m))
            assert out.value == pytest.approx(dinic_oracle(net).value, abs=1e-9)


    def test_capacitated_graphs_reach_exact_value(self):
        # residual cap - f along an edge and f - lo cap against it
        rng = np.random.default_rng(13)
        for k in range(6):
            base = (random_connected_graph(rng, int(rng.integers(5, 10)), extra_edges=5)
                    if k % 2 == 0 else random_unit_digraph(rng, int(rng.integers(4, 9))))
            net = FlowNetwork(base.n, [(int(u), int(v), float(rng.uniform(0.5, 6.0)))
                                       for u, v in zip(base.tails, base.heads)],
                              directed=base.directed, source=base.source,
                              sink=base.sink)
            out = augment_to_max(net, np.zeros(net.m))
            assert out.value == pytest.approx(dinic_oracle(net).value, abs=1e-9)
            assert (np.abs(out.flow) <= net.caps + 1e-9).all()


class TestDinic:
    def test_two_edge_path(self):
        assert dinic_oracle(path_net(2)).value == pytest.approx(1.0)

    def test_k22_augmented(self):
        # s -> {a, b} -> {c, d} -> t with unit edges: value 2
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0),
                 (2, 3, 1.0), (2, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
        net = FlowNetwork(6, edges, directed=True, source=0, sink=5)
        assert dinic_oracle(net).value == pytest.approx(2.0)

    def test_agrees_with_second_implementation(self):
        rng = np.random.default_rng(7)
        for k in range(10):
            if k % 2 == 0:
                net = random_connected_graph(rng, int(rng.integers(4, 10)),
                                             extra_edges=4)
            else:
                net = random_unit_digraph(rng, int(rng.integers(4, 9)))
            assert dinic_oracle(net).value == pytest.approx(
                ford_fulkerson_value(net), abs=1e-9
            )


class TestDirectedReduce:
    def test_single_arc_construction(self):
        net = FlowNetwork(2, [(0, 1, 1.0)], directed=True, source=0, sink=1)
        und, f_init, recover = directed_reduce(net)
        assert und.m == 3
        np.testing.assert_allclose(und.caps, 0.5)
        # undirected max-flow value is F + m/2 = 1.5
        assert dinic_oracle(und).value == pytest.approx(1.5)

    def test_antiparallel_decoy(self):
        # path s->a->t plus decoy arc a->s; recovered flow ignores the decoy
        net = FlowNetwork(3, [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 1.0)],
                          directed=True, source=0, sink=2)
        out = exact_unit_maxflow(net, seed=3)
        assert out.value == pytest.approx(dinic_oracle(net).value)
        assert (out.flow >= -1e-9).all()

    def test_reduction_value_identity(self):
        rng = np.random.default_rng(8)
        for k in range(5):
            net = random_unit_digraph(rng, int(rng.integers(4, 8)))
            und, f_init, recover = directed_reduce(net)
            f_measure = dinic_oracle(net).value
            kept = und.m // 3  # arcs into s / out of t are dropped
            assert dinic_oracle(und).value == pytest.approx(
                f_measure + kept / 2.0, abs=1e-9
            )


class TestExactPipeline:
    def test_star_variants(self):
        net = FlowNetwork(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True,
                          source=0, sink=2)
        assert exact_unit_maxflow(net, seed=0).value == pytest.approx(1.0)

    def test_undirected_matches_dinic(self):
        rng = np.random.default_rng(9)
        for k in range(6):
            net = random_connected_graph(rng, int(rng.integers(5, 12)),
                                         extra_edges=6)
            out = exact_unit_maxflow(net, seed=k)
            assert out.value == pytest.approx(dinic_oracle(net).value, abs=1e-9)
            assert np.abs(out.flow - np.round(out.flow)).max() <= 1e-9

    def test_directed_matches_dinic(self):
        rng = np.random.default_rng(10)
        for k in range(4):
            net = random_unit_digraph(rng, int(rng.integers(4, 8)))
            out = exact_unit_maxflow(net, seed=k)
            assert out.value == pytest.approx(dinic_oracle(net).value, abs=1e-9)
