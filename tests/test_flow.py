"""Max-flow pipeline: approximator, routing recursion, rounding, exact flows."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    ReferenceTree,
    flow_network_edge_error,
    ford_fulkerson_value,
    min_congestion_opt,
    random_connected_graph,
    random_unit_digraph,
)
from linfflow import flow as flow_module
from linfflow import graphs as graphs_module
from linfflow.errors import InputError, SolverFault
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
from reference_steps import arc_pair_dinic, reduction_recover, search_round


def path_net(k, cap=1.0):
    return FlowNetwork(k + 1, [(i, i + 1, cap) for i in range(k)],
                       source=0, sink=k)


def mixed_fractional_flow(rng, directed):
    """A random unit graph on 4 to 15 vertices and a convex mix of max flows
    found on relabelled copies of it; half the time the zero flow joins the
    mix, so the value is fractional as well."""
    n = int(rng.integers(4, 16))
    net = (random_unit_digraph(rng, n) if directed else
           random_connected_graph(rng, n, extra_edges=int(rng.integers(1, 2 * n))))
    flows = [np.zeros(net.m)] if rng.random() < 0.5 else []
    for _ in range(int(rng.integers(2, 5))):
        label, order = rng.permutation(n), rng.permutation(net.m)
        tails, heads = label[net.tails[order]], label[net.heads[order]]
        copy = FlowNetwork(n, [(u, v, 1.0) for u, v in zip(tails.tolist(), heads.tolist())],
                           directed=directed, source=int(label[net.source]),
                           sink=int(label[net.sink]))
        f = np.zeros(net.m)
        # an undirected copy stores each edge from its lower label
        f[order] = np.where(copy.tails == tails, 1.0, -1.0) * \
            augment_to_max(copy, np.zeros(net.m)).flow
        flows.append(f)
    return net, rng.dirichlet(np.ones(len(flows))) @ np.array(flows)


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


def lognormal_graph(rng, n, extra_edges):
    base = random_connected_graph(rng, n, extra_edges=extra_edges)
    caps = rng.lognormal(0.0, 3.0, size=base.m)
    return FlowNetwork(n, list(zip(base.tails.tolist(), base.heads.tolist(),
                                   caps.tolist())))


def deep_tree_graph(rng, n=400, chords=40, integral=True):
    """A path 0-1-...-(n-1) plus random chords: the spanning tree is deep."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(int(u), int(v)) for u, v in rng.integers(0, n, size=(chords, 2)) if u != v]
    caps = (rng.integers(1, 6, size=len(edges)).astype(float) if integral
            else rng.lognormal(0.0, 3.0, size=len(edges)))
    return FlowNetwork(n, [(u, v, c) for (u, v), c in zip(edges, caps.tolist())],
                       source=0, sink=n - 1)


class TestTreeMatchesPathWalk:
    """TreeApproximator against the vertex-by-vertex path walk of ReferenceTree.

    ``scalar_climb`` moves the point where the level-synchronous climb hands
    its last walks to Python: 0 keeps every pass in numpy, 10**9 walks every
    edge in Python.
    """

    @pytest.fixture(params=[0, None, 10**9], ids=["numpy", "default", "python"])
    def scalar_climb(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(flow_module, "_SCALAR_CLIMB", request.param)

    def graphs(self):
        rng = np.random.default_rng(21)
        for n, extra in ((2, 0), (9, 6), (40, 80), (150, 300)):
            yield lognormal_graph(rng, n, extra), False
            yield random_connected_graph(rng, n, extra_edges=extra, unit=False), True
        yield deep_tree_graph(rng), True
        yield deep_tree_graph(rng, integral=False), False

    def test_same_tree_cuts_and_operators(self, scalar_climb):
        rng = np.random.default_rng(22)
        for net, integral in self.graphs():
            approx, ref = TreeApproximator(net), ReferenceTree(net)
            np.testing.assert_array_equal(approx.tree_edges, ref.tree_edges)
            np.testing.assert_array_equal(approx.tree_parent, ref.tree_parent)
            np.testing.assert_array_equal(approx.depth, ref.depth)
            np.testing.assert_array_equal(approx.post_order, ref.post_order)
            np.testing.assert_array_equal(approx.row_vertex, ref.row_vertex)
            if integral:
                np.testing.assert_array_equal(approx.cutcap, ref.cutcap)
            else:
                np.testing.assert_allclose(approx.cutcap, ref.cutcap, rtol=1e-14, atol=0)
            d = rng.normal(size=net.n)
            d -= d.mean()
            np.testing.assert_array_equal(approx.subtree_sums(d), ref.subtree_sums(d))
            np.testing.assert_array_equal(approx.tree_route(d), ref.tree_route(d))
            if integral:
                np.testing.assert_array_equal(approx.apply(d), ref.apply(d))
            else:
                np.testing.assert_allclose(approx.apply(d), ref.apply(d), rtol=1e-14, atol=0)

    def test_regression_matrix_matches_path_walk(self, scalar_climb):
        rng = np.random.default_rng(23)
        for net, integral in self.graphs():
            approx, ref = TreeApproximator(net), ReferenceTree(net)
            matrix, _ = approx.regression_parts(np.zeros(net.n))
            expected = ref.regression_dense(approx.alpha)
            if integral:
                np.testing.assert_array_equal(matrix.to_dense(), expected)
            else:
                np.testing.assert_allclose(matrix.to_dense(), expected, rtol=1e-13, atol=0)
            assert matrix.nnz == np.count_nonzero(expected)

    def test_cut_capacity_sums_positive_terms_only(self, scalar_climb):
        # the only edge leaving {1, 2, 3} has capacity 1, inside it 1e20: an
        # endpoint-minus-LCA subtree sum would round the cut to 0 (alpha inf)
        net = FlowNetwork(4, [(1, 2, 1e20), (2, 3, 1e20), (1, 3, 1e20), (0, 1, 1.0)],
                          source=0, sink=3)
        approx = TreeApproximator(net)
        k = approx.tree_edges.tolist().index(3)
        assert approx.cutcap[k] == 1.0
        assert approx.alpha == 2.0  # each 1e20 tree edge is crossed by 2e20
        np.testing.assert_array_equal(approx.cutcap, ReferenceTree(net).cutcap)

    def test_two_vertex_graph(self):
        net = FlowNetwork(2, [(0, 1, 3.0)], source=0, sink=1)
        approx = TreeApproximator(net)
        d = net.st_demand(1.0)
        assert approx.alpha == 1.0
        np.testing.assert_array_equal(approx.apply(d), [1.0 / 3.0])
        np.testing.assert_array_equal(approx.tree_route(d), [1.0])
        matrix, rhs = approx.regression_parts(d)
        np.testing.assert_array_equal(matrix.to_dense(), [[2.0]])
        np.testing.assert_array_equal(rhs, [2.0 / 3.0])


class TestFlowNetworkEdgeChecks:
    """Bad edges after valid ones: the first bad edge's index and message.

    n = 4 builds a 4-edge cycle, below the size from which FlowNetwork checks
    edges in bulk; n = 100 builds a 100-edge cycle, above it.
    """

    @staticmethod
    def cycle(n):
        return [(k, (k + 1) % n, 1.0 + k % 3) for k in range(n)]

    @staticmethod
    def bad_edges(n):
        return [(0, n, 1.0), (-1, 2, 1.0), (2, -1, 1.0), (2, 2, 1.0), (1, 2, float("nan")),
                (1, 2, float("inf")), (1, 2, 1e-320), (1, 2, 0.0), (1, 2, -1.0),
                (3, 3, float("nan")), (n, n, float("nan")), (2 ** 70, 1, 1.0)]

    @pytest.mark.parametrize("n", [4, 100], ids=["loop", "bulk"])
    @pytest.mark.parametrize("directed", [False, True])
    def test_first_bad_edge_reported(self, n, directed):
        valid = self.cycle(n)
        for bad in self.bad_edges(n):
            for pos in (1, n // 2 + 1, n):
                for later in (None, (2, 2, 1.0), (0, n + 5, 1.0)):
                    edges = valid[:pos] + [bad] + valid[pos:]
                    if later is not None:
                        edges.append(later)
                    expected = flow_network_edge_error(n, edges)
                    assert expected.startswith(f"edge {pos}: ")
                    with pytest.raises(InputError) as info:
                        FlowNetwork(n, edges, directed=directed)
                    assert str(info.value) == expected

    @pytest.mark.parametrize("n", [4, 100], ids=["loop", "bulk"])
    def test_messages(self, n):
        cap_message = ("capacity {} must be finite and at least "
                       "2.2250738585072014e-308, so that its reciprocal is finite")
        cases = [((0, n, 1.0), "endpoint out of range"),
                 ((2, 2, 1.0), "self loop at 2"),
                 ((1, 2, float("nan")), cap_message.format("nan")),
                 ((1, 2, 1e-320), cap_message.format("1e-320"))]
        for bad, message in cases:
            with pytest.raises(InputError) as info:
                FlowNetwork(n, self.cycle(n) + [bad])
            assert str(info.value) == f"edge {n}: {message}"

    def test_valid_edges_kept_in_order(self):
        net = FlowNetwork(4, [(1, 0, 2.0), (2, 1, 1.0), (3, 2, 4.0)])
        assert net.tails.tolist() == [0, 1, 2]
        assert net.heads.tolist() == [1, 2, 3]
        assert net.caps.tolist() == [2.0, 1.0, 4.0]
        digraph = FlowNetwork(4, [(1, 0, 2.0), (2, 1, 1.0), (3, 2, 4.0)], directed=True)
        assert digraph.tails.tolist() == [1, 2, 3]
        assert digraph.heads.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("directed", [False, True])
    def test_bulk_check_builds_what_the_loop_builds(self, monkeypatch, directed):
        rng = np.random.default_rng(24)
        base = random_connected_graph(rng, 60, extra_edges=140)
        # numpy and float endpoints, int capacities: converted as int() / float()
        edges = [(u, float(v), int(c)) for u, v, c in zip(
            base.heads, base.tails, rng.integers(1, 9, size=base.m))]
        assert len(edges) >= graphs_module._BULK_EDGES
        bulk = FlowNetwork(60, edges, directed=directed)
        monkeypatch.setattr(graphs_module, "_BULK_EDGES", 10 ** 9)
        loop = FlowNetwork(60, edges, directed=directed)
        for name in ("tails", "heads", "caps"):
            a, b = getattr(bulk, name), getattr(loop, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


class TestAlmostRoute:
    """Probe verdicts stubbed in by radius: accept at r >= 1.6, a reject below
    1.3, and between them either a certified reject or an undecided probe."""

    def route(self, monkeypatch, middle, solver="cd-l2"):
        eps = 0.1
        probes = []  # (max |rhs|, matrix) per probe; the first is at r = 1
        self.streams = []  # the random stream of each probe

        def probe(inst, value_target, stream, **_):
            probes.append((float(np.abs(inst.b).max()), inst.matrix))
            self.streams.append(stream)
            r = probes[0][0] / probes[-1][0]  # a probe at radius r sees rhs b / r
            verdict = "accept" if r >= 1.6 else "reject" if r < 1.3 else middle
            value, gap = {"accept": (0.0, 0.0), "reject": (2 * value_target, 0.0),
                          "undecided": (2 * value_target, 2 * value_target)}[verdict]
            return SimpleNamespace(value=value, gap=gap, sampled_coordinates=1,
                                   x=np.zeros(inst.matrix.n_cols))

        monkeypatch.setattr(flow_module, "solve_flow_regress" if solver == "mirror-prox"
                            else "solve_box_linf", probe)
        # two disjoint s-t paths: the tree routes 2 units at congestion 2
        net = FlowNetwork(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0)],
                          source=0, sink=3)
        approx = TreeApproximator(net)
        d = net.st_demand(2.0)
        rd_norm = float(np.abs(approx.apply(d)).max())
        route = almost_route(net, d, approx, eps, solver=solver)
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

    @pytest.mark.parametrize("solver", ["cd-l2", "mirror-prox"])
    def test_each_probe_draws_its_own_stream(self, monkeypatch, solver):
        # the radius-1 probe and the bisection's probes never replay each
        # other's uniforms: a probe's stream counts the probes before it
        route, _ = self.route(monkeypatch, "reject", solver)
        assert route.probes >= 2
        assert self.streams == list(range(route.probes))


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

    def test_mirror_prox_routes_near_max_flow(self):
        # the paper's flow path end to end: tree approximator, radius search
        # and mirror-prox probes
        net = random_connected_graph(np.random.default_rng(6), 6)
        d = net.st_demand(1.0)
        eps = 0.5
        sol = flow_to_regress(net, d, eps=eps, solver="mirror-prox", seed=0)
        np.testing.assert_allclose(incidence_apply(net, sol.flow), d, atol=1e-9)
        # a unit demand routed at congestion c scales to a flow of value 1/c
        assert 1.0 / sol.max_congestion >= dinic_oracle(net).value / (1 + eps) - 1e-9

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
            assert out.flow.tobytes() == search_round(net, feasible).flow.tobytes()
            assert np.abs(out.flow - np.round(out.flow)).max() == 0.0
            assert out.value >= math.floor(fval - 1e-9)
            inner = np.delete(out.achieved_demand, [net.source, net.sink])
            if len(inner):
                assert np.abs(inner).max() <= 1e-9

    @pytest.mark.parametrize("directed", [False, True])
    def test_walk_matches_cycle_search(self, directed):
        # the forward walk takes the search's edges step for step, so it
        # returns the search's bytes; these flows conserve to rounding, so
        # neither meets a lone fractional edge
        rng = np.random.default_rng(24 + directed)
        fractional_flows = fractional_values = 0
        while fractional_flows < 200:
            net, f = mixed_fractional_flow(rng, directed)
            if np.abs(f - np.round(f)).max(initial=0.0) <= 1e-9:
                continue  # every copy found the same max flow
            fractional_flows += 1
            value = incidence_apply(net, f)[net.sink]
            fractional_values += abs(value - round(value)) > 1e-9
            want = search_round(net, f)
            assert round_to_integral(net, f).flow.tobytes() == want.flow.tobytes()
        assert fractional_values >= 50

    def test_single_fractional_edge_has_no_cycle(self):
        # conservation holds to within 1e-6 at vertex 1, so the input is
        # accepted, but vertex 1's one fractional edge lies on no cycle: the
        # walk snaps it to the nearer integer, where the search gave up
        with pytest.raises(SolverFault, match="fractional support without a cycle"):
            search_round(path_net(2), np.array([1.0, 1.0 - 5e-7]))
        out = round_to_integral(path_net(2), np.array([1.0, 1.0 - 5e-7]))
        np.testing.assert_array_equal(out.flow, [1.0, 1.0])
        assert out.value == 1.0

    def test_lone_edges_snap_along_a_chain(self):
        # each snap moves the next vertex's imbalance onto its one other
        # fractional edge, so the walk snaps the path edge by edge, and the
        # unbalanced input that no cycle can carry still rounds
        f = np.array([1.0 - 3e-7, 1.0 - 6e-7, 1.0 - 9e-7, 1.0])
        out = round_to_integral(path_net(4), f)
        np.testing.assert_array_equal(out.flow, np.ones(4))

    def test_rejects_infeasible(self):
        net = path_net(2)
        with pytest.raises(InputError, match="capacit"):
            round_to_integral(net, np.array([2.0, 2.0]))
        with pytest.raises(InputError, match="conservation"):
            round_to_integral(net, np.array([1.0, 0.0]))


def leaf_sink_graph(rng, n=30):
    """A random unit graph whose sink n - 1 hangs off it by one edge."""
    core = random_connected_graph(rng, n - 1, extra_edges=n)
    edges = list(zip(core.tails.tolist(), core.heads.tolist(), core.caps.tolist()))
    return FlowNetwork(n, edges + [(int(rng.integers(1, n - 1)), n - 1, 1.0)],
                       source=0, sink=n - 1)


def necklace(beads):
    """Unit graph of ``beads`` 4-cycles strung at opposite corners from s to
    t, the edges at s and at t doubled: both star cuts have capacity 4, and
    the min cut, 2, lies inside a cycle."""
    edges = []
    for b in range(beads):
        u, v = 3 * b, 3 * b + 3  # a bead's joints; 3b + 1 and 3b + 2 go round
        edges += [(u, u + 1, 1.0), (u + 1, v, 1.0), (u, u + 2, 1.0), (u + 2, v, 1.0)]
    t = 3 * beads
    doubled = [e for e in edges if 0 in e[:2] or t in e[:2]]
    return FlowNetwork(t + 1, edges + doubled, source=0, sink=t)


class TestStarCut:
    """A flow that closes every edge at s, or every edge at t, is maximum, so
    both exact solvers stop there without a search that finds no path."""

    def test_saturated_leaf_sink_is_returned_before_any_list(self, monkeypatch):
        net = leaf_sink_graph(np.random.default_rng(25))
        f = dinic_oracle(net).flow
        assert f[-1] == 1.0  # the sink's one edge is saturated

        def incidence(self):
            raise AssertionError("the CSR incidence was built")

        monkeypatch.setattr(graphs_module.FlowNetwork, "incidence", incidence)
        out = augment_to_max(net, f)
        assert out.flow.tobytes() == f.tobytes()
        assert out.value == 1.0
        assert out.meta == {"searches": 0, "paths": 0, "stop": "star_cut"}

    def test_dinic_stops_after_one_level_search_on_a_leaf_sink(self):
        net = leaf_sink_graph(np.random.default_rng(26))
        out = dinic_oracle(net)
        assert out.value == 1.0
        assert out.meta == {"searches": 1, "paths": 1, "stop": "star_cut"}
        # the arc-pair Dinic gives the same bytes after a second, empty search
        assert out.flow.tobytes() == arc_pair_dinic(net).flow.tobytes()

    @pytest.mark.parametrize("beads", [2, 5])
    def test_necklace_cut_inside_a_bead(self, beads):
        net = necklace(beads)
        assert ford_fulkerson_value(net) == 2.0
        out = dinic_oracle(net)
        assert out.value == 2.0
        assert out.meta["stop"] == "no_path"
        assert out.flow.tobytes() == arc_pair_dinic(net).flow.tobytes()
        aug = augment_to_max(net, np.zeros(net.m))
        assert aug.value == 2.0
        assert aug.meta == {"searches": 3, "paths": 2, "stop": "no_path"}

    def test_flow_short_of_the_cut_by_more_than_the_tolerance_augments(self):
        # an edge is open while its residual exceeds 1e-9 of its capacity
        net = path_net(2)
        out = augment_to_max(net, np.full(2, 1.0 - 2e-9))
        np.testing.assert_array_equal(out.flow, [1.0, 1.0])
        assert out.meta == {"searches": 1, "paths": 1, "stop": "star_cut"}
        within = np.full(2, 1.0 - 1e-9)  # exactly the open bound: closed
        out = augment_to_max(net, within)
        assert out.flow.tobytes() == within.tobytes()
        assert out.meta == {"searches": 0, "paths": 0, "stop": "star_cut"}

    def test_star_edges_beyond_float_resolution_are_filled(self):
        # the 1e-300 path adds nothing a float sum of the s-star can hold, yet
        # it is open until its own edges are full
        net = FlowNetwork(3, [(0, 2, 1e300), (0, 1, 1e-300), (1, 2, 1e-300)],
                          source=0, sink=2)
        want = arc_pair_dinic(net).flow
        np.testing.assert_array_equal(want, [1e300, 1e-300, 1e-300])
        out = dinic_oracle(net)
        assert out.flow.tobytes() == want.tobytes()
        assert out.meta["stop"] == "star_cut"
        aug = augment_to_max(net, np.zeros(net.m))
        assert aug.flow.tobytes() == want.tobytes()
        assert aug.meta == {"searches": 2, "paths": 2, "stop": "star_cut"}


class TestAugmentToMax:
    def test_maximal_input_early_stop(self):
        net = path_net(2)
        out = augment_to_max(net, np.array([1.0, 1.0]))
        assert out.value == 1.0
        assert out.meta["stop"] == "star_cut"

    def test_empty_flow_on_path(self):
        net = path_net(2)
        out = augment_to_max(net, np.zeros(2))
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

    @pytest.mark.parametrize("directed", [True, False])
    def test_rejects_source_equal_to_sink(self, directed):
        # t was found at once, the path was empty and nothing was pushed
        net = FlowNetwork(2, [(0, 1, 1.0)], directed=directed, source=0, sink=0)
        with pytest.raises(InputError, match="source distinct from the sink"):
            augment_to_max(net, np.zeros(1))

    def test_capacitated_flow_against_orientation(self):
        # undirected edges are stored as u < v: from source 2 to sink 0 the
        # flow runs against both, down to -cap
        net = FlowNetwork(3, [(0, 1, 5.0), (1, 2, 4.0)], source=2, sink=0)
        out = augment_to_max(net, np.zeros(2))
        assert out.value == 4.0
        np.testing.assert_array_equal(out.flow, [-4.0, -4.0])


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

    def test_long_path_is_one_search(self):
        # the slot stack is not bounded by the recursion limit
        out = dinic_oracle(path_net(5000))
        assert out.value == 1.0
        assert out.meta == {"searches": 1, "paths": 1, "stop": "star_cut"}

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_arc_pair_reference(self, directed):
        # one flow per edge on the CSR incidence against two arc pairs per
        # undirected edge: the residual of a direction is the sum of its two
        # arcs' residuals, so where every sum is exact (unit and small integer
        # capacities, times 2^40 or 2^-40) the two push the same paths by the
        # same amounts, one push where the arc pairs split it in two.  On a
        # digraph an edge is one arc pair, and the bytes agree at any
        # capacities; undirected U(0.5, 6) capacities agree to rounding
        rng = np.random.default_rng(40 + directed)
        for k in range(240):
            kind = ("unit", "integer", "mixed")[k % 3]
            n = int(rng.integers(3, 40))
            perm = rng.permutation(n)
            edges = [(int(perm[i]), int(perm[rng.integers(0, i)])) for i in range(1, n)]
            for _ in range(int(rng.integers(0, 3 * n))):
                u, v = (int(w) for w in rng.integers(0, n, size=2))
                if u != v:
                    edges.append((u, v))
            for _ in range(int(rng.integers(1, 4))):  # parallel edges
                edges.append(edges[int(rng.integers(len(edges)))])
            caps = (np.ones(len(edges)) if kind == "unit" else
                    rng.integers(1, 5, size=len(edges)).astype(float) if kind == "integer"
                    else rng.uniform(0.5, 6.0, size=len(edges)))
            caps *= 2.0 ** float(rng.choice([0, 40, -40]))
            s, t = (int(w) for w in rng.choice(n, size=2, replace=False))
            net = FlowNetwork(n, [(u, v, c) for (u, v), c in zip(edges, caps.tolist())],
                              directed=directed, source=s, sink=t)
            want, got = arc_pair_dinic(net), dinic_oracle(net)
            if kind == "mixed" and not directed:
                assert got.value == pytest.approx(want.value, rel=1e-12)
                np.testing.assert_allclose(got.flow, want.flow, rtol=0,
                                           atol=1e-12 * want.value)
            else:
                assert got.value == want.value, (kind, k)
                assert got.flow.tobytes() == want.flow.tobytes(), (kind, k)


def recapped(base, caps):
    """``base`` with new capacities, keeping its source and sink."""
    return FlowNetwork(base.n, list(zip(base.tails.tolist(), base.heads.tolist(),
                                        caps.tolist())),
                       source=base.source, sink=base.sink)


def uniform_caps_graph(seed, scale=1.0):
    """A 12-vertex graph with capacities U(0.5, 6) times ``scale``."""
    rng = np.random.default_rng(seed)
    base = random_connected_graph(rng, 12, extra_edges=10)
    return recapped(base, rng.uniform(0.5, 6.0, size=base.m) * scale)


ORACLES = {
    "dinic": dinic_oracle,
    "augmenting": lambda net: augment_to_max(net, np.zeros(net.m)),
}


class TestScaleFreeResiduals:
    """An arc is open while its residual exceeds a fraction of its capacity,
    so the oracles' answers do not depend on the capacities' units."""

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_powers_of_two_scale_the_flow_exactly(self, oracle):
        solve = ORACLES[oracle]
        for seed in range(40):
            base = solve(uniform_caps_graph(seed))
            assert base.value > 0.0
            for k in (40, -40, 1000, -1000):
                out = solve(uniform_caps_graph(seed, 2.0 ** k))
                assert out.value == base.value * 2.0 ** k, (seed, k)
                np.testing.assert_array_equal(out.flow, base.flow * 2.0 ** k)

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_tiny_capacity_path(self, oracle):
        assert ORACLES[oracle](path_net(2, cap=1e-10)).value == 1e-10


def wide_range_graphs():
    """Graphs whose capacities span 600 orders of magnitude: some entries of
    the regression matrix underflow to 0."""
    found = FlowNetwork(4, [(0, 1, 1e300), (1, 2, 1e-300), (2, 3, 1e300),
                            (3, 0, 1e-300), (0, 2, 1e-300)], source=0, sink=2)
    rng = np.random.default_rng(8)
    base = random_connected_graph(rng, 10, extra_edges=8)
    seed8 = recapped(base, 10.0 ** rng.uniform(-300.0, 300.0, size=base.m))
    return {"four-vertex": found, "seed-8": seed8}


class TestWideCapacityRange:
    @pytest.mark.parametrize("name", sorted(wide_range_graphs()))
    def test_underflowing_entries_are_dropped(self, name):
        net = wide_range_graphs()[name]
        approx = TreeApproximator(net)
        matrix, _ = approx.regression_parts(net.st_demand(1.0))
        rows, cols, vals = matrix.flat_entries()
        assert (vals != 0.0).all()
        assert (matrix.row_l1 > 0.0).all()
        # every tree edge keeps its own entry
        own = set(zip(rows.tolist(), cols.tolist()))
        assert all((k, int(e)) in own for k, e in enumerate(approx.tree_edges))
        assert len(vals) < sum(len(p[0]) for p in approx._climb())

    def test_seed_8_graph_routes_within_eps_of_dinic(self):
        # the four-vertex graph is routed by every solver in test_cli.py
        net = wide_range_graphs()["seed-8"]
        opt = dinic_oracle(net).value
        assert opt > 0.0
        sol = flow_to_regress(net, net.st_demand(1.0), 0.2, seed=5)
        value = 1.0 / sol.max_congestion
        assert opt / 1.2 <= value <= opt * (1.0 + 1e-9)


class TestDirectedReduce:
    def test_single_arc_construction(self):
        net = FlowNetwork(2, [(0, 1, 1.0)], directed=True, source=0, sink=1)
        und, f_init, recover = directed_reduce(net)
        assert und.m == 3
        np.testing.assert_array_equal(und.caps, 1.0)
        np.testing.assert_array_equal(np.abs(f_init), 1.0)
        # undirected max-flow value is 2F + (kept arcs) = 3
        assert dinic_oracle(und).value == pytest.approx(3.0)

    def test_antiparallel_decoy(self):
        # path s->a->t plus decoy arc a->s; recovered flow ignores the decoy
        net = FlowNetwork(3, [(0, 1, 1.0), (1, 2, 1.0), (1, 0, 1.0)],
                          directed=True, source=0, sink=2)
        out = exact_unit_maxflow(net, seed=3)
        assert out.value == pytest.approx(dinic_oracle(net).value)
        assert (out.flow >= -1e-9).all()

    def test_vertices_left_without_arcs_are_dropped(self):
        # arc 3->1 enters s: dropping it isolates vertex 2 (0-indexed)
        net = FlowNetwork(3, [(0, 1, 1.0), (2, 0, 1.0)], directed=True,
                          source=0, sink=1)
        und, f_init, recover = directed_reduce(net)
        assert (und.n, und.m, und.source, und.sink) == (2, 3, 0, 1)
        assert (und.tails < und.heads).all()
        assert dinic_oracle(und).value == pytest.approx(3.0)
        assert exact_unit_maxflow(net, seed=0).value == 1.0

    def test_no_kept_arc(self):
        net = FlowNetwork(2, [(1, 0, 1.0)], directed=True, source=0, sink=1)
        assert directed_reduce(net)[0] is None
        out = exact_unit_maxflow(net, seed=0)
        assert out.value == 0.0
        np.testing.assert_array_equal(out.flow, [0.0])

    def test_recover_matches_reduction_decomposition(self):
        # recover decomposes on the digraph what reduction_recover decomposes
        # on the reduction: the same paths, bottlenecks and floats
        rng = np.random.default_rng(14)
        for k in range(400):
            n = int(rng.integers(3, 12))
            base = random_unit_digraph(rng, n)
            s, t = base.source, base.sink
            if k % 3 == 0:  # any other ordered pair, arcs into s and out of t included
                s, t = (int(v) for v in rng.choice(n, 2, replace=False))
            net = FlowNetwork(n, list(zip(base.tails.tolist(), base.heads.tolist(),
                                          base.caps.tolist())),
                              directed=True, source=s, sink=t)
            und, f_init, recover = directed_reduce(net)  # every one keeps an arc
            for f_final in (dinic_oracle(und).flow, augment_to_max(und, f_init).flow,
                            augment_to_max(und, np.zeros(und.m)).flow):
                expect = reduction_recover(net, und, f_init, f_final)
                assert recover(f_final).tobytes() == expect.tobytes()

    def test_recover_rounds_a_fractional_decomposition(self, monkeypatch):
        # s=0 -> 1 -> 3 and s -> 2 -> 3 meet at 3 -> t=4: f_init plus one
        # unit along each path's middle edges is half a digraph path each
        net = FlowNetwork(5, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
                              (3, 4, 1.0)], directed=True, source=0, sink=4)
        und, f_init, recover = directed_reduce(net)
        along = -f_init[1::3]  # f_init runs each middle edge against its arc
        f_final = f_init.copy()
        for path in ([0, 2, 4], [1, 3, 4]):
            f_final[3 * np.array(path) + 1] += along[path]
        assert np.abs(f_final).max() <= 1.0
        np.testing.assert_array_equal(
            np.delete(incidence_apply(und, f_final), [und.source, und.sink]), 0.0)
        rounded = []
        monkeypatch.setattr(flow_module, "round_to_integral",
                            lambda *a: rounded.append(a) or round_to_integral(*a))
        out = recover(f_final)
        assert len(rounded) == 1
        np.testing.assert_array_equal(rounded[0][1], [0.5, 0.5, 0.5, 0.5, 1.0])
        np.testing.assert_array_equal(out, np.round(out))
        achieved = incidence_apply(net, out)
        np.testing.assert_array_equal(np.delete(achieved, [0, 4]), 0.0)
        assert achieved[4] == dinic_oracle(net).value == 1.0

    def test_reduction_value_identity(self):
        rng = np.random.default_rng(8)
        for k in range(5):
            net = random_unit_digraph(rng, int(rng.integers(4, 8)))
            und, f_init, recover = directed_reduce(net)
            f_measure = dinic_oracle(net).value
            kept = und.m // 3  # arcs into s / out of t are dropped
            assert dinic_oracle(und).value == pytest.approx(
                2.0 * f_measure + kept, abs=1e-9
            )


class TestExactPipeline:
    @pytest.mark.parametrize("solver", ["dinic", "gd", "plain-cd"])
    def test_rejects_non_routing_solver(self, solver):
        net = FlowNetwork(2, [(0, 1, 1.0)], source=0, sink=1)
        with pytest.raises(InputError, match=f"solver {solver} cannot route flows"):
            exact_unit_maxflow(net, solver=solver)

    def test_routing_rejects_digraph(self):
        net = FlowNetwork(3, [(0, 1, 1.0), (2, 1, 1.0), (0, 2, 1.0)], directed=True,
                          source=0, sink=2)
        with pytest.raises(InputError, match="c undirected"):
            flow_to_regress(net, net.st_demand(1.0), 0.2)
        with pytest.raises(InputError, match="c undirected"):
            almost_route(net, net.st_demand(1.0), TreeApproximator(net), 0.2)

    @pytest.mark.parametrize("directed", [True, False])
    def test_rejects_source_equal_to_sink(self, directed):
        net = FlowNetwork(2, [(0, 1, 1.0)], directed=directed, source=0, sink=0)
        with pytest.raises(InputError, match="source distinct from the sink"):
            exact_unit_maxflow(net)

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
