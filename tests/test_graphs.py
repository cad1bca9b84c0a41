"""Graph setup on arrays: bulk DIMACS parsing, connectivity, spanning tree, incidence.

Each bulk path is checked against the loop it replaces above
``graphs._BULK_EDGES``: the tests set that crossover out of reach to get the
loop's answer on the same input.  The spanning tree has no loop; it is
checked against ``helpers.kruskal_tree`` at every size.
"""

import numpy as np
import pytest

from helpers import kruskal_tree, random_connected_graph
from linfflow import graphs as graphs_module
from linfflow.cli import main
from linfflow.errors import InputError
from linfflow.flow import TreeApproximator
from linfflow.graphs import FlowNetwork, read_dimacs


def dimacs_text(n, arcs, undirected=True):
    """A DIMACS file of 1-based ``(u, v, cap)`` arcs, each written as given."""
    head = "c undirected\n" if undirected else ""
    head += f"p max {n} {len(arcs)}\nn 1 s\nn {n} t\n"
    return head + "".join(f"a {u} {v} {c}\n" for u, v, c in arcs)


def graph_arcs(rng, n=60, extra=120):
    net = random_connected_graph(rng, n, extra_edges=extra)
    caps = rng.integers(1, 9, size=net.m)
    return [(u + 1, v + 1, c) for u, v, c in zip(net.heads.tolist(), net.tails.tolist(),
                                               caps.tolist())]


def read_both(monkeypatch, path):
    """``read_dimacs(path)`` in bulk, then by the line loop: nets or messages."""
    out = []
    for bulk in (True, False):
        if not bulk:
            monkeypatch.setattr(graphs_module, "_BULK_EDGES", 10 ** 9)
        try:
            out.append(read_dimacs(path))
        except InputError as exc:
            out.append(str(exc))
    return out


def bulk_parses(path):
    return graphs_module._bulk_arcs(path.read_text(encoding="utf-8").split("\n")) is not None


def assert_same_network(a, b):
    for name in ("tails", "heads", "caps"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert (a.n, a.directed, a.source, a.sink) == (b.n, b.directed, b.source, b.sink)


class TestBulkParse:
    @pytest.mark.parametrize("undirected", [True, False])
    def test_bulk_builds_what_the_loop_builds(self, tmp_path, monkeypatch, undirected):
        rng = np.random.default_rng(41)
        arcs = graph_arcs(rng)
        arcs = [(u, v, c * 0.37) if k % 3 else (u, v, c) for k, (u, v, c) in enumerate(arcs)]
        path = tmp_path / "g.dimacs"
        text = dimacs_text(60, arcs, undirected)
        # a comment between the arcs, blank lines and a file without a last newline
        lines = text.splitlines()
        lines.insert(len(lines) // 2, "c between the arcs a 1 2 3")
        path.write_text("\n".join(lines[:10] + ["", "  "] + lines[10:]))
        assert bulk_parses(path)
        bulk, loop = read_both(monkeypatch, path)
        assert_same_network(bulk, loop)

    def test_arc_lines_spelt_otherwise_keep_their_order(self, tmp_path, monkeypatch):
        # a tab after the tag or a leading blank: the loop reads every arc
        arcs = graph_arcs(np.random.default_rng(42))
        lines = dimacs_text(60, arcs).splitlines()
        lines[8] = lines[8].replace("a ", "a\t", 1)
        lines[30] = " " + lines[30]
        path = tmp_path / "g.dimacs"
        path.write_text("\n".join(lines) + "\n")
        bulk, loop = read_both(monkeypatch, path)
        assert_same_network(bulk, loop)
        assert bulk.m == len(arcs)

    @pytest.mark.parametrize("bad, message", [
        ("a 1 2 x", ":71: could not convert string to float: 'x'"),
        ("a 1.5 2 1", ":71: invalid literal for int() with base 10: '1.5'"),
        ("a 1 2", ":71: expected 'a <u> <v> <cap>'"),
        ("a 1 2 1 1", ":71: expected 'a <u> <v> <cap>'"),
        ("a 1 2 3 a 4 5 6", ":71: expected 'a <u> <v> <cap>'"),
        ("a 1 99 1", "edge 66: endpoint out of range"),
        ("a 0 2 1", "edge 66: endpoint out of range"),
        ("a 99999999999999999999 2 1", "edge 66: endpoint out of range"),
        ("a 2 2 1", "edge 66: self loop at 1"),
        ("a 1 2 nan", "edge 66: capacity nan must be finite"),
        ("a 1 2 1e-320", "edge 66: capacity 1e-320 must be finite"),
    ])
    def test_malformed_arc_past_the_crossover(self, tmp_path, monkeypatch, bad, message):
        arcs = graph_arcs(np.random.default_rng(43))
        lines = dimacs_text(60, arcs).splitlines()
        lines.insert(70, bad)  # after 4 header lines and 66 arcs
        lines[1] = f"p max 60 {len(arcs) + 1}"
        path = tmp_path / "bad.dimacs"
        path.write_text("\n".join(lines) + "\n")
        bulk, loop = read_both(monkeypatch, path)
        assert bulk == loop
        assert message in loop

    def test_promised_arc_count_checked(self, tmp_path, monkeypatch):
        arcs = graph_arcs(np.random.default_rng(44))
        path = tmp_path / "g.dimacs"
        path.write_text(dimacs_text(60, arcs).replace(f"p max 60 {len(arcs)}",
                                                      f"p max 60 {len(arcs) + 2}"))
        bulk, loop = read_both(monkeypatch, path)
        assert bulk == loop == (f"{path}: problem line promises {len(arcs) + 2} arcs, "
                                f"found {len(arcs)}")

    def test_tokens_int_accepts(self, tmp_path, monkeypatch):
        # int() and float() read "+1", "1_0" and non-ASCII digits; so does the bulk
        arcs = graph_arcs(np.random.default_rng(45))
        spelt = {"1": "+1", "10": "1_0", "3": "٣", "4": "0_4"}
        arcs = [(spelt.get(str(u), u), spelt.get(str(v), v), spelt.get(str(c), c))
                for u, v, c in arcs]
        assert {"+1", "1_0", "٣"} <= {str(x) for arc in arcs for x in arc}
        path = tmp_path / "g.dimacs"
        path.write_text(dimacs_text(60, arcs), encoding="utf-8")
        assert bulk_parses(path)
        bulk, loop = read_both(monkeypatch, path)
        assert_same_network(bulk, loop)


def tree_graphs(kind):
    """Random multigraphs with tied, distinct or widely spread capacities."""
    rng = np.random.default_rng({"tied": 51, "distinct": 52, "wide": 53}[kind])
    for n in (2, 5, 12, 40, 150, 400):
        for _ in range(4):
            perm = rng.permutation(n)
            edges = [(int(perm[k]), int(perm[rng.integers(0, k)])) for k in range(1, n)]
            extra = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
            edges += [(int(u), int(v)) for u, v in extra if u != v]
            edges += edges[:int(rng.integers(0, 4))]  # parallel edges
            order = rng.permutation(len(edges))
            m = len(edges)
            caps = {"tied": rng.integers(1, 4, size=m).astype(float),
                    "distinct": rng.permutation(m) + 1.0,
                    "wide": 10.0 ** rng.uniform(-300, 300, size=m)}[kind]
            yield FlowNetwork(n, [(*edges[i], float(c)) for i, c in zip(order, caps)],
                              directed=bool(rng.integers(0, 2)))


class TestSpanningTree:
    @pytest.mark.parametrize("kind", ["tied", "distinct", "wide"])
    def test_tree_edges_are_kruskals(self, kind):
        # Borůvka's rounds at every size, the smallest graphs included
        for net in tree_graphs(kind):
            expected = kruskal_tree(net)
            assert net.max_spanning_tree().tolist() == expected
            assert TreeApproximator(net).tree_edges.tolist() == expected

    def test_edgeless_graph_has_an_empty_tree(self):
        tree = FlowNetwork(1, []).max_spanning_tree()
        assert tree.dtype == np.int64 and tree.tolist() == []


class TestConnectivity:
    def test_relabelled_long_path_connected(self):
        n = 20_000
        perm = np.random.default_rng(61).permutation(n)
        net = FlowNetwork(n, list(zip(perm[:-1].tolist(), perm[1:].tolist(),
                                      [1.0] * (n - 1))))
        assert net._connected()
        assert sorted(net.max_spanning_tree().tolist()) == list(range(n - 1))

    def disconnected_arcs(self):
        rng = np.random.default_rng(62)
        arcs = graph_arcs(rng, 40, 60)
        return arcs + [(u + 40, v + 40, c) for u, v, c in graph_arcs(rng, 40, 60)]

    def test_disconnected_above_crossover_rejected(self):
        arcs = self.disconnected_arcs()
        assert len(arcs) >= graphs_module._BULK_EDGES
        with pytest.raises(InputError, match="connected"):
            FlowNetwork(80, [(u - 1, v - 1, c) for u, v, c in arcs])

    @pytest.mark.parametrize("command", ["maxflow", "exact-flow"])
    def test_cli_exits_2_on_disconnected(self, tmp_path, capsys, command):
        path = tmp_path / "split.dimacs"
        path.write_text(dimacs_text(80, [(u, v, 1) for u, v, _ in self.disconnected_arcs()]))
        assert main([command, "--input", str(path)]) == 2
        assert "connected" in capsys.readouterr().err


class TestIncidence:
    def test_entries_in_edge_order(self):
        rng = np.random.default_rng(71)
        for directed in (False, True):
            net = random_connected_graph(rng, 30, extra_edges=40)
            if directed:
                net = FlowNetwork(30, list(zip(net.heads.tolist(), net.tails.tolist(),
                                               net.caps.tolist())), directed=True)
            adj = [[] for _ in range(net.n)]  # the hand-built list it replaces
            for e, (u, v) in enumerate(zip(net.tails.tolist(), net.heads.tolist())):
                adj[u].append((v, e, 1.0))
                adj[v].append((u, e, -1.0))
            ptr, neighbor, edge, sign = net.incidence()
            for u in range(net.n):
                a, b = ptr[u], ptr[u + 1]
                assert list(zip(neighbor[a:b].tolist(), edge[a:b].tolist(),
                                sign[a:b].tolist())) == adj[u]
