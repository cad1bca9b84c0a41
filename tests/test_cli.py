"""CLI: commands, exit statuses, determinism of emitted artifacts."""

import numpy as np
import pytest

from helpers import box_linf_opt, dense_to_sparse, random_connected_graph, random_sparse
from linfflow.cli import main
from linfflow.core import write_matrix_file


@pytest.fixture
def identity_instance(tmp_path):
    path = tmp_path / "id.linf"
    write_matrix_file(path, dense_to_sparse(np.eye(2)), b=None)
    return str(path)


@pytest.fixture
def path_graph(tmp_path):
    path = tmp_path / "path.dimacs"
    path.write_text(
        "c undirected\np max 3 2\nn 1 s\nn 3 t\na 1 2 1\na 2 3 1\n"
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRegress:
    def test_zero_rhs_identity(self, identity_instance, capsys, tmp_path):
        out_path = str(tmp_path / "x.txt")
        code, out, _ = run(capsys, "regress", "--input", identity_instance,
                           "--eps", "0.01", "--output", out_path)
        assert code == 0
        assert out.splitlines()[0] == "value 0.0"
        xs = [float(v) for v in open(out_path).read().split()]
        assert xs == [0.0, 0.0]

    @pytest.mark.parametrize("solver", ["cd-l2", "cd-diag", "mirror-prox",
                                        "gd", "plain-cd"])
    def test_all_regress_solvers_run(self, tmp_path, capsys, solver):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3)) * 0.3
        path = tmp_path / "m.linf"
        write_matrix_file(path, dense_to_sparse(a), b=rng.normal(size=3) * 0.3)
        code, out, _ = run(capsys, "regress", "--input", str(path),
                           "--eps", "0.1", "--solver", solver, "--seed", "3")
        assert code == 0
        assert out.startswith("value ")

    def test_mirror_prox_eight_by_sixteen_within_eps(self, tmp_path, capsys):
        # 8 rows, 16 columns: the instance on which the bucket partition sums
        # of SimplexMaintainer lost positivity (exit 3)
        rng = np.random.default_rng(5)
        while True:
            matrix = random_sparse(rng, 8, 16, per_col=2, scale=0.5)
            if (matrix.row_l1 > 0).all():
                break
        scale = max(matrix.norm_inf, 1.0)
        a = matrix.to_dense() / scale
        b = rng.uniform(-0.8, 0.8, 8)
        path = tmp_path / "m.linf"
        write_matrix_file(path, dense_to_sparse(a), b=b)
        code, out, _ = run(capsys, "regress", "--input", str(path), "--eps", "0.1",
                           "--solver", "mirror-prox", "--seed", "3")
        assert code == 0
        opt, _ = box_linf_opt(a, b)
        assert opt - 1e-9 <= float(out.splitlines()[0].split()[1]) <= opt + 0.1

    def test_parse_failure_status(self, tmp_path, capsys):
        bad = tmp_path / "bad.linf"
        bad.write_text("linf-matrix v1 2 2 1\n0 0 oops\n")
        code, _, err = run(capsys, "regress", "--input", str(bad))
        assert code == 2
        assert "bad.linf:2" in err

    def test_non_finite_entry_rejected(self, tmp_path, capsys):
        bad = tmp_path / "nan.linf"
        bad.write_text("linf-matrix v1 2 2 2\n0 0 1.0\n1 1 nan\n")
        code, _, err = run(capsys, "regress", "--input", str(bad))
        assert code == 2
        assert "non-finite value nan at (1, 1)" in err

    def test_non_finite_rhs_rejected(self, tmp_path, capsys):
        bad = tmp_path / "inf.linf"
        bad.write_text("linf-matrix v1 2 2 2\n0 0 1.0\n1 1 1.0\nb 0 inf\n")
        code, _, err = run(capsys, "regress", "--input", str(bad))
        assert code == 2
        assert "rhs entry 0 is not finite" in err

    def test_cd_trace_has_elapsed_only_under_timing(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "m.linf"
        write_matrix_file(path, dense_to_sparse(rng.normal(size=(3, 3)) * 0.3),
                          b=rng.normal(size=3))
        traces = {}
        for flag in ((), ("--timing",)):
            trace = tmp_path / f"t{len(flag)}.csv"
            code, _, _ = run(capsys, "regress", "--input", str(path), "--eps", "0.05",
                             "--seed", "4", "--trace", str(trace), *flag)
            assert code == 0
            traces[flag] = trace.read_text().splitlines()
        plain, timed = traces[()], traces[("--timing",)]
        assert plain[0] == "outer_iter,inner_iters,objective,seed"
        assert timed[0] == "outer_iter,inner_iters,objective,elapsed_ns,seed"
        assert len(plain) == len(timed) > 1
        for p_row, t_row in zip(plain[1:], timed[1:]):
            p_cells, t_cells = p_row.split(","), t_row.split(",")
            assert int(t_cells[3]) > 0
            assert p_cells == t_cells[:3] + t_cells[4:]

    def test_mirror_prox_trace_has_one_row_per_phase(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        while True:
            matrix = random_sparse(rng, 3, 5, per_col=2, scale=0.4)
            if (matrix.row_l1 > 0).all():
                break
        b = rng.uniform(-0.8, 0.8, 3)
        path = tmp_path / "m.linf"
        write_matrix_file(path, matrix, b=b)
        trace = tmp_path / "mp.csv"
        code, out, _ = run(capsys, "regress", "--input", str(path), "--eps", "0.2",
                           "--solver", "mirror-prox", "--seed", "1",
                           "--trace", str(trace))
        assert code == 0
        rows = [r.split(",") for r in trace.read_text().splitlines()]
        assert rows[0] == ["phase", "iterations", "value", "lower_bound"]
        assert len(rows) > 1
        assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
        for _, iters, value, lower in rows[1:]:
            assert int(iters) >= 0
            assert float(lower) <= float(value)  # weak duality, phase by phase
        # the returned value is the best of x = 0 and the phases' points
        reported = float(out.splitlines()[0].split()[1])
        assert reported <= min(float(r[2]) for r in rows[1:])

    @pytest.mark.parametrize("solver", ["cd-l2", "mirror-prox", "gd"])
    @pytest.mark.parametrize("body, message", [
        ("linf-matrix v1 0 3 0\n", "at least one row"),
        ("linf-matrix v1 -1 3 0\n", "non-negative"),
        ("linf-matrix v1 2 1000000000000 0\n", "exceeds the 1000000"),
        ("linf-matrix v1 1 1 1\n0 0 1e300\nb 0 1.0\n", "exceeds 1e+140"),
        ("linf-matrix v1 1 1 1\n0 0 0.5\nb 0 1e300\n", "rhs entry 0 exceeds"),
        ("linf-matrix v1 1 2 2\n0 0 1e100\n0 1 -1e100\nb 0 3\n",
         "below the floating-point resolution"),
    ])
    def test_degenerate_matrix_files_rejected(self, tmp_path, capsys, solver, body,
                                              message):
        path = tmp_path / "bad.linf"
        path.write_text(body)
        code, _, err = run(capsys, "regress", "--input", str(path), "--eps", "0.2",
                           "--solver", solver)
        assert code == 2
        assert message in err

    def test_mirror_prox_underflowing_row_rejected(self, tmp_path, capsys):
        # sqrt(s * colmax * |A_ij|) underflows to 0, so the row cannot be sampled
        path = tmp_path / "tiny.linf"
        path.write_text("linf-matrix v1 2 2 2\n0 0 0.5\n1 1 1e-320\nb 0 0.2\n")
        code, _, err = run(capsys, "regress", "--input", str(path), "--eps", "0.2",
                           "--solver", "mirror-prox")
        assert code == 2
        assert "row 1 of the instance is too small to sample" in err

    def test_byte_identical_reruns(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "m.linf"
        write_matrix_file(path, dense_to_sparse(rng.normal(size=(3, 2))),
                          b=rng.normal(size=3))
        outs = []
        for k in range(2):
            trace = tmp_path / f"t{k}.csv"
            code, out, _ = run(capsys, "regress", "--input", str(path),
                               "--eps", "0.05", "--seed", "7",
                               "--trace", str(trace))
            assert code == 0
            outs.append((out, trace.read_bytes()))
        assert outs[0] == outs[1]


class TestFlowCommands:
    def test_maxflow_path_graph(self, path_graph, capsys, tmp_path):
        flow_out = str(tmp_path / "f.txt")
        code, out, _ = run(capsys, "maxflow", "--input", path_graph,
                           "--eps", "0.1", "--output", flow_out)
        assert code == 0
        lines = dict(l.split(" ", 1) for l in out.splitlines())
        assert float(lines["value"]) >= 0.9
        body = open(flow_out).read()
        assert body.startswith("e 1 2 ") and "value" in body

    def test_exact_flow(self, path_graph, capsys):
        code, out, _ = run(capsys, "exact-flow", "--input", path_graph)
        assert code == 0
        assert float(out.splitlines()[0].split()[1]) == 1.0

    def test_dinic_solver_choice(self, path_graph, capsys):
        code, out, _ = run(capsys, "maxflow", "--input", path_graph,
                           "--solver", "dinic")
        assert code == 0
        assert float(out.splitlines()[0].split()[1]) == 1.0

    def test_dinic_long_path(self, tmp_path, capsys):
        n = 3000
        path = tmp_path / "long.dimacs"
        path.write_text(f"c undirected\np max {n} {n - 1}\nn 1 s\nn {n} t\n"
                        + "".join(f"a {k} {k + 1} 1\n" for k in range(1, n)))
        code, out, _ = run(capsys, "maxflow", "--input", str(path), "--solver", "dinic")
        assert code == 0
        assert float(out.splitlines()[0].split()[1]) == 1.0

    def test_dinic_source_is_sink_rejected(self, tmp_path, capsys):
        path = tmp_path / "loop.dimacs"
        path.write_text("c undirected\np max 3 2\nn 1 s\nn 1 t\na 1 2 1\na 2 3 1\n")
        code, _, err = run(capsys, "maxflow", "--input", str(path), "--solver", "dinic")
        assert code == 2
        assert "distinct" in err

    def test_subnormal_capacity_rejected(self, tmp_path, capsys):
        # congestion divides by the capacity; 1e-320 printed "value nan"
        path = tmp_path / "sub.dimacs"
        path.write_text("p max 3 2\nn 1 s\nn 3 t\na 1 2 1e-320\na 2 3 1\n")
        code, out, err = run(capsys, "maxflow", "--input", str(path), "--eps", "0.2")
        assert code == 2
        assert "edge 0: capacity" in err and "nan" not in out

    def test_too_few_arcs_rejected_before_allocating(self, tmp_path, capsys):
        # a trillion vertices cannot be connected by 2 arcs; nothing O(n) is built
        path = tmp_path / "huge.dimacs"
        path.write_text("p max 1000000000000 2\nn 1 s\nn 3 t\na 1 2 1\na 2 3 1\n")
        for command in ("maxflow", "exact-flow", "verify"):
            code, _, err = run(capsys, command, "--input", str(path))
            assert code == 2
            assert "connected" in err

    @pytest.mark.parametrize("command", ["maxflow", "exact-flow"])
    def test_source_is_sink_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "loop.dimacs"
        path.write_text("c undirected\np max 3 2\nn 1 s\nn 1 t\na 1 2 1\na 2 3 1\n")
        code, _, err = run(capsys, command, "--input", str(path))
        assert code == 2
        assert "distinct" in err

    @pytest.mark.parametrize("cap", ["nan", "inf"])
    def test_non_finite_capacity_rejected(self, tmp_path, capsys, cap):
        path = tmp_path / "cap.dimacs"
        path.write_text(
            f"c undirected\np max 3 2\nn 1 s\nn 3 t\na 1 2 {cap}\na 2 3 1\n")
        code, out, err = run(capsys, "maxflow", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "edge 0: capacity" in err

    @pytest.mark.parametrize("terminals", ["n 9 s\nn 3 t", "n 1 s\nn 9 t"],
                             ids=["source", "sink"])
    def test_terminal_out_of_range_rejected(self, tmp_path, capsys, terminals):
        path = tmp_path / "far.dimacs"
        path.write_text(f"c undirected\np max 3 2\n{terminals}\na 1 2 1\na 2 3 1\n")
        code, _, err = run(capsys, "maxflow", "--input", str(path))
        assert code == 2
        assert "vertex 8 out of range for 3 vertices" in err

    @pytest.mark.parametrize("solver", ["gd", "plain-cd"])
    def test_maxflow_rejects_non_routing_solver(self, path_graph, capsys, solver):
        code, out, err = run(capsys, "maxflow", "--input", path_graph,
                             "--solver", solver)
        assert code == 2
        assert out == ""
        assert f"solver {solver} cannot route flows" in err

    @pytest.mark.parametrize("solver", ["gd", "plain-cd"])
    def test_exact_flow_rejects_non_routing_solver(self, path_graph, capsys, solver):
        code, out, err = run(capsys, "exact-flow", "--input", path_graph,
                             "--solver", solver)
        assert code == 2
        assert out == ""
        assert f"solver {solver} cannot route flows" in err

    @pytest.mark.parametrize("command", ["maxflow", "exact-flow"])
    def test_flow_file_fields_are_numbers(self, path_graph, capsys, tmp_path, command):
        flow_out = tmp_path / "f.txt"
        code, _, _ = run(capsys, command, "--input", path_graph, "--output", str(flow_out))
        assert code == 0
        lines = flow_out.read_text().splitlines()
        assert [l.split()[0] for l in lines] == ["e", "e", "value"]
        for line in lines[:-1]:
            _, u, v, f = line.split()
            float(u), float(v), float(f)
        _, value, label, congestion = lines[-1].split()
        assert label == "congestion"
        float(value), float(congestion)


class TestBench:
    def test_bench_rows(self, identity_instance, capsys, tmp_path):
        trace = tmp_path / "bench.csv"
        code, out, _ = run(capsys, "bench", "--input", identity_instance,
                           "--eps-grid", "0.1,0.05,0.025",
                           "--trace", str(trace))
        assert code == 0
        rows = trace.read_text().splitlines()
        assert rows[0] == "eps,iterations,value"  # no wall clock by default
        assert len(rows) == 4
        for row in rows[1:]:
            assert len(row.split(",")) == 3
        assert out == trace.read_text()

    def test_timing_adds_elapsed_column(self, identity_instance, capsys):
        code, out, _ = run(capsys, "bench", "--input", identity_instance,
                           "--eps-grid", "0.1,0.05", "--timing")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "eps,iterations,elapsed_ns,value"
        for row in rows[1:]:
            assert int(row.split(",")[2]) > 0

    def test_dimacs_rows_count_probe_iterations(self, tmp_path, capsys):
        # on a 4-cycle the spanning tree routes at congestion 2, so a probe runs
        path = tmp_path / "cycle.dimacs"
        path.write_text("c undirected\np max 4 4\nn 1 s\nn 3 t\n"
                        "a 1 2 1\na 2 3 1\na 3 4 1\na 4 1 1\n")
        code, out, _ = run(capsys, "bench", "--input", str(path), "--eps-grid", "0.5")
        assert code == 0
        assert int(out.splitlines()[1].split(",")[1]) > 0

    def test_bad_eps_rejected(self, identity_instance, capsys):
        code, _, err = run(capsys, "bench", "--input", identity_instance,
                           "--eps-grid", "2.0")
        assert code == 2


class TestVerify:
    def test_matrix_checks(self, identity_instance, capsys):
        code, out, _ = run(capsys, "verify", "--input", identity_instance)
        assert code == 0
        assert "check softmax-sandwich ok" in out

    def test_graph_checks(self, path_graph, capsys):
        code, out, _ = run(capsys, "verify", "--input", path_graph)
        assert code == 0
        assert "check dinic-vs-augmenting ok" in out
        assert "check approximator-sandwich ok" in out

    def test_matrix_checks_stay_sparse(self, tmp_path, capsys):
        # a dense n x m view of this matrix would take 80 GB
        path = tmp_path / "wide.linf"
        path.write_text("linf-matrix v1 100000 100000 3\n0 0 1.5\n"
                        "99999 99999 -2.0\n5000 70000 0.25\nb 3 1.0\n")
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert "check column-max-cache ok" in out
        assert "check row-l1-cache ok" in out

    def test_capacitated_path_checks_pass(self, tmp_path, capsys):
        # augmenting on the unit residual graph once found 1 against Dinic's 5
        path = tmp_path / "cap.dimacs"
        path.write_text("p max 3 2\nn 1 s\nn 3 t\na 1 2 5\na 2 3 5\n")
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert "check dinic-vs-augmenting ok" in out
        assert "FAIL" not in out

    def test_random_capacitated_graph_matches_dinic(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        net = random_connected_graph(rng, 10, extra_edges=8)
        caps = rng.uniform(0.5, 6.0, size=net.m)
        path = tmp_path / "rand.dimacs"
        path.write_text(f"c undirected\np max {net.n} {net.m}\nn 1 s\nn {net.n} t\n"
                        + "".join(f"a {u + 1} {v + 1} {float(c)!r}\n"
                                  for u, v, c in zip(net.tails, net.heads, caps)))
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert "check dinic-vs-augmenting ok" in out
        assert "FAIL" not in out
