"""CLI: commands, exit statuses, determinism of emitted artifacts."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    box_linf_opt,
    dense_to_sparse,
    random_connected_graph,
    random_sparse,
    random_unit_digraph,
)
from linfflow import cli
from linfflow.cli import build_parser, main
from linfflow.core import read_matrix_file, write_matrix_file
from linfflow.flow import TreeApproximator, augment_to_max, dinic_oracle, flow_to_regress
from linfflow.graphs import read_dimacs


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
        # of SimplexMaintainer (now under tests/) lost positivity and exited 3
        # while it carried mirror-prox's dual
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
        ("linf-matrix v1 1 1 1\n0 0 0.5\nb 0 1\nb 0 2\n",
         "bad.linf:4: a second rhs entry 0; the first is on line 3"),
    ])
    def test_degenerate_matrix_files_rejected(self, tmp_path, capsys, solver, body,
                                              message):
        path = tmp_path / "bad.linf"
        path.write_text(body)
        code, _, err = run(capsys, "regress", "--input", str(path), "--eps", "0.2",
                           "--solver", solver)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("solver", ["cd-l2", "cd-diag", "mirror-prox", "gd",
                                        "plain-cd"])
    def test_zero_column_matrix_file_names_the_columns(self, tmp_path, capsys,
                                                        solver):
        # with no --sparsity-s given, the error must not blame s (whose
        # default, the column count, is 0 here)
        path = tmp_path / "empty.linf"
        path.write_text("linf-matrix v1 2 0 0\n")
        code, _, err = run(capsys, "regress", "--input", str(path), "--solver", solver)
        assert code == 2
        assert "empty.linf:1: header declares 0 columns" in err
        assert "s must" not in err

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

    def test_consecutive_calls_parse_independently(self, tmp_path, capsys):
        # one parser serves every call; no option of one call reaches the next
        rng = np.random.default_rng(2)
        path = tmp_path / "m.linf"
        write_matrix_file(path, dense_to_sparse(rng.normal(size=(3, 3)) * 0.3),
                          b=rng.normal(size=3))
        plain = ["regress", "--input", str(path), "--eps", "0.1"]
        code, first, _ = run(capsys, *plain)
        assert code == 0 and "seed 0" in first
        with pytest.raises(SystemExit) as exc:
            main(plain + ["--solver", "nope"])
        assert exc.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        code, other, _ = run(capsys, *plain, "--solver", "gd", "--seed", "5")
        assert code == 0 and other != first and "seed 5" in other
        assert run(capsys, *plain) == (0, first, "")
        assert build_parser() is build_parser()


# every flag a command used to accept and ignore, with a value
UNREAD_FLAGS = [
    ("regress", ("--format", "linf-matrix")),
    *((command, args) for command in ("maxflow", "exact-flow")
      for args in (("--trace", "t.csv"), ("--sparsity-s", "1"), ("--timing",),
                   ("--format", "dimacs"))),
    ("bench", ("--eps", "0.1")),
    ("bench", ("--output", "x.txt")),
    *(("verify", args) for args in (("--eps", "0.1"), ("--solver", "cd-l2"),
                                    ("--sparsity-s", "1"), ("--trace", "t.csv"),
                                    ("--output", "x.txt"), ("--timing",))),
]


@pytest.mark.parametrize("command, args", UNREAD_FLAGS)
def test_flag_a_command_does_not_read_exits_2(identity_instance, path_graph, capsys,
                                              tmp_path, command, args):
    path = path_graph if command in ("maxflow", "exact-flow") else identity_instance
    flag, *value = args
    value = [str(tmp_path / v) if v.endswith((".csv", ".txt")) else v for v in value]
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", path, flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == list(tmp_path.glob("*.txt")) == []


# input, output and grid arguments the CLI cannot use; "{id}" is the identity
# instance, "{dir}" a temporary directory, "{bytes}" a file that is not UTF-8
UNUSABLE_ARGS = {
    "missing-input": ("regress", "--input", "{dir}/none.linf"),
    "directory-input": ("regress", "--input", "{dir}"),
    "non-utf8-input": ("regress", "--input", "{bytes}"),
    "output-in-missing-dir": ("regress", "--input", "{id}", "--output", "{dir}/no/x.txt"),
    "trace-in-missing-dir": ("regress", "--input", "{id}", "--trace", "{dir}/no/t.csv"),
    "eps-grid-not-numbers": ("bench", "--input", "{id}", "--eps-grid", "abc"),
    "eps-grid-empty": ("bench", "--input", "{id}", "--eps-grid", ""),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_ARGS))
def test_unusable_argument_exits_2(identity_instance, tmp_path, capsys, case):
    binary = tmp_path / "latin1.linf"
    binary.write_bytes(b"linf-matrix v1 1 1 1\n0 0 1.0\nb 0 \xe9\xff\n")
    argv = [a.format(id=identity_instance, dir=tmp_path, bytes=binary)
            for a in UNUSABLE_ARGS[case]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


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

    @pytest.mark.parametrize("command", ["maxflow", "exact-flow", "verify"])
    def test_two_vertex_graph(self, tmp_path, capsys, command):
        # one tree edge, no non-tree edge: the smallest approximator
        path = tmp_path / "two.dimacs"
        path.write_text("c undirected\np max 2 1\nn 1 s\nn 2 t\na 1 2 1\n")
        code, out, err = run(capsys, command, "--input", str(path))
        assert code == 0, err
        assert "Traceback" not in err
        if command != "verify":
            assert float(out.splitlines()[0].split()[1]) == 1.0

    def test_dinic_long_path(self, tmp_path, capsys):
        n = 3000
        path = tmp_path / "long.dimacs"
        path.write_text(f"c undirected\np max {n} {n - 1}\nn 1 s\nn {n} t\n"
                        + "".join(f"a {k} {k + 1} 1\n" for k in range(1, n)))
        code, out, _ = run(capsys, "maxflow", "--input", str(path), "--solver", "dinic")
        assert code == 0
        assert float(out.splitlines()[0].split()[1]) == 1.0

    @pytest.mark.parametrize("solver", ["dinic", "cd-l2"])
    def test_tiny_capacities_route(self, tmp_path, capsys, solver):
        # an absolute residual test of 1e-9 closed every arc: dinic printed 0.0
        path = tmp_path / "tiny.dimacs"
        path.write_text("c undirected\np max 3 2\nn 1 s\nn 3 t\n"
                        "a 1 2 1e-10\na 2 3 1e-10\n")
        code, out, _ = run(capsys, "maxflow", "--input", str(path), "--solver", solver)
        assert code == 0
        assert out.splitlines()[0] == "value 1e-10"

    @pytest.mark.parametrize("solver", ["dinic", "cd-l2", "cd-diag", "mirror-prox"])
    def test_capacities_spanning_600_orders_route(self, tmp_path, capsys, solver):
        # entries 2 alpha cap_f / cutcap_k underflowed to 0 and the matrix
        # check rejected them as explicit zeros (exit 2)
        path = tmp_path / "wide.dimacs"
        path.write_text("c undirected\np max 4 5\nn 1 s\nn 3 t\na 1 2 1e300\n"
                        "a 2 3 1e-300\na 3 4 1e300\na 4 1 1e-300\na 1 3 1e-300\n")
        code, out, err = run(capsys, "maxflow", "--input", str(path), "--eps", "0.2",
                             "--solver", solver)
        assert code == 0, err
        value = float(out.splitlines()[0].split()[1])
        assert 3e-300 / 1.2 <= value <= 3e-300 * (1.0 + 1e-9)

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

    @pytest.mark.parametrize("lines, message", [
        ("p max 3 2\nn 1 s\nn 3 t\nn 2 t", ":5: a second sink designation; the "
         "first is on line 4"),
        ("p max 3 2\nn 1 s\nn 2 s\nn 3 t", ":4: a second source designation; the "
         "first is on line 3"),
        ("p max 3 2\nn 1 s\nn 3 t\np max 4 2", ":5: a second problem line; the "
         "first is on line 2"),
    ], ids=["sink", "source", "problem"])
    @pytest.mark.parametrize("arcs", [2, 80], ids=["lines", "bulk"])
    def test_repeated_header_line_rejected(self, tmp_path, capsys, lines, message,
                                           arcs):
        # a later 'n' line moved the sink, a later 'p' line the vertex count
        path = tmp_path / "dup.dimacs"
        lines = lines.replace("p max 3 2", f"p max 3 {arcs}")
        path.write_text(f"c undirected\n{lines}\n"
                        + "".join(f"a {1 + k % 2} {2 + k % 2} 1\n" for k in range(arcs)))
        for command in ("maxflow", "exact-flow", "verify"):
            code, out, err = run(capsys, command, "--input", str(path))
            assert code == 2
            assert out == ""
            assert f"{path}{message}" in err

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

    def test_exact_flow_rejects_dinic(self, path_graph, capsys):
        # the exact pipeline routes with a regression solver; dinic is not one
        code, out, err = run(capsys, "exact-flow", "--input", path_graph,
                             "--solver", "dinic")
        assert code == 2
        assert out == ""
        assert "solver dinic cannot route flows" in err

    @pytest.mark.parametrize("argv", [
        ("maxflow", "--solver", "cd-l2", "--eps", "0.2"),
        ("maxflow", "--solver", "cd-diag", "--eps", "0.2"),
        ("maxflow", "--solver", "mirror-prox", "--eps", "0.2"),
        ("bench", "--eps-grid", "0.2"),
    ], ids=["cd-l2", "cd-diag", "mirror-prox", "bench"])
    def test_routing_rejects_digraph(self, tmp_path, capsys, argv):
        # routed as undirected, arc 3->2 carried flow -1 and the value read 2.0
        path = tmp_path / "dig.dimacs"
        path.write_text("p max 3 3\nn 1 s\nn 3 t\na 1 2 1\na 3 2 1\na 1 3 1\n")
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2
        assert out == ""
        for hint in ("c undirected", "--solver dinic", "exact-flow"):
            assert hint in err
        for command in (("maxflow", "--solver", "dinic"), ("exact-flow",)):
            code, out, _ = run(capsys, *command, "--input", str(path))
            assert code == 0
            assert out.splitlines()[0] == "value 1.0"

    @pytest.mark.parametrize("arcs, expect", [
        ("p max 3 2\nn 1 s\nn 2 t\na 1 2 1\na 3 1 1\n", 1.0),  # 3 isolated
        ("p max 2 1\nn 1 s\nn 2 t\na 2 1 1\n", 0.0),  # no arc kept
    ], ids=["isolated-vertex", "no-arc-kept"])
    def test_exact_flow_on_digraph_reduced_apart(self, tmp_path, capsys, arcs, expect):
        # dropping arcs into s and out of t left the reduction disconnected
        path = tmp_path / "dig.dimacs"
        path.write_text(arcs)
        values = []
        for command in (("maxflow", "--solver", "dinic"), ("exact-flow",)):
            code, out, err = run(capsys, *command, "--input", str(path))
            assert code == 0, err
            values.append(out.splitlines()[0])
        assert values == [f"value {expect!r}"] * 2

    @pytest.mark.parametrize("directed", [True, False], ids=["digraph", "undirected"])
    def test_exact_flow_source_is_sink_exits_2(self, tmp_path, directed):
        # the digraph keeps no arc, and augmenting from s found t at once with
        # an empty path, for ever: a subprocess, so that a hang fails the test
        path = tmp_path / "st.dimacs"
        path.write_text(("" if directed else "c undirected\n")
                        + "p max 2 1\nn 1 s\nn 1 t\na 1 2 1\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "linfflow.cli", "exact-flow", "--input", str(path)],
            capture_output=True, text=True, timeout=20, env=env)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "source distinct from the sink" in proc.stderr

    @pytest.mark.parametrize("command", ["maxflow", "exact-flow"])
    @pytest.mark.parametrize("eps", ["7", "0", "1", "nan"])
    def test_eps_outside_unit_interval_rejected(self, path_graph, capsys, command, eps):
        # exact-flow picks its own route accuracy, but still rejects a bad --eps
        code, out, err = run(capsys, command, "--input", path_graph, "--eps", eps)
        assert code == 2
        assert out == ""
        assert "eps must lie in (0, 1)" in err

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

    @pytest.mark.parametrize("reader", ["read_dimacs", "read_matrix_file"])
    def test_input_read_once_per_grid(self, identity_instance, tmp_path, capsys,
                                      monkeypatch, reader):
        if reader == "read_dimacs":
            path = tmp_path / "cycle.dimacs"
            path.write_text("c undirected\np max 4 4\nn 1 s\nn 3 t\n"
                            "a 1 2 1\na 2 3 1\na 3 4 1\na 4 1 1\n")
        else:
            path = identity_instance
        calls = []
        real = getattr(cli, reader)
        monkeypatch.setattr(cli, reader, lambda *a: calls.append(a) or real(*a))
        code, out, _ = run(capsys, "bench", "--input", str(path),
                           "--eps-grid", "0.5,0.3,0.2")
        assert code == 0 and len(out.splitlines()) == 4
        assert len(calls) == 1

    def test_dimacs_builds_one_approximator(self, tmp_path, capsys, monkeypatch):
        # every row routes on one TreeApproximator, and prints what a fresh
        # approximator per row prints
        net = random_connected_graph(np.random.default_rng(33), 8, extra_edges=6)
        path = tmp_path / "graph.dimacs"
        path.write_text(f"c undirected\np max {net.n} {net.m}\nn 1 s\nn {net.n} t\n"
                        + "".join(f"a {u + 1} {v + 1} 1\n"
                                  for u, v in zip(net.tails, net.heads)))
        net = read_dimacs(path)
        expected = ["eps,iterations,value"]
        for eps in (0.3, 0.2, 0.1):
            routed = flow_to_regress(net, net.st_demand(1.0), eps, seed=4)
            value = 1.0 / max(routed.max_congestion, 1e-30)
            expected.append(f"{eps},{routed.meta['iterations']},{value!r}")
        builds = []
        init = TreeApproximator.__init__
        monkeypatch.setattr(TreeApproximator, "__init__",
                            lambda self, net: builds.append(net) or init(self, net))
        code, out, _ = run(capsys, "bench", "--input", str(path),
                           "--eps-grid", "0.3,0.2,0.1", "--seed", "4")
        assert code == 0
        assert len(builds) == 1
        assert out == "\n".join(expected) + "\n"

    def test_digraph_rejected_before_the_tree_build(self, tmp_path, capsys,
                                                    monkeypatch):
        path = tmp_path / "dig.dimacs"
        path.write_text("p max 3 3\nn 1 s\nn 3 t\na 1 2 1\na 3 2 1\na 1 3 1\n")

        def refuse(self, net):
            raise AssertionError("bench built a TreeApproximator of a digraph")

        monkeypatch.setattr(TreeApproximator, "__init__", refuse)
        code, out, err = run(capsys, "bench", "--input", str(path), "--eps-grid", "0.2")
        assert code == 2
        assert out == ""
        assert "approximate max flow needs an undirected graph" in err

    def test_bad_eps_rejected(self, identity_instance, capsys):
        code, _, err = run(capsys, "bench", "--input", identity_instance,
                           "--eps-grid", "2.0")
        assert code == 2

    @pytest.mark.parametrize("solver", ["gd", "plain-cd"])
    def test_baselines_run_as_in_regress(self, tmp_path, capsys, solver):
        # one baseline solve per grid row, the same solve regress runs
        path = str(tmp_path / "shifted.linf")
        write_matrix_file(path, dense_to_sparse(np.eye(2)), b=np.array([0.5, -0.3]))
        code, out, _ = run(capsys, "bench", "--input", path, "--eps-grid", "0.1",
                           "--solver", solver)
        assert code == 0
        row = out.splitlines()[1]
        code, reg, _ = run(capsys, "regress", "--input", path, "--eps", "0.1",
                           "--solver", solver)
        assert code == 0
        assert reg.splitlines()[0] == f"value {row.split(',')[2]}"
        assert int(row.split(",")[1]) > 0
        cd_row = run(capsys, "bench", "--input", path, "--eps-grid", "0.1",
                     "--solver", "cd-l2")[1].splitlines()[1]
        assert row != cd_row

    def test_dinic_rejected_on_matrix_input(self, identity_instance, capsys):
        code, out, err = run(capsys, "bench", "--input", identity_instance,
                             "--eps-grid", "0.1", "--solver", "dinic")
        assert code == 2 and out == ""
        assert "dinic does not apply" in err


class TestVerify:
    def test_checks_are_pinned(self, identity_instance, path_graph, capsys):
        # verify checks the input file; a check of the package is a test's job
        for path, names in ((identity_instance, ["column-max-cache", "row-l1-cache",
                                                 "sign-double-identity",
                                                 "softmax-sandwich"]),
                            (path_graph, ["incidence-apply", "dinic-vs-augmenting",
                                          "tree-routes-exactly",
                                          "approximator-sandwich"])):
            code, out, _ = run(capsys, "verify", "--input", path)
            assert code == 0
            assert out.splitlines() == [f"check {name} ok" for name in names]

    def test_digraph_checks_are_pinned(self, tmp_path, capsys):
        # no command routes a digraph on a TreeApproximator, so verify builds none
        path = tmp_path / "dig.dimacs"
        path.write_text("p max 3 3\nn 1 s\nn 3 t\na 1 2 1\na 3 2 1\na 1 3 1\n")
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert out.splitlines() == ["check incidence-apply ok",
                                    "check dinic-vs-augmenting ok"]

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

    @pytest.mark.parametrize("seed,k", [(6, 40), (27, 40), (27, -40)])
    def test_checks_do_not_depend_on_capacity_units(self, tmp_path, capsys, seed, k):
        # absolute tolerances of 1e-9 failed dinic-vs-augmenting at 2^40 and
        # approximator-sandwich at 2^-40
        rng = np.random.default_rng(seed)
        net = random_connected_graph(rng, 12, extra_edges=10)
        caps = rng.uniform(0.5, 6.0, size=net.m) * 2.0 ** k
        path = tmp_path / "scaled.dimacs"
        path.write_text(f"c undirected\np max {net.n} {net.m}\nn 1 s\nn {net.n} t\n"
                        + "".join(f"a {u + 1} {v + 1} {float(c)!r}\n"
                                  for u, v, c in zip(net.tails, net.heads, caps)))
        code, out, _ = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert "FAIL" not in out


def golden_operations(tmp_path):
    """Small fixed-seed CLI operations and their inputs, written under tmp_path.

    Returns ``{name: (argv, written)}``, where ``written`` lists the files the
    operation writes: its solution and, for a regression, its trace.
    """
    rng = np.random.default_rng(31)
    while True:
        matrix = random_sparse(rng, 6, 8, per_col=2, scale=0.5)
        if (matrix.row_l1 > 0).all():
            break
    sparse = tmp_path / "sparse.linf"
    write_matrix_file(sparse, matrix, b=rng.uniform(-1.0, 1.0, 6))
    while True:
        matrix = random_sparse(rng, 3, 5, per_col=2, scale=0.4)
        if (matrix.row_l1 > 0).all():
            break
    small = tmp_path / "small.linf"
    write_matrix_file(small, matrix, b=rng.uniform(-0.8, 0.8, 3))

    def write_dimacs(name, net):
        path = tmp_path / name
        path.write_text(("" if net.directed else "c undirected\n")
                        + f"p max {net.n} {net.m}\nn 1 s\nn {net.n} t\n"
                        + "".join(f"a {u + 1} {v + 1} 1\n"
                                  for u, v in zip(net.tails, net.heads)))
        return path

    graph = write_dimacs("graph.dimacs", random_connected_graph(
        np.random.default_rng(33), 8, extra_edges=6))
    digraph = write_dimacs("digraph.dimacs", random_unit_digraph(
        np.random.default_rng(39), 6, extra_arcs=5))
    # a graph whose mirror-prox routes bisect over five probes each
    small_graph = write_dimacs("small-graph.dimacs", random_connected_graph(
        np.random.default_rng(4), 5))
    ops = {}
    for name, path, solver, eps in (("cd-l2", sparse, "cd-l2", "0.05"),
                                    ("cd-diag", sparse, "cd-diag", "0.05"),
                                    ("mirror-prox", small, "mirror-prox", "0.1")):
        out, trace = tmp_path / f"{name}.x", tmp_path / f"{name}.csv"
        ops[f"regress-{name}"] = (["regress", "--input", str(path), "--solver", solver,
                                   "--eps", eps, "--seed", "3", "--output", str(out),
                                   "--trace", str(trace)], [out, trace])
    for solver, path, eps in (("cd-l2", graph, "0.2"), ("cd-diag", graph, "0.2"),
                              ("mirror-prox", small_graph, "0.5")):
        out = tmp_path / f"maxflow-{solver}.flow"
        ops[f"maxflow-{solver}"] = (["maxflow", "--input", str(path), "--solver",
                                     solver, "--eps", eps, "--seed", "5",
                                     "--output", str(out)], [out])
    for name, path in (("undirected", graph), ("directed", digraph)):
        out = tmp_path / f"exact-{name}.flow"
        ops[f"exact-flow-{name}"] = (["exact-flow", "--input", str(path), "--seed", "5",
                                      "--output", str(out)], [out])
        out = tmp_path / f"dinic-{name}.flow"
        ops[f"maxflow-dinic-{name}"] = (["maxflow", "--input", str(path), "--solver",
                                         "dinic", "--output", str(out)], [out])
    table = tmp_path / "bench.csv"
    ops["bench-cd-diag"] = (["bench", "--input", str(sparse), "--solver", "cd-diag",
                             "--eps-grid", "0.1,0.05", "--seed", "3",
                             "--trace", str(table)], [table])
    return ops


# sha256 of stdout, then of each file written, of every golden operation; a
# refactor that keeps the CLI's output byte-identical keeps them.  The six
# prox-CD hashes (regress-cd-l2, regress-cd-diag, maxflow-cd-l2,
# maxflow-cd-diag, exact-flow-undirected and bench-cd-diag) were recorded
# when ``lcd_steps`` began to skip, between two certificate checks, the
# columns whose projected step is 0: it draws from the curvature law
# conditioned on the other columns and no longer counts the null steps, so
# every prox-CD transcript moved.  regress-mirror-prox's and the two
# maxflow-dinic hashes were recorded when the fixed laws (prox-CD's static
# summand and row tables, mirror-prox's static and row branches) began to be
# drawn by bisecting one uniform into prefix sums instead of through Walker
# alias tables: the laws stayed, but the map from a uniform to an index and
# the last bits of the row masses moved.
# exact-flow-directed's moved at neither change (its one probe's fractional
# flow rounds to the same integral flow); it was recorded before
# the flow pipeline stopped setting each ``FlowSolution.value`` twice.
# maxflow-mirror-prox's was recorded once each mirror-prox probe drew from a
# stream of its own (before, every probe of a route replayed the first one's
# uniforms, and the value was 1.8954 where it is now 1.9368).  The two
# maxflow-dinic hashes were recorded on the arc-pair Dinic
# (``reference_steps.arc_pair_dinic``), before it gave way to the one over the
# CSR incidence
GOLDEN = {
    "bench-cd-diag": [
        "64d8fa8c6516514115b0ebac49b9c457efb994c8ea05acfcb14fa6184d66610e",
        "64d8fa8c6516514115b0ebac49b9c457efb994c8ea05acfcb14fa6184d66610e",
    ],
    "exact-flow-directed": [
        "54a8b53579ec63d9f25abf3de1161c75124276d6a6adba5792c0b52dce538516",
        "302aa0a9a9c740f979bff76468b51f8f4a0e8d7d7c8f7624fdc0b3636d99b4ac",
    ],
    "exact-flow-undirected": [
        "70c85b2b3359625b0f1eb30f368b6ded6f3d80871fd52bf03ecba522c8d75d08",
        "8a0b80df22a20b23647e3d2a88324726b05f7dd782b12d115c38c819fc4bb079",
    ],
    "maxflow-cd-diag": [
        "2b46b45c36a69d55d816370d16c6191c12ae2fcb805cecfecf7cbaf14e594123",
        "8ce55c7ec4deb97f26aa8889f97ef57757e89bf1f64910c3a2996fdb6301a54a",
    ],
    "maxflow-cd-l2": [
        "23670e8e4557ff7ad4d92e277f278fa42d8e217a89b8732019f86fdcfd0e249a",
        "507ea6cef2a0a4eb879f86445ea670e7f812fb3ec635516054d204aba23da2da",
    ],
    "maxflow-dinic-directed": [
        "ec129dfeda9491f9581d0c3744da3980c7cbe0e9899db4c8e94255371432351d",
        "302aa0a9a9c740f979bff76468b51f8f4a0e8d7d7c8f7624fdc0b3636d99b4ac",
    ],
    "maxflow-dinic-undirected": [
        "e290863b3a03796a254e008b4c0c5cb3282302585bec3662d15b74dc388f99bf",
        "63962e1fe9f13728ce2d9f5320c145a6e3f2ffe63ea23ab59d66c87ef339cb31",
    ],
    "maxflow-mirror-prox": [
        "46ea4ad3702fd0cceec9620adbf292dbb300b817c3b21a5ff64982bfb11bbab6",
        "be34183a4746f041e70515c37aeaa91883b683f8419230e62a76480b45768ce9",
    ],
    "regress-cd-diag": [
        "c510cedabfc411c3d42471401b1af14a17d5c7529c63d1a96f4db4912c9c0db5",
        "0ed64d6c96b46a4f2cadafb3fba114fc08fba6465db05104cf215c67e6d73165",
        "24d427627deb179c51fe66ec0b2e2b0e7e7a4ee29518374c6078932f79806110",
    ],
    "regress-cd-l2": [
        "c510cedabfc411c3d42471401b1af14a17d5c7529c63d1a96f4db4912c9c0db5",
        "6a3f3219ca0069ffd6dd3047fe77e44c9c38170f9f2a94148e96cca323a9b9e1",
        "c7200b867ba9a215bc34c7a3fa8255f23dd51edf282b630231e3b28a49c0a6c4",
    ],
    "regress-mirror-prox": [
        "b311e291949dae1f9869b77597e48bd95dfb21856eed7f01d645a680beb7978a",
        "99539b65f8af01df7a6694e4678e4ce31dab0f31417fff3e98ec549370e35745",
        "227a9ba1863facf291edb4f38b586ed23be13b05d493538d44ab74647cd0f0a1",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_outputs(tmp_path, capsys, name):
    argv, written = golden_operations(tmp_path)[name]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # the output passes its oracle before its hash is compared, so a hash that
    # moves comes with proof that the new output is still correct: a
    # regression value (each bench row's too) lies within eps above the LP
    # optimum, an approximate flow value within a factor (1 - eps) of
    # Dinic's, and an exact flow value is Dinic's
    source = argv[argv.index("--input") + 1]
    if name.startswith("bench"):
        matrix, b = read_matrix_file(source)
        opt, _ = box_linf_opt(matrix.to_dense(), b)
        for row in out.splitlines()[1:]:
            eps, _, value = (float(v) for v in row.split(","))
            assert opt - 1e-9 <= value <= opt + eps
    else:
        value = float(out.splitlines()[0].removeprefix("value "))
        if name.startswith("exact-flow"):
            assert value == dinic_oracle(read_dimacs(source)).value
        elif name.startswith("maxflow-dinic"):
            # an oracle other than the solver under test
            net = read_dimacs(source)
            assert value == augment_to_max(net, np.zeros(net.m)).value
        elif name.startswith("regress"):
            eps = float(argv[argv.index("--eps") + 1])
            matrix, b = read_matrix_file(source)
            opt, _ = box_linf_opt(matrix.to_dense(), b)
            assert opt - 1e-9 <= value <= opt + eps
        else:
            eps = float(argv[argv.index("--eps") + 1])
            flow_value = dinic_oracle(read_dimacs(source)).value
            assert (1.0 - eps) * flow_value <= value <= flow_value + 1e-9
    digests = [hashlib.sha256(out.encode()).hexdigest()]
    digests += [hashlib.sha256(path.read_bytes()).hexdigest() for path in written]
    assert digests == GOLDEN[name]
