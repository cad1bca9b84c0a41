"""The four benchmark workloads: their inputs, CLI operations and oracle checks.

``build(name, seed, inputs_dir, outputs_dir)`` generates every input from the
seed, writes it to ``inputs_dir`` and returns a ``Workload``.  An operation is
one ``linfflow.cli.main`` argv list plus the check run on its answer.  Every
operation passes ``--seed 0`` to the CLI: the solver's own random draws (the
mirror-prox phase lengths above all) are then the same in every run, and the
spread between benchmark seeds measures the instances, not the draws.

Sizes are chosen so that a round of a workload takes at most about 20 s on a
2-core machine, with several instances per round where the cost of one instance
swings between seeds; linfbench/README.md gives the reasons for each.  ``smoke=True`` shrinks every size for the repeatability test.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import gen
import oracles


@dataclass
class Op:
    argv: list
    check: object  # check(stdout) -> list of problems


@dataclass
class Workload:
    loads: list = field(default_factory=list)  # [kind, path] read by setup_s
    ops: list = field(default_factory=list)


SIZES = {
    False: {
        "regress": (120, 7), "regress_eps": 0.5, "regress_opt": 6.0,
        "mp_small": (2, 4, 8, 0.5), "mp_large": (4, 8, 2, 0.7),
        "necklace": (5, 5), "mf_graphs": 30, "exact_graphs": 2, "digraph": (4, 3),
        "large_n": 20000, "large_m": 30000, "path_n": 3000,
    },
    True: {
        "regress": (30, 1), "regress_eps": 0.1, "regress_opt": 5.0,
        "mp_small": (2, 4, 1, 0.5), "mp_large": (3, 6, 1, 0.5),
        "necklace": (2, 2), "mf_graphs": 2, "exact_graphs": 1, "digraph": (4, 3),
        "large_n": 300, "large_m": 450, "path_n": 3000,
    },
}
FLOW_EPS = 0.1
REGRESS_B_SCALE = 3.0


def _regress_op(wl, inst, name, solver, eps, inputs_dir, outputs_dir):
    path = os.path.join(inputs_dir, f"{name}.linf")
    out = os.path.join(outputs_dir, f"{name}-{solver}.x")
    gen.write_matrix(path, inst)
    if ["matrix", path] not in wl.loads:
        wl.loads.append(["matrix", path])
    opt = {}

    def check(stdout):
        if "v" not in opt:
            opt["v"] = oracles.lp_optimum(inst)
        x = np.loadtxt(out, ndmin=1)
        return oracles.check_regression(inst, x, oracles.printed(stdout, "value"),
                                        eps, opt["v"])

    wl.ops.append(Op(["regress", "--input", path, "--solver", solver, "--eps", str(eps),
                      "--seed", "0", "--output", out], check))


def _flow_op(wl, g, name, command, inputs_dir, outputs_dir, solver="cd-l2",
             eps=FLOW_EPS):
    path = os.path.join(inputs_dir, f"{name}.dimacs")
    out = os.path.join(outputs_dir, f"{name}-{command}-{solver}.flow")
    if not os.path.exists(path):
        gen.write_dimacs(path, g)
        wl.loads.append(["dimacs", path])
    exact = command == "exact-flow" or solver == "dinic"
    true = {}

    def check(stdout):
        if "v" not in true:
            true["v"] = gen.max_flow_value(g)
        tails, heads, flows, value = oracles.read_flow_file(out)
        problems = oracles.check_flow(g, tails, heads, flows, value, true["v"],
                                      eps=None if exact else eps)
        if oracles.printed(stdout, "value") != value:
            problems.append("stdout value differs from the flow file")
        return problems

    wl.ops.append(Op([command, "--input", path, "--solver", solver, "--eps", str(eps),
                      "--seed", "0", "--output", out], check))


def regress_cd(seed, inputs_dir, outputs_dir, sz):
    wl = Workload()
    n, count = sz["regress"]
    rng = np.random.default_rng([seed, 1])
    for k in range(count):
        inst = gen.scale_to_optimum(gen.column_sparse(rng, n, n, 4, b_scale=REGRESS_B_SCALE),
                                    sz["regress_opt"], oracles.lp_optimum)
        for solver in ("cd-l2", "cd-diag"):
            _regress_op(wl, inst, f"sparse{k}", solver, sz["regress_eps"], inputs_dir,
                        outputs_dir)
    return wl


def mirror_prox(seed, inputs_dir, outputs_dir, sz):
    wl = Workload()
    rng = np.random.default_rng([seed, 2])
    for n, m, count, eps in (sz["mp_small"], sz["mp_large"]):
        for k in range(count):
            inst = gen.flow_shaped(rng, n, m)
            _regress_op(wl, inst, f"flow{n}x{m}-{k}", "mirror-prox", eps, inputs_dir,
                        outputs_dir)
    return wl


def maxflow(seed, inputs_dir, outputs_dir, sz):
    wl = Workload()
    rng = np.random.default_rng([seed, 3])
    for k in range(sz["mf_graphs"]):
        _flow_op(wl, gen.necklace(rng, *sz["necklace"]), f"necklace{k}", "maxflow",
                 inputs_dir, outputs_dir)
    for k in range(sz["exact_graphs"]):
        _flow_op(wl, gen.necklace(rng, *sz["necklace"]), f"exact{k}", "exact-flow",
                 inputs_dir, outputs_dir)
        _flow_op(wl, gen.unit_digraph(rng, *sz["digraph"]), f"digraph{k}", "exact-flow",
                 inputs_dir, outputs_dir)
    return wl


def flow_large(seed, inputs_dir, outputs_dir, sz):
    wl = Workload()
    g = gen.leaf_sink_graph(np.random.default_rng([seed, 4]), sz["large_n"], sz["large_m"])
    _flow_op(wl, g, "large", "maxflow", inputs_dir, outputs_dir)
    _flow_op(wl, g, "large", "exact-flow", inputs_dir, outputs_dir)
    _flow_op(wl, g, "large", "maxflow", inputs_dir, outputs_dir, solver="dinic")
    # independent of the seed: the recursive Dinic DFS overflows the Python
    # stack on a long path, so this operation fails until Dinic is iterative
    _flow_op(wl, gen.path_graph(sz["path_n"]), "path", "maxflow", inputs_dir,
             outputs_dir, solver="dinic")
    return wl


WORKLOADS = {
    "regress-cd": regress_cd,
    "mirror-prox": mirror_prox,
    "maxflow": maxflow,
    "flow-large": flow_large,
}


def build(name, seed, inputs_dir, outputs_dir, smoke=False):
    return WORKLOADS[name](seed, inputs_dir, outputs_dir, SIZES[smoke])
