"""The public API: the names ``linfflow`` exports.

Adding or removing an export changes this list, so the change is made here
on purpose and named in CHANGES.md.
"""

import linfflow

EXPORTS = [
    "BoxMap", "BufferedUniforms", "CoordSampler", "DynamicTree", "FlowNetwork",
    "FlowSolution", "InfeasibleError", "InputError", "LocalSmoothnessParams",
    "MirrorProxConfig", "PhaseState", "PhaseTables",
    "RegressionInstance", "RegressionResult", "SmoothedObjective",
    "SoftmaxState", "SolverFault", "SparseMatrix", "StaticAlias",
    "SubproblemSolver", "TreeApproximator", "almost_route", "augment_to_max",
    "baselines", "cdsolver", "core", "dinic_oracle", "directed_reduce",
    "errors", "exact_unit_maxflow", "flow", "flow_to_regress",
    "gd_general_norm", "graphs", "incidence_apply", "lcd_steps",
    "make_rng", "mirrorprox", "phase_iterates", "plain_cd",
    "prox_outer_iterate", "read_dimacs",
    "read_matrix_file", "reduce_to_unit_box", "round_to_integral", "run_phase",
    "sample_pj", "sampling", "sign_double", "smoothing",
    "solve_box_linf", "solve_flow_regress", "weak_duality_bound", "write_flow_file",
    "write_matrix_file",
]


def test_exports_are_pinned():
    assert sorted(linfflow.__all__) == EXPORTS


def test_every_export_resolves():
    for name in linfflow.__all__:
        assert getattr(linfflow, name) is not None
