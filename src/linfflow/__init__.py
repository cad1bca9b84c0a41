"""Box-constrained max-residual regression solvers and max-flow pipelines.

Two solver families minimize ``max_i |(A x - b)_i|`` over the unit box:

* a proximal outer loop around locally adaptive randomized coordinate descent
  (l2 or column-weighted geometry), and
* a phased randomized mirror-prox method whose dual simplex variable is kept
  as a dense vector of log-weights over the rows of ``A``; the recursion's
  dense reference and the paper's implicit structure for it (measured
  slower) are kept under ``tests/`` only.

Neither builds the sign-doubled matrix ``[A; -A]`` (``sign_double``).

On top of them sit the flow reductions: spanning-tree congestion
approximation, demand routing by bisection over the congestion radius (one
regression matrix per approximator, shared by every radius probe), rounding
to integral flows, and augmenting-path finishing for exact unit-capacity
maximum flows.
"""

from .baselines import SmoothedObjective, gd_general_norm, plain_cd
from .cdsolver import (
    SubproblemSolver,
    lcd_steps,
    prox_outer_iterate,
    solve_box_linf,
)
from .core import (
    BoxMap,
    RegressionInstance,
    RegressionResult,
    SparseMatrix,
    read_matrix_file,
    reduce_to_unit_box,
    sign_double,
    weak_duality_bound,
    write_matrix_file,
)
from .errors import InfeasibleError, InputError, SolverFault
from .flow import (
    TreeApproximator,
    almost_route,
    augment_to_max,
    dinic_oracle,
    directed_reduce,
    exact_unit_maxflow,
    flow_to_regress,
    round_to_integral,
)
from .graphs import (
    FlowNetwork,
    FlowSolution,
    incidence_apply,
    read_dimacs,
    write_flow_file,
)
from .mirrorprox import (
    MirrorProxConfig,
    PhaseState,
    PhaseTables,
    phase_iterates,
    run_phase,
    sample_pj,
    solve_flow_regress,
)
from .sampling import (
    BufferedUniforms,
    CoordSampler,
    DynamicTree,
    StaticAlias,
    make_rng,
)
from .smoothing import LocalSmoothnessParams, SoftmaxState

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
