"""Regression Monte-Carlo solvers for two-time backward stochastic systems.

The package simulates a Brownian ensemble once, then sweeps a family of
backward equations over the time square by least-squares regression,
recovering the adapted value process, its kernel under three solution
concepts, and a dynamic coherent risk measure built on top.
"""

from .analytic import (
    CASES,
    ConvergenceTable,
    ErrorReport,
    ReferenceCase,
    ReferenceFields,
    convergence_study,
    error_metrics,
    get_case,
    reference_fields,
)
from .ensemble import PathEnsemble, sample_ensemble
from .expr import ExprError, eval_expr, format_expr, free_variables, parse
from .fields import (
    AdaptedField,
    SurfaceField,
    SymmetricSurface,
    design_matrix,
)
from .girsanov import (
    DriftError,
    DriftSpec,
    SelftestReport,
    girsanov_selftest,
    tilt,
)
from .grid import TimeGrid, build_grid
from .norms import s2_norm, y_l2, z_cells_l2
from .regression import (
    BasisSpec,
    DegenerateEnsembleError,
    NodeDesign,
    RegressionError,
)
from .risk import (
    Aggregator,
    AxiomCheck,
    AxiomReport,
    RiskSetupError,
    RiskSpec,
    RouteReport,
    check_axioms,
    discount_factor,
    position_terminal,
    rho,
    route_agreement,
)
from .solver import (
    Driver,
    Generator,
    ProblemSpec,
    ResidualReport,
    SolveReport,
    SolverConfig,
    SolverError,
    Terminal,
    residual,
    solve_adapted,
    solve_m,
    solve_s,
)

__version__ = "0.1.0"
