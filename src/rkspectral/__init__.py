"""Implicit A-stable Runge-Kutta time stepping for semilinear wave and
Schrodinger equations on spectral grids, with order-study tooling."""

from .errors import (
    ConvergenceFailureError,
    DomainEscapeError,
    NumericalBlowupError,
    SingularResolventError,
    UnreliableReferenceError,
)
from .harness import (
    ConvergenceReport,
    ReferenceInfo,
    conserved_quantities,
    convergence_study,
    dirichlet_compatibility_study,
    dyadic_h_list,
    nls_two_mode_state,
    random_band_state,
    reference_solution,
    rough_decay_state,
    smoothness_probe,
    stability_growth,
    tangent_convergence_study,
    wave_band_state,
)
from .problems import (
    NlsNonlinearity,
    ProblemSpec,
    WaveNonlinearity,
    dirichlet_boundary_defect,
    evaluate_B,
    get_problem,
    list_problems,
    make_nonlinearity,
    standard_problems,
)
from .spectral import (
    SpectralGrid,
    StageSet,
    State,
    apply_A,
    apply_exp_tA,
    apply_S_hA,
    base_norm,
    hermitian_symmetry_defect,
    schrodinger_grid,
    sobolev_norm,
    solve_stage_resolvent,
    wave_grid,
)
from .stepper import (
    SolverConfig,
    StepStats,
    fixed_point_stages,
    integrate,
    step,
    tangent_step,
)
from .tableau import (
    ButcherTableau,
    StabilityReport,
    check_a_stability,
    gauss_legendre,
    quadrature_order,
    resolve_tableau,
    stability_function,
)

__version__ = "0.1.0"
