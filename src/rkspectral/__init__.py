"""Implicit A-stable Runge-Kutta time stepping for semilinear wave and
Schrodinger equations on spectral grids, with order-study tooling."""

from .errors import (
    ConvergenceFailureError,
    NumericalBlowupError,
    SingularResolventError,
    UnreliableReferenceError,
)
from .harness import (
    ConservationReport,
    ConvergenceReport,
    conservation_run,
    conserved_quantities,
    convergence_study,
    dirichlet_compatibility_study,
    dyadic_h_list,
    nls_two_mode_state,
    random_band_state,
    rough_decay_state,
    smoothness_probe,
    stability_growth,
    tangent_convergence_study,
    wave_band_state,
)
from .problems import (
    Nonlinearity,
    ProblemSpec,
    get_problem,
    list_problems,
    make_nonlinearity,
)
from .spectral import (
    SpectralGrid,
    State,
    apply_A,
    apply_exp_tA,
    base_norm,
    sobolev_norm,
)
from .stepper import (
    SolverConfig,
    StepStats,
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
