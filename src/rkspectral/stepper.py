"""The implicit Runge-Kutta time step.

Every run goes through one flow, ``_flow``, on coefficient arrays
(..., c, n): ``step`` and ``integrate`` on one state, ``tangent_step``
on the stacked (primal, tangent) pair, the same method tied together
only by the nonlinearity (B(u), DB(u) v).  The order studies and
``harness.conservation_run`` call ``_flow`` directly; ``State`` objects
appear only at the public edge.

Stages solve the fixed-point equation

    W = (I - h a (x) A)^{-1} (1 u + h a B(W))

by plain iteration.  The first step of every run, so a single ``step``
or ``tangent_step``, starts from the B = 0 solution.  Each later step
starts from

    W_0 = (I - h a (x) A)^{-1} (1 u + h a E [F_{n-K+1}; ...; F_n]),

where F_m is step m's final-iteration B, kept for the last
K = ceil(P / s) steps with P = 8 for s = 1 and P = max(s, 5) for
s >= 2 (``_predictor_points``), and E[i, j] = l_j(1 + c_i) evaluates
the Lagrange basis on the last P history node times
(c - (K - 1), ..., c - 1, c) at the new step's nodes: the "starting
values" of Hairer & Wanner (Solving ODEs II, section IV.8), continued
across steps.  The first steps of a run use the min(P, j s) node times
their j steps provide.  B is extrapolated, not W, so the stiff linear
part still goes through the resolvent and highly oscillatory modes are
never extrapolated.  At large h the extrapolated start can leave the
iteration's basin; a step whose predicted iteration diverges to a
non-finite residual restarts from the B = 0 solution.  The update is
then evaluated in resolvent form,

    u' = S(hA) u + G B(W_prev),    G = h b^T (I - h a (x) A)^{-1},

which stays well defined for arbitrarily stiff spectral symbols.  A run
builds h a and the per-mode forcing blocks G, (c, s c) each, once,
beside its step matrices, so no iteration scales by h and the update is
two applications of the block kernel and an add.  The update reuses
the B(W_prev) that the final iteration evaluated to produce the
returned stages W, so no further nonlinearity evaluation is needed.
Because W = (I - h a (x) A)^{-1} (1 u + h a B(W_prev)) holds exactly,
this equals the form u' = u + (b^T a^{-1} (x) I)(W - 1 u) of Hairer &
Wanner (Solving ODEs II, section IV.8): W are exact Runge-Kutta stages
for the right-hand side A W + B(W_prev), whose mismatch with A W + B(W)
is of the size of the final fixed-point update.  The iteration
contracts when h times the local Lipschitz constant of B (times the
stage-matrix norm) is below one; the recorded contraction estimate is
the empirical face of that product and scales linearly in h.

On a wave grid with a sine or cosine basis (Dirichlet or Neumann), real
data stay real: the step matrices are float64 (as on every wave grid),
and B maps a real displacement to a real velocity forcing.  So when a
run's starting coefficients have no nonzero imaginary part, ``_flow``
runs the stage iteration, the predictor and the update on float64
arrays -- the same functions, half the arithmetic -- and returns
float64 coefficients; the public functions wrap them in complex
states.  Every operation of that run rounds like the real part of its
complex counterpart -- the pointwise maps of B too, whose powers are
products -- so the float64 flow equals the complex flow bit for bit.  Complex data on such a grid,
periodic grids (whose real fields have complex coefficients) and the
Schrodinger equation keep complex arithmetic.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, InputError, NumericalBlowupError, _count, _real
from .problems import ProblemSpec, evaluate_B_array, evaluate_B_pair_array
from .spectral import (
    State,
    _apply_stage_inv,
    _apply_update,
    _base_norm_sq_rows,
    _stage_rows,
    step_matrices,
)
from .tableau import ButcherTableau

# A contraction estimate above this warns that h is near the iteration's limit.
_CONTRACTION_WARN = 0.9

# A stage iteration that has not converged after this many iterations fails.
_FP_MAX_ITERS = 200

# Most steps of one run, an order-study level too: far above the 2,000 of
# the longest any study or workload runs, and low enough that a count far
# out of range fails at once instead of running for ever.
_MAX_STEPS = 2**20


# The predictor's point count.  Extrapolating B through P history node
# times amplifies rounding by E's largest row sum, max_i sum_j |E[i, j]|.
# For s = 1 the nodes are one step apart and the sum is 2**P - 1; the
# Gauss nodes of s >= 2 stages cluster within a step, and it grows much
# faster in P:
#
#     s    P = 5    P = 6    P = 7    P = 8
#     1       31       63      127      255
#     2      139      347      857    1,999
#     4      735    3,300   11,241   33,431
#
# Over NLS, periodic and Dirichlet wave runs at h = 0.02..0.00125, five
# points take 10-42% fewer stage iterations than s points for s = 1..4,
# while s + 2 points take up to 36% more at s = 8.  For s = 1 on that
# ladder (T = 0.5, n = 64), eight points take fewer than five: NLS 1,930
# -> 1,166, periodic, Dirichlet and Neumann waves 995 -> 840, 979 -> 837
# and 990 -> 839, the NLS tangent pair (n = 32) 2,270 -> 1,582.  Nine
# points take about as many (15% fewer on random NLS data), ten to twelve
# take more on NLS (1,307-1,447).
# Large steps cost more: over 60 steps, eight points take 2-4% more
# iterations than five on NLS at h = 0.1..0.3 and 3-6% more on the
# Dirichlet wave at h = 0.3..4.  The more points, the smaller the first
# step tried (h = 0.1..2) at which the NLS start leaves the iteration's
# basin: 1.5 for five, 0.7 for six or seven, 0.4 for eight and 0.35 for
# nine.  Such steps restart from B = 0 (``_solve_stages``); at
# h = 0.4..1, where five points still converged, eight then take 9-17%
# more iterations.
def _predictor_points(s):
    """How many history node times the predictor extrapolates B through."""
    return 8 if s == 1 else max(s, 5)


@dataclass(frozen=True)
class SolverConfig:
    """Step size and fixed-point iteration controls.

    ``fp_tol`` is an absolute tolerance on the base-norm stage update;
    order studies must keep it well below the local error they resolve.
    A step that has not met it after ``_FP_MAX_ITERS`` iterations fails.
    """

    h: float
    fp_tol: float

    def __post_init__(self):
        h = _real("h", self.h)
        if not 0 < h < math.inf:
            raise InputError("h", f"step size must be finite and positive, got {self.h!r}")
        fp_tol = _real("fp_tol", self.fp_tol)
        if not 0 < fp_tol < math.inf:
            raise InputError("fp_tol", f"fp_tol must be finite and positive, got {self.fp_tol!r}")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "fp_tol", fp_tol)


@dataclass(frozen=True)
class StepStats:
    iterations: int
    final_residual: float
    contraction_estimate: float


def _stage_residual(grid, delta):
    """Max base norm over stages (and any leading axes) of a stage-data difference."""
    return math.sqrt(_base_norm_sq_rows(grid, delta).max())


def _solve_stages(stage_inv, ha, grid, base, B, cfg, predicted):
    """Plain iteration ``W = stage_inv (1 base + ha B(W))`` on stage arrays,
    where ``ha`` is the tableau's a scaled by the step ``cfg.h``.

    ``base`` holds states (..., c, n); the stages W have shape
    (..., s, c, n) and ``B`` maps them to their nonlinearity.  The
    iteration starts from ``stage_inv (1 base + ha predicted)``, where
    ``predicted`` is a guess of B at the stages, or None for the B = 0
    solution.  A predicted start whose iteration diverges to a
    non-finite residual restarts from the B = 0 solution, within the same
    ``_FP_MAX_ITERS`` iterations, so ``stats.iterations`` still counts
    every B evaluation.  The residual is the largest base-norm update
    over all stages.  Returns the stages, the B evaluated by the final
    iteration (at the iterate before the returned stages) and the
    statistics; a contraction estimate above ``_CONTRACTION_WARN`` warns
    at the first frame outside this module and ``harness``: the code that
    asked for the step, the run, the study or the probe.
    """
    h = cfg.h
    base = base[..., None, :, :]
    w = _first_iterate(stage_inv, ha, base, predicted)
    residuals = []
    for iteration in range(1, _FP_MAX_ITERS + 1):
        forcing = B(w)
        w_new = _apply_stage_inv(stage_inv, base + np.einsum("ij,...jcn->...icn", ha, forcing))
        residual = _stage_residual(grid, w_new - w)
        if not math.isfinite(residual):
            if predicted is None or iteration == _FP_MAX_ITERS:
                raise NumericalBlowupError(
                    f"non-finite stage residual at iteration {iteration} (h={h:g})"
                )
            # at large h the extrapolated start can leave the iteration's basin
            predicted, residuals = None, []
            w = _first_iterate(stage_inv, ha, base, None)
            continue
        residuals.append(residual)
        w = w_new
        if residual <= cfg.fp_tol:
            stats = StepStats(iteration, residual, _contraction(residuals))
            if stats.contraction_estimate > _CONTRACTION_WARN:
                frame, level = sys._getframe(), 1
                while frame.f_globals.get("__name__") in (__name__, f"{__package__}.harness"):
                    frame, level = frame.f_back, level + 1
                warnings.warn(
                    f"fixed-point contraction {stats.contraction_estimate:.3f} near 1; "
                    f"step size {h:g} is close to the convergence limit",
                    stacklevel=level,
                )
            return w, forcing, stats
    raise ConvergenceFailureError(
        StepStats(_FP_MAX_ITERS, residuals[-1], _contraction(residuals)), cfg.fp_tol, h
    )


def _first_iterate(stage_inv, ha, base, predicted):
    """``stage_inv (1 base + ha predicted)``, or ``stage_inv (1 base)``
    (the B = 0 solution) when ``predicted`` is None; ``base`` has a stage
    axis of length 1."""
    if predicted is not None:
        start = base + np.einsum("ij,...jcn->...icn", ha, predicted)
    else:
        start = np.broadcast_to(base, base.shape[:-3] + (len(ha),) + base.shape[-2:])
    return _apply_stage_inv(stage_inv, start)


def _contraction(residuals):
    if len(residuals) < 2 or residuals[0] == 0.0:
        return 0.0
    return residuals[1] / residuals[0]


def _update(update, forcing_block, base, forcing):
    """Resolvent-form update ``S(hA) base + (h b^T stage_inv) forcing``, where
    ``forcing`` is the final iteration's B, as returned by ``_solve_stages``,
    and ``forcing_block`` the per-mode (c, s c) blocks ``_forcing_block``
    builds once per run."""
    return _apply_update(update, base) + _apply_update(forcing_block, _stage_rows(forcing))


def _forcing_block(stage_inv, hb):
    """The update's per-mode forcing blocks ``h b^T stage_inv``, (c, s c, n):
    the rows of the stage inverse (s c, s c, n), stage j's scaled by
    ``hb[j]`` = h b_j, added in order of j."""
    rows = stage_inv.reshape((len(hb), -1) + stage_inv.shape[1:])
    return (hb[:, None, None, None] * rows).sum(axis=0)


def _check_grid(p, *states):
    if any(u.grid != p.grid for u in states):
        raise ValueError("state lives on a different grid than the problem")


def _extrapolation_matrix(c, points):
    """``E[i, j] = l_j(1 + c_i)``: the Lagrange basis on the last ``points``
    history node times, evaluated at the next step's nodes.

    The history of K = ceil(points / s) steps has the node times
    tau = (c - (K - 1), ..., c - 1, c), oldest first, in units of h from
    the start of the last step, and E has one column per node.  A node
    older than the last ``points``, or coinciding with a newer one (as
    the step boundary does for a tableau with nodes 0 and 1), gets a zero
    column.  The nodes ``c`` of one step are distinct (``_extrapolations``).
    """
    s = len(c)
    steps = -(-points // s)
    tau = np.concatenate([c - k for k in range(steps - 1, -1, -1)])
    nodes = []
    for j in reversed(range(len(tau) - points, len(tau))):
        if tau[j] not in tau[nodes]:
            nodes.append(j)
    nodes.sort()
    x = 1.0 + c
    e = np.zeros((s, len(tau)))
    for j in nodes:
        e[:, j] = 1.0
        for m in nodes:
            if m != j:
                e[:, j] *= (x - tau[m]) / (tau[j] - tau[m])
    return e


def _extrapolations(c, steps):
    """The predictor's matrices of a run of ``steps`` steps: entry j - 1
    extrapolates from the min(P, j s) node times of the last j steps, for
    j = 1..min(K, steps - 1); none when two nodes of one step coincide."""
    s = len(c)
    if len(set(c.tolist())) < s:
        return []
    points = _predictor_points(s)
    return [_extrapolation_matrix(c, min(points, j * s))
            for j in range(1, min(-(-points // s), steps - 1) + 1)]


def _real_data(grid, x):
    """Whether the coefficients ``x`` are real data on a Dirichlet or
    Neumann wave grid, which ``_flow`` steps in float64."""
    return grid.equation == "wave" and grid.bc != "periodic" and not x.imag.any()


def _check_steps(steps):
    """The step-count rule of a run: an integer from 1 to ``_MAX_STEPS``."""
    if not 1 <= _count("steps", steps) <= _MAX_STEPS:
        raise InputError("steps", f"steps must be at least 1 and at most {_MAX_STEPS}, "
                                  f"got {steps!r}")


def _flow(p, t, x, cfg, steps, B, observer=None):
    """Take ``steps`` steps of size ``cfg.h`` from the coefficients ``x``
    (..., c, n), whose stage arrays the evaluator ``B(p, w)`` maps to
    their nonlinearity; return the final coefficients and the per-step
    statistics.

    Each step after the first starts from the predicted B (see the
    module docstring), through as many past steps as the run's
    ``_extrapolations`` take.  Real data on a Dirichlet or Neumann wave
    grid run, and come back, in float64.  The observer, when given, is
    called after each step with (step_index, coefficients, stats).
    """
    stage_inv, update = step_matrices(t, cfg.h, p.grid)
    ha = cfg.h * t.a
    forcing_block = _forcing_block(stage_inv, cfg.h * t.b)
    if _real_data(p.grid, x):
        x = x.real.copy()
    extrapolations = _extrapolations(t.c, steps)
    forcings = deque(maxlen=len(extrapolations))
    history = []
    # a blow-up shows as a non-finite residual or final state: numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for index in range(steps):
            predicted = None
            if forcings:
                predicted = np.einsum("ij,...jcn->...icn", extrapolations[len(forcings) - 1],
                                      np.concatenate(forcings, axis=-3))
            _, forcing, stats = _solve_stages(stage_inv, ha, p.grid, x, lambda w: B(p, w),
                                              cfg, predicted)
            x = _update(update, forcing_block, x, forcing)
            forcings.append(forcing)
            history.append(stats)
            if observer is not None:
                observer(index, x, stats)
    if not np.isfinite(x).all():
        raise NumericalBlowupError(f"non-finite state after step {steps} (h={cfg.h:g})")
    return x, history


def step(
    p: ProblemSpec, t: ButcherTableau, u: State, cfg: SolverConfig
) -> tuple[State, StepStats]:
    """Advance one step of size cfg.h.

    The stage iteration starts from the B = 0 solution.  The update
    reuses the final stage iteration's B, so a step makes exactly
    ``stats.iterations`` evaluations of B.
    """
    _check_grid(p, u)
    coeffs, history = _flow(p, t, u.coeffs, cfg, 1, evaluate_B_array)
    return State(p.grid, coeffs), history[0]


def integrate(
    p: ProblemSpec, t: ButcherTableau, u0: State, cfg: SolverConfig, steps: int
) -> tuple[State, list[StepStats]]:
    """Apply the step map ``steps`` times, reporting per-step statistics.

    The first step is ``step``; each later step starts its stage
    iteration from the B of the last steps extrapolated to its nodes.
    """
    _check_steps(steps)
    _check_grid(p, u0)
    coeffs, history = _flow(p, t, u0.coeffs, cfg, steps, evaluate_B_array)
    return State(p.grid, coeffs), history


def tangent_step(
    p: ProblemSpec, t: ButcherTableau, u: State, v: State, cfg: SolverConfig
) -> tuple[State, State, StepStats]:
    """One step of the extended (primal, tangent) system.

    The linear part acts blockwise, so the pair runs through the shared
    flow as a batch of two states; only the coupled nonlinearity
    (B(U), DB(U) V), evaluated with one transform pass for both, ties
    them together in the iteration.  The iteration starts from the
    B = 0 solution.
    """
    _check_grid(p, u, v)
    pair = np.stack([u.coeffs, v.coeffs])
    (u_new, v_new), history = _flow(p, t, pair, cfg, 1, evaluate_B_pair_array)
    return State(p.grid, u_new), State(p.grid, v_new), history[0]
