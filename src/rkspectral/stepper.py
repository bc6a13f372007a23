"""The implicit Runge-Kutta time step.

Stages solve the fixed-point equation

    W = (I - h a (x) A)^{-1} (1 u + h a B(W))

by plain iteration started from the B = 0 solution; the update is then
evaluated in resolvent form,

    u' = S(hA) u + h b^T (I - h a (x) A)^{-1} B(W),

which stays well defined for arbitrarily stiff spectral symbols.  The
iteration contracts when h times the local Lipschitz constant of B
(times the stage-matrix norm) is below one; the recorded contraction
estimate is the empirical face of that product and scales linearly
in h.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, NumericalBlowupError
from .problems import ProblemSpec, evaluate_B_array, evaluate_B_tangent_array
from .spectral import (
    StageSet,
    State,
    _apply_stage_inv,
    _apply_update,
    _base_norm_sq_rows,
    apply_A,
    base_norm,
    step_matrices,
)
from .tableau import ButcherTableau


@dataclass(frozen=True)
class SolverConfig:
    """Step size and fixed-point iteration controls.

    ``fp_tol`` is an absolute tolerance on the base-norm stage update;
    order studies must keep it well below the local error they resolve.
    ``debug_checks`` additionally evaluates the direct update form each
    step and verifies it against the resolvent form.
    """

    h: float
    fp_tol: float = 1e-12
    fp_max_iters: int = 200
    contraction_warn: float = 0.9
    debug_checks: bool = False

    def __post_init__(self):
        if self.h < 0 or not math.isfinite(self.h):
            raise ValueError("step size must be finite and nonnegative")
        if self.fp_tol <= 0:
            raise ValueError("fixed-point tolerance must be positive")
        if self.fp_max_iters < 1:
            raise ValueError("iteration cap must be at least 1")


@dataclass(frozen=True)
class StepStats:
    iterations: int
    final_residual: float
    contraction_estimate: float


def _stage_residual(grid, delta):
    """Max base norm over stages (and any leading axes) of a stage-data difference."""
    return math.sqrt(float(np.max(_base_norm_sq_rows(grid, delta))))


def _solve_stages(stage_inv, a, h, grid, base, B, cfg):
    """Plain iteration ``W = stage_inv (1 base + h a B(W))`` on stage arrays.

    ``base`` holds states (..., c, n); the stages W have shape
    (..., s, c, n) and ``B`` maps them to their nonlinearity.  The
    residual is the largest base-norm update over all stages.
    """
    s = a.shape[0]
    base = np.broadcast_to(base[..., None, :, :], base.shape[:-2] + (s,) + base.shape[-2:])
    w = _apply_stage_inv(stage_inv, base)
    residuals = []
    for iteration in range(1, cfg.fp_max_iters + 1):
        w_new = _apply_stage_inv(stage_inv, base + h * np.einsum("ij,...jcn->...icn", a, B(w)))
        residual = _stage_residual(grid, w_new - w)
        if not math.isfinite(residual):
            raise NumericalBlowupError(
                f"non-finite stage residual at iteration {iteration} (h={h:g})"
            )
        residuals.append(residual)
        w = w_new
        if residual <= cfg.fp_tol:
            return w, StepStats(iteration, residual, _contraction(residuals))
    raise ConvergenceFailureError(
        StepStats(cfg.fp_max_iters, residuals[-1], _contraction(residuals))
    )


def _contraction(residuals):
    if len(residuals) < 2 or residuals[0] == 0.0:
        return 0.0
    return residuals[1] / residuals[0]


def _update(matrices, b, h, base, bw):
    """Resolvent-form update ``S(hA) base + h b^T stage_inv B(W)``."""
    stage_inv, update = matrices
    z = _apply_stage_inv(stage_inv, bw)
    return _apply_update(update, base) + h * np.einsum("j,...jcn->...cn", b, z)


def fixed_point_stages(
    p: ProblemSpec, t: ButcherTableau, u: State, cfg: SolverConfig, matrices=None
) -> tuple[StageSet, StepStats]:
    """Solve the stage equations by fixed-point iteration.

    Starts from the linear-part solution (one resolvent solve, exact for
    B = 0) and iterates until the base-norm update falls below
    ``cfg.fp_tol``.  A step size of 0 is accepted here as a degenerate
    probe and returns the trivial stages after one iteration.
    ``matrices``, when given, is ``step_matrices(t, cfg.h, p.grid)``
    already fetched by the caller.
    """
    if u.grid != p.grid:
        raise ValueError("state lives on a different grid than the problem")
    stage_inv, _ = matrices if matrices is not None else step_matrices(t, cfg.h, p.grid)
    w, stats = _solve_stages(
        stage_inv, t.a, cfg.h, p.grid, u.coeffs, lambda w: evaluate_B_array(p, w), cfg
    )
    if stats.contraction_estimate > cfg.contraction_warn:
        warnings.warn(
            f"fixed-point contraction {stats.contraction_estimate:.3f} near 1; "
            f"step size {cfg.h:g} is close to the convergence limit",
            stacklevel=2,
        )
    return StageSet(p.grid, w), stats


def step(
    p: ProblemSpec, t: ButcherTableau, u: State, cfg: SolverConfig
) -> tuple[State, StepStats]:
    """Advance one step of size cfg.h."""
    if cfg.h == 0:
        raise ValueError("step requires a positive step size")
    matrices = step_matrices(t, cfg.h, p.grid)
    stages, stats = fixed_point_stages(p, t, u, cfg, matrices)
    bw = evaluate_B_array(p, stages.data)
    u_new = State(p.grid, _update(matrices, t.b, cfg.h, u.coeffs, bw))
    if cfg.debug_checks:
        _check_direct_form(p, t, u, stages, bw, u_new, cfg)
    return u_new, stats


def _check_direct_form(p, t, u, stages, bw, u_new, cfg):
    """Cross-evaluate u + h b^T (A W + B(W)) against the resolvent form."""
    aw = np.stack([apply_A(stages.stage(j)).coeffs for j in range(t.s)])
    direct = u.coeffs + cfg.h * np.einsum("j,jcn->cn", t.b, aw + bw)
    gap = base_norm(State(p.grid, direct) - u_new)
    if gap > 10 * cfg.fp_tol:
        raise RuntimeError(
            f"update-form mismatch: resolvent vs direct evaluation differ by {gap:.3e}"
        )


def integrate(
    p: ProblemSpec,
    t: ButcherTableau,
    u0: State,
    cfg: SolverConfig,
    steps: int,
    observer=None,
) -> tuple[State, list[StepStats]]:
    """Apply the step map ``steps`` times, reporting per-step statistics.

    The observer, when given, is called after each step with
    (step_index, state, stats) and must treat the state as read-only.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    u = u0
    history = []
    for index in range(steps):
        u, stats = step(p, t, u, cfg)
        history.append(stats)
        if observer is not None:
            observer(index, u, stats)
    return u, history


def tangent_step(
    p: ProblemSpec, t: ButcherTableau, u: State, v: State, cfg: SolverConfig
) -> tuple[State, State, StepStats]:
    """One step of the extended (primal, tangent) system.

    The linear part acts blockwise, so the pair runs through the shared
    stage solver as a batch of two stage families; only the coupled
    nonlinearity (B(U), DB(U) V) ties them together in the iteration.
    """
    if cfg.h == 0:
        raise ValueError("step requires a positive step size")
    if v.grid != u.grid or u.grid != p.grid:
        raise ValueError("primal and tangent states must share the problem grid")
    matrices = step_matrices(t, cfg.h, p.grid)

    def pair_B(w):
        return np.stack([evaluate_B_array(p, w[0]), evaluate_B_tangent_array(p, w[0], w[1])])

    base = np.stack([u.coeffs, v.coeffs])
    w, stats = _solve_stages(matrices[0], t.a, cfg.h, p.grid, base, pair_B, cfg)
    u_new, v_new = _update(matrices, t.b, cfg.h, base, pair_B(w))
    return State(p.grid, u_new), State(p.grid, v_new), stats
