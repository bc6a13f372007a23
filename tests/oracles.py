"""Reference computations the tests compare the package against.

Each is a few lines over the package's per-mode step matrices and its
private stage solver, so a test can check one piece of a step on its own.
Stage data are arrays of shape (s, components, n).
"""

import numpy as np

from rkspectral.problems import evaluate_B_array
from rkspectral.spectral import State, _apply_stage_inv, _apply_update, step_matrices
from rkspectral.stepper import _solve_stages


def fixed_point_stages(p, t, u, cfg):
    """The stages of one step and their statistics, iterated from the
    B = 0 solution until the base-norm update falls below ``cfg.fp_tol``.

    A step size of 0 is accepted as a degenerate probe.  A near-1
    contraction warns at the caller of this function.
    """
    stage_inv, _ = step_matrices(t, cfg.h, p.grid)
    w, _, stats = _solve_stages(
        stage_inv, t.a, cfg.h, p.grid, u.coeffs, lambda w: evaluate_B_array(p, w), cfg,
        predicted=None, stacklevel=3,
    )
    return w, stats


def solve_stage_resolvent(grid, data, t, h):
    """Solve ``(I - h a (x) A) W = data`` mode by mode."""
    stage_inv, _ = step_matrices(t, h, grid)
    return _apply_stage_inv(stage_inv, data)


def apply_S_hA(u, t, h):
    """Apply the update map ``S(hA)`` of the method to a state."""
    _, update = step_matrices(t, h, u.grid)
    return State(u.grid, _apply_update(update, u.coeffs))


def evaluate_B(p, u):
    """The semilinear right-hand side B at one state."""
    return State(p.grid, evaluate_B_array(p, u.coeffs))


def hermitian_symmetry_defect(u):
    """Max deviation from ``c[-k] = conj(c[k])`` on a periodic grid, which
    the coefficients of a real-valued physical field satisfy."""
    c = u.coeffs
    flipped = np.conj(np.roll(c[:, ::-1], 1, axis=-1))  # index of -k mod n
    return float(np.max(np.abs(c - flipped)))
