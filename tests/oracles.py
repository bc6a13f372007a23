"""Reference computations the tests compare the package against.

Each is a few lines over the package's per-mode step matrices and its
private stage solver, so a test can check one piece of a step on its own.
Stage data are arrays of shape (s, components, n).
"""

import math

import numpy as np

from rkspectral.harness import _physical_quadrature, conserved_quantities
from rkspectral.problems import evaluate_B_array
from rkspectral.spectral import (
    State,
    _apply_stage_inv,
    _apply_update,
    inverse_transform_array,
    step_matrices,
)
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


def stability_growth(t, grid, h, n_steps):
    """Largest per-mode growth of ``n_steps`` steps through the step
    matrices: the n-th power of each distinct symbol's update matrix,
    scalar for the Schrodinger equation and, for the wave system,
    measured as a complex SVD in the base-norm weighting D P D^-1 with
    D = diag(sqrt(k^2 + 1), 1)."""
    if n_steps == 0:
        return 1.0
    first = grid._distinct_symbols[0]
    _, update = step_matrices(t, h, grid)
    update = update[first]
    if grid.components == 1:
        return float(np.max(np.abs(update[:, 0, 0]) ** n_steps))
    k = grid.modes[first].astype(float)
    weights = np.sqrt(k**2 + 1.0)
    inv_weights = 1.0 / weights
    powers = np.linalg.matrix_power(update.real, n_steps)
    # D P D^-1 with D = diag(weights, 1), as the products a matmul forms.
    weighted = np.empty(powers.shape, dtype=complex)
    weighted[:, 0, 0] = (weights * powers[:, 0, 0]) * inv_weights
    weighted[:, 0, 1] = weights * powers[:, 0, 1]
    weighted[:, 1, 0] = powers[:, 1, 0] * inv_weights
    weighted[:, 1, 1] = powers[:, 1, 1]
    return float(np.max(np.linalg.norm(weighted, ord=2, axis=(1, 2))))


def evaluate_B(p, u):
    """The semilinear right-hand side B at one state."""
    return State(p.grid, evaluate_B_array(p, u.coeffs))


def hermitian_symmetry_defect(u):
    """Max deviation from ``c[-k] = conj(c[k])`` on a periodic grid, which
    the coefficients of a real-valued physical field satisfy."""
    c = u.coeffs
    flipped = np.conj(np.roll(c[:, ::-1], 1, axis=-1))  # index of -k mod n
    return float(np.max(np.abs(c - flipped)))


def checked_conserved_quantities(p, u):
    """``conserved_quantities`` of a state, after recomputing its quadratic
    terms (NLS mass; wave velocity and gradient terms) by physical-space
    quadrature.  Raises RuntimeError where a quadrature and the modal
    (Parseval) value differ by more than 1e-10 relative (floored at 1).
    """
    grid = p.grid
    w = grid.weights
    k = grid.modes.astype(float)
    if p.kind == "nls":
        mass = float(np.sum(w * np.abs(u.coeffs[0]) ** 2))
        phys = inverse_transform_array(grid, u.coeffs[0])
        _compare("mass", mass, _physical_quadrature(grid, np.abs(phys) ** 2))
    else:
        velocity_sq = float(np.sum(w * np.abs(u.coeffs[1]) ** 2))
        gradient_sq = float(np.sum(w * k**2 * np.abs(u.coeffs[0]) ** 2))
        phys_v = inverse_transform_array(grid, u.coeffs[1])
        _compare("velocity term", velocity_sq, _physical_quadrature(grid, np.abs(phys_v) ** 2))
        _compare("gradient term", gradient_sq, _gradient_quadrature(grid, u))
    return conserved_quantities(p, u)


def _compare(label, spectral_value, physical_value):
    scale = max(1.0, abs(spectral_value))
    if abs(spectral_value - physical_value) > 1e-10 * scale:
        raise RuntimeError(
            f"{label}: spectral {spectral_value!r} vs quadrature {physical_value!r} disagree"
        )


def _gradient_quadrature(grid, u):
    """Physical-space quadrature of the squared spatial derivative.

    The derivative is a trig polynomial, so the matching
    trapezoid/rectangle rule is exact.  A sine series differentiates into
    a cosine series, which does not vanish at the endpoints, so the
    Dirichlet case integrates over the endpoint-extended node set.
    """
    k = grid.modes.astype(float)
    c = u.coeffs[0]
    if grid.bc == "periodic":
        vals = inverse_transform_array(grid, 1j * k * c)
        return _physical_quadrature(grid, np.abs(vals) ** 2)
    if grid.bc == "dirichlet":
        x = np.concatenate([[0.0], grid.nodes, [math.pi]])
        vals = np.abs((k * c) @ np.cos(np.outer(k, x))) ** 2
        dx = math.pi / (grid.n + 1)
        return float((vals.sum() - 0.5 * vals[0] - 0.5 * vals[-1]) * dx)
    vals = np.abs(-(k * c) @ np.sin(np.outer(k, grid.nodes))) ** 2
    return _physical_quadrature(grid, vals)
