"""Reference computations the tests compare the package against.

Most are a few lines over the package's per-mode step matrices and its
private stage solver, so a test can check one piece of a step on its own.
The stage inverse is applied by a swapaxes/einsum form of its own
(``apply_stage_blocks``), not by the package's block kernel, so the
stage oracles check that kernel too.
Stage data are arrays of shape (s, components, n).  Two build the step
matrices independently: by a complex LU of the (s c) x (s c) Kronecker
block, and in 50-digit arithmetic; the propagator blocks come in
50 digits too, and so do the stability function, in resolvent form, and
the stability polynomials, as sums of principal minors.
"""

import itertools
import math

import mpmath
import numpy as np

from rkspectral.harness import _physical_quadrature, conserved_quantities
from rkspectral.problems import evaluate_B_array
from rkspectral.spectral import (
    State,
    _apply_update,
    base_norm,
    inverse_transform_array,
    step_matrices,
)
from rkspectral.stepper import SolverConfig, _solve_stages, integrate


def grid_nodes(grid):
    """The collocation points of ``grid``'s transform convention."""
    if grid.bc == "periodic":
        return 2 * math.pi * np.arange(grid.n) / grid.n
    if grid.bc == "dirichlet":
        return math.pi * np.arange(1, grid.n + 1) / (grid.n + 1)
    return math.pi * np.arange(grid.n) / (grid.n - 1)


def to_state(grid, values):
    """The State whose collocation values are ``values``: shape (n,) for
    one component or (components, n)."""
    return State(grid, grid.transform_array(np.atleast_2d(values)))


def two_mode_state(grid, amplitudes):
    """Schrodinger data with ``amplitudes`` in modes 1 and 2: the
    package's ``nls_two_mode_state`` at other amplitudes."""
    coeffs = np.zeros((1, grid.n), dtype=complex)
    for a, k in zip(amplitudes, (1, 2)):
        coeffs[0, np.flatnonzero(grid.modes == k)[0]] = a
    return State(grid, coeffs)


def band_state(grid, rng, max_mode):
    """The package's ``random_band_state`` drawn in the modes 0 < |k| <=
    ``max_mode``: the same draws, taken in the same order, at max_mode = 4."""
    coeffs = np.zeros((grid.components, grid.n), dtype=complex)
    for comp in range(grid.components):
        for j, k in enumerate(grid.modes):
            if 0 < abs(int(k)) <= max_mode:
                draw = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
                coeffs[comp, j] = draw / (1 + abs(int(k)))
    if grid.equation == "wave" and grid.bc == "periodic":
        coeffs = 0.5 * (coeffs + np.conj(np.roll(coeffs[:, ::-1], 1, axis=-1)))
    elif grid.equation == "wave":
        coeffs = coeffs.real.astype(complex)
    return State(grid, coeffs)


def fixed_point_stages(p, t, u, cfg):
    """The stages of one step and their statistics, iterated from the
    B = 0 solution until the base-norm update falls below ``cfg.fp_tol``.
    A near-1 contraction warns at the caller of this function.
    """
    stage_inv, _ = step_matrices(t, cfg.h, p.grid)
    w, _, stats = _solve_stages(
        stage_inv, t.a, cfg.h, p.grid, u.coeffs, lambda w: evaluate_B_array(p, w), cfg,
        predicted=None, stacklevel=3,
    )
    return w, stats


def blocks_like(blocks, data):
    """``blocks`` as float64 for real ``data`` when every block is real
    (the wave system); as they are otherwise."""
    if np.iscomplexobj(data) or blocks.imag.any():
        return blocks
    return blocks.real.copy()


def apply_stage_blocks(stage_inv, data):
    """Apply per-mode (s c, s c) blocks to stage data (..., s, c, n) with the
    modes moved in front of each flattened stage vector: swap to
    (..., n, s c), contract with ``kpq,...kq->...kp``, swap back."""
    vec = data.reshape(data.shape[:-3] + (-1, data.shape[-1])).swapaxes(-1, -2)
    out = np.einsum("kpq,...kq->...kp", stage_inv, vec)
    return np.ascontiguousarray(out.swapaxes(-1, -2).reshape(data.shape))


def solve_stage_resolvent(grid, data, t, h):
    """Solve ``(I - h a (x) A) W = data`` mode by mode; real data on real
    (wave) blocks are solved in real arithmetic."""
    stage_inv, _ = step_matrices(t, h, grid)
    return apply_stage_blocks(blocks_like(stage_inv, data), data)


def update_map(grid, coeffs, t, h):
    """Apply the update map ``S(hA)`` of the method to states (..., c, n);
    real states on real (wave) blocks are mapped in real arithmetic."""
    _, update = step_matrices(t, h, grid)
    return _apply_update(blocks_like(update, coeffs), coeffs)


def apply_S_hA(u, t, h):
    """Apply the update map ``S(hA)`` of the method to a state."""
    return State(u.grid, update_map(u.grid, u.coeffs, t, h))


def complex_step_matrices(t, h, grid):
    """Every mode's stage inverse and update from one complex LU
    inversion of its (s c) x (s c) block ``I - h a (x) A_k``, the
    construction ``step_matrices`` used before it read both from the
    s x s resolvent at the symbol's eigenvalue.  Schrodinger blocks match
    it bit for bit; for the wave system this LU is the less accurate side.
    """
    k = grid.modes.astype(float)
    if grid.equation == "schrodinger":
        blocks = (-1j * k**2).reshape(grid.n, 1, 1)
    else:
        blocks = np.zeros((grid.n, 2, 2), dtype=complex)
        blocks[:, 0, 1] = 1.0
        blocks[:, 1, 0] = -(k**2)
    n, c, s = grid.n, grid.components, t.s
    kron = np.einsum("ij,kpq->kipjq", t.a, blocks).reshape(n, s * c, s * c)
    stage_inv = np.linalg.inv(np.eye(s * c, dtype=complex)[None, :, :] - h * kron)
    ones_block = np.tile(np.eye(c, dtype=complex), (s, 1))
    bsum = np.einsum("j,kjpq->kpq", t.b, (stage_inv @ ones_block).reshape(n, s, c, c))
    update = np.eye(c, dtype=complex)[None, :, :] + h * (blocks @ bsum)
    return stage_inv, update


def exact_wave_blocks(t, h, k, digits=50):
    """The stage inverse (2s x 2s) and update (2 x 2) of the wave block
    M = [[0, 1], [-k^2, 0]] for the binary tableau ``t`` and step h, as
    mpmath matrices computed at ``digits`` significant digits."""
    with mpmath.workdps(digits):
        a = mpmath.matrix(t.a.tolist())
        m = mpmath.matrix([[0, 1], [-mpmath.mpf(k) ** 2, 0]])
        s = t.s
        block = mpmath.eye(2 * s)
        for i in range(s):
            for j in range(s):
                for p in range(2):
                    for q in range(2):
                        block[2 * i + p, 2 * j + q] -= h * a[i, j] * m[p, q]
        stage_inv = mpmath.inverse(block)
        # sum_j b_j (stage_inv (1 (x) I))_j, a 2 x 2 matrix
        bsum = mpmath.zeros(2, 2)
        for j in range(s):
            for p in range(2):
                for q in range(2):
                    row = sum(stage_inv[2 * j + p, 2 * i + q] for i in range(s))
                    bsum[p, q] += mpmath.mpf(t.b[j]) * row
        return stage_inv, mpmath.eye(2) + h * (m * bsum)


def exact_propagator_block(equation, k, t, digits=50):
    """The block of e^{tA} at mode k, as mpmath values (row major) computed
    at ``digits`` significant digits from the binary t: e^{-i k^2 t}
    (Schrodinger), [[cos kt, sin(kt) / k], [-k sin kt, cos kt]] (wave) and
    its k = 0 limit [[1, t], [0, 1]]."""
    with mpmath.workdps(digits):
        k, t = mpmath.mpf(int(k)), mpmath.mpf(t)
        if equation == "schrodinger":
            return [mpmath.expj(-(k**2) * t)]
        if k == 0:
            return [mpmath.mpf(1), t, mpmath.mpf(0), mpmath.mpf(1)]
        cos, sin = mpmath.cos(k * t), mpmath.sin(k * t)
        return [cos, sin / k, -k * sin, cos]


def block_relative_error(got, exact):
    """max |got - exact| / max |exact| of one block, taken in mpmath."""
    diff = max(abs(mpmath.mpc(complex(g)) - e) for g, e in zip(got.ravel(), exact))
    return float(diff / max(abs(e) for e in exact))


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


def exact_stability_polynomials(t, digits=50):
    """Ascending coefficients of N(z) = det(I - z (a - 1 b^T)) and D(z) =
    det(I - z a) for the binary tableau ``t``, as mpmath values at
    ``digits`` significant digits: the coefficient of z^j is (-1)^j times
    the sum of the j x j principal minors of the matrix."""
    with mpmath.workdps(digits):
        a = [[mpmath.mpf(x) for x in row] for row in t.a.tolist()]
        b = [mpmath.mpf(x) for x in t.b.tolist()]
        polys = []
        for m in ([[x - y for x, y in zip(row, b)] for row in a], a):
            coeffs = [mpmath.mpf(1)]
            for j in range(1, t.s + 1):
                minors = (mpmath.det(mpmath.matrix([[m[p][q] for q in idx] for p in idx]))
                          for idx in itertools.combinations(range(t.s), j))
                coeffs.append((-1) ** j * mpmath.fsum(minors))
            polys.append(coeffs)
        return polys


def exact_stability_function(t, z, digits=50):
    """S(z) = 1 + z b^T (I - z a)^{-1} 1 for the binary tableau ``t`` at the
    binary point z, as an mpmath value at ``digits`` significant digits.
    The solve carries log10 |z| more, so that mpmath's LU still reads the
    pivots of I - z a at a huge |z| as nonzero."""
    with mpmath.workdps(digits + max(0, math.ceil(math.log10(max(1.0, abs(z)))))):
        z = mpmath.mpc(complex(z))
        x = mpmath.lu_solve(mpmath.eye(t.s) - z * mpmath.matrix(t.a.tolist()),
                            mpmath.matrix([1] * t.s))
        return 1 + z * mpmath.fsum(mpmath.mpf(b) * xi for b, xi in zip(t.b, x))


def exact_largest_stability_modulus(polys, grid, h, digits=40):
    """max |S(-i h k^2)| = |N / D| over a Schrodinger grid's distinct
    symbols at the binary h, from ``exact_stability_polynomials``' ``polys``
    and taken at ``digits`` significant digits."""
    num, den = polys
    with mpmath.workdps(digits):
        largest = mpmath.mpf(0)
        for k in grid.modes[grid._distinct_symbols[0]]:
            z = mpmath.mpc(0, -mpmath.mpf(h) * int(k) ** 2)
            s = mpmath.polyval(num[::-1], z) / mpmath.polyval(den[::-1], z)
            largest = max(largest, abs(s))
        return largest


def reference_rung(p, t, t_ref, u0, T, h_list, h_ref, fp_tol=1e-13):
    """One rung (h_ref, h_ref/2) of an order study's reference, recomputed
    from public ``integrate`` and ``base_norm`` with every run at
    ``fp_tol``: the final-time errors of the ``t`` ladder ``h_list``
    against the fine ``t_ref`` run, and the rung's ``{h_ref, discrepancy,
    required}``, its gate being 1e-3 times the smallest error floored at
    50 ``fp_tol``."""

    def final(tab, h):
        return integrate(p, tab, u0, SolverConfig(h=h, fp_tol=fp_tol), round(T / h))[0]

    coarse, fine = final(t_ref, h_ref), final(t_ref, h_ref / 2)
    errors = [base_norm(final(t, h) - fine) for h in h_list]
    required = max(1e-3 * min(errors), 50 * fp_tol)
    return errors, {"h_ref": h_ref, "discrepancy": base_norm(fine - coarse), "required": required}


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
    if p.grid.equation == "schrodinger":
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
        x = np.concatenate([[0.0], grid_nodes(grid), [math.pi]])
        vals = np.abs((k * c) @ np.cos(np.outer(k, x))) ** 2
        dx = math.pi / (grid.n + 1)
        return float((vals.sum() - 0.5 * vals[0] - 0.5 * vals[-1]) * dx)
    vals = np.abs(-(k * c) @ np.sin(np.outer(k, grid_nodes(grid)))) ** 2
    return _physical_quadrature(grid, vals)
