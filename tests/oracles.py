"""Reference computations the tests compare the package against.

Most are a few lines over the package's per-mode step matrices and its
private stage solver, so a test can check one piece of a step on its own.
The stage inverse and the update's forcing block are applied by a
swapaxes form of their own (``apply_blocks``), not by the package's
block kernel, so the stage and update oracles check that kernel too.
Stage data are arrays of shape (s, components, n).  Two build the step
matrices independently: by a complex LU of the (s c) x (s c) Kronecker
block, and in 50-digit arithmetic; the propagator blocks come in
50 digits too, and so do the stability function, in resolvent form, and
the stability polynomials, as sums of principal minors.  One checks
every update of a run against the direct form x + h b^T (A W + B).
One gives the Taylor coefficients of the semi-discrete solution, which
a recurrence yields with no time step since every catalogue map is a
polynomial.
One is the symplectic form of each equation, which a Gauss method's
tangent flow keeps and the two non-symplectic controls here do not.
"""

import itertools
import math

import mpmath
import numpy as np

from rkspectral import stepper
from rkspectral.harness import _physical_quadrature, conserved_quantities
from rkspectral.problems import _modal_B, evaluate_B_array
from rkspectral.spectral import (
    State,
    _apply_update,
    _generator,
    base_norm,
    inverse_transform_array,
    step_matrices,
)
from rkspectral.stepper import SolverConfig, _solve_stages, _stage_residual, integrate
from rkspectral.tableau import ButcherTableau

# A-stable methods that are not symplectic and do not conserve quadratic
# invariants: the negative controls of the mass and symplecticity checks.
RADAU_IIA_2 = ButcherTableau(
    2, [[5 / 12, -1 / 12], [3 / 4, 1 / 4]], [3 / 4, 1 / 4], [1 / 3, 1.0], 3, label="radau-iia-2"
)
IMPLICIT_EULER = ButcherTableau(1, [[1.0]], [1.0], [1.0], 1, label="implicit-euler")


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


def nls_plane_wave(grid, k, a, b, t):
    """The exact cubic NLS flow at time t of the plane wave ``a`` in mode
    k, and its derivative along ``b`` in the same mode: with phi = (k^2 +
    |a|^2) t, u = a e^{-i phi} and v = e^{-i phi} (b - i t a 2 Re(conj(a) b)).
    Dealiased collocation is exact for data in one mode inside the 2/3 band."""
    phase = np.exp(-1j * (k**2 + abs(a) ** 2) * t)
    u, v = (np.zeros((1, grid.n), dtype=complex) for _ in range(2))
    index = np.flatnonzero(grid.modes == k)[0]
    u[0, index] = a * phase
    v[0, index] = phase * (b - 1j * t * a * 2 * (np.conj(a) * b).real)
    return State(grid, u), State(grid, v)


def wave_constant_mode(grid, a, t):
    """The exact cubic wave flow at time t of the constant displacement
    ``a`` at rest (mode 0 alone, on a periodic or Neumann grid): u'' = -u^3
    gives u = a cn(a t | 1/2) and u' = -a^2 sn dn (a t | 1/2), in 50 digits.
    Every other mode stays zero, since a constant's cube is a constant."""
    with mpmath.workdps(50):
        sn, cn, dn = (mpmath.ellipfun(kind, a * t, m=0.5) for kind in ("sn", "cn", "dn"))
        u, v = float(a * cn), float(-(a**2) * sn * dn)
    coeffs = np.zeros((2, grid.n), dtype=complex)
    coeffs[:, np.flatnonzero(grid.modes == 0)[0]] = u, v
    return State(grid, coeffs)


def power_decay_state(grid, alpha):
    """Data with |c_k| = |k|^-alpha in every mode k != 0 of each component:
    the package's ``rough_decay_state`` at alpha = 1.1."""
    coeffs = np.zeros((grid.components, grid.n), dtype=complex)
    k = np.abs(grid.modes.astype(float))
    coeffs[:, k > 0] = k[k > 0] ** -alpha
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


def symplectic_form(grid, v, w):
    """omega(v, w) of two directions (components, n): Im sum conj(v_k) w_k
    for the Schrodinger equation; for the wave, with directions (q, p),
    Re sum rho_k (conj(q_v,k) p_w,k - conj(p_v,k) q_w,k) with the grid's
    weights rho_k."""
    if grid.equation == "schrodinger":
        return float(np.imag(np.sum(np.conj(v[0]) * w[0])))
    return float(np.real(np.sum(grid.weights * (np.conj(v[0]) * w[1] - np.conj(v[1]) * w[0]))))


def fixed_point_stages(p, t, u, cfg):
    """The stages of one step and their statistics, iterated from the
    B = 0 solution until the base-norm update falls below ``cfg.fp_tol``.
    A near-1 contraction warns at this function's call of the solver, the
    first frame outside the stepper.
    """
    stage_inv, _ = step_matrices(t, cfg.h, p.grid)
    w, _, stats = _solve_stages(
        stage_inv, cfg.h * t.a, p.grid, u.coeffs, lambda w: evaluate_B_array(p, w), cfg,
        predicted=None,
    )
    return w, stats


def taylor_coefficients(p, u0, Q):
    """The Taylor coefficients u_0, ..., u_Q at t = 0 of the semi-discrete
    solution from the state ``u0``, as (components, n) arrays, so that its
    q-th time derivative there is q! u_q.  Every catalogue map is a
    polynomial, so they follow from (k + 1) u_{k+1} = A u_k + P T([f(phi)]_k)
    with no time step: phi_k is the inverse transform of u_k's first
    component, [f(phi)]_k the k-th coefficient of f(phi(t)), a Cauchy
    product (sum phi_a phi_b conj(phi_c) over a + b + c = k for the NLS,
    sum phi_a phi_b phi_c for the cubic wave, plus 1 at k = 0 for
    ``cubic_plus_one``), and P T the package's transform and dealias
    (``problems._modal_B``)."""
    grid, name = p.grid, p.nonlinearity.name
    generator = _generator(grid)
    third = np.conj if grid.equation == "schrodinger" else (lambda x: x)
    u, phi = [u0.coeffs.astype(complex)], []
    for k in range(Q):
        phi.append(inverse_transform_array(grid, u[k][0]))
        f = np.zeros(grid.n, dtype=complex)
        if name != "zero":
            for a in range(k + 1):
                for b in range(k + 1 - a):
                    f = f + phi[a] * phi[b] * third(phi[k - a - b])
        if name == "cubic_plus_one" and k == 0:
            f = f + 1.0
        u.append((_apply_update(generator, u[k]) + _modal_B(p, f, u[k])) / (k + 1))
    return u


def apply_blocks(blocks, rows):
    """Apply per-mode (p, q) blocks, stored mode-last as (p, q, n), to rows
    (..., q, n) with the modes moved in front: swap to (..., n, q), add
    the products column by column, ``out = out + B_k[:, j] x_k[j]`` for
    j = 0, ..., q - 1, and swap back."""
    per_mode = np.moveaxis(blocks, -1, 0)  # (n, p, q)
    vec = rows.swapaxes(-1, -2)  # (..., n, q)
    out = per_mode[:, :, 0] * vec[..., :, None, 0]
    for j in range(1, per_mode.shape[-1]):
        out = out + per_mode[:, :, j] * vec[..., :, None, j]
    return np.ascontiguousarray(out.swapaxes(-1, -2))


def apply_stage_blocks(stage_inv, data):
    """Apply per-mode (s c, s c) blocks, mode-last, to stage data
    (..., s, c, n) as ``apply_blocks`` on each flattened stage vector."""
    rows = data.reshape(data.shape[:-3] + (-1, data.shape[-1]))
    return apply_blocks(stage_inv, rows).reshape(data.shape)


def forcing_block(t, h, grid):
    """The update's per-mode forcing blocks ``h b^T (I - h a (x) A)^{-1}``,
    mode-last (c, s c, n): stage j's rows of the stage inverse scaled by
    h b_j, added in turn."""
    stage_inv, _ = step_matrices(t, h, grid)
    c = grid.components
    out = (h * t.b[0]) * stage_inv[:c]
    for j in range(1, t.s):
        out = out + (h * t.b[j]) * stage_inv[j * c : (j + 1) * c]
    return out


def solve_stage_resolvent(grid, data, t, h):
    """Solve ``(I - h a (x) A) W = data`` mode by mode; real data on real
    (wave) blocks are solved in real arithmetic."""
    stage_inv, _ = step_matrices(t, h, grid)
    return apply_stage_blocks(stage_inv, data)


def update_map(grid, coeffs, t, h):
    """Apply the update map ``S(hA)`` of the method to states (..., c, n);
    real states on real (wave) blocks are mapped in real arithmetic."""
    _, update = step_matrices(t, h, grid)
    return _apply_update(update, coeffs)


def apply_S_hA(u, t, h):
    """Apply the update map ``S(hA)`` of the method to a state."""
    return State(u.grid, update_map(u.grid, u.coeffs, t, h))


def check_direct_form(grid, t, cfg, x, stages, forcing, x_new):
    """Cross-evaluate x + h b^T (A W + forcing) against the resolvent-form
    update ``x_new``, for coefficients with any leading shape."""
    aw = _apply_update(_generator(grid), stages)
    direct = x + cfg.h * np.einsum("j,...jcn->...cn", t.b, aw + forcing)
    gap = _stage_residual(grid, direct - x_new)
    if gap > 10 * cfg.fp_tol:
        raise RuntimeError(
            f"update-form mismatch: resolvent vs direct evaluation differ by {gap:.3e}"
        )


def check_every_update(monkeypatch, grid, t, cfg):
    """Check each update of the runs that follow on ``grid`` with ``t``
    and ``cfg`` against its direct form (``check_direct_form``), by
    wrapping the stepper's stage solver and update.  Returns the list of
    the dtype and shape of the coefficients each check saw."""
    checked, stages = [], []
    solve, update = stepper._solve_stages, stepper._update

    def solving(*args, **kwargs):
        w, forcing, stats = solve(*args, **kwargs)
        stages.append(w)
        return w, forcing, stats

    def updating(blocks, forcing_blocks, x, forcing):
        x_new = update(blocks, forcing_blocks, x, forcing)
        check_direct_form(grid, t, cfg, x, stages.pop(), forcing, x_new)
        checked.append((x.dtype, x.shape))
        return x_new

    monkeypatch.setattr(stepper, "_solve_stages", solving)
    monkeypatch.setattr(stepper, "_update", updating)
    return checked


def complex_step_matrices(t, h, grid):
    """Every mode's stage inverse and update from one complex LU
    inversion of its (s c) x (s c) block ``I - h a (x) A_k``, the
    construction ``step_matrices`` used before it read both from the
    s x s resolvent at the symbol's eigenvalue, mode-last as
    ``step_matrices`` returns them.  Schrodinger blocks match it bit for
    bit; for the wave system this LU is the less accurate side.
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
    return np.moveaxis(stage_inv, 0, -1), np.moveaxis(update, 0, -1)


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
    update = np.moveaxis(update, -1, 0)[first]
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


def linear_study_error(polys, u0, T, h, digits=30):
    """The final-time error, in the base norm, of T/h steps from ``u0`` of
    the linear flow u' = A u by a method whose stability function is
    S = N / D (``exact_stability_polynomials``' ``polys``), at ``digits``
    significant digits: e^2 = sum_k w_k |g(A_k) c_k|^2 with g(z) =
    S(hz)^(T/h) - e^{Tz}, g(A_k) = g(-i k^2) for the Schrodinger equation
    and, on the wave system, the block g(M) = Re g(ik) I + (Im g(ik) / k) M
    in the H1 x L2 weighting.  Modes whose data are zero are skipped; a
    wave's k = 0 data must be zero."""
    grid, num, den = u0.grid, polys[0][::-1], polys[1][::-1]
    steps = round(T / h)
    with mpmath.workdps(digits):
        h, T, total = mpmath.mpf(h), mpmath.mpf(T), mpmath.mpf(0)
        for j in np.flatnonzero(u0.coeffs.any(axis=0)):
            k = int(grid.modes[j])
            lam = mpmath.mpc(0, -(k**2)) if grid.components == 1 else mpmath.mpc(0, k)
            g = (mpmath.polyval(num, h * lam) / mpmath.polyval(den, h * lam)) ** steps
            g -= mpmath.exp(T * lam)
            c = [mpmath.mpc(complex(x)) for x in u0.coeffs[:, j]]
            if grid.components == 1:
                total += grid.weights[j] * abs(g * c[0]) ** 2
            else:
                e0 = g.real * c[0] + (g.imag / k) * c[1]
                e1 = g.real * c[1] - k * g.imag * c[0]
                total += grid.weights[j] * ((k**2 + 1) * abs(e0) ** 2 + abs(e1) ** 2)
        return float(mpmath.sqrt(total))


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
