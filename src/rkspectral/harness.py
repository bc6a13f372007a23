"""Desk-scale experiments: reference solutions, convergence-order studies,
conservation tracking, linear stability growth, step-size smoothness
probes, and the Dirichlet boundary-compatibility comparison.

Error measurement convention: all study errors are final-time base-norm
(rung-0) distances against a self-validated fine reference computed
with a higher-order method of the same family (two extra stages).  The
ladder levels run first; the reference then walks rungs of halving
step, starting with a coarse run at the ladder's first, coarsest step
and a fine run at half of it, each failing rung's fine run becoming the
next rung's coarse run.  The first rung whose h -> h/2 self-consistency
gap sits three orders of magnitude below the smallest error it is used
to resolve, floored at the roundoff a double-precision run of that
length can accumulate (50x the stage tolerance), supplies the
reference: its fine run.  The walk gives up after the first rung whose
coarse step is at most 1/16 of the finest study step; on a dyadic
ladder that is the rung (h_min/16, h_min/32).
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, SingularResolventError, UnreliableReferenceError
from .problems import ProblemSpec, evaluate_B_array, evaluate_B_pair_array, get_problem
from .spectral import (
    SpectralGrid,
    State,
    _base_norm_sq_rows,
    _check_singular,
    _eigenvalues,
    base_norm,
    inverse_transform_array,
)
from .stepper import SolverConfig, _check_grid, _check_steps, _flow, _real_data, step
from .tableau import ButcherTableau, _stability_values, gauss_legendre

# fp_tol floor accepted by studies: double-precision stage residuals on
# O(1) states cannot be driven meaningfully below this.
FP_TOL_FLOOR = 1e-13
_CONTAMINATION_FACTOR = 100.0
_REFERENCE_MARGIN = 1e-3
# Roundoff accumulated over the fine reference run bounds how small its
# self-consistency gap can get; the margin check is floored there.
_REFERENCE_FLOOR_FACTOR = 50.0
# The reference walk starts at the ladder's coarsest step, which the
# order fit already takes to be asymptotic, and halves from there.  Its
# last rung is the first whose coarse step is at most h_min / 16: on a
# dyadic ladder the rung (h_min/16, h_min/32).  T / h_list[0] is an
# integer, so every rung's steps divide T.
_LAST_RUNG_DIVISOR = 16
_MAX_STAGES = 8
# conservation_run evaluates the states of this many steps in one batch
# (``_conserved_rows``), whose rows are the values of single states bit
# for bit.  On the Dirichlet wave run (n = 256, 2,000 steps, in a process
# that has also imported scipy, as the benchmark's does) chunks of 64
# raised the peak RSS by 1.2 MB over one state at a time; chunks of 16
# added none (58.8-58.9 MB either way).
_OBSERVER_CHUNK = 16
# stability_growth evaluates this many step sizes in one array pass
# (``_growth_rows``), whose rows are the values of single steps bit for
# bit.  On the benchmark's sweep (wave, n = 1024, gl:3, 400 step sizes
# of 10 steps each; best of 9 warm calls, three fresh processes per
# size, 2-core x86_64, numpy 2.4.6) chunks of 8 took 17-27 ms, against 52-86 ms one step at a time
# and 21-39 ms for chunks of 4, 16 or 32 or for one 400-step batch.
# That batch's first call took 39-41 ms (20-30 ms for chunks of 8), and
# it raised the peak RSS by 18.8 MB; chunks of 8 raised it by 0.3 MB.
_GROWTH_CHUNK = 8


@dataclass
class ConvergenceReport:
    """Final-time errors of one order study and the fitted slope.

    ``flagged`` marks h levels whose error sits within a factor of 100
    of the solver tolerance; those are excluded from the least-squares
    fit as tolerance-contaminated.  ``stage_iterations`` counts the
    stage iterations (one B evaluation each) of the ladder levels and
    of every reference run, coarse and fine.

    ``reference`` describes the fine reference run and how it passed its
    gate: its ``tableau``; ``h_ref`` and ``discrepancy``, the accepted
    rung's coarse step and its h -> h/2 gap; ``required``, the gate that
    gap had to meet; and ``rungs``, the ``{h_ref, discrepancy, required}``
    of every rung tried, in order, each ``required`` being the gate
    recomputed against that rung's own fine run.  The walk starts at the
    ladder's coarsest step, so ``rungs[j]["h_ref"] == h_list[0] / 2**j``.
    """

    problem: str
    tableau: str
    T: float
    h_list: list[float]
    errors: list[float]
    fitted_order: float
    stats: list[dict]
    reference: dict
    flagged: list[bool]
    fp_tol: float
    stage_iterations: dict

    def write_csv(self, path):
        _write_csv(
            path,
            ["h", "steps", "error_Y0", "mean_iters", "max_residual", "contraction_est"],
            [[repr(h), st["steps"], repr(err), repr(st["mean_iterations"]),
              repr(st["max_residual"]), repr(st["mean_contraction"])]
             for h, err, st in zip(self.h_list, self.errors, self.stats)],
        )

    def summary_dict(self) -> dict:
        return {
            "problem": self.problem,
            "tableau": self.tableau,
            "T": self.T,
            "h_list": list(self.h_list),
            "errors": list(self.errors),
            "fitted_order": self.fitted_order,
            "flagged": list(self.flagged),
            "fp_tol": self.fp_tol,
            "reference": self.reference,
            "stage_iterations": dict(self.stage_iterations),
        }


def _check_ladder(T, h_list, fp_tol, p_order) -> list[float]:
    """The order-study input rule: two or more strictly decreasing steps,
    each dividing T, and an ``fp_tol`` tight enough for the finest one."""
    try:
        h_list = [float(h) for h in h_list]
    except OverflowError:  # an int too large for a float
        raise InputError("h_list", "every step must be finite") from None
    if len(h_list) < 2 or any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise InputError("h_list", f"need two or more strictly decreasing steps, got {h_list!r}")
    for h in h_list:
        _check_divides(T, h, "h_list")
    bound = max(1e-2 * h_list[-1] ** (p_order + 1), FP_TOL_FLOOR)
    if fp_tol > bound:
        raise InputError("fp_tol", f"fp_tol={fp_tol:g} too loose for an order-{p_order} study "
                                   f"with min step {h_list[-1]:g}; need <= {bound:g}")
    return h_list


def _check_divides(T, h, name):
    """A study step's rule: T / h is a positive integer.  ``name`` is the
    parameter that set h."""
    fits = h > 0 and abs(T) <= sys.float_info.max  # an int T may be too large for a float
    m = round(T / h) if fits and math.isfinite(T / h) else 0
    if m < 1 or abs(m * h - T) > 1e-9 * max(1.0, abs(T)):
        raise InputError(name, f"T/h must be a positive integer; T={T}, h={h}")


def _summarize(stats) -> dict:
    """Per-run solver statistics.  ``mean_contraction`` averages the
    steps of two or more iterations only (0.0 when there are none): a
    step that converges in one iteration has one residual, hence no
    contraction ratio, and its recorded estimate of 0.0 is no estimate."""
    ratios = [s.contraction_estimate for s in stats if s.iterations >= 2]
    return {
        "steps": len(stats),
        "mean_iterations": float(np.mean([s.iterations for s in stats])),
        "max_iterations": int(max(s.iterations for s in stats)),
        "max_residual": float(max(s.final_residual for s in stats)),
        "mean_contraction": float(np.mean(ratios)) if ratios else 0.0,
    }


def _fit_order(h_list, errors, flagged):
    pairs = [(math.log(h), math.log(e)) for h, e, f in zip(h_list, errors, flagged)
             if not f and e > 0]
    if len(pairs) < 2:
        raise ValueError("fewer than two usable points for the order fit")
    x, y = np.array(pairs).T
    return float(np.polyfit(x, y, 1)[0])


def _distance(grid, a, b):
    """Base-norm distance of two coefficient arrays (..., c, n): the root
    of the sum of each state's squared ``base_norm``, the joint norm of a
    (primal, tangent) pair."""
    norms = np.sqrt(_base_norm_sq_rows(grid, a - b)).ravel().tolist()
    return math.sqrt(sum(norm**2 for norm in norms))


def _order_study(p, t, x0, T, h_list, fp_tol, B, name) -> ConvergenceReport:
    """Order study of the flow from the coefficients ``x0`` (..., c, n)
    with the nonlinearity evaluator ``B`` (``stepper._flow``)."""
    h_list = _check_ladder(T, h_list, fp_tol, t.p)
    h_coarse, h_last = h_list[0], h_list[-1] / _LAST_RUNG_DIVISOR

    iterations = {"ladder": 0, "reference": 0}

    def run(tab, h, tol, phase):  # h is a checked step or a halving of one: T / h is whole
        final, history = _flow(p, tab, x0, SolverConfig(h=h, fp_tol=tol), round(T / h), B)
        iterations[phase] += sum(s.iterations for s in history)
        return final, history

    finals, stats = [], []
    for h in h_list:
        final, history = run(t, h, fp_tol, "ladder")
        finals.append(final)
        stats.append(_summarize(history))

    t_ref = gauss_legendre(min(t.s + 2, _MAX_STAGES))
    ref_tol = min(fp_tol, FP_TOL_FLOOR)
    coarse, _ = run(t_ref, h_coarse, ref_tol, "reference")
    rungs = []
    while True:
        fine, _ = run(t_ref, h_coarse / 2, ref_tol, "reference")
        discrepancy = _distance(p.grid, fine, coarse)
        errors = [_distance(p.grid, final, fine) for final in finals]
        required = max(_REFERENCE_MARGIN * min(errors), _REFERENCE_FLOOR_FACTOR * fp_tol)
        rungs.append({"h_ref": h_coarse, "discrepancy": discrepancy, "required": required})
        if discrepancy <= required:
            break
        if h_coarse <= h_last:
            raise UnreliableReferenceError(rungs, iterations)
        coarse, h_coarse = fine, h_coarse / 2

    flagged = [e <= _CONTAMINATION_FACTOR * fp_tol for e in errors]
    fitted = _fit_order(h_list, errors, flagged)
    return ConvergenceReport(
        problem=name,
        tableau=t.label,
        T=T,
        h_list=h_list,
        errors=errors,
        fitted_order=fitted,
        stats=stats,
        reference={
            "tableau": t_ref.label,
            "h_ref": h_coarse,
            "discrepancy": discrepancy,
            "required": required,
            "rungs": rungs,
        },
        flagged=flagged,
        fp_tol=fp_tol,
        stage_iterations=iterations,
    )


def convergence_study(
    p: ProblemSpec,
    t: ButcherTableau,
    u0: State,
    T: float,
    h_list,
    fp_tol: float,
) -> ConvergenceReport:
    """Measure final-time errors against a fine reference and fit the order.

    The ladder levels run first.  The reference has two more stages than
    the study's method (at most 8) and walks rungs: the
    first pairs a coarse run at the ladder's first, coarsest step
    ``h_list[0]`` with a fine run at half of it, and each failing rung's
    fine run becomes the next rung's coarse run.  A rung passes when its
    self-consistency gap is at most 1e-3 times the smallest error
    measured against its fine run (floored at 50x the stage tolerance,
    the double-precision accumulation scale); the first passing fine run
    is the reference.  If the first rung whose coarse step is at most
    h_min/16 fails too, the walk raises ``UnreliableReferenceError``, which
    carries every rung tried and the stage iterations spent.  Levels
    whose error is within 100x the stage tolerance are flagged and
    excluded from the fit.
    """
    _check_grid(p, u0)
    return _order_study(p, t, u0.coeffs, T, h_list, fp_tol, evaluate_B_array, p.name)


# -- conserved quantities ------------------------------------------------------


def _physical_quadrature(grid: SpectralGrid, values: np.ndarray):
    """Integrate collocation values (..., n) over the domain, row by row.

    Periodic: rectangle rule (exact for resolved trigonometric
    polynomials).  Dirichlet: trapezoid with implicit zero endpoints.
    Neumann: trapezoid with half-weighted endpoints.
    """
    vals = np.real(values)
    if grid.bc == "periodic":
        return vals.sum(axis=-1) * (2 * math.pi / grid.n)
    if grid.bc == "dirichlet":
        return vals.sum(axis=-1) * (math.pi / (grid.n + 1))
    dx = math.pi / (grid.n - 1)
    return (vals.sum(axis=-1) - 0.5 * vals[..., 0] - 0.5 * vals[..., -1]) * dx


def conserved_quantities(p: ProblemSpec, u: State) -> dict:
    """Mass and energy functionals of a state."""
    _check_grid(p, u)
    mass, energy = _conserved_rows(p, u.coeffs[None])
    return {"mass": float(mass[0]), "energy": float(energy[0])}


@dataclass
class ConservationReport:
    """Mass and energy after each step of one run, and its stage iterations.

    ``rows`` holds ``[step, time, mass, energy, mass_drift_rel,
    energy_dev]`` per step: the relative mass drift and the energy
    deviation from the initial state.  The summary's ``energy_dev_early_max``
    is the largest deviation over the first tenth of the steps (at least
    one: ``early_steps``), and ``energy_dev_tenths`` the largest in each
    tenth, tenth j holding steps ``j*steps//10 + 1 .. (j+1)*steps//10``
    (None when it holds none).
    """

    rows: list[list]
    stage_iterations: int
    max_iterations: int

    @property
    def early_steps(self) -> int:
        return max(1, len(self.rows) // 10)

    def write_csv(self, path):
        _write_csv(path, ["step", "time", "mass", "energy", "mass_drift_rel", "energy_dev"],
                   self.rows)

    def summary_dict(self) -> dict:
        steps, devs = len(self.rows), [row[5] for row in self.rows]
        tenths = [devs[j * steps // 10:(j + 1) * steps // 10] for j in range(10)]
        return {
            "energy_dev_final": devs[-1],
            "energy_dev_early_max": max(devs[:self.early_steps]),
            "energy_dev_tenths": [max(part) if part else None for part in tenths],
            "stage_iterations": self.stage_iterations,
            "max_iterations": self.max_iterations,
        }


def conservation_run(
    p: ProblemSpec, t: ButcherTableau, u0: State, cfg: SolverConfig, steps: int
) -> ConservationReport:
    """Mass and energy after each of ``steps`` steps of the flow from
    ``u0``: each row is bit for bit the ``conserved_quantities`` of its
    state, taken in the flow's own arithmetic (float64 for real wave data)."""
    _check_steps("steps", steps)
    q0 = conserved_quantities(p, u0)
    rows, pending = [], []

    def observer(index, coeffs, stats):
        pending.append(coeffs)
        if len(pending) < _OBSERVER_CHUNK and index < steps - 1:
            return
        masses, energies = _conserved_rows(p, np.stack(pending))
        pending.clear()
        for mass, energy in zip(masses.tolist(), energies.tolist()):
            step_no = len(rows) + 1
            mass_drift = abs(mass - q0["mass"]) / max(abs(q0["mass"]), 1e-300)
            # csv writes a float as str(), which is its shortest round-trip repr.
            rows.append([step_no, step_no * cfg.h, mass, energy, mass_drift,
                         abs(energy - q0["energy"])])

    _, history = _flow(p, t, u0.coeffs, cfg, steps, evaluate_B_array, observer)
    iterations = [s.iterations for s in history]
    return ConservationReport(rows, sum(iterations), max(iterations))


def _conserved_rows(p: ProblemSpec, coeffs: np.ndarray):
    """Mass and energy of each state of a (m, components, n) coefficient
    array, as two length-m arrays.  Batched transforms and last-axis sums
    round like single rows, so row j is bit for bit the value of state j
    taken alone.  Real data on a sine or cosine wave grid are evaluated
    in float64, with the same bits."""
    grid = p.grid
    if _real_data(grid, coeffs):
        coeffs = coeffs.real
    w = grid.weights
    k = grid.modes.astype(float)
    u = coeffs[:, 0, :]
    mass = np.sum(w * np.abs(u) ** 2, axis=-1)
    gradient_sq = np.sum(w * k**2 * np.abs(u) ** 2, axis=-1)
    phys = inverse_transform_array(grid, u)
    if grid.equation == "schrodinger":
        energy = gradient_sq + _physical_quadrature(grid, p.nonlinearity.potential(phys))
    else:
        velocity_sq = np.sum(w * np.abs(coeffs[:, 1, :]) ** 2, axis=-1)
        potential = _physical_quadrature(grid, p.nonlinearity.potential(np.real(phys)))
        energy = 0.5 * (velocity_sq + gradient_sq) + potential
    return mass, energy


# -- linear stability growth ---------------------------------------------------


def _check_growth_step(h):
    """The stability sweep's step rule: each h of ``h_values`` finite and
    nonnegative (an int too large for a float is not finite)."""
    if not 0 <= h <= sys.float_info.max:
        raise InputError("h_values", f"h must be finite and nonnegative, got {h!r}")


def stability_growth(
    t: ButcherTableau, grid: SpectralGrid, h_values, n_steps: int
) -> list[tuple[float, int]]:
    """Largest per-mode growth of n steps of the linear update map, and the
    mode that attains it, for each step size of ``h_values``: one
    ``(growth, mode)`` per step, in order, the mode being the first such
    in ``grid._distinct_symbols[0]`` order (k >= 0: on a periodic grid,
    -k shares the block of k).  Every step and ``n_steps`` are checked
    before any work.

    The steps are evaluated ``_GROWTH_CHUNK`` at a time, each chunk as
    one (steps x symbols) array.  Every operation is elementwise or per
    matrix, so each pair is bit for bit that of a sweep of its step
    alone.  Arithmetic that overflows or turns invalid on the way raises
    ValueError: the growth is then not finite, or not to be trusted.  A
    singular stage block raises SingularResolventError naming the first
    singular mode, and h.  A chunk that raises is evaluated again one
    step at a time, so the first step at fault raises, with the error it
    raises alone.

    For scalar symbols the growth is max_k |S(h lambda_k)|^n.  For 2x2
    wave blocks the n-th power is measured in the mode's base-norm
    weighting, which exposes the linear secular growth of the nilpotent
    k = 0 block that a spectral-radius reading would hide.

    The update map acts on each mode through the stability function S at
    the symbol's eigenvalues (Hairer & Wanner, Solving ODEs II, IV.3),
    read once per distinct symbol from the tableau's stability
    polynomials (``tableau._stability_values``): no per-mode inverse.
    Schrodinger: |S(-i h k^2)|^n.  Wave, k != 0: M = [[0, 1], [-k^2, 0]]
    has eigenvalues +-ik and (M/k)^2 = -I, so with S(ihk)^n = alpha + i
    beta (a real tableau gives S(-ihk) its conjugate), S(hM)^n = alpha I +
    beta M/k, and in the base-norm weighting D = diag(w, 1), w = sqrt(k^2 + 1),

        D S(hM)^n D^-1 = [[alpha, w beta / k], [-k beta / w, alpha]].

    Its singular values s1 >= s2 have s1 + s2 = sqrt(F^2 + 2 det) with
    F^2 = 2 alpha^2 + (w beta / k)^2 + (k beta / w)^2, det = alpha^2 +
    beta^2, and s1 - s2 = |beta| / (w k), taken in closed form because
    F^2 - 2 det cancels.  Wave, k = 0: M is nilpotent, S(hM) = [[1, h
    sum(b)], [0, 1]] exactly, and its n-th power is normed by a complex
    SVD: for every h, bit for bit the norm of the n-th power of
    ``step_matrices``' k = 0 update, the block that sets the maximum of a
    periodic or Neumann wave grid.
    """
    h_values = list(h_values)
    for h in h_values:
        _check_growth_step(h)
    _check_steps("n_steps", n_steps)
    steps = [float(h) for h in h_values]
    if n_steps == 0:
        return [(1.0, int(grid.modes[grid._distinct_symbols[0][0]]))] * len(steps)
    results = []
    for start in range(0, len(steps), _GROWTH_CHUNK):
        chunk = steps[start:start + _GROWTH_CHUNK]
        try:
            results += _growth_rows(t, grid, chunk, n_steps)
        except (FloatingPointError, SingularResolventError):
            for h in chunk:  # one step at a time: the first step at fault raises
                try:
                    results += _growth_rows(t, grid, [h], n_steps)
                except FloatingPointError as exc:
                    raise ValueError(f"stability growth over n_steps={n_steps} steps of "
                                     f"h={h!r} is not finite ({exc})") from None
    return results


def _growth_rows(t, grid, h, n_steps):
    """``stability_growth`` of the steps of the list ``h`` (n_steps >= 1),
    as one (len(h), symbols) array.  Overflowing or invalid arithmetic
    raises FloatingPointError; a singular stage block raises
    SingularResolventError for the first step that has one."""
    first = grid._distinct_symbols[0]
    hs = np.array(h)[:, None]
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        k, lam = _eigenvalues(grid)
        sigma, singular = _stability_values(t, hs * lam)
        if singular.any():
            row = int(np.argmax(singular.any(axis=1)))
            _check_singular(grid, singular[row], h[row])
        if grid.components == 1:
            growth = np.abs(sigma) ** n_steps
        else:
            growth = np.empty(sigma.shape)
            nonzero = k != 0
            kn = k[nonzero]
            sigma = sigma[:, nonzero] ** n_steps
            alpha, beta = sigma.real, sigma.imag
            w = np.sqrt(kn**2 + 1.0)
            f2 = 2 * alpha**2 + (w * beta / kn) ** 2 + (kn * beta / w) ** 2
            det = alpha**2 + beta**2
            growth[:, nonzero] = 0.5 * (np.sqrt(f2 + 2 * det) + np.abs(beta) / (w * kn))
            if not nonzero.all():
                block = np.zeros((len(h), 2, 2))
                block[:, 0, 0] = block[:, 1, 1] = 1.0
                block[:, 0, 1] = hs[:, 0] * t.b.sum()
                power = np.linalg.matrix_power(block, n_steps).astype(complex)
                growth[:, ~nonzero] = np.linalg.norm(power, ord=2, axis=(1, 2))[:, None]
    j = np.argmax(growth, axis=1)
    peaks = growth[np.arange(len(h)), j].tolist()
    return [(peak, int(grid.modes[first[col]])) for peak, col in zip(peaks, j.tolist())]


# -- smoothness probe ----------------------------------------------------------


def _check_stencil(h, q, levels):
    """The probe's input rule: 0 <= q <= 4, levels >= 1, and each stencil
    spacing h / 2**j / (q + 1) and its q-th power a positive normal float."""
    if not 0 <= q <= 4:
        raise InputError("q", f"difference order q must be in [0, 4], got {q!r}")
    if levels < 1:
        raise InputError("levels", f"need at least one level, got {levels!r}")
    for name, level in (("h", 0), ("levels", levels - 1)):
        try:
            spacing = math.ldexp(h, -level) / (q + 1)
        except OverflowError:  # an int h too large for a float
            spacing = math.inf
        try:
            scale = spacing**q
        except OverflowError:
            scale = math.inf
        if not all(sys.float_info.min <= x < math.inf for x in (spacing, scale)):
            raise InputError(name, f"the stencil spacing {spacing!r} of level {level} raised "
                                   f"to q={q} is {scale!r}, not a positive normal float")


def smoothness_probe(
    p: ProblemSpec,
    t: ButcherTableau,
    u0: State,
    h: float,
    q: int,
    levels: int,
    fp_tol: float,
) -> list[tuple[float, float]]:
    """Central finite differences of the step map in its step size.

    For a ladder of shrinking base steps h, h/2, ..., evaluates the
    q-th central difference of ``h -> one step of size h`` with stencil
    spacing proportional to the base step, normalized by spacing^q.
    The interesting endpoint is h -> 0: for data regular enough
    (q operator powers applied to u0 stay in the base space) the
    values stay bounded, and for a method of order >= q they approach
    the norm of the q-th operator power of u0; rough data makes them
    grow as the ladder descends.  At q = 0 a level's value is the base
    norm of one step of its base step.
    """
    _check_stencil(h, q, levels)
    coeffs = [(-1.0) ** i * math.comb(q, i) for i in range(q + 1)]
    results = []
    for level in range(levels):
        h_base = h / 2**level
        eps = h_base / (q + 1)  # keeps every stencil node strictly positive
        acc = None
        for i, coeff in enumerate(coeffs):
            h_i = h_base + (q / 2 - i) * eps
            out, _ = step(p, t, u0, SolverConfig(h=h_i, fp_tol=fp_tol))
            acc = coeff * out if acc is None else acc + coeff * out
        results.append((float(h_base), base_norm(acc) / eps**q))
    return results


# -- initial data builders -----------------------------------------------------


def _mode_index(grid: SpectralGrid, k: int) -> int:
    """Storage index of mode k; ValueError, naming n, where the grid lacks it."""
    hits = np.flatnonzero(grid.modes == k)
    if not hits.size:
        raise ValueError(f"the {grid.bc} grid of n={grid.n} lacks mode {k} of the initial data")
    return int(hits[0])


def nls_two_mode_state(grid: SpectralGrid) -> State:
    """Smooth two-mode Schrodinger data: 0.9 in mode 1 and 0.45 in mode 2."""
    coeffs = np.zeros((1, grid.n), dtype=complex)
    coeffs[0, _mode_index(grid, 1)] = 0.9
    coeffs[0, _mode_index(grid, 2)] = 0.45
    return State(grid, coeffs)


def wave_band_state(grid: SpectralGrid, u_amps=(0.4, 0.2), v_amps=(0.2, -0.1)) -> State:
    """Smooth low-mode wave data (real field): each component's j-th
    amplitude in mode j, split over the Hermitian pair +-j on a periodic grid."""
    coeffs = np.zeros((2, grid.n), dtype=complex)
    for comp, amps in enumerate((u_amps, v_amps)):
        for j, a in enumerate(amps, start=1):
            if grid.bc == "periodic":
                coeffs[comp, _mode_index(grid, j)] = coeffs[comp, _mode_index(grid, -j)] = a / 2
            else:
                coeffs[comp, _mode_index(grid, j)] = a
    return State(grid, coeffs)


def random_band_state(grid: SpectralGrid, rng) -> State:
    """Seeded random data: a complex normal draw times 0.3 / (1 + |k|) in
    each mode 0 < |k| <= 4 of each component; real-field symmetric on wave grids."""
    coeffs = np.zeros((grid.components, grid.n), dtype=complex)
    for comp in range(grid.components):
        for j, k in enumerate(grid.modes):
            if 0 < abs(int(k)) <= 4:
                draw = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
                coeffs[comp, j] = draw / (1 + abs(int(k)))
    if grid.equation == "wave" and grid.bc == "periodic":
        flipped = np.conj(np.roll(coeffs[:, ::-1], 1, axis=-1))
        coeffs = 0.5 * (coeffs + flipped)
    elif grid.equation == "wave":
        coeffs = coeffs.real.astype(complex)
    return State(grid, coeffs)


def rough_decay_state(grid: SpectralGrid, exponent: float = 1.1) -> State:
    """Data with |c_k| ~ |k|^-exponent: barely in the base space."""
    coeffs = np.zeros((grid.components, grid.n), dtype=complex)
    k = np.abs(grid.modes.astype(float))
    nonzero = k > 0
    coeffs[0, nonzero] = k[nonzero] ** (-exponent)
    if grid.components == 2:
        coeffs[1, nonzero] = k[nonzero] ** (-exponent)
    return State(grid, coeffs)


# -- paired Dirichlet study ----------------------------------------------------


def dirichlet_compatibility_study(
    h_list, T: float, n: int, t: ButcherTableau, fp_tol: float
) -> tuple[ConvergenceReport, ConvergenceReport]:
    """Order study of the boundary-compatible vs incompatible cubic wave.

    Both runs share the tableau, step ladder, and smooth sine-band
    initial data; only the constant term of the nonlinearity differs.
    The incompatible constant leaks a slowly decaying sine tail into the
    velocity component, so its temporal order collapses once the step
    ladder leaves those mode frequencies unresolved; the CLI's defaults
    (many modes, a coarse ladder) put the study in that regime.
    """
    compatible = get_problem("wave-dirichlet-compatible", n)
    incompatible = get_problem("wave-dirichlet-incompatible", n)
    u0 = wave_band_state(compatible.grid, u_amps=(0.4, 0.2, 0.1), v_amps=(0.2, -0.1, 0.05))
    report_c = convergence_study(compatible, t, u0, T, h_list, fp_tol=fp_tol)
    report_i = convergence_study(
        incompatible, t, State(incompatible.grid, u0.coeffs.copy()), T, h_list, fp_tol=fp_tol
    )
    return report_c, report_i


# -- tangent study -------------------------------------------------------------


def tangent_convergence_study(
    p: ProblemSpec,
    t: ButcherTableau,
    u0: State,
    v0: State,
    T: float,
    h_list,
    fp_tol: float,
) -> ConvergenceReport:
    """Order study of the extended (primal, tangent) system.

    Errors are joint base-norm distances of the pair at final time
    against a fine same-family tangent reference, found as in
    ``convergence_study``.
    """
    _check_grid(p, u0, v0)
    pair = np.stack([u0.coeffs, v0.coeffs])
    return _order_study(p, t, pair, T, h_list, fp_tol, evaluate_B_pair_array, f"{p.name}+tangent")


def dyadic_h_list(h_max: float, levels: int) -> list[float]:
    """h_max, h_max/2, ..., h_max/2^(levels-1): positive normal floats."""
    if not sys.float_info.min <= h_max <= sys.float_info.max:
        raise InputError("h_max", f"h_max must be a positive normal float, got {h_max!r}")
    if levels < 1 or math.ldexp(h_max, 1 - levels) < sys.float_info.min:
        raise InputError("levels", f"need 1 <= levels={levels!r} and normal steps h_max / 2**j")
    return [math.ldexp(h_max, -j) for j in range(levels)]


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_summary_json(path, summary: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
