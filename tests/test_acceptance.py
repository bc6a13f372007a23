"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the long-running order studies are shared between criteria through
module-scoped fixtures, and every stated tolerance and runtime budget is
asserted here.
"""

import time

import numpy as np
import pytest

from rkspectral.harness import (
    conservation_run,
    convergence_study,
    dirichlet_compatibility_study,
    dyadic_h_list,
    nls_two_mode_state,
    stability_growth,
    tangent_convergence_study,
    wave_band_state,
)
from rkspectral.problems import get_problem
from rkspectral.spectral import (
    SpectralGrid,
    State,
    apply_A,
    apply_exp_tA,
    base_norm,
    sobolev_norm,
)
from rkspectral.stepper import SolverConfig, step, tangent_step
from rkspectral.tableau import (
    ButcherTableau,
    check_a_stability,
    gauss_legendre,
    quadrature_order,
    stability_function,
)

FP_TOL = 1e-13
H_LADDER = dyadic_h_list(0.02, 5)
GL1_WINDOW = (1.85, 2.15)
GL2_WINDOW = (3.7, 4.3)
WAVE_U_AMPS = (1.0, 0.6, 0.5, 0.4)
WAVE_V_AMPS = (0.6, -0.4, 0.3, -0.2)


def announce(number, text):
    print(f"CRITERION {number:2d}: PASS - {text}")


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


@pytest.fixture(scope="module")
def nls_studies():
    """Criterion 6 runs (also consumed by criterion 11)."""

    def run():
        p = get_problem("nls-cubic-periodic", 64)
        u0 = nls_two_mode_state(p.grid)
        return [
            convergence_study(p, gauss_legendre(s), u0, 0.5, H_LADDER, fp_tol=FP_TOL)
            for s in (1, 2)
        ]

    return timed(run)


@pytest.fixture(scope="module")
def wave_studies():
    def run():
        p = get_problem("wave-cubic-periodic", 64)
        u0 = wave_band_state(p.grid, u_amps=WAVE_U_AMPS, v_amps=WAVE_V_AMPS)
        return [
            convergence_study(p, gauss_legendre(s), u0, 0.5, H_LADDER, fp_tol=FP_TOL)
            for s in (1, 2)
        ]

    return timed(run)


def test_criterion_01_tableau_correctness():
    def run():
        t1 = gauss_legendre(1)
        assert np.array_equal(t1.a, [[0.5]])
        assert np.array_equal(t1.b, [1.0])
        for s in range(1, 6):
            t = gauss_legendre(s)
            assert quadrature_order(t) == 2 * s
            report = check_a_stability(t)
            assert report.rk1_ok and report.rk2_ok and report.a_invertible

    _, elapsed = timed(run)
    assert elapsed < 1.0
    announce(1, f"midpoint data exact, B(2s) and A-stability for s=1..5 ({elapsed:.2f}s)")


def test_criterion_02_stability_function():
    def run():
        for s in (1, 2, 3):
            t = gauss_legendre(s)
            for y in np.logspace(-3, 6, 200):
                assert abs(abs(stability_function(t, 1j * y)) - 1.0) <= 1e-12
        t1 = gauss_legendre(1)
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = -rng.uniform(0, 5) + 1j * rng.uniform(-5, 5)
            assert abs(stability_function(t1, z) - (1 + z / 2) / (1 - z / 2)) <= 1e-14

    _, elapsed = timed(run)
    assert elapsed < 1.0
    announce(2, f"|S(iy)| = 1 to 1e-12 and midpoint rational form to 1e-14 ({elapsed:.2f}s)")


def test_criterion_03_normal_operator_stability():
    def run():
        grid = SpectralGrid("schrodinger", "periodic", 256)
        worst = 0.0
        for s in (1, 2, 3):
            t = gauss_legendre(s)
            for growth, _ in stability_growth(t, grid, [1e-3, 1e-2, 1e-1, 1.0], 10):
                worst = max(worst, abs(growth - 1.0))
        assert worst <= 1e-13
        return worst

    worst, elapsed = timed(run)
    assert elapsed < 1.0
    announce(3, f"amplification 1 within {worst:.1e} on the Schrodinger grid ({elapsed:.2f}s)")


def test_criterion_04_scale_norm_contractivity():
    def run():
        rng = np.random.default_rng(4)
        for equation in ("schrodinger", "wave"):
            grid = SpectralGrid(equation, "periodic", 32)
            for _ in range(100):
                shape = (grid.components, grid.n)
                u = State(
                    grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                )
                k = int(rng.integers(0, 7))
                assert sobolev_norm(apply_A(u), k) <= sobolev_norm(u, k + 1)

    _, elapsed = timed(run)
    assert elapsed < 1.0
    announce(4, f"|A u|_k <= |u|_(k+1) on 100 random states, both problems ({elapsed:.2f}s)")


def test_criterion_05_linear_local_order():
    def run():
        p = get_problem("nls-linear-periodic", 32)
        coeffs = np.zeros((1, 32), dtype=complex)
        for mode, amp in zip((1, 2, 3, 4), (0.5, 0.25, 0.1, 0.05)):
            coeffs[0, np.where(p.grid.modes == mode)[0][0]] = amp
        u = State(p.grid, coeffs)
        spreads = []
        for s, h0 in ((1, 0.01), (2, 0.05)):
            t = gauss_legendre(s)
            normalized = []
            for level in range(4):
                h = h0 / 2**level
                out, _ = step(p, t, u, SolverConfig(h=h, fp_tol=1e-14))
                normalized.append(base_norm(out - apply_exp_tA(u, h)) / h ** (2 * s + 1))
            spread = max(normalized) / min(normalized)
            assert spread <= 2.2
            spreads.append(spread)
        return spreads

    spreads, elapsed = timed(run)
    assert elapsed < 5.0
    announce(
        5,
        "local error ~ h^(2s+1): normalized spread "
        f"{spreads[0]:.3f} (s=1), {spreads[1]:.3f} (s=2) ({elapsed:.2f}s)",
    )


def test_criterion_06_nls_full_order(nls_studies):
    (rep1, rep2), elapsed = nls_studies
    assert elapsed < 60.0
    assert len(rep1.h_list) >= 5 and rep1.h_list[0] == 0.02
    assert GL1_WINDOW[0] <= rep1.fitted_order <= GL1_WINDOW[1]
    assert GL2_WINDOW[0] <= rep2.fitted_order <= GL2_WINDOW[1]
    for rep in (rep1, rep2):
        assert all(e > 100 * FP_TOL for e in rep.errors)
    announce(
        6,
        f"nls-cubic orders {rep1.fitted_order:.3f} (gl:1), {rep2.fitted_order:.3f} (gl:2) "
        f"({elapsed:.1f}s)",
    )


def test_criterion_07_wave_full_order(wave_studies):
    (rep1, rep2), elapsed = wave_studies
    assert elapsed < 60.0
    assert GL1_WINDOW[0] <= rep1.fitted_order <= GL1_WINDOW[1]
    assert GL2_WINDOW[0] <= rep2.fitted_order <= GL2_WINDOW[1]
    for rep in (rep1, rep2):
        assert all(e > 100 * FP_TOL for e in rep.errors)
    announce(
        7,
        f"wave-cubic orders {rep1.fitted_order:.3f} (gl:1), {rep2.fitted_order:.3f} (gl:2) "
        f"({elapsed:.1f}s)",
    )


# Negative controls for the mass bound: A-stable methods that do not
# conserve quadratic invariants.
RADAU_IIA_2 = ButcherTableau(
    2, [[5 / 12, -1 / 12], [3 / 4, 1 / 4]], [3 / 4, 1 / 4], [1 / 3, 1.0], 3, label="radau-iia-2"
)
IMPLICIT_EULER = ButcherTableau(1, [[1.0]], [1.0], [1.0], 1, label="implicit-euler")


def test_criterion_08_conservation():
    def run():
        t1 = gauss_legendre(1)
        cfg = SolverConfig(h=5e-3, fp_tol=FP_TOL)

        p = get_problem("nls-cubic-periodic", 64)
        u0 = nls_two_mode_state(p.grid)

        def mass_drift_of(t):  # the largest relative drift over every step
            return max(row[4] for row in conservation_run(p, t, u0, cfg, 2000).rows)

        mass_drift = mass_drift_of(t1)
        assert mass_drift <= 1e-12
        # both controls drift past the bound; Radau IIA fits its order 3 on
        # criterion 6's study, so its drift is not that of a broken method
        radau = convergence_study(p, RADAU_IIA_2, u0, 0.5, H_LADDER, fp_tol=FP_TOL)
        assert 2.7 <= radau.fitted_order <= 3.3
        controls = [mass_drift_of(t) for t in (RADAU_IIA_2, IMPLICIT_EULER)]
        assert min(controls) > 1e-12

        pw = get_problem("wave-cubic-periodic", 64)
        summary = conservation_run(pw, t1, wave_band_state(pw.grid), cfg, 2000).summary_dict()
        # the early maximum is over the first 200 steps, a tenth of the run
        early_max, final = summary["energy_dev_early_max"], summary["energy_dev_final"]
        assert final <= 2 * early_max
        return mass_drift, controls, final, early_max

    (mass_drift, controls, final, early_max), elapsed = timed(run)
    assert elapsed < 30.0
    announce(
        8,
        f"mass drift {mass_drift:.1e} (radau-iia-2 {controls[0]:.1e}, implicit-euler "
        f"{controls[1]:.1e}); energy final dev {final:.2e} <= 2 x early max "
        f"{early_max:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_09_tangent_convergence():
    def run():
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        coeffs = np.zeros((1, 32), dtype=complex)
        coeffs[0, np.where(p.grid.modes == 1)[0][0]] = 0.3
        coeffs[0, np.where(p.grid.modes == 3)[0][0]] = -0.2
        v0 = State(p.grid, coeffs)

        cfg = SolverConfig(h=0.01, fp_tol=FP_TOL)
        _, v1, _ = tangent_step(p, gauss_legendre(1), u0, v0, cfg)
        eps = 1e-5
        plus, _ = step(p, gauss_legendre(1), u0 + eps * v0, cfg)
        minus, _ = step(p, gauss_legendre(1), u0 + (-eps) * v0, cfg)
        fd = (1 / (2 * eps)) * (plus - minus)
        rel_err = base_norm(fd - v1) / base_norm(v1)
        assert rel_err <= 1e-5

        report = tangent_convergence_study(
            p, gauss_legendre(1), u0, v0, 0.5, H_LADDER, fp_tol=FP_TOL
        )
        assert GL1_WINDOW[0] <= report.fitted_order <= GL1_WINDOW[1]
        return rel_err, report.fitted_order

    (rel_err, order), elapsed = timed(run)
    assert elapsed < 60.0
    announce(
        9,
        f"tangent vs central differences rel err {rel_err:.1e}; extended-system order "
        f"{order:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_10_dirichlet_compatibility():
    def run():
        return dirichlet_compatibility_study(
            dyadic_h_list(0.08, 5), T=0.4, n=256, t=gauss_legendre(1), fp_tol=FP_TOL
        )

    (rep_c, rep_i), elapsed = timed(run)
    assert elapsed < 60.0
    p_order = 2
    assert GL1_WINDOW[0] <= rep_c.fitted_order <= GL1_WINDOW[1]
    assert rep_i.fitted_order <= p_order - 0.5
    announce(
        10,
        f"compatible order {rep_c.fitted_order:.3f}, incompatible order "
        f"{rep_i.fitted_order:.3f} <= 1.5 ({elapsed:.1f}s)",
    )


def test_criterion_11_contraction_diagnostics(nls_studies):
    (rep1, rep2), _ = nls_studies
    ratios = []
    for rep in (rep1, rep2):
        contractions = [s["mean_contraction"] for s in rep.stats]
        for coarse, fine in zip(contractions, contractions[1:]):
            ratio = fine / coarse
            assert 0.3 <= ratio <= 0.7
            ratios.append(ratio)
        assert max(s["max_iterations"] for s in rep.stats) <= 30
    announce(
        11,
        f"contraction halves with h (ratios {min(ratios):.2f}..{max(ratios):.2f}), "
        "iterations <= 30",
    )
