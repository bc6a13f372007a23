import csv
import math

import numpy as np
import pytest

from rkspectral import harness
from rkspectral.errors import SingularResolventError, UnreliableReferenceError
from rkspectral.harness import (
    _stability_growth,
    _summarize,
    conserved_quantities,
    convergence_study,
    dyadic_h_list,
    nls_two_mode_state,
    random_band_state,
    rough_decay_state,
    smoothness_probe,
    stability_growth,
    tangent_convergence_study,
    wave_band_state,
)
from rkspectral.problems import ProblemSpec, get_problem, list_problems, make_nonlinearity
from rkspectral.stepper import SolverConfig, StepStats, integrate
from rkspectral.spectral import (
    SpectralGrid,
    State,
    apply_A,
    apply_exp_tA,
    base_norm,
    inverse_transform_array,
    schrodinger_grid,
    step_matrices,
    wave_grid,
)
from rkspectral.tableau import ButcherTableau, gauss_legendre

from oracles import checked_conserved_quantities, grid_nodes, hermitian_symmetry_defect, to_state
from oracles import stability_growth as matrix_stability_growth

MIDPOINT = gauss_legendre(1)


class TestReferenceSolution:
    def test_linear_reference_matches_exact_propagator(self):
        # the gl:3 runs of a reference rung at h = T/64 and T/128
        p = get_problem("nls-linear-periodic", 32)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))
        exact = apply_exp_tA(u0, 0.5)
        for steps in (64, 128):
            cfg = SolverConfig(h=0.5 / steps, fp_tol=1e-13)
            ref, _ = integrate(p, gauss_legendre(3), u0, cfg, steps)
            assert base_norm(ref - exact) < 1e-11

    def test_validation_tolerance_enforced(self):
        # an explicit single rung (h_ref, h_ref/2) whose gap misses the gate
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        with pytest.raises(UnreliableReferenceError) as info:
            convergence_study(p, MIDPOINT, u0, 0.5, [0.05, 0.025], fp_tol=1e-13,
                              s_ref=1, h_ref=0.25)
        coarse, fine = (
            integrate(p, MIDPOINT, u0, SolverConfig(h=h, fp_tol=1e-13), round(0.5 / h))[0]
            for h in (0.25, 0.125)
        )
        assert info.value.discrepancy == base_norm(fine - coarse)
        assert info.value.discrepancy > info.value.required

    def test_halving_reference_step_self_consistency(self):
        # the discrepancy recorded at h_ref dominates the one at h_ref/2
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.4, 0.2))
        coarse, fine = (
            convergence_study(p, MIDPOINT, u0, 0.5, [0.05, 0.025], fp_tol=1e-13,
                              s_ref=2, h_ref=h_ref).reference
            for h_ref in (0.5 / 32, 0.5 / 64)
        )
        assert fine["discrepancy"] < coarse["discrepancy"]


@pytest.fixture(scope="module")
def small_report():
    p = get_problem("nls-cubic-periodic", 32)
    u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))
    return convergence_study(p, MIDPOINT, u0, 0.25, dyadic_h_list(0.025, 4), fp_tol=1e-13)


class TestConvergenceStudy:
    def test_fitted_order_near_two(self, small_report):
        assert small_report.fitted_order == pytest.approx(2.0, abs=0.1)

    def test_errors_monotone_decreasing(self, small_report):
        errors = small_report.errors
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_nothing_flagged_and_stats_recorded(self, small_report):
        assert not any(small_report.flagged)
        assert all(s["max_residual"] <= 1e-13 for s in small_report.stats)
        assert small_report.reference["tableau"] == "gl:3"

    def test_csv_serialization(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        small_report.write_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["h", "steps", "error_Y0", "mean_iters", "max_residual",
                           "contraction_est"]
        assert len(rows) == 1 + len(small_report.h_list)
        assert float(rows[1][2]) == small_report.errors[0]

    def test_csv_roundtrip(self, small_report, tmp_path):
        # every written value parses back to the report's float exactly
        path = tmp_path / "report.csv"
        small_report.write_csv(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[0]) for r in rows] == small_report.h_list
        assert [float(r[2]) for r in rows] == small_report.errors
        assert [int(r[1]) for r in rows] == [st["steps"] for st in small_report.stats]
        for r, st in zip(rows, small_report.stats):
            assert [float(x) for x in r[3:]] == [
                st["mean_iterations"], st["max_residual"], st["mean_contraction"]]

    def test_summary_dict_contents(self, small_report):
        summary = small_report.summary_dict()
        assert summary["fitted_order"] == small_report.fitted_order
        assert summary["problem"] == "nls-cubic-periodic"
        assert len(summary["errors"]) == 4

    def test_mean_contraction_skips_one_iteration_steps(self):
        stats = [StepStats(1, 1e-14, 0.0), StepStats(3, 1e-14, 0.25),
                 StepStats(2, 1e-14, 0.75), StepStats(1, 1e-14, 0.0)]
        summary = _summarize(stats)
        assert summary["mean_contraction"] == 0.5
        assert summary["mean_iterations"] == 1.75
        assert _summarize(stats[:1])["mean_contraction"] == 0.0

    def test_non_integer_step_count_rejected(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        with pytest.raises(ValueError, match="integer"):
            convergence_study(p, MIDPOINT, u0, 0.5, [0.03, 0.015], fp_tol=1e-13)

    def test_zero_step_rejected(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        with pytest.raises(ValueError, match="positive integer"):
            convergence_study(p, MIDPOINT, u0, 0.5, [0.05, 0.0], fp_tol=1e-13)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"h_ref": 0.0}, "h_ref"),
            ({"h_ref": -0.05}, "h_ref"),
            ({"h_ref": math.inf}, "h_ref"),
            ({"h_ref": math.nan}, "h_ref"),
            ({"h_ref": 0.03}, "T/h_ref must be a positive integer"),
            ({"s_ref": 2.5}, "s_ref must be an integer in 1..8"),
            ({"s_ref": 0}, "s_ref"),
            ({"s_ref": 9}, "s_ref"),
            ({"s_ref": "3"}, "s_ref"),
        ],
    )
    def test_bad_reference_arguments_rejected_before_any_run(self, monkeypatch, kwargs, match):
        runs = []
        monkeypatch.setattr(harness, "_flow", lambda *args: runs.append(args))
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        with pytest.raises(ValueError, match=match):
            convergence_study(p, MIDPOINT, u0, 0.5, [0.05, 0.025], fp_tol=1e-13, **kwargs)
        assert runs == []

    def test_zero_time_rejected(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        with pytest.raises(ValueError, match="positive integer"):
            convergence_study(p, MIDPOINT, u0, 0.0, [0.05, 0.025], fp_tol=1e-13)

    def test_non_decreasing_ladder_rejected(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        with pytest.raises(ValueError, match="decreasing"):
            convergence_study(p, MIDPOINT, u0, 0.5, [0.01, 0.02], fp_tol=1e-13)

    def test_loose_tolerance_rejected(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        with pytest.raises(ValueError, match="fp_tol"):
            convergence_study(p, MIDPOINT, u0, 0.5, dyadic_h_list(0.02, 3), fp_tol=1e-4)


def test_dyadic_h_list_halves_exactly_and_never_overflows():
    assert dyadic_h_list(0.02, 6) == [0.02 / 2**j for j in range(6)]
    # 2**1100 is past the float range; the ladder underflows to 0 instead
    ladder = dyadic_h_list(0.02, 1100)
    assert ladder[1023] > 0 and ladder[-1] == 0.0


class TestReferenceWalk:
    T = 0.1
    H_LIST = [0.025, 0.0125]

    def study(self, s, **kwargs):
        p = get_problem("nls-cubic-periodic", 16)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))
        return convergence_study(p, gauss_legendre(s), u0, self.T, self.H_LIST,
                                 fp_tol=1e-13, **kwargs)

    def test_smooth_study_stops_after_one_rung(self, small_report):
        # the walk starts at the ladder's first, coarsest step
        ref = small_report.reference
        assert ref["h_ref"] == small_report.h_list[0]
        assert ref["rungs"] == [{"h_ref": ref["h_ref"], "discrepancy": ref["discrepancy"],
                                 "required": ref["required"]}]
        assert ref["discrepancy"] <= ref["required"]
        assert ref["required"] == max(1e-3 * min(small_report.errors), 50 * 1e-13)

    def test_explicit_h_ref_reproduces_single_rung_recipe(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))
        h_list = dyadic_h_list(0.025, 3)
        h_ref = min(h_list) / 16
        report = convergence_study(p, MIDPOINT, u0, 0.25, h_list, fp_tol=1e-13, h_ref=h_ref)
        coarse, ref = (
            integrate(p, gauss_legendre(3), u0, SolverConfig(h=h, fp_tol=1e-13), round(0.25 / h))[0]
            for h in (h_ref, h_ref / 2)
        )
        expected = [
            base_norm(integrate(p, MIDPOINT, u0, SolverConfig(h=h, fp_tol=1e-13),
                                round(0.25 / h))[0] - ref)
            for h in h_list
        ]
        assert report.errors == expected
        assert report.reference["h_ref"] == h_ref
        assert report.reference["discrepancy"] == base_norm(ref - coarse)
        assert len(report.reference["rungs"]) == 1

    def test_failing_rungs_chain_into_finer_ones(self):
        # a same-order reference needs several halvings to clear the gate
        report = self.study(2, s_ref=2)
        rungs = report.reference["rungs"]
        assert len(rungs) > 1
        assert [r["h_ref"] for r in rungs] == [self.H_LIST[0] / 2**j for j in range(len(rungs))]
        assert all(r["discrepancy"] > report.reference["required"] for r in rungs[:-1])
        assert rungs[-1]["discrepancy"] <= report.reference["required"]
        # the walk's reference is the accepted rung's fine run
        single = self.study(2, s_ref=2, h_ref=rungs[-1]["h_ref"])
        assert single.errors == report.errors

    def test_each_rung_reports_its_own_gate(self):
        # every failing rung misses the gate recomputed against its own
        # fine run, and the accepted rung meets its own
        report = self.study(2, s_ref=2)
        rungs = report.reference["rungs"]
        assert len(rungs) > 1
        assert all(r["discrepancy"] > r["required"] for r in rungs[:-1])
        assert rungs[-1]["discrepancy"] <= rungs[-1]["required"] == report.reference["required"]
        # each is the gate of that rung tried alone
        for r in rungs[:-1]:
            with pytest.raises(UnreliableReferenceError) as info:
                self.study(2, s_ref=2, h_ref=r["h_ref"])
            assert (info.value.discrepancy, info.value.required) == (
                r["discrepancy"], r["required"])

    def test_non_dyadic_ladder_walks_from_its_first_step(self):
        # T = 0.1, ladder [0.05, 0.02]: rungs halve from 0.05, and the last
        # is the first whose coarse step is at most 0.02/16 = 0.00125,
        # that is 0.05/64 (0.05/32 = 0.0015625 is above it)
        p = get_problem("nls-cubic-periodic", 16)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))

        def study(**kwargs):
            return convergence_study(p, gauss_legendre(2), u0, 0.1, [0.05, 0.02],
                                     fp_tol=1e-13, **kwargs)

        rungs = study(s_ref=2).reference["rungs"]
        assert len(rungs) > 1
        assert [r["h_ref"] for r in rungs] == [0.05 / 2**j for j in range(len(rungs))]
        assert 0.05 / 32 > 0.02 / 16 >= 0.05 / 64
        with pytest.raises(UnreliableReferenceError) as walk:
            study(s_ref=1)
        gaps = {}
        for h_ref in (0.05 / 32, 0.05 / 64, 0.05 / 128):
            with pytest.raises(UnreliableReferenceError) as single:
                study(s_ref=1, h_ref=h_ref)
            gaps[h_ref] = (single.value.discrepancy, single.value.required)
        assert len(set(gaps.values())) == 3
        assert (walk.value.discrepancy, walk.value.required) == gaps[0.05 / 64]

    def test_unreachable_gate_raises_with_last_gap(self):
        # a second-order reference cannot resolve fourth-order errors
        with pytest.raises(UnreliableReferenceError) as info:
            self.study(2, s_ref=1)
        assert info.value.discrepancy > info.value.required >= 50 * 1e-13
        # the gap and margin reported are those of the last rung, h_min/16
        with pytest.raises(UnreliableReferenceError) as last:
            self.study(2, s_ref=1, h_ref=min(self.H_LIST) / 16)
        assert (info.value.discrepancy, info.value.required) == (
            last.value.discrepancy, last.value.required)
        # every rung tried, as a passing study reports them, halving from
        # h_list[0] down to the last rung at h_min/16
        rungs = info.value.rungs
        assert [r["h_ref"] for r in rungs] == [
            self.H_LIST[0] / 2**j for j in range(len(rungs))]
        assert rungs[-1]["h_ref"] == min(self.H_LIST) / 16
        assert all(set(r) == {"h_ref", "discrepancy", "required"} for r in rungs)
        assert all(r["discrepancy"] > r["required"] for r in rungs)
        assert rungs[-1] == last.value.rungs[0] == {
            "h_ref": min(self.H_LIST) / 16, "discrepancy": info.value.discrepancy,
            "required": info.value.required}
        # each rung is that rung tried alone
        with pytest.raises(UnreliableReferenceError) as first:
            self.study(2, s_ref=1, h_ref=self.H_LIST[0])
        assert first.value.rungs == rungs[:1]
        # the stage iterations spent: the ladder's, and the coarse and fine
        # runs of every rung
        p = get_problem("nls-cubic-periodic", 16)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))

        def iterations(t, h):
            cfg = SolverConfig(h=h, fp_tol=1e-13)
            _, history = integrate(p, t, u0, cfg, round(self.T / h))
            return sum(s.iterations for s in history)

        reference_steps = [rungs[0]["h_ref"]] + [r["h_ref"] / 2 for r in rungs]
        assert info.value.stage_iterations == {
            "ladder": sum(iterations(gauss_legendre(2), h) for h in self.H_LIST),
            "reference": sum(iterations(MIDPOINT, h) for h in reference_steps),
        }
        assert last.value.stage_iterations["ladder"] == info.value.stage_iterations["ladder"]
        # the message names every rung's step, gap and gate
        message = str(info.value)
        for r in rungs:
            assert (f"h_ref={r['h_ref']!r} gap {r['discrepancy']:.3e} "
                    f"required {r['required']:.3e}") in message
        assert f"ladder {info.value.stage_iterations['ladder']}" in message

    def test_stage_iterations_count_ladder_and_every_reference_run(self):
        report = self.study(2, s_ref=2)
        p = get_problem("nls-cubic-periodic", 16)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))

        def iterations(h):
            cfg = SolverConfig(h=h, fp_tol=1e-13)
            _, history = integrate(p, gauss_legendre(2), u0, cfg, round(self.T / h))
            return sum(s.iterations for s in history)

        rungs = report.reference["rungs"]
        assert len(rungs) > 1  # the coarse and fine runs of every rung count
        reference_steps = [rungs[0]["h_ref"]] + [r["h_ref"] / 2 for r in rungs]
        assert report.summary_dict()["stage_iterations"] == {
            "ladder": sum(iterations(h) for h in self.H_LIST),
            "reference": sum(iterations(h) for h in reference_steps),
        }

    def test_explicit_h_ref_does_not_walk(self):
        with pytest.raises(UnreliableReferenceError):
            self.study(2, s_ref=2, h_ref=min(self.H_LIST))


class TestReferenceWalkOnCriterionSix:
    # the criterion 6 order study: gl:2 on cubic NLS, n = 64, T = 0.5,
    # ladder 0.02 / 2^j for j < 5, reference gl:4
    H_LADDER = dyadic_h_list(0.02, 5)

    def study(self, u0_of):
        p = get_problem("nls-cubic-periodic", 64)
        return convergence_study(p, gauss_legendre(2), u0_of(p.grid), 0.5, self.H_LADDER,
                                 fp_tol=1e-13)

    def test_reference_costs_under_a_quarter_of_the_ladder(self):
        counts = self.study(nls_two_mode_state).stage_iterations
        assert counts["reference"] <= 0.25 * counts["ladder"]

    def test_rung_gaps_fall_at_the_reference_order(self):
        # the CLI's random data at seed 3 needs several rungs; every two
        # successive gaps above the roundoff floor fall by about 2^(2 s_ref)
        report = self.study(lambda grid: random_band_state(grid, np.random.default_rng(3)))
        assert report.reference["tableau"] == "gl:4"
        gaps = [r["discrepancy"] for r in report.reference["rungs"]]
        factor = 2.0 ** (2 * 4)
        pairs = [(a, b) for a, b in zip(gaps, gaps[1:]) if b > 50 * 1e-13]
        assert len(pairs) >= 2
        assert all(factor / 2 <= a / b <= 2 * factor for a, b in pairs)


class TestConservedQuantities:
    def test_zero_state(self):
        p = get_problem("nls-cubic-periodic", 16)
        q = conserved_quantities(p, State(p.grid, np.zeros((1, 16), complex)))
        assert q["mass"] == 0.0 and q["energy"] == 0.0

    def test_nls_single_mode_mass(self):
        p = get_problem("nls-cubic-periodic", 32)
        coeffs = np.zeros((1, 32), dtype=complex)
        coeffs[0, np.where(p.grid.modes == 1)[0][0]] = 0.3
        q = checked_conserved_quantities(p, State(p.grid, coeffs))
        assert q["mass"] == pytest.approx(2 * math.pi * 0.09, abs=1e-12)

    def test_linear_dirichlet_energy_of_sine(self):
        p = ProblemSpec(wave_grid(32, "dirichlet"), make_nonlinearity("wave", "zero"))
        u = to_state(p.grid, np.vstack([np.sin(grid_nodes(p.grid)), np.zeros(32)]))
        q = checked_conserved_quantities(p, u)
        assert q["energy"] == pytest.approx(math.pi / 4, abs=1e-10)

    def test_cubic_dirichlet_energy_of_sine(self):
        # adds the quartic potential integral: int sin^4 / 4 = 3 pi / 32
        p = get_problem("wave-dirichlet-compatible", 32)
        u = to_state(p.grid, np.vstack([np.sin(grid_nodes(p.grid)), np.zeros(32)]))
        q = checked_conserved_quantities(p, u)
        assert q["energy"] == pytest.approx(math.pi / 4 + 3 * math.pi / 32, abs=1e-10)

    @pytest.mark.parametrize(
        "name", ["wave-cubic-periodic", "wave-neumann", "wave-dirichlet-compatible"]
    )
    def test_debug_quadratures_agree_on_random_band_data(self, name):
        p = get_problem(name, 32)
        rng = np.random.default_rng(5)
        u = random_band_state(p.grid, rng, max_mode=5)
        checked_conserved_quantities(p, u)  # raises on spectral/quadrature mismatch


class TestConservedRows:
    @pytest.mark.parametrize("name", list_problems())
    def test_each_state_is_its_batched_row_bitwise(self, name):
        # every mode carries data, so the Neumann endpoint terms are live
        p = get_problem(name, 32)
        rng = np.random.default_rng(11)
        shape = (17, p.grid.components, p.grid.n)
        coeffs = 0.2 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        if p.grid.equation == "wave" and p.grid.bc != "periodic":
            coeffs[::2] = coeffs[::2].real  # real states, as the real stage solve yields
        phys = inverse_transform_array(p.grid, coeffs[:, 0, :])
        assert np.all(np.abs(phys[:, [0, -1]]) > 1e-3) or p.grid.bc == "dirichlet"
        for m in (1, 16, 17):
            mass, energy = harness._conserved_rows(p, coeffs[:m])
            assert mass.shape == energy.shape == (m,)
            for j in range(m):
                q = conserved_quantities(p, State(p.grid, coeffs[j]))
                assert (mass[j], energy[j]) == (q["mass"], q["energy"])
                assert math.isfinite(q["energy"])

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    def test_quadrature_rows_are_single_quadratures(self, bc):
        grid = wave_grid(16, bc)
        values = np.random.default_rng(3).standard_normal((5, 16))
        values[:, [0, -1]] = [100.0, -50.0]  # endpoints that the Neumann rule halves
        rows = harness._physical_quadrature(grid, values)
        assert [float(v) for v in rows] == [
            float(harness._physical_quadrature(grid, row)) for row in values]
        if bc == "neumann":
            dx = math.pi / 15
            expected = (values.sum(axis=-1) - 0.5 * values[:, 0] - 0.5 * values[:, -1]) * dx
            assert rows.tobytes() == expected.tobytes()


class TestStabilityGrowth:
    def test_zero_steps_is_one(self):
        assert stability_growth(MIDPOINT, schrodinger_grid(16), 0.1, 0) == 1.0

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_schrodinger_amplification_is_one(self, s):
        grid = schrodinger_grid(256)
        t = gauss_legendre(s)
        for h in (1e-3, 1e-2, 1e-1, 1.0):
            assert stability_growth(t, grid, h, 10) == pytest.approx(1.0, abs=1e-13)

    def test_wave_secular_growth_is_linear(self):
        # k = 0 block: growth ~ 1 + n h, far below exponential
        grid = wave_grid(64)
        h = 0.1
        a100 = stability_growth(MIDPOINT, grid, h, 100)
        a1000 = stability_growth(MIDPOINT, grid, h, 1000)
        assert a100 == pytest.approx(math.hypot(100 * h, 1), rel=0.2)
        assert a1000 / a100 == pytest.approx(10.0, rel=0.15)

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    def test_wave_growth_matches_weighted_matmul_formula(self, bc):
        # reference: D P^n D^-1 over every mode, as zero-padded complex
        # matmuls.  The step-matrix oracle matches it bit for bit, and so
        # does the closed form where the k = 0 block sets the maximum
        # (periodic and Neumann grids); a Dirichlet grid has no k = 0 mode,
        # so there the closed form holds it to 1e-12 relative.
        for n in (16, 256, 1024):
            grid = wave_grid(n - (bc != "periodic"), bc)
            k = grid.modes.astype(float)
            weights = np.sqrt(k**2 + 1.0)
            for s in (1, 2, 3, 6):
                t = gauss_legendre(s)
                for h in (1e-3, 0.37, 1.0, 2.5):  # a real SVD differs at s=2, h=1
                    _, update = step_matrices(t, h, grid)
                    for n_steps in (1, 10):
                        powers = np.linalg.matrix_power(update, n_steps)
                        scale = np.zeros_like(powers)
                        scale[:, 0, 0] = weights
                        scale[:, 1, 1] = 1.0
                        inv_scale = np.zeros_like(powers)
                        inv_scale[:, 0, 0] = 1.0 / weights
                        inv_scale[:, 1, 1] = 1.0
                        norms = np.linalg.norm(scale @ powers @ inv_scale, ord=2, axis=(1, 2))
                        expected = float(np.max(norms))
                        assert matrix_stability_growth(t, grid, h, n_steps) == expected
                        got = stability_growth(t, grid, h, n_steps)
                        if bc == "dirichlet":
                            assert got == pytest.approx(expected, rel=1e-12, abs=0), (n, s, h)
                        else:
                            assert got == expected, (n, s, h)

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    @pytest.mark.parametrize("equation", ["schrodinger", "wave"])
    def test_closed_form_matches_step_matrix_oracle(self, equation, bc):
        # Both read S from one resolvent: a Schrodinger update is S, and the
        # wave k = 0 update, the maximum of a periodic or Neumann grid, is
        # exact in both.  Dirichlet wave values agree to 8.4e-16.
        for n in (16, 256):
            grid = SpectralGrid(equation, bc, n - (bc != "periodic"))
            for s in range(1, 9):
                t = gauss_legendre(s)
                for h in (1e-3, 0.37, 1.0, 2.5):
                    for n_steps in (1, 10):
                        expected = matrix_stability_growth(t, grid, h, n_steps)
                        got = stability_growth(t, grid, h, n_steps)
                        if (equation, bc) == ("wave", "dirichlet"):
                            assert got == pytest.approx(expected, rel=1e-12, abs=0), (n, s, h)
                        else:
                            assert got == expected, (n, s, h)

    def test_h_scan_sweep_matches_step_matrix_oracle_bitwise(self):
        # the benchmark's stability sweep: 400 log-spaced steps on [1e-4, 1]
        grid = wave_grid(1024)
        t = gauss_legendre(3)
        step = 4.0 / 399
        for i in range(400):
            h = 10.0 ** min(max(-4.0 + i * step, -4.0), 0.0)
            assert stability_growth(t, grid, h, 10) == matrix_stability_growth(t, grid, h, 10), h

    def test_reports_the_mode_attaining_the_maximum(self):
        # explicit Euler grows fastest in the highest mode, the midpoint
        # rule's secular growth sits in k = 0, and with no steps every mode
        # ties at 1, so the first representative is named.
        euler = ButcherTableau(1, [[0.0]], [1.0], [0.0], 1)
        assert _stability_growth(euler, wave_grid(16, "dirichlet"), 0.1, 10)[1] == 16
        assert _stability_growth(euler, schrodinger_grid(16), 0.1, 10)[1] == 8
        growth, mode = _stability_growth(MIDPOINT, wave_grid(64), 0.1, 100)
        assert (growth, mode) == (stability_growth(MIDPOINT, wave_grid(64), 0.1, 100), 0)
        assert _stability_growth(MIDPOINT, wave_grid(16, "dirichlet"), 0.1, 0) == (1.0, 1)

    @pytest.mark.parametrize(
        "equation, n, bc, h, mode",
        [("schrodinger", 8, "periodic", 1.0, 1), ("schrodinger", 8, "periodic", 0.25, 2),
         ("schrodinger", 16, "periodic", 1 / 9, 3), ("schrodinger", 8, "dirichlet", 0.25, 2),
         ("wave", 8, "periodic", 1.0, 1), ("wave", 8, "periodic", 0.25, 4),
         ("wave", 16, "neumann", 1 / 3, 3), ("wave", 8, "dirichlet", 1 / 3, 3)],
    )
    def test_singular_stage_block_names_storage_mode(self, equation, n, bc, h, mode):
        # a = [[0, -1], [1, 0]] has eigenvalues +-i, so (I - z a) is singular
        # at z = +-i: where h k^2 = 1 (Schrodinger) or h k = 1 (wave).
        t = ButcherTableau(2, [[0, -1], [1, 0]], [0.5, 0.5], [-1, 1], 1)
        with pytest.raises(SingularResolventError) as info:
            stability_growth(t, SpectralGrid(equation, bc, n), h, 10)
        assert info.value.where == mode

    def test_wave_nonzero_modes_stay_bounded(self):
        grid = wave_grid(64, "dirichlet")  # no zero mode on this grid
        amp = stability_growth(gauss_legendre(2), grid, 0.05, 500)
        assert amp < 1.5


class TestSmoothnessProbe:
    def test_band_limited_data_converges_to_operator_power_norm(self):
        # order >= q makes the h -> 0 limit exactly |A^q u0|
        p = get_problem("nls-linear-periodic", 32)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))
        results = smoothness_probe(p, gauss_legendre(2), u0, 0.05, 2, levels=6)
        values = [v for _, v in results]
        limit = base_norm(apply_A(apply_A(u0)))
        assert values[-1] == pytest.approx(limit, rel=1e-4)
        assert max(values) / min(values) < 1.01

    def test_rough_data_diverges(self):
        p = get_problem("nls-linear-periodic", 256)
        u0 = rough_decay_state(p.grid, exponent=1.1)
        results = smoothness_probe(p, gauss_legendre(2), u0, 0.05, 2, levels=5)
        values = [v for _, v in results]
        assert all(b > 2 * a for a, b in zip(values, values[1:]))

    def test_zeroth_order_is_step_norm(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        [(h, value)] = smoothness_probe(p, MIDPOINT, u0, 0.05, 0)
        assert h == 0.05
        assert np.isfinite(value) and value > 0

    def test_order_cap(self):
        p = get_problem("nls-cubic-periodic", 32)
        with pytest.raises(ValueError):
            smoothness_probe(p, MIDPOINT, nls_two_mode_state(p.grid), 0.05, 5)


class TestTangentStudy:
    def test_extended_system_order(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))
        coeffs = np.zeros((1, 32), dtype=complex)
        coeffs[0, np.where(p.grid.modes == 1)[0][0]] = 0.3
        coeffs[0, np.where(p.grid.modes == 3)[0][0]] = -0.2
        v0 = State(p.grid, coeffs)
        report = tangent_convergence_study(
            p, MIDPOINT, u0, v0, 0.25, dyadic_h_list(0.025, 4), fp_tol=1e-13
        )
        assert report.fitted_order == pytest.approx(2.0, abs=0.15)
        assert report.problem.endswith("+tangent")

    @staticmethod
    def pair():
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid, amplitudes=(0.5, 0.25))
        v0 = random_band_state(p.grid, np.random.default_rng(3))
        return p, u0, v0

    def test_non_decreasing_ladder_rejected(self):
        p, u0, v0 = self.pair()
        with pytest.raises(ValueError, match="decreasing"):
            tangent_convergence_study(p, MIDPOINT, u0, v0, 0.5, [0.01, 0.02], fp_tol=1e-13)


@pytest.mark.parametrize("wrong", ["u0", "v0"])
def test_state_on_another_grid_rejected_before_any_run(monkeypatch, wrong):
    runs = []
    monkeypatch.setattr(harness, "_flow", lambda *args: runs.append(args))
    p = get_problem("nls-cubic-periodic", 32)
    other = get_problem("nls-cubic-periodic", 16).grid
    states = {"u0": nls_two_mode_state(p.grid), "v0": nls_two_mode_state(p.grid)}
    states[wrong] = nls_two_mode_state(other)
    h_list = [0.05, 0.025]
    if wrong == "u0":
        with pytest.raises(ValueError, match="different grid"):
            convergence_study(p, MIDPOINT, states["u0"], 0.5, h_list, fp_tol=1e-13)
    with pytest.raises(ValueError, match="different grid"):
        tangent_convergence_study(
            p, MIDPOINT, states["u0"], states["v0"], 0.5, h_list, fp_tol=1e-13
        )
    assert runs == []


@pytest.mark.parametrize("name", ["nls-cubic-periodic", "wave-dirichlet-compatible",
                                  "wave-neumann", "wave-cubic-periodic"])
def test_study_distance_is_the_joint_base_norm_bitwise(name):
    # one state: base_norm of the difference; a pair: the root of the sum
    # of its two squared base norms, each rounded on its own
    grid = get_problem(name, 32).grid
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = (random_band_state(grid, rng).coeffs for _ in range(2))
        c, d = (random_band_state(grid, rng).coeffs for _ in range(2))
        single = base_norm(State(grid, a) - State(grid, b))
        assert harness._distance(grid, a, b) == single
        if grid.equation == "wave" and grid.bc != "periodic":
            assert harness._distance(grid, a.real, b.real) == single
        pair = math.sqrt(single**2 + base_norm(State(grid, c) - State(grid, d)) ** 2)
        assert harness._distance(grid, np.stack([a, c]), np.stack([b, d])) == pair


class TestInitialData:
    def test_wave_band_state_is_real_field(self):
        state = wave_band_state(wave_grid(32))
        assert hermitian_symmetry_defect(state) == 0.0

    def test_random_band_state_seeded(self):
        grid = wave_grid(32)
        a = random_band_state(grid, np.random.default_rng(9))
        b = random_band_state(grid, np.random.default_rng(9))
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_rough_state_decay(self):
        grid = schrodinger_grid(64)
        state = rough_decay_state(grid, 1.1)
        idx2 = np.where(grid.modes == 2)[0][0]
        assert abs(state.coeffs[0, idx2]) == pytest.approx(2 ** -1.1)

    def test_dyadic_h_list(self):
        assert dyadic_h_list(0.02, 3) == [0.02, 0.01, 0.005]
        with pytest.raises(ValueError):
            dyadic_h_list(0.02, 0)
