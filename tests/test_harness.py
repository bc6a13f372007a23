import csv
import functools
import math
import re
import sys

import numpy as np
import pytest

from rkspectral import harness
from rkspectral.errors import SingularResolventError, UnreliableReferenceError
from rkspectral.harness import (
    _summarize,
    conservation_run,
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
from rkspectral.stepper import SolverConfig, StepStats, integrate, step
from rkspectral.spectral import (
    SpectralGrid,
    State,
    apply_A,
    apply_exp_tA,
    base_norm,
    inverse_transform_array,
    step_matrices,
)
from rkspectral.tableau import ButcherTableau, gauss_legendre

from oracles import (
    band_state,
    checked_conserved_quantities,
    exact_largest_stability_modulus,
    exact_stability_polynomials,
    grid_nodes,
    hermitian_symmetry_defect,
    reference_rung,
    to_state,
    two_mode_state,
)
from oracles import stability_growth as matrix_stability_growth

MIDPOINT = gauss_legendre(1)
SCHRODINGER16 = SpectralGrid("schrodinger", "periodic", 16)
WAVE16 = SpectralGrid("wave", "periodic", 16)


@functools.cache
def exact_gl_polynomials(s):
    return exact_stability_polynomials(gauss_legendre(s))


class TestReferenceSolution:
    def test_linear_reference_matches_exact_propagator(self):
        # the gl:3 runs of a reference rung at h = T/64 and T/128
        p = get_problem("nls-linear-periodic", 32)
        u0 = two_mode_state(p.grid, (0.5, 0.25))
        exact = apply_exp_tA(u0, 0.5)
        for steps in (64, 128):
            cfg = SolverConfig(h=0.5 / steps, fp_tol=1e-13)
            ref, _ = integrate(p, gauss_legendre(3), u0, cfg, steps)
            assert base_norm(ref - exact) < 1e-11

    def test_validation_tolerance_enforced(self, monkeypatch):
        # a same-order (gl:1) reference: the last rung's gap misses the gate
        monkeypatch.setattr(harness, "_MAX_STAGES", 1)
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        with pytest.raises(UnreliableReferenceError) as info:
            convergence_study(p, MIDPOINT, u0, 0.5, [0.05, 0.025], fp_tol=1e-13)
        _, last = reference_rung(p, MIDPOINT, MIDPOINT, u0, 0.5, [0.05, 0.025], 0.025 / 16)
        assert info.value.rungs[-1] == last
        assert info.value.discrepancy == last["discrepancy"]
        assert info.value.discrepancy > info.value.required

    def test_halving_reference_step_self_consistency(self, monkeypatch):
        # the discrepancy recorded at each rung dominates the one at the next
        monkeypatch.setattr(harness, "_MAX_STAGES", 2)
        p = get_problem("nls-cubic-periodic", 32)
        u0 = two_mode_state(p.grid, (0.4, 0.2))
        h_list = [0.05, 0.025]
        rungs = convergence_study(p, MIDPOINT, u0, 0.5, h_list, fp_tol=1e-13).reference["rungs"]
        assert len(rungs) > 1
        assert all(b["discrepancy"] < a["discrepancy"] for a, b in zip(rungs, rungs[1:]))
        assert rungs == [reference_rung(p, MIDPOINT, gauss_legendre(2), u0, 0.5, h_list,
                                        r["h_ref"])[1] for r in rungs]


@pytest.fixture(scope="module")
def small_report():
    p = get_problem("nls-cubic-periodic", 32)
    u0 = two_mode_state(p.grid, (0.5, 0.25))
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
    ladder = dyadic_h_list(0.02, 1017)
    assert ladder[-1] == math.ldexp(0.02, -1016) >= sys.float_info.min
    # one more level is subnormal; 2**1100 is past the float range, and the
    # ladder is refused rather than built by division
    for levels in (1018, 1100):
        with pytest.raises(ValueError, match="normal steps"):
            dyadic_h_list(0.02, levels)


# Library calls whose inputs break a rule: (call on a 16-mode NLS problem
# and its data, the parameter at fault, the message).
BAD_INPUTS = {
    "one-step ladder": (
        lambda p, u0: convergence_study(p, MIDPOINT, u0, 0.5, [0.02], fp_tol=1e-13),
        "h_list", "two or more strictly decreasing steps"),
    "one-step tangent ladder": (
        lambda p, u0: tangent_convergence_study(p, MIDPOINT, u0, u0, 0.5, [0.02],
                                                fp_tol=1e-13),
        "h_list", "two or more strictly decreasing steps"),
    "no smoothness level": (
        lambda p, u0: smoothness_probe(p, MIDPOINT, u0, 0.05, 2, levels=0, fp_tol=1e-13),
        "levels", "at least one level"),
    "stencil power underflows": (
        lambda p, u0: smoothness_probe(p, MIDPOINT, u0, 0.05, 2, levels=600, fp_tol=1e-13),
        "levels", "level 599 raised to q=2 is 0.0"),
    "stencil power overflows": (
        lambda p, u0: smoothness_probe(p, MIDPOINT, u0, 1e300, 4, levels=4, fp_tol=1e-13),
        "h", "level 0 raised to q=4 is inf"),
    "subnormal dyadic ladder": (
        lambda p, u0: dyadic_h_list(1e-300, 100), "levels", "normal steps"),
    "negative stability step": (
        lambda p, u0: stability_growth(gauss_legendre(2), WAVE16, [-1.0], 10),
        "h_values", "h must be finite and nonnegative"),
    "nan stability step": (
        lambda p, u0: stability_growth(gauss_legendre(2), WAVE16, [math.nan], 10),
        "h_values", "h must be finite and nonnegative"),
    "bad stability step after five good ones": (
        lambda p, u0: stability_growth(gauss_legendre(2), WAVE16,
                                       [0.1, 0.2, 0.3, 0.4, 0.5, -1.0, 0.6], 10),
        "h_values", re.escape("h must be finite and nonnegative, got -1.0")),
    "stability step too large for a float": (
        lambda p, u0: stability_growth(gauss_legendre(2), WAVE16, [10**400], 10),
        "h_values", "h must be finite and nonnegative"),
    "order-study time too large for a float": (
        lambda p, u0: convergence_study(p, MIDPOINT, u0, 10**400, [0.02, 0.01], fp_tol=1e-13),
        "h_list", "T/h must be a positive integer"),
    "solver step too large for a float": (
        lambda p, u0: conservation_run(p, MIDPOINT, u0, SolverConfig(h=10**400), 1),
        "h", "step size must be finite and positive"),
    "negative stability power": (
        lambda p, u0: stability_growth(gauss_legendre(2), WAVE16, [0.1], -1),
        "n_steps", "n_steps must be at least 0"),
    "stability power too large for a float": (
        lambda p, u0: stability_growth(gauss_legendre(2), WAVE16, [0.1], 10**400),
        "n_steps", re.escape(f"n_steps must be at least 0 and at most {sys.float_info.max!r}")),
    "stability power one past the bound": (
        lambda p, u0: stability_growth(gauss_legendre(2), WAVE16, [0.1],
                                       int(sys.float_info.max) + 1),
        "n_steps", "n_steps must be at least 0 and at most"),
    "conservation steps too large for a float": (
        lambda p, u0: conservation_run(p, MIDPOINT, u0, SolverConfig(h=0.01), 10**400),
        "steps", re.escape(f"steps must be at least 1 and at most {sys.float_info.max!r}")),
    "integrate steps one past the bound": (
        lambda p, u0: integrate(p, MIDPOINT, u0, SolverConfig(h=0.01),
                                int(sys.float_info.max) + 1),
        "steps", "steps must be at least 1 and at most"),
    "no conservation step": (
        lambda p, u0: conservation_run(p, MIDPOINT, u0, SolverConfig(h=0.01), 0),
        "steps", "steps must be at least 1"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_rejected_before_any_run(monkeypatch, case):
    runs = []
    for target in ("_flow", "step", "_stability_values"):
        monkeypatch.setattr(harness, target, lambda *args, **kwargs: runs.append(args))
    call, name, message = BAD_INPUTS[case]
    p = get_problem("nls-cubic-periodic", 16)
    with pytest.raises(ValueError, match=message) as exc:
        call(p, nls_two_mode_state(p.grid))
    assert exc.value.name == name
    assert runs == []


class TestReferenceWalk:
    T = 0.1
    H_LIST = [0.025, 0.0125]

    @staticmethod
    def data():
        p = get_problem("nls-cubic-periodic", 16)
        return p, two_mode_state(p.grid, (0.5, 0.25))

    def study(self, s):
        p, u0 = self.data()
        return convergence_study(p, gauss_legendre(s), u0, self.T, self.H_LIST, fp_tol=1e-13)

    def rung(self, s, s_ref, h_ref):
        """The rung (h_ref, h_ref/2) of a gl:s study with a gl:s_ref
        reference, recomputed by ``oracles.reference_rung``."""
        p, u0 = self.data()
        return reference_rung(p, gauss_legendre(s), gauss_legendre(s_ref), u0, self.T,
                              self.H_LIST, h_ref)

    def test_smooth_study_stops_after_one_rung(self, small_report):
        # the walk starts at the ladder's first, coarsest step
        ref = small_report.reference
        assert ref["h_ref"] == small_report.h_list[0]
        assert ref["rungs"] == [{"h_ref": ref["h_ref"], "discrepancy": ref["discrepancy"],
                                 "required": ref["required"]}]
        assert ref["discrepancy"] <= ref["required"]
        assert ref["required"] == max(1e-3 * min(small_report.errors), 50 * 1e-13)

    def test_first_rung_reproduces_single_rung_recipe(self):
        # smooth data: the walk's first rung, at the ladder's first step, passes
        p = get_problem("nls-cubic-periodic", 32)
        u0 = two_mode_state(p.grid, (0.5, 0.25))
        h_list = dyadic_h_list(0.025, 3)
        report = convergence_study(p, MIDPOINT, u0, 0.25, h_list, fp_tol=1e-13)
        expected, rung = reference_rung(p, MIDPOINT, gauss_legendre(3), u0, 0.25, h_list,
                                        h_list[0])
        assert report.errors == expected
        assert report.reference["h_ref"] == h_list[0]
        assert report.reference["discrepancy"] == rung["discrepancy"]
        assert report.reference["rungs"] == [rung]

    def test_failing_rungs_chain_into_finer_ones(self, monkeypatch):
        # a same-order reference needs several halvings to clear the gate
        monkeypatch.setattr(harness, "_MAX_STAGES", 2)
        report = self.study(2)
        assert report.reference["tableau"] == "gl:2"
        rungs = report.reference["rungs"]
        assert len(rungs) > 1
        assert [r["h_ref"] for r in rungs] == [self.H_LIST[0] / 2**j for j in range(len(rungs))]
        assert all(r["discrepancy"] > report.reference["required"] for r in rungs[:-1])
        assert rungs[-1]["discrepancy"] <= report.reference["required"]
        # the walk's reference is the accepted rung's fine run
        errors, _ = self.rung(2, 2, rungs[-1]["h_ref"])
        assert errors == report.errors

    def test_each_rung_reports_its_own_gate(self, monkeypatch):
        # every failing rung misses the gate recomputed against its own
        # fine run, and the accepted rung meets its own
        monkeypatch.setattr(harness, "_MAX_STAGES", 2)
        report = self.study(2)
        rungs = report.reference["rungs"]
        assert len(rungs) > 1
        assert all(r["discrepancy"] > r["required"] for r in rungs[:-1])
        assert rungs[-1]["discrepancy"] <= rungs[-1]["required"] == report.reference["required"]
        # each is the gate of that rung computed alone
        for r in rungs:
            assert self.rung(2, 2, r["h_ref"])[1] == r

    def test_non_dyadic_ladder_walks_from_its_first_step(self, monkeypatch):
        # T = 0.1, ladder [0.05, 0.02]: rungs halve from 0.05, and the last
        # is the first whose coarse step is at most 0.02/16 = 0.00125,
        # that is 0.05/64 (0.05/32 = 0.0015625 is above it)
        p, u0 = self.data()
        h_list = [0.05, 0.02]

        def study(max_stages):
            monkeypatch.setattr(harness, "_MAX_STAGES", max_stages)
            return convergence_study(p, gauss_legendre(2), u0, 0.1, h_list, fp_tol=1e-13)

        rungs = study(2).reference["rungs"]
        assert len(rungs) > 1
        assert [r["h_ref"] for r in rungs] == [0.05 / 2**j for j in range(len(rungs))]
        assert 0.05 / 32 > 0.02 / 16 >= 0.05 / 64
        with pytest.raises(UnreliableReferenceError) as walk:
            study(1)
        gaps = {}
        for h_ref in (0.05 / 32, 0.05 / 64, 0.05 / 128):
            _, rung = reference_rung(p, gauss_legendre(2), MIDPOINT, u0, 0.1, h_list, h_ref)
            gaps[h_ref] = (rung["discrepancy"], rung["required"])
        assert len(set(gaps.values())) == 3
        assert (walk.value.discrepancy, walk.value.required) == gaps[0.05 / 64]

    def test_unreachable_gate_raises_with_last_gap(self, monkeypatch):
        # a second-order reference cannot resolve fourth-order errors
        monkeypatch.setattr(harness, "_MAX_STAGES", 1)
        with pytest.raises(UnreliableReferenceError) as info:
            self.study(2)
        assert info.value.discrepancy > info.value.required >= 50 * 1e-13
        # the gap and margin reported are those of the last rung, h_min/16
        _, last = self.rung(2, 1, min(self.H_LIST) / 16)
        assert (info.value.discrepancy, info.value.required) == (
            last["discrepancy"], last["required"])
        # every rung tried, as a passing study reports them, halving from
        # h_list[0] down to the last rung at h_min/16
        rungs = info.value.rungs
        assert [r["h_ref"] for r in rungs] == [
            self.H_LIST[0] / 2**j for j in range(len(rungs))]
        assert rungs[-1]["h_ref"] == min(self.H_LIST) / 16
        assert all(set(r) == {"h_ref", "discrepancy", "required"} for r in rungs)
        assert all(r["discrepancy"] > r["required"] for r in rungs)
        assert rungs[-1] == last == {
            "h_ref": min(self.H_LIST) / 16, "discrepancy": info.value.discrepancy,
            "required": info.value.required}
        # each rung is that rung computed alone
        assert self.rung(2, 1, self.H_LIST[0])[1] == rungs[0]
        # the stage iterations spent: the ladder's, and the coarse and fine
        # runs of every rung
        p = get_problem("nls-cubic-periodic", 16)
        u0 = two_mode_state(p.grid, (0.5, 0.25))

        def iterations(t, h):
            cfg = SolverConfig(h=h, fp_tol=1e-13)
            _, history = integrate(p, t, u0, cfg, round(self.T / h))
            return sum(s.iterations for s in history)

        reference_steps = [rungs[0]["h_ref"]] + [r["h_ref"] / 2 for r in rungs]
        assert info.value.stage_iterations == {
            "ladder": sum(iterations(gauss_legendre(2), h) for h in self.H_LIST),
            "reference": sum(iterations(MIDPOINT, h) for h in reference_steps),
        }
        # the ladder's count does not depend on the reference
        monkeypatch.setattr(harness, "_MAX_STAGES", 8)
        assert self.study(2).stage_iterations["ladder"] == info.value.stage_iterations["ladder"]
        # the message names every rung's step, gap and gate
        message = str(info.value)
        for r in rungs:
            assert (f"h_ref={r['h_ref']!r} gap {r['discrepancy']:.3e} "
                    f"required {r['required']:.3e}") in message
        assert f"ladder {info.value.stage_iterations['ladder']}" in message

    def test_stage_iterations_count_ladder_and_every_reference_run(self, monkeypatch):
        monkeypatch.setattr(harness, "_MAX_STAGES", 2)
        report = self.study(2)
        p = get_problem("nls-cubic-periodic", 16)
        u0 = two_mode_state(p.grid, (0.5, 0.25))

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

    def test_walk_passes_a_failing_rung_at_the_finest_study_step(self, monkeypatch):
        # the rung (h_min, h_min/2) of a gl:2 reference misses its gate
        # alone; the walk records it and halves on
        monkeypatch.setattr(harness, "_MAX_STAGES", 2)
        _, rung = self.rung(2, 2, min(self.H_LIST))
        assert rung["discrepancy"] > rung["required"]
        rungs = self.study(2).reference["rungs"]
        assert rungs[1] == rung and len(rungs) > 2

    @pytest.mark.parametrize("s", [1, 6, 7, 8])
    def test_reference_has_two_more_stages_up_to_eight(self, monkeypatch, s):
        # with a flow that returns its data every error is 0: the first rung
        # passes, and the fit then has no usable point
        tableaus = []

        def flow(p, tab, x0, cfg, steps, B):
            tableaus.append(tab.label)
            return x0, [StepStats(1, 0.0, 0.0)] * steps

        monkeypatch.setattr(harness, "_flow", flow)
        with pytest.raises(ValueError, match="fewer than two usable points"):
            self.study(s)
        assert tableaus == [f"gl:{s}"] * 2 + [f"gl:{min(s + 2, 8)}"] * 2


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
        # successive gaps above the roundoff floor fall by about 2^(2 s),
        # s = 4 the reference's stage count
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
        p = ProblemSpec(SpectralGrid("wave", "dirichlet", 32), make_nonlinearity("wave", "zero"))
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
        u = band_state(p.grid, rng, 5)
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

    @pytest.mark.parametrize("steps", [1, 16, 17])
    @pytest.mark.parametrize(
        "name", ["nls-cubic-periodic", "wave-dirichlet-compatible", "wave-neumann"]
    )
    def test_conservation_run_rows_are_conserved_quantities_bitwise(self, name, steps):
        # one state, a full chunk of 16 and a partial one; the real wave
        # data run in float64.  A run of j steps is the first j of a longer run.
        p = get_problem(name, 16)
        initial = nls_two_mode_state if p.grid.equation == "schrodinger" else wave_band_state
        u0 = initial(p.grid)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        report = conservation_run(p, MIDPOINT, u0, cfg, steps)
        q0 = conserved_quantities(p, u0)
        assert len(report.rows) == steps
        for j, row in enumerate(report.rows, start=1):
            q = conserved_quantities(p, integrate(p, MIDPOINT, u0, cfg, j)[0])
            assert row == [j, j * cfg.h, q["mass"], q["energy"],
                           abs(q["mass"] - q0["mass"]) / q0["mass"],
                           abs(q["energy"] - q0["energy"])]
        _, history = integrate(p, MIDPOINT, u0, cfg, steps)
        assert report.stage_iterations == sum(s.iterations for s in history)
        assert report.max_iterations == max(s.iterations for s in history)

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    def test_quadrature_rows_are_single_quadratures(self, bc):
        grid = SpectralGrid("wave", bc, 16)
        values = np.random.default_rng(3).standard_normal((5, 16))
        values[:, [0, -1]] = [100.0, -50.0]  # endpoints that the Neumann rule halves
        rows = harness._physical_quadrature(grid, values)
        assert [float(v) for v in rows] == [
            float(harness._physical_quadrature(grid, row)) for row in values]
        if bc == "neumann":
            dx = math.pi / 15
            expected = (values.sum(axis=-1) - 0.5 * values[:, 0] - 0.5 * values[:, -1]) * dx
            assert rows.tobytes() == expected.tobytes()


def growths(t, grid, h_values, n_steps):
    """The growths of a ``stability_growth`` sweep, without their modes."""
    return [growth for growth, _ in stability_growth(t, grid, h_values, n_steps)]


class TestStabilityGrowth:
    def test_zero_steps_is_one(self):
        assert growths(MIDPOINT, SCHRODINGER16, [0.1], 0) == [1.0]

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_schrodinger_amplification_is_one(self, s):
        grid = SpectralGrid("schrodinger", "periodic", 256)
        t = gauss_legendre(s)
        for growth in growths(t, grid, [1e-3, 1e-2, 1e-1, 1.0], 10):
            assert growth == pytest.approx(1.0, abs=1e-13)

    def test_wave_secular_growth_is_linear(self):
        # k = 0 block: growth ~ 1 + n h, far below exponential
        grid = SpectralGrid("wave", "periodic", 64)
        h = 0.1
        [a100] = growths(MIDPOINT, grid, [h], 100)
        [a1000] = growths(MIDPOINT, grid, [h], 1000)
        assert a100 == pytest.approx(math.hypot(100 * h, 1), rel=0.2)
        assert a1000 / a100 == pytest.approx(10.0, rel=0.15)

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    def test_wave_growth_matches_weighted_matmul_formula(self, bc):
        # reference: D P^n D^-1 over every mode, as zero-padded complex
        # matmuls.  The step-matrix oracle matches it bit for bit, and so
        # does the closed form where the k = 0 block sets the maximum
        # (periodic and Neumann grids); a Dirichlet grid has no k = 0 mode,
        # so there the closed form holds it to 1e-12 relative.
        h_values = [1e-3, 0.37, 1.0, 2.5]  # a real SVD differs at s=2, h=1
        for n in (16, 256, 1024):
            grid = SpectralGrid("wave", bc, n - (bc != "periodic"))
            k = grid.modes.astype(float)
            weights = np.sqrt(k**2 + 1.0)
            for s in (1, 2, 3, 6):
                t = gauss_legendre(s)
                for n_steps in (1, 10):
                    sweep = growths(t, grid, h_values, n_steps)
                    for h, got in zip(h_values, sweep, strict=True):
                        _, update = step_matrices(t, h, grid)
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
                        if bc == "dirichlet":
                            assert got == pytest.approx(expected, rel=1e-12, abs=0), (n, s, h)
                        else:
                            assert got == expected, (n, s, h)

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    @pytest.mark.parametrize("equation", ["schrodinger", "wave"])
    def test_closed_form_matches_step_matrix_oracle(self, equation, bc):
        # The wave k = 0 update, the maximum of a periodic or Neumann grid, is
        # exact in both.  Dirichlet wave values agree to 8.4e-16.  A
        # Schrodinger growth is |S|^n, S read from the stability polynomials
        # here and from the s x s inverse in the step matrices: against the
        # 40-digit growth of the same binary tableau they read up to 1.4e-14
        # and 1.9e-14 relative, and each other up to 2.3e-14.
        h_values = [1e-3, 0.37, 1.0, 2.5]
        for n in (16, 256):
            grid = SpectralGrid(equation, bc, n - (bc != "periodic"))
            for s in range(1, 9):
                t = gauss_legendre(s)
                polys = exact_gl_polynomials(s) if equation == "schrodinger" else None
                for n_steps in (1, 10):
                    sweep = growths(t, grid, h_values, n_steps)
                    for h, got in zip(h_values, sweep, strict=True):
                        expected = matrix_stability_growth(t, grid, h, n_steps)
                        if polys:
                            exact = exact_largest_stability_modulus(polys, grid, h) ** n_steps
                            assert abs(got - exact) <= 2e-14 * exact, (n, s, h, n_steps)
                            assert got == pytest.approx(expected, rel=3e-14, abs=0), (n, s, h)
                        elif (equation, bc) == ("wave", "dirichlet"):
                            assert got == pytest.approx(expected, rel=1e-12, abs=0), (n, s, h)
                        else:
                            assert got == expected, (n, s, h)

    def test_h_scan_sweep_matches_step_matrix_oracle_bitwise(self):
        # the benchmark's stability sweep: 400 log-spaced steps on [1e-4, 1],
        # one call across 50 chunks
        grid = SpectralGrid("wave", "periodic", 1024)
        t = gauss_legendre(3)
        step = 4.0 / 399
        h_values = [10.0 ** min(max(-4.0 + i * step, -4.0), 0.0) for i in range(400)]
        sweep = growths(t, grid, h_values, 10)
        assert len(h_values) == 50 * harness._GROWTH_CHUNK
        for h, got in zip(h_values, sweep, strict=True):
            assert got == matrix_stability_growth(t, grid, h, 10), h

    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 17])
    @pytest.mark.parametrize(
        "equation, bc", [("wave", "periodic"), ("wave", "dirichlet"), ("schrodinger", "periodic")])
    def test_sweep_is_its_single_steps_bitwise(self, equation, bc, length):
        # chunks of 8: none, one partial, one full, one full and a partial,
        # two full and a partial; with no steps every entry is (1.0, first mode)
        grid, t = SpectralGrid(equation, bc, 32), gauss_legendre(3)
        h_values = np.random.default_rng(length).uniform(0.0, 2.0, length).tolist()
        first_mode = int(grid.modes[grid._distinct_symbols[0][0]])
        for n_steps in (0, 1, 10):
            sweep = stability_growth(t, grid, h_values, n_steps)
            assert sweep == [stability_growth(t, grid, [h], n_steps)[0] for h in h_values]
            assert all(type(g) is float and type(m) is int for g, m in sweep)
            if n_steps == 0:
                assert sweep == [(1.0, first_mode)] * length
        assert stability_growth(t, grid, iter(h_values), 10) == sweep

    @pytest.mark.parametrize(
        "equation, bc", [("wave", "periodic"), ("wave", "dirichlet"), ("schrodinger", "periodic")])
    @pytest.mark.parametrize("s", [1, 3, 8])
    def test_extreme_steps_stay_finite(self, equation, bc, s):
        # S is read on the reversed polynomials where |h lambda| > 1, so no
        # power of h lambda overflows: over h = 1e-300 .. 1e300 every growth
        # is finite, as the step-matrix path's is, and within rkbench's
        # stability tolerance of it (up to 4.0e-14 relative).
        grid, t = SpectralGrid(equation, bc, 16), gauss_legendre(s)
        h_values = [10.0**j for j in range(-300, 301, 10)]
        for n_steps in (1, 10):
            for h, got in zip(h_values, growths(t, grid, h_values, n_steps), strict=True):
                expected = matrix_stability_growth(t, grid, h, n_steps)
                assert got == pytest.approx(expected, rel=1e-12, abs=0), (h, n_steps)

    def test_reports_the_mode_attaining_the_maximum(self):
        # explicit Euler grows fastest in the highest mode, the midpoint
        # rule's secular growth sits in k = 0, and with no steps every mode
        # ties at 1, so the first representative is named.
        euler = ButcherTableau(1, [[0.0]], [1.0], [0.0], 1)
        dirichlet = SpectralGrid("wave", "dirichlet", 16)
        assert stability_growth(euler, dirichlet, [0.1], 10)[0][1] == 16
        assert stability_growth(euler, SCHRODINGER16, [0.1], 10)[0][1] == 8
        grid = SpectralGrid("wave", "periodic", 64)
        [(growth, mode)] = stability_growth(MIDPOINT, grid, [0.1], 100)
        assert (growth, mode) == (matrix_stability_growth(MIDPOINT, grid, 0.1, 100), 0)
        assert stability_growth(MIDPOINT, dirichlet, [0.1], 0) == [(1.0, 1)]

    @pytest.mark.parametrize(
        "t, grid, h, n_steps",
        [(MIDPOINT, WAVE16, 0.1, 10**20),  # |S| rounds above 1 in k != 0
         (MIDPOINT, WAVE16, 1e308, 10**20),  # the k = 0 power overflows too
         (MIDPOINT, SpectralGrid("wave", "dirichlet", 16), 0.1, 10**20),
         (ButcherTableau(1, [[0.0]], [1.0], [0.0], 1), SCHRODINGER16, 1.0, 10**6),
         # h k^2 overflows in the resolvent, which would read a finite |S| of 13.9 at k = 2
         (gauss_legendre(2), SCHRODINGER16, 1e308, 10)],
        ids=["wave", "wave-huge-h", "wave-dirichlet", "schrodinger-euler", "schrodinger-huge-h"],
    )
    def test_growth_that_is_not_finite_raises(self, t, grid, h, n_steps):
        # tier-1 turns warnings into errors, so this also checks that none escapes
        message = re.escape(f"n_steps={n_steps} steps of h={h!r} is not finite")
        with pytest.raises(ValueError, match=message):
            stability_growth(t, grid, [h], n_steps)

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
            stability_growth(t, SpectralGrid(equation, bc, n), [h], 10)
        assert info.value.where == mode

    @pytest.mark.parametrize("overflow_first", [True, False])
    def test_first_step_at_fault_in_a_chunk_raises(self, overflow_first):
        # h = 1e308 overflows h k, h = 1 meets the singular block at k = 1;
        # both sit inside one chunk, after good steps, and the earlier raises
        t = ButcherTableau(2, [[0, -1], [1, 0]], [0.5, 0.5], [-1, 1], 1)
        grid = SpectralGrid("wave", "periodic", 8)
        faults = [1e308, 1.0] if overflow_first else [1.0, 1e308]
        h_values = [0.3, 0.1, *faults, 0.2]
        assert len(h_values) <= harness._GROWTH_CHUNK
        if overflow_first:
            with pytest.raises(ValueError, match=re.escape("steps of h=1e+308 is not finite")) as info:
                stability_growth(t, grid, h_values, 10)
            assert not isinstance(info.value, SingularResolventError)
        else:
            with pytest.raises(SingularResolventError) as info:
                stability_growth(t, grid, h_values, 10)
            assert info.value.where == 1
            assert str(info.value) == "singular stage block at mode 1 for h = 1.0"

    def test_wave_nonzero_modes_stay_bounded(self):
        grid = SpectralGrid("wave", "dirichlet", 64)  # no zero mode on this grid
        [amp] = growths(gauss_legendre(2), grid, [0.05], 500)
        assert amp < 1.5


class TestSmoothnessProbe:
    def test_band_limited_data_converges_to_operator_power_norm(self):
        # order >= q makes the h -> 0 limit exactly |A^q u0|
        p = get_problem("nls-linear-periodic", 32)
        u0 = two_mode_state(p.grid, (0.5, 0.25))
        results = smoothness_probe(p, gauss_legendre(2), u0, 0.05, 2, levels=6, fp_tol=1e-13)
        values = [v for _, v in results]
        limit = base_norm(apply_A(apply_A(u0)))
        assert values[-1] == pytest.approx(limit, rel=1e-4)
        assert max(values) / min(values) < 1.01

    def test_rough_data_diverges(self):
        p = get_problem("nls-linear-periodic", 256)
        u0 = rough_decay_state(p.grid, exponent=1.1)
        results = smoothness_probe(p, gauss_legendre(2), u0, 0.05, 2, levels=5, fp_tol=1e-13)
        values = [v for _, v in results]
        assert all(b > 2 * a for a, b in zip(values, values[1:]))

    def test_zeroth_order_is_step_norm(self):
        # one row per level: the base norm of one step of its base step
        p = get_problem("nls-cubic-periodic", 32)
        u0 = nls_two_mode_state(p.grid)
        rows = smoothness_probe(p, MIDPOINT, u0, 0.05, 0, levels=4, fp_tol=1e-13)
        steps = [step(p, MIDPOINT, u0, SolverConfig(h=0.05 / 2**j, fp_tol=1e-13))[0]
                 for j in range(4)]
        expected = [(0.05 / 2**j, base_norm(out)) for j, out in enumerate(steps)]
        assert rows == expected
        assert all(np.isfinite(value) and value > 0 for _, value in rows)

    def test_order_cap(self):
        p = get_problem("nls-cubic-periodic", 32)
        with pytest.raises(ValueError):
            smoothness_probe(p, MIDPOINT, nls_two_mode_state(p.grid), 0.05, 5, levels=4,
                             fp_tol=1e-13)


class TestTangentStudy:
    def test_extended_system_order(self):
        p = get_problem("nls-cubic-periodic", 32)
        u0 = two_mode_state(p.grid, (0.5, 0.25))
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
        u0 = two_mode_state(p.grid, (0.5, 0.25))
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


def test_conserved_quantities_rejects_a_state_on_another_grid():
    # Neumann weights and quadrature would otherwise read sine coefficients
    p = get_problem("wave-neumann", 16)
    u = wave_band_state(SpectralGrid("wave", "dirichlet", 16))
    message = "state lives on a different grid than the problem"
    with pytest.raises(ValueError, match=message):
        conserved_quantities(p, u)
    with pytest.raises(ValueError, match=message):
        conservation_run(p, MIDPOINT, u, SolverConfig(h=0.01), 1)


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
        state = wave_band_state(SpectralGrid("wave", "periodic", 32))
        assert hermitian_symmetry_defect(state) == 0.0

    def test_random_band_state_seeded(self):
        grid = SpectralGrid("wave", "periodic", 32)
        a = random_band_state(grid, np.random.default_rng(9))
        b = random_band_state(grid, np.random.default_rng(9))
        assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("name", list_problems())
    def test_oracle_data_match_the_package_at_its_values(self, name):
        # the tests' data at other amplitudes or bands come from these
        grid = get_problem(name, 16).grid
        band = band_state(grid, np.random.default_rng(3), 4)
        assert np.array_equal(band.coeffs, random_band_state(grid, np.random.default_rng(3)).coeffs)
        wider = band_state(grid, np.random.default_rng(3), 5)
        assert np.any(wider.coeffs[:, np.abs(grid.modes) == 5])
        if grid.equation == "schrodinger":
            pair = two_mode_state(grid, (0.9, 0.45))
            assert np.array_equal(pair.coeffs, nls_two_mode_state(grid).coeffs)

    @pytest.mark.parametrize(
        "grid, mode",
        [(SpectralGrid("wave", "periodic", 4), -2), (SpectralGrid("wave", "neumann", 2), 2),
         (SpectralGrid("schrodinger", "neumann", 2), 2)],
    )
    def test_data_off_the_grid_rejected(self, grid, mode):
        build = wave_band_state if grid.equation == "wave" else nls_two_mode_state
        with pytest.raises(ValueError, match=f"n={grid.n} lacks mode {mode} of the initial data"):
            build(grid)

    def test_rough_state_decay(self):
        grid = SpectralGrid("schrodinger", "periodic", 64)
        state = rough_decay_state(grid, 1.1)
        idx2 = np.where(grid.modes == 2)[0][0]
        assert abs(state.coeffs[0, idx2]) == pytest.approx(2 ** -1.1)

    def test_dyadic_h_list(self):
        assert dyadic_h_list(0.02, 3) == [0.02, 0.01, 0.005]
        with pytest.raises(ValueError):
            dyadic_h_list(0.02, 0)
