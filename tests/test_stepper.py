import dataclasses

import numpy as np
import pytest

from rkspectral import stepper
from rkspectral.errors import ConvergenceFailureError, NumericalBlowupError
from rkspectral.harness import nls_two_mode_state, random_band_state, wave_band_state
from rkspectral.problems import evaluate_B_array, evaluate_B_pair_array, get_problem
from rkspectral.spectral import SpectralGrid, State, apply_exp_tA, base_norm
from rkspectral.stepper import SolverConfig, _stage_residual, integrate, step, tangent_step
from rkspectral.tableau import ButcherTableau, gauss_legendre

from oracles import (
    apply_S_hA,
    fixed_point_stages,
    solve_stage_resolvent,
    to_state,
    update_map,
)

MIDPOINT = gauss_legendre(1)
GL2 = gauss_legendre(2)


def mode_state(grid, component, assignments):
    coeffs = np.zeros((grid.components, grid.n), dtype=complex)
    for mode, value in assignments.items():
        idx = int(np.where(grid.modes == mode)[0][0])
        coeffs[component, idx] = value
    return State(grid, coeffs)


def two_mode(grid, a1=0.5, a2=0.25):
    return mode_state(grid, 0, {1: a1, 2: a2})


def observed_flow(p, t, u, cfg, steps, observer):
    """``integrate`` through ``stepper._flow``, whose observer is called
    after each step with (step_index, state, stats)."""
    coeffs, history = stepper._flow(
        p, t, u.coeffs, cfg, steps, evaluate_B_array,
        lambda i, x, stats: observer(i, State(p.grid, x), stats),
    )
    return State(p.grid, coeffs), history


def reference_step(p, t, states, cfg, B):
    """One step of each state family iterated on its own from public pieces.

    ``B`` maps the list of stage arrays to the list of their
    nonlinearities; the residual is the largest stage base norm of all
    families, as in the primal and tangent steps.  The update reuses the
    final iteration's ``forcing``, the B evaluated to produce the final
    stages.  Real states on a sine or cosine wave grid step in real
    arithmetic, as the stepper's do.
    """
    h, s = cfg.h, t.s
    coeffs = [x.coeffs for x in states]
    if p.grid.equation == "wave" and p.grid.bc != "periodic":
        if not any(c.imag.any() for c in coeffs):
            coeffs = [c.real for c in coeffs]
    lifted = [np.broadcast_to(c, (s,) + c.shape) for c in coeffs]

    def resolve(data):
        return solve_stage_resolvent(p.grid, data, t, h)

    w = [resolve(x) for x in lifted]
    residuals = []
    while not residuals or residuals[-1] > cfg.fp_tol:
        forcing = B(w)
        w_new = [resolve(x + h * np.einsum("ij,jcn->icn", t.a, f)) for x, f in zip(lifted, forcing)]
        residuals.append(
            max(base_norm(State(p.grid, a[j] - b[j])) for a, b in zip(w_new, w) for j in range(s))
        )
        w = w_new
    new = [
        State(p.grid, update_map(p.grid, c, t, h) + h * np.einsum("j,jcn->cn", t.b, resolve(f)))
        for c, f in zip(coeffs, forcing)
    ]
    return new, residuals


def complex_wave_state(grid):
    """Wave band data with a nonzero imaginary part."""
    return State(grid, wave_band_state(grid).coeffs + 0.1j * mode_state(grid, 1, {2: 1}).coeffs)


REFERENCE_CASES = [
    ("wave-dirichlet-compatible", 256, wave_band_state),
    ("nls-cubic-periodic", 64, nls_two_mode_state),
    # complex arithmetic: complex data on a sine grid, and a periodic wave
    ("wave-dirichlet-compatible", 64, complex_wave_state),
    ("wave-cubic-periodic", 64, wave_band_state),
]


UPDATE_FORM_CASES = [
    ("nls-cubic-periodic", nls_two_mode_state),
    ("wave-dirichlet-compatible", wave_band_state),
    ("wave-cubic-periodic", wave_band_state),
    ("wave-neumann", wave_band_state),
]


# (problem, flow, dtype and shape of the coefficients the debug check sees)
DEBUG_CHECK_CASES = [
    ("nls-cubic-periodic", "step", complex, (1, 32)),
    ("wave-dirichlet-compatible", "step", float, (2, 32)),
    ("wave-neumann", "step", float, (2, 32)),
    ("nls-cubic-periodic", "tangent", complex, (2, 1, 32)),
    ("wave-dirichlet-compatible", "tangent", float, (2, 2, 32)),
]


def random_debug_state(p, rng):
    """Random complex fields on NLS grids, real low-band data on wave grids."""
    if p.grid.equation == "wave":
        return random_band_state(p.grid, rng)
    n = p.grid.n
    return to_state(p.grid, 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))


def spy_on_direct_form(monkeypatch):
    """Record the dtype and shape of the coefficients each debug check sees."""
    checked = []
    check = stepper._check_direct_form

    def spy(grid, t, cfg, x, *rest):
        checked.append((x.dtype, x.shape))
        return check(grid, t, cfg, x, *rest)

    monkeypatch.setattr(stepper, "_check_direct_form", spy)
    return checked


class TestAgainstReference:
    @pytest.mark.parametrize("name, n, initial", REFERENCE_CASES)
    def test_step_is_bitwise_reference(self, name, n, initial):
        p = get_problem(name, n)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        u = initial(p.grid)
        for _ in range(3):
            (expected,), residuals = reference_step(
                p, GL2, [u], cfg, lambda w: [evaluate_B_array(p, w[0])]
            )
            u, stats = step(p, GL2, u, cfg)
            assert u.coeffs.tobytes() == expected.coeffs.tobytes()
            assert stats.iterations == len(residuals)
            assert stats.final_residual == residuals[-1]
            assert stats.contraction_estimate == residuals[1] / residuals[0]

    @pytest.mark.parametrize("name, n, initial", REFERENCE_CASES)
    def test_tangent_step_is_bitwise_reference(self, name, n, initial):
        p = get_problem(name, n)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        u = initial(p.grid)
        v = mode_state(p.grid, 0, {1: 0.3, 3: -0.2})

        def pair_B(w):
            tangent = evaluate_B_pair_array(p, np.stack([w[0], w[1]]))[1]
            return [evaluate_B_array(p, w[0]), tangent]

        for _ in range(3):
            (u_ref, v_ref), residuals = reference_step(p, GL2, [u, v], cfg, pair_B)
            u, v, stats = tangent_step(p, GL2, u, v, cfg)
            assert u.coeffs.tobytes() == u_ref.coeffs.tobytes()
            assert v.coeffs.tobytes() == v_ref.coeffs.tobytes()
            assert stats.iterations == len(residuals)
            assert stats.final_residual == residuals[-1]

    @pytest.mark.parametrize(
        "grid", [SpectralGrid("schrodinger", "periodic", 32), SpectralGrid("wave", "dirichlet", 32)]
    )
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_stage_residual_is_max_base_norm(self, grid, s):
        rng = np.random.default_rng(s)
        shape = (2, s, grid.components, grid.n)
        delta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = max(base_norm(State(grid, delta[b, j])) for b in range(2) for j in range(s))
        assert _stage_residual(grid, delta) == expected
        assert _stage_residual(grid, delta[1]) == max(
            base_norm(State(grid, delta[1, j])) for j in range(s)
        )


def spy_on_B(monkeypatch):
    """Record the dtype of every stage array the stepper hands to B."""
    seen = []
    for name in ("evaluate_B_array", "evaluate_B_pair_array"):
        def spy(p, w, original=getattr(stepper, name)):
            seen.append(w.dtype)
            return original(p, w)

        monkeypatch.setattr(stepper, name, spy)
    return seen


def tangent_flow(p, t, u, v, cfg, steps):
    """``steps`` steps of the (primal, tangent) pair through ``stepper._flow``,
    as the tangent order study takes them; the final pair and the statistics."""
    (u_new, v_new), history = stepper._flow(
        p, t, np.stack([u.coeffs, v.coeffs]), cfg, steps, stepper.evaluate_B_pair_array
    )
    return (State(p.grid, u_new), State(p.grid, v_new)), history


def run_flow(p, u, flow, steps=50):
    """The final states of ``steps`` steps of the primal or tangent flow."""
    cfg = SolverConfig(h=0.01, fp_tol=1e-13)
    if flow == "integrate":
        return [integrate(p, GL2, u, cfg, steps)[0]]
    v = mode_state(p.grid, 0, {1: 0.3, 3: -0.2})
    return list(tangent_flow(p, GL2, u, v, cfg, steps)[0])


class TestRealWaveArithmetic:
    @pytest.mark.parametrize("name", ["wave-dirichlet-compatible", "wave-neumann"])
    @pytest.mark.parametrize("flow", ["integrate", "tangent"])
    def test_real_data_on_a_real_basis_step_in_float64(self, name, flow, monkeypatch):
        p = get_problem(name, 32)
        u = wave_band_state(p.grid)
        seen = spy_on_B(monkeypatch)
        real = run_flow(p, u, flow)
        assert len(seen) > 50 and set(seen) == {np.dtype(np.float64)}
        assert all(x.coeffs.dtype == complex for x in real)  # public states stay complex
        # the same run forced through complex arithmetic
        monkeypatch.setattr(stepper, "_real_data", lambda grid, x: False)
        seen.clear()
        forced = run_flow(p, u, flow)
        assert len(seen) > 50 and set(seen) == {np.dtype(complex)}
        for a, b in zip(real, forced):
            assert np.array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize(
        "name, initial",
        [
            ("wave-dirichlet-compatible", complex_wave_state),
            ("wave-neumann", complex_wave_state),
            ("wave-cubic-periodic", wave_band_state),
            ("nls-cubic-periodic", nls_two_mode_state),
        ],
    )
    @pytest.mark.parametrize("flow", ["integrate", "tangent"])
    def test_other_data_step_in_complex128(self, name, initial, flow, monkeypatch):
        p = get_problem(name, 32)
        seen = spy_on_B(monkeypatch)
        run_flow(p, initial(p.grid), flow, steps=5)
        assert seen and set(seen) == {np.dtype(complex)}

    def test_complex_tangent_direction_keeps_the_pair_complex(self, monkeypatch):
        p = get_problem("wave-dirichlet-compatible", 32)
        u = wave_band_state(p.grid)
        seen = spy_on_B(monkeypatch)
        tangent_flow(
            p, GL2, u, complex_wave_state(p.grid), SolverConfig(h=0.01, fp_tol=1e-13), 5
        )
        assert seen and set(seen) == {np.dtype(complex)}


class TestFixedPointStages:
    def test_exact_fixed_point_stops_at_once(self):
        # zero data are their stages' fixed point: one iteration, no update
        p = get_problem("nls-cubic-periodic", 16)
        u = State(p.grid, np.zeros((1, 16), dtype=complex))
        stages, stats = fixed_point_stages(p, MIDPOINT, u, SolverConfig(h=0.1))
        assert stats.iterations == 1
        assert stats.final_residual == 0.0
        assert not stages.any()

    def test_linear_problem_converges_in_one_iteration(self):
        p = get_problem("nls-linear-periodic", 16)
        u = two_mode(p.grid)
        stages, stats = fixed_point_stages(p, GL2, u, SolverConfig(h=0.1))
        assert stats.iterations == 1
        expected = solve_stage_resolvent(p.grid, np.broadcast_to(u.coeffs, stages.shape), GL2, 0.1)
        assert np.max(np.abs(stages - expected)) == 0.0

    def test_small_amplitude_contracts_fast(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = mode_state(p.grid, 0, {1: 0.1})
        _, stats = fixed_point_stages(p, MIDPOINT, u, SolverConfig(h=0.01, fp_tol=1e-12))
        assert stats.contraction_estimate < 0.1
        assert stats.iterations <= 10

    def test_stage_equation_residual_after_success(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid)
        cfg = SolverConfig(h=0.02, fp_tol=1e-12)
        stages, _ = fixed_point_stages(p, MIDPOINT, u, cfg)
        rhs = np.broadcast_to(u.coeffs, stages.shape) + cfg.h * np.einsum(
            "ij,jcn->icn", MIDPOINT.a, evaluate_B_array(p, stages)
        )
        expected = solve_stage_resolvent(p.grid, rhs, MIDPOINT, cfg.h)
        defect = max(base_norm(State(p.grid, w - x)) for w, x in zip(stages, expected))
        assert defect <= cfg.fp_tol

    def test_contraction_scales_linearly_in_h(self):
        p = get_problem("nls-cubic-periodic", 64)
        u = two_mode(p.grid, 0.75, 0.35)
        estimates = []
        for h in (0.02, 0.01, 0.005):
            _, stats = fixed_point_stages(p, MIDPOINT, u, SolverConfig(h=h, fp_tol=1e-13))
            estimates.append(stats.contraction_estimate)
        for coarse, fine in zip(estimates, estimates[1:]):
            assert 0.3 <= fine / coarse <= 0.7

    def test_iteration_cap_raises_with_stats(self, monkeypatch):
        monkeypatch.setattr(stepper, "_FP_MAX_ITERS", 3)
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid, 1.5, 0.8)
        with pytest.raises(ConvergenceFailureError, match="reach fp_tol=1e-15 at h=0.5 ") as err:
            fixed_point_stages(p, MIDPOINT, u, SolverConfig(h=0.5, fp_tol=1e-15))
        assert err.value.stats.iterations == 3
        assert err.value.stats.final_residual > 0

    def test_near_one_contraction_warns_at_caller(self, monkeypatch):
        monkeypatch.setattr(stepper, "_FP_MAX_ITERS", 1000)
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid, 2.0, 1.0)
        cfg = SolverConfig(h=0.21, fp_tol=1e-12)
        with pytest.warns(UserWarning, match="near 1") as record:
            _, stats = fixed_point_stages(p, MIDPOINT, u, cfg)
        assert stats.contraction_estimate > stepper._CONTRACTION_WARN
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_step_near_one_contraction_warns_once_at_caller(self, monkeypatch):
        monkeypatch.setattr(stepper, "_FP_MAX_ITERS", 1000)
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid, 2.0, 1.0)
        cfg = SolverConfig(h=0.21, fp_tol=1e-12)
        with pytest.warns(UserWarning, match="near 1") as record:
            _, stats = step(p, MIDPOINT, u, cfg)
        assert stats.contraction_estimate > stepper._CONTRACTION_WARN
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_integrate_near_one_contraction_warns_at_caller(self, monkeypatch):
        monkeypatch.setattr(stepper, "_FP_MAX_ITERS", 1000)
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid, 2.0, 1.0)
        cfg = SolverConfig(h=0.21, fp_tol=1e-12)
        with pytest.warns(UserWarning, match="near 1") as record:
            _, history = integrate(p, MIDPOINT, u, cfg, 1)
        assert history[0].contraction_estimate > stepper._CONTRACTION_WARN
        assert len(record) == 1
        assert record[0].filename == __file__

    def test_tangent_step_near_one_contraction_warns_once_at_caller(self, monkeypatch):
        monkeypatch.setattr(stepper, "_FP_MAX_ITERS", 1000)
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid, 2.0, 1.0)
        v = mode_state(p.grid, 0, {1: 0.3, 3: -0.2})
        cfg = SolverConfig(h=0.21, fp_tol=1e-12)
        with pytest.warns(UserWarning, match="near 1") as record:
            _, _, stats = tangent_step(p, MIDPOINT, u, v, cfg)
        assert stats.contraction_estimate > stepper._CONTRACTION_WARN
        assert len(record) == 1
        assert record[0].filename == __file__

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_blowup_detected(self):
        p = get_problem("wave-cubic-periodic", 16)
        u = mode_state(p.grid, 0, {1: 1e160})
        with pytest.raises(NumericalBlowupError):
            fixed_point_stages(p, MIDPOINT, u, SolverConfig(h=0.1))


def huge_state(grid):
    return mode_state(grid, 0, {1: 1e160})


class TestBlowupFailsLoudly:
    # no bound on the data is enforced; a blow-up shows as a non-finite stage
    def test_step(self):
        p = get_problem("wave-cubic-periodic", 16)
        with pytest.raises(NumericalBlowupError, match="non-finite stage residual"):
            step(p, MIDPOINT, huge_state(p.grid), SolverConfig(h=0.1))

    def test_integrate(self):
        p = get_problem("nls-cubic-periodic", 16)
        seen = []
        with pytest.raises(NumericalBlowupError, match="non-finite stage residual"):
            observed_flow(p, GL2, huge_state(p.grid), SolverConfig(h=0.1), 5,
                          lambda *args: seen.append(args))
        assert seen == []

    def test_tangent_step_with_a_huge_primal_half(self):
        p = get_problem("wave-cubic-periodic", 16)
        v = mode_state(p.grid, 0, {1: 1e-3})
        with pytest.raises(NumericalBlowupError, match="non-finite stage residual"):
            tangent_step(p, MIDPOINT, huge_state(p.grid), v, SolverConfig(h=0.1))

    @pytest.mark.parametrize("steps", [1, 3])
    def test_non_finite_last_update(self, monkeypatch, steps):
        # the last step's stages converge, but its update is not finite
        update, calls = stepper._update, []

        def last_overflows(*args):
            calls.append(args)
            return update(*args) * (np.inf if len(calls) == steps else 1.0)

        monkeypatch.setattr(stepper, "_update", last_overflows)
        p = get_problem("wave-cubic-periodic", 16)
        with pytest.raises(NumericalBlowupError, match=f"non-finite state after step {steps} "):
            integrate(p, MIDPOINT, wave_band_state(p.grid), SolverConfig(h=0.1), steps)


class TestStep:
    def test_linear_step_equals_update_map(self):
        p = get_problem("nls-linear-periodic", 32)
        u = two_mode(p.grid)
        out, _ = step(p, MIDPOINT, u, SolverConfig(h=0.05))
        assert base_norm(out - apply_S_hA(u, MIDPOINT, 0.05)) == 0.0

    def test_zero_step_rejected(self):
        p = get_problem("nls-cubic-periodic", 16)
        with pytest.raises(ValueError):
            step(p, MIDPOINT, two_mode(p.grid), SolverConfig(h=0.0))

    @pytest.mark.parametrize("s", [1, 2])
    def test_linear_local_error_order(self, s):
        # one step vs the exact propagator: error / h^(2s+1) stays flat
        p = get_problem("nls-linear-periodic", 32)
        coeffs = np.zeros((1, 32), dtype=complex)
        for mode, amp in zip((1, 2, 3, 4), (0.5, 0.25, 0.1, 0.05)):
            coeffs[0, np.where(p.grid.modes == mode)[0][0]] = amp
        u = State(p.grid, coeffs)
        t = gauss_legendre(s)
        h0 = 0.01 if s == 1 else 0.05
        normalized = []
        for level in range(4):
            h = h0 / 2**level
            out, _ = step(p, t, u, SolverConfig(h=h, fp_tol=1e-14))
            normalized.append(base_norm(out - apply_exp_tA(u, h)) / h ** (2 * s + 1))
        assert max(normalized) / min(normalized) <= 2.2

    @pytest.mark.parametrize("name, flow, dtype, shape", DEBUG_CHECK_CASES)
    def test_update_forms_agree_on_random_states(self, name, flow, dtype, shape, monkeypatch):
        p = get_problem(name, 32)
        checked = spy_on_direct_form(monkeypatch)
        rng = np.random.default_rng(3)
        cfg = SolverConfig(h=0.02, fp_tol=1e-13, debug_checks=True)
        for _ in range(5):
            u = random_debug_state(p, rng)
            if flow == "step":
                step(p, MIDPOINT, u, cfg)  # raises if the two forms disagree
            else:
                tangent_step(p, MIDPOINT, u, random_band_state(p.grid, rng), cfg)
        assert checked == [(np.dtype(dtype), shape)] * 5

    @pytest.mark.parametrize("name, flow, dtype, shape", DEBUG_CHECK_CASES)
    def test_perturbed_update_fails_the_debug_check(self, name, flow, dtype, shape, monkeypatch):
        # a 1e-9 error in the last coefficient of the update (for the pair,
        # of the tangent) is far above the check's 10 fp_tol
        update = stepper._update

        def perturbed(*args):
            out = update(*args)
            out.flat[-1] += 1e-9
            return out

        monkeypatch.setattr(stepper, "_update", perturbed)
        p = get_problem(name, 32)
        rng = np.random.default_rng(3)
        u = random_debug_state(p, rng)
        cfg = SolverConfig(h=0.02, fp_tol=1e-13, debug_checks=True)
        with pytest.raises(RuntimeError, match="update-form mismatch"):
            if flow == "step":
                step(p, MIDPOINT, u, cfg)
            else:
                tangent_step(p, MIDPOINT, u, random_band_state(p.grid, rng), cfg)
        step(p, MIDPOINT, u, dataclasses.replace(cfg, debug_checks=False))  # unchecked: no error

    @pytest.mark.parametrize("name, initial", UPDATE_FORM_CASES)
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 6])
    def test_update_is_hairer_wanner_form(self, name, initial, s):
        # u' = u + (b^T a^-1 (x) I)(W - 1u) with W the returned stages.  The
        # loose tolerance keeps W far from the fixed point, so an update
        # from B(W) instead of the final iteration's B would miss by 1e-12
        # or more; the identity itself holds to rounding at any tolerance.
        p = get_problem(name, 32)
        t = gauss_legendre(s)
        u = initial(p.grid)
        cfg = SolverConfig(h=0.05, fp_tol=1e-6)
        stages, _ = fixed_point_stages(p, t, u, cfg)
        out, _ = step(p, t, u, cfg)
        weights = t.b @ np.linalg.inv(t.a)
        expected = u.coeffs + np.einsum("j,jcn->cn", weights, stages - u.coeffs)
        assert base_norm(State(p.grid, expected) - out) <= 1e-14 * base_norm(out)

    @pytest.mark.parametrize("name, initial", UPDATE_FORM_CASES)
    def test_one_B_evaluation_per_iteration(self, name, initial, monkeypatch):
        p = get_problem(name, 32)
        calls = []

        def counted(*args):
            calls.append(1)
            return evaluate_B_array(*args)

        monkeypatch.setattr(stepper, "evaluate_B_array", counted)
        _, stats = step(p, GL2, initial(p.grid), SolverConfig(h=0.01, fp_tol=1e-13))
        assert stats.iterations > 1
        assert len(calls) == stats.iterations

    def test_midpoint_preserves_discrete_mass_per_step(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        out, _ = step(p, MIDPOINT, u, cfg)
        mass_in = float(np.sum(np.abs(u.coeffs) ** 2))
        mass_out = float(np.sum(np.abs(out.coeffs) ** 2))
        assert abs(mass_out - mass_in) <= 10 * cfg.fp_tol


class TestIntegrate:
    def test_single_step_matches_step(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid)
        cfg = SolverConfig(h=0.02, fp_tol=1e-13)
        via_integrate, history = integrate(p, MIDPOINT, u, cfg, 1)
        via_step, _ = step(p, MIDPOINT, u, cfg)
        assert base_norm(via_integrate - via_step) == 0.0
        assert len(history) == 1

    def test_linear_trajectory_tracks_propagator(self):
        # global error bounded by the telescoped per-step local errors
        p = get_problem("nls-linear-periodic", 32)
        u = two_mode(p.grid)
        cfg = SolverConfig(h=0.01, fp_tol=1e-14)
        final, _ = integrate(p, GL2, u, cfg, 50)
        one, _ = step(p, GL2, u, cfg)
        local = base_norm(one - apply_exp_tA(u, cfg.h))
        assert base_norm(final - apply_exp_tA(u, 0.5)) < 50 * (local + cfg.fp_tol)

    def test_observer_contract(self):
        p = get_problem("nls-cubic-periodic", 16)
        u = two_mode(p.grid)
        seen = []
        observed_flow(
            p, MIDPOINT, u, SolverConfig(h=0.01), 3,
            lambda i, state, stats: seen.append((i, stats.iterations)),
        )
        assert [i for i, _ in seen] == [0, 1, 2]

    def test_observer_exception_aborts(self):
        p = get_problem("nls-cubic-periodic", 16)

        def boom(i, state, stats):
            raise RuntimeError("stop here")

        with pytest.raises(RuntimeError, match="stop here"):
            observed_flow(p, MIDPOINT, two_mode(p.grid), SolverConfig(h=0.01), 3, boom)

    def test_step_count_validation(self):
        p = get_problem("nls-cubic-periodic", 16)
        with pytest.raises(ValueError, match="steps must be at least 1") as exc:
            integrate(p, MIDPOINT, two_mode(p.grid), SolverConfig(h=0.01), 0)
        assert exc.value.name == "steps"

    @pytest.mark.parametrize("run", ["integrate", "tangent", "step"])
    def test_builds_step_matrices_once_per_run(self, run, monkeypatch):
        # Nothing caches the matrices: a build per step would cost a
        # conservation run 2,000 builds instead of one.
        p = get_problem("nls-cubic-periodic", 16)
        u = two_mode(p.grid)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        build = stepper.step_matrices
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(stepper, "step_matrices", counted)
        if run == "integrate":
            _, history = integrate(p, GL2, u, cfg, 50)
        elif run == "tangent":
            v = mode_state(p.grid, 0, {1: 0.3, 3: -0.2})
            _, history = tangent_flow(p, GL2, u, v, cfg, 5)
        else:
            history = [step(p, GL2, u, cfg)[1]]
        assert len(history) == {"integrate": 50, "tangent": 5, "step": 1}[run]
        assert calls == [(GL2, cfg.h, p.grid)]


PREDICTOR_CASES = [
    ("nls-cubic-periodic", 32, nls_two_mode_state),
    ("wave-cubic-periodic", 32, wave_band_state),
    ("wave-dirichlet-compatible", 64, wave_band_state),
]


class TestPredictedStart:
    @pytest.mark.parametrize("s", range(1, 9))
    def test_extrapolation_matrix_reproduces_polynomials(self, s):
        # E maps the values of any polynomial of degree < P at the history
        # node times tau of the last K steps to its values at 1 + c;
        # rounding grows with the size of E.
        c = gauss_legendre(s).c
        points = stepper._predictor_points(s)
        steps = -(-points // s)
        tau = np.concatenate([c - k for k in range(steps - 1, -1, -1)])
        e = stepper._extrapolation_matrix(c, points)
        assert e.shape == (s, steps * s)
        assert not e[:, : steps * s - points].any()
        for degree in range(points):
            exact = (1 + c) ** degree
            assert np.max(np.abs(e @ tau**degree - exact)) <= 1e-10 * np.max(exact)

    def test_extrapolation_matrix_needs_distinct_nodes(self):
        assert stepper._extrapolation_matrix(np.array([0.5, 0.5]), 2) is None

    def test_extrapolation_matrix_drops_repeated_history_nodes(self):
        # with nodes 0 and 1 the last five node times (-1, -1, 0, 0, 1)
        # hold three distinct ones; the newer of each pair is kept
        e = stepper._extrapolation_matrix(np.array([0.0, 1.0]), 5)
        assert e.tolist() == [[0, 0, 0, 0, 0, 1], [0, 0, 1, 0, -3, 3]]

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5, 8])
    def test_warm_up_uses_the_points_of_the_steps_taken(self, s, monkeypatch):
        built = []
        extrapolation_matrix = stepper._extrapolation_matrix

        def recording(c, points):
            built.append(points)
            return extrapolation_matrix(c, points)

        monkeypatch.setattr(stepper, "_extrapolation_matrix", recording)
        p = get_problem("nls-cubic-periodic", 16)
        t = gauss_legendre(s)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        u = two_mode(p.grid)
        points = stepper._predictor_points(s)
        steps = -(-points // s)
        seen = []
        observed_flow(p, t, u, cfg, steps + 3, lambda i, x, st: seen.append(x))
        assert built == [min(points, j * s) for j in range(1, steps + 1)]
        first, _ = step(p, t, u, cfg)
        assert seen[0].coeffs.tobytes() == first.coeffs.tobytes()

    @pytest.mark.parametrize("name, n, initial", PREDICTOR_CASES)
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_first_step_is_step_and_run_agrees_with_steps(self, name, n, initial, s):
        p = get_problem(name, n)
        t = gauss_legendre(s)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        u = initial(p.grid)
        seen = []
        final, history = observed_flow(p, t, u, cfg, 10, lambda i, x, st: seen.append(x))
        first, first_stats = step(p, t, u, cfg)
        assert seen[0].coeffs.tobytes() == first.coeffs.tobytes()
        assert history[0] == first_stats
        looped = u
        for _ in range(10):
            looped, _ = step(p, t, looped, cfg)
        assert base_norm(final - looped) <= 1e-12

    def test_predicted_start_saves_iterations(self):
        p = get_problem("nls-cubic-periodic", 64)
        u = nls_two_mode_state(p.grid)
        cfg = SolverConfig(h=0.005, fp_tol=1e-13)
        _, history = integrate(p, GL2, u, cfg, 100)
        unpredicted = 0
        for _ in range(100):
            u, stats = step(p, GL2, u, cfg)
            unpredicted += stats.iterations
        predicted = sum(s.iterations for s in history)
        assert predicted <= 0.7 * unpredicted

    def test_midpoint_nls_halves_iterations(self):
        p = get_problem("nls-cubic-periodic", 64)
        u = nls_two_mode_state(p.grid)
        cfg = SolverConfig(h=0.005, fp_tol=1e-13)
        _, history = integrate(p, MIDPOINT, u, cfg, 100)
        unpredicted = 0
        for _ in range(100):
            u, stats = step(p, MIDPOINT, u, cfg)
            unpredicted += stats.iterations
        # 219 of 630 with eight history points, 312 with five
        assert sum(s.iterations for s in history) <= 0.4 * unpredicted

    def test_midpoint_dirichlet_wave_takes_one_iteration_per_step(self):
        # eight history points predict B within fp_tol on nearly every
        # step: 208 iterations over 200 steps, against 399 with five
        p = get_problem("wave-dirichlet-compatible", 64)
        cfg = SolverConfig(h=5e-3, fp_tol=1e-13)
        _, history = integrate(p, MIDPOINT, wave_band_state(p.grid), cfg, 200)
        assert sum(s.iterations for s in history) <= 1.1 * 200

    def test_diverging_prediction_restarts_from_b_zero(self, monkeypatch):
        # at h = 0.5 the eight-point extrapolation starts some steps outside
        # the iteration's basin; they restart from the B = 0 solution, as
        # each step of the step loop starts, and reach the same stages
        first_iterate = stepper._first_iterate
        unpredicted = []

        def recording(stage_inv, a, h, base, predicted):
            unpredicted.append(predicted is None)
            return first_iterate(stage_inv, a, h, base, predicted)

        evaluations = []

        def counted(p, w):
            evaluations.append(w.shape)
            return evaluate_B_array(p, w)

        monkeypatch.setattr(stepper, "_first_iterate", recording)
        monkeypatch.setattr(stepper, "evaluate_B_array", counted)
        p = get_problem("nls-cubic-periodic", 64)
        u = nls_two_mode_state(p.grid)
        cfg = SolverConfig(h=0.5, fp_tol=1e-13)
        final, history = integrate(p, MIDPOINT, u, cfg, 12)
        restarts = len(unpredicted) - 12
        assert restarts >= 1 and sum(unpredicted) == 1 + restarts
        # the diverged iterations count too: one B evaluation each
        assert sum(s.iterations for s in history) == len(evaluations)
        looped = u
        for _ in range(12):
            looped, _ = step(p, MIDPOINT, looped, cfg)
        assert base_norm(final - looped) <= 1e-12

    def test_lobatto_nodes_zero_and_one_run_predicted(self):
        # the 2-stage Lobatto IIIA nodes 0 and 1 visit each step boundary
        # twice; the predictor drops the older copy of those node times
        t = ButcherTableau(2, [[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0], 2)
        p = get_problem("nls-cubic-periodic", 64)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        u = nls_two_mode_state(p.grid)
        final, history = integrate(p, t, u, cfg, 20)
        unpredicted = 0
        for _ in range(20):
            u, stats = step(p, t, u, cfg)
            unpredicted += stats.iterations
        assert base_norm(final - u) <= 1e-12
        assert sum(s.iterations for s in history) < unpredicted

    def test_repeated_nodes_run_unpredicted(self):
        # two decoupled implicit-midpoint stages share the node 1/2
        t = ButcherTableau(2, [[0.5, 0.0], [0.0, 0.5]], [0.5, 0.5], [0.5, 0.5], 2)
        p = get_problem("nls-cubic-periodic", 16)
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        u = two_mode(p.grid)
        final, history = integrate(p, t, u, cfg, 5)
        for expected in history:
            u, stats = step(p, t, u, cfg)
            assert stats == expected
        assert final.coeffs.tobytes() == u.coeffs.tobytes()

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_tangent_flow_is_predicted_like_integrate(self, s):
        p = get_problem("nls-cubic-periodic", 32)
        t = gauss_legendre(s)
        cfg = SolverConfig(h=0.005, fp_tol=1e-13)
        u = nls_two_mode_state(p.grid)
        v = mode_state(p.grid, 0, {1: 0.3, 3: -0.2})
        (u1, v1), history = tangent_flow(p, t, u, v, cfg, 1)
        u_step, v_step, stats = tangent_step(p, t, u, v, cfg)
        assert u1.coeffs.tobytes() == u_step.coeffs.tobytes()
        assert v1.coeffs.tobytes() == v_step.coeffs.tobytes()
        assert history == [stats]
        (u_run, v_run), history = tangent_flow(p, t, u, v, cfg, 40)
        primal, _ = integrate(p, t, u, cfg, 40)
        unpredicted = 0
        for _ in range(40):
            u, v, stats = tangent_step(p, t, u, v, cfg)
            unpredicted += stats.iterations
        assert base_norm(u_run - u) <= 1e-12
        assert base_norm(v_run - v) <= 1e-12
        assert base_norm(u_run - primal) <= 1e-12
        assert sum(st.iterations for st in history) < unpredicted


class TestTangentStep:
    def test_zero_direction_stays_zero(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid)
        v = State(p.grid, np.zeros_like(u.coeffs))
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        u1, v1, _ = tangent_step(p, MIDPOINT, u, v, cfg)
        assert base_norm(v1) == 0.0
        primal, _ = step(p, MIDPOINT, u, cfg)
        assert base_norm(u1 - primal) < 1e-13

    def test_linear_problem_propagates_both_by_update_map(self):
        p = get_problem("nls-linear-periodic", 32)
        u = two_mode(p.grid)
        v = mode_state(p.grid, 0, {3: 0.2})
        cfg = SolverConfig(h=0.05, fp_tol=1e-13)
        u1, v1, _ = tangent_step(p, GL2, u, v, cfg)
        assert base_norm(u1 - apply_S_hA(u, GL2, 0.05)) == 0.0
        assert base_norm(v1 - apply_S_hA(v, GL2, 0.05)) == 0.0

    def test_matches_central_differences(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid)
        v = mode_state(p.grid, 0, {1: 0.3, 3: -0.2})
        cfg = SolverConfig(h=0.01, fp_tol=1e-13)
        _, v1, _ = tangent_step(p, MIDPOINT, u, v, cfg)
        eps = 1e-5
        plus, _ = step(p, MIDPOINT, u + eps * v, cfg)
        minus, _ = step(p, MIDPOINT, u + (-eps) * v, cfg)
        fd = (1 / (2 * eps)) * (plus - minus)
        assert base_norm(fd - v1) / base_norm(v1) <= 1e-5

    def test_grid_consistency_checked(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid)
        v = two_mode(get_problem("nls-cubic-periodic", 16).grid)
        with pytest.raises(ValueError):
            tangent_step(p, MIDPOINT, u, v, SolverConfig(h=0.01))


class TestSolverConfig:
    def test_validation(self):
        for h in (-0.1, 0.0, float("nan"), float("inf"), 10**400):
            with pytest.raises(ValueError, match="step size"):
                SolverConfig(h=h)
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(h=0.1, fp_tol=10**400)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, fp_tol=0.0)
        with pytest.raises(TypeError):  # the iteration cap is stepper._FP_MAX_ITERS
            SolverConfig(h=0.1, fp_max_iters=0)

    @pytest.mark.parametrize("fp_tol", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_tolerance_rejected(self, fp_tol):
        # inf would end every stage solve after one iteration, and nan
        # would run _FP_MAX_ITERS iterations per step before failing.
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(h=0.1, fp_tol=fp_tol)

    def test_int_values_are_stored_as_floats(self):
        cfg = SolverConfig(h=1, fp_tol=1)
        assert (type(cfg.h), type(cfg.fp_tol)) == (float, float)
        assert cfg == SolverConfig(h=1.0, fp_tol=1.0)
