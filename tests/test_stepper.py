import numpy as np
import pytest

from rkspectral.errors import ConvergenceFailureError, NumericalBlowupError
from rkspectral.harness import nls_two_mode_state, wave_band_state
from rkspectral.problems import evaluate_B_array, evaluate_B_tangent_array, get_problem
from rkspectral.spectral import (
    StageSet,
    State,
    apply_exp_tA,
    apply_S_hA,
    base_norm,
    schrodinger_grid,
    solve_stage_resolvent,
    wave_grid,
)
from rkspectral.stepper import (
    SolverConfig,
    _stage_residual,
    fixed_point_stages,
    integrate,
    step,
    tangent_step,
)
from rkspectral.tableau import gauss_legendre

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


def reference_step(p, t, states, cfg, B):
    """One step of each state family iterated on its own from public pieces.

    ``B`` maps the list of stage arrays to the list of their
    nonlinearities; the residual is the largest stage base norm of all
    families, as in the primal and tangent steps.
    """
    h, s = cfg.h, t.s
    lifted = [np.broadcast_to(x.coeffs, (s,) + x.coeffs.shape) for x in states]

    def resolve(data):
        return solve_stage_resolvent(StageSet(p.grid, data), t, h).data

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
        apply_S_hA(x, t, h) + State(p.grid, h * np.einsum("j,jcn->cn", t.b, resolve(f)))
        for x, f in zip(states, B(w))
    ]
    return new, residuals


REFERENCE_CASES = [
    ("wave-dirichlet-compatible", 256, wave_band_state),
    ("nls-cubic-periodic", 64, nls_two_mode_state),
]


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
            return [evaluate_B_array(p, w[0]), evaluate_B_tangent_array(p, w[0], w[1])]

        for _ in range(3):
            (u_ref, v_ref), residuals = reference_step(p, GL2, [u, v], cfg, pair_B)
            u, v, stats = tangent_step(p, GL2, u, v, cfg)
            assert u.coeffs.tobytes() == u_ref.coeffs.tobytes()
            assert v.coeffs.tobytes() == v_ref.coeffs.tobytes()
            assert stats.iterations == len(residuals)
            assert stats.final_residual == residuals[-1]

    @pytest.mark.parametrize("grid", [schrodinger_grid(32), wave_grid(32, "dirichlet")])
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


class TestFixedPointStages:
    def test_zero_step_probe(self):
        p = get_problem("nls-cubic-periodic", 16)
        u = two_mode(p.grid)
        stages, stats = fixed_point_stages(p, MIDPOINT, u, SolverConfig(h=0.0))
        assert stats.iterations == 1
        assert stats.final_residual == 0.0
        assert np.array_equal(stages.data[0], u.coeffs)

    def test_linear_problem_converges_in_one_iteration(self):
        p = get_problem("nls-linear-periodic", 16)
        u = two_mode(p.grid)
        stages, stats = fixed_point_stages(p, GL2, u, SolverConfig(h=0.1))
        assert stats.iterations == 1
        expected = solve_stage_resolvent(StageSet.broadcast(u, 2), GL2, 0.1)
        assert np.max(np.abs(stages.data - expected.data)) == 0.0

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
        from rkspectral.problems import evaluate_B_array

        rhs = np.broadcast_to(u.coeffs, stages.data.shape) + cfg.h * np.einsum(
            "ij,jcn->icn", MIDPOINT.a, evaluate_B_array(p, stages.data)
        )
        expected = solve_stage_resolvent(StageSet(p.grid, rhs.copy()), MIDPOINT, cfg.h)
        defect = max(
            base_norm(State(p.grid, stages.data[j] - expected.data[j]))
            for j in range(stages.s)
        )
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

    def test_iteration_cap_raises_with_stats(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid, 1.5, 0.8)
        with pytest.raises(ConvergenceFailureError) as err:
            fixed_point_stages(p, MIDPOINT, u, SolverConfig(h=0.5, fp_tol=1e-15, fp_max_iters=3))
        assert err.value.stats.iterations == 3
        assert err.value.stats.final_residual > 0

    def test_near_one_contraction_warns_at_caller(self):
        p = get_problem("nls-cubic-periodic", 32)
        u = two_mode(p.grid, 2.0, 1.0)
        cfg = SolverConfig(h=0.21, fp_tol=1e-12, fp_max_iters=1000)
        with pytest.warns(UserWarning, match="near 1") as record:
            _, stats = fixed_point_stages(p, MIDPOINT, u, cfg)
        assert stats.contraction_estimate > cfg.contraction_warn
        assert len(record) == 1
        assert record[0].filename == __file__

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_blowup_detected(self):
        p = get_problem("wave-cubic-periodic", 16)
        u = mode_state(p.grid, 0, {1: 1e160})
        with pytest.raises(NumericalBlowupError):
            fixed_point_stages(p, MIDPOINT, u, SolverConfig(h=0.1))


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

    def test_update_forms_agree_on_random_states(self):
        p = get_problem("nls-cubic-periodic", 32)
        rng = np.random.default_rng(3)
        cfg = SolverConfig(h=0.02, fp_tol=1e-13, debug_checks=True)
        for _ in range(5):
            u = p.grid.transform(0.3 * (rng.standard_normal(32) + 1j * rng.standard_normal(32)))
            step(p, MIDPOINT, u, cfg)  # raises if the two forms disagree

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
        integrate(
            p, MIDPOINT, u, SolverConfig(h=0.01), 3,
            observer=lambda i, state, stats: seen.append((i, stats.iterations)),
        )
        assert [i for i, _ in seen] == [0, 1, 2]

    def test_observer_exception_aborts(self):
        p = get_problem("nls-cubic-periodic", 16)

        def boom(i, state, stats):
            raise RuntimeError("stop here")

        with pytest.raises(RuntimeError, match="stop here"):
            integrate(p, MIDPOINT, two_mode(p.grid), SolverConfig(h=0.01), 3, observer=boom)

    def test_step_count_validation(self):
        p = get_problem("nls-cubic-periodic", 16)
        with pytest.raises(ValueError):
            integrate(p, MIDPOINT, two_mode(p.grid), SolverConfig(h=0.01), 0)


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
        with pytest.raises(ValueError):
            SolverConfig(h=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, fp_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(h=0.1, fp_max_iters=0)
