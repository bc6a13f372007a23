import math

import numpy as np
import pytest

from rkspectral.problems import (
    _NONLINEARITIES,
    DEFAULT_GRID_SIZE,
    ProblemSpec,
    dealias_mask,
    evaluate_B_array,
    evaluate_B_pair_array,
    get_problem,
    list_problems,
    make_nonlinearity,
)
from rkspectral.spectral import SpectralGrid, State, inverse_transform_array, schrodinger_grid

from oracles import evaluate_B, grid_nodes, to_state


def mode_state(grid, component, assignments):
    coeffs = np.zeros((grid.components, grid.n), dtype=complex)
    for mode, value in assignments.items():
        idx = int(np.where(grid.modes == mode)[0][0])
        coeffs[component, idx] = value
    return State(grid, coeffs)


class TestEvaluateB:
    def test_zero_nonlinearity_gives_zero_state(self):
        p = get_problem("wave-linear-periodic", 16)
        x = grid_nodes(p.grid)
        u = to_state(p.grid, np.vstack([np.cos(x), np.sin(x)]))
        assert np.max(np.abs(evaluate_B(p, u).coeffs)) == 0.0

    def test_nls_constant_state(self):
        # V = |u|^4/2 makes the right-hand side -i |c|^2 c on the mean mode
        p = get_problem("nls-cubic-periodic", 16)
        c = 0.7 - 0.2j
        u = mode_state(p.grid, 0, {0: c})
        out = evaluate_B(p, u)
        idx = np.where(p.grid.modes == 0)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(-1j * abs(c) ** 2 * c, abs=1e-15)
        others = np.delete(out.coeffs[0], idx)
        assert np.max(np.abs(others)) < 1e-15

    def test_wave_cubic_on_single_sine_mode(self):
        # sin^3 x = (3 sin x - sin 3x)/4, scaled by -a^3 into the velocity slot
        a = 0.37
        p = get_problem("wave-dirichlet-compatible", 32)
        u = mode_state(p.grid, 0, {1: a})
        out = evaluate_B(p, u)
        idx1 = np.where(p.grid.modes == 1)[0][0]
        idx3 = np.where(p.grid.modes == 3)[0][0]
        assert out.coeffs[1, idx1] == pytest.approx(-3 * a**3 / 4, abs=1e-12)
        assert out.coeffs[1, idx3] == pytest.approx(a**3 / 4, abs=1e-12)
        rest = np.delete(out.coeffs[1], [idx1, idx3])
        assert np.max(np.abs(rest)) < 1e-12
        assert np.max(np.abs(out.coeffs[0])) == 0.0

    def test_dealiasing_zeroes_top_third(self):
        p = get_problem("nls-cubic-periodic", 12)
        rng = np.random.default_rng(0)
        u = State(p.grid, rng.standard_normal((1, 12)) + 0j)
        out = evaluate_B(p, u)
        mask = dealias_mask(p.grid)
        assert np.max(np.abs(out.coeffs[0, ~mask])) == 0.0
        assert np.abs(p.grid.modes[~mask]).min() > p.grid.n // 3

    def test_grid_mismatch_rejected(self):
        p = get_problem("nls-cubic-periodic", 16)
        u = mode_state(schrodinger_grid(32), 0, {0: 1.0})
        with pytest.raises(ValueError):
            evaluate_B_array(p, u.coeffs)


class TestTangentLinearization:
    @pytest.mark.parametrize("name", ["nls-cubic-periodic", "wave-cubic-periodic"])
    def test_matches_central_differences(self, name):
        p = get_problem(name, 32)
        rng = np.random.default_rng(1)
        shape = (p.grid.components, p.grid.n)
        u = to_state(p.grid, rng.standard_normal(shape) * 0.3)
        v = to_state(p.grid, rng.standard_normal(shape) * 0.3)
        eps = 1e-6
        fd = (
            evaluate_B_array(p, u.coeffs + eps * v.coeffs)
            - evaluate_B_array(p, u.coeffs - eps * v.coeffs)
        ) / (2 * eps)
        tan = evaluate_B_pair_array(p, np.stack([u.coeffs, v.coeffs]))[1]
        assert np.max(np.abs(fd - tan)) < 1e-9

    def test_linear_in_direction(self):
        p = get_problem("nls-cubic-periodic", 16)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
        v = rng.standard_normal((1, 16)) + 1j * rng.standard_normal((1, 16))
        scaled = evaluate_B_pair_array(p, np.stack([u, 3.5 * v]))[1]
        unscaled = evaluate_B_pair_array(p, np.stack([u, v]))[1]
        assert np.allclose(scaled, 3.5 * unscaled, atol=1e-13)


def two_pass_tangent(p, u, v):
    """DB(u) v with separate inverse transforms of u and v."""
    u_phys = inverse_transform_array(p.grid, u[..., 0, :])
    v_phys = inverse_transform_array(p.grid, v[..., 0, :])
    out = np.zeros_like(v)
    modal = p.grid.transform_array(p.nonlinearity.tangent(u_phys, v_phys))
    if p.grid.equation == "wave":
        out[..., 1, :] = -modal
    else:
        out[..., 0, :] = -1j * modal
    if p.dealias:
        out[..., ~dealias_mask(p.grid)] = 0.0
    return out


class TestPairEvaluation:
    @pytest.mark.parametrize("equation", ["schrodinger", "wave"])
    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    @pytest.mark.parametrize("s", [1, 3])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_equals_separate_evaluations_bitwise(self, equation, bc, s, dealias):
        grid = SpectralGrid(equation, bc, 32)
        p = ProblemSpec(grid, make_nonlinearity(equation, "cubic"), dealias=dealias)
        rng = np.random.default_rng(s)
        shape = (2, s, grid.components, grid.n)
        pair = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        u, v = pair
        tangent = evaluate_B_pair_array(p, np.stack([u, v]))[1]
        expected = np.stack([evaluate_B_array(p, u), tangent])
        assert evaluate_B_pair_array(p, pair).tobytes() == expected.tobytes()
        assert tangent.tobytes() == two_pass_tangent(p, u, v).tobytes()


class TestCatalogue:
    def test_expected_entries_present(self):
        names = list_problems()
        for required in (
            "nls-cubic-periodic",
            "wave-cubic-periodic",
            "wave-dirichlet-compatible",
            "wave-dirichlet-incompatible",
            "wave-neumann",
        ):
            assert required in names

    def test_nls_cubic_periodic_shape(self):
        p = get_problem("nls-cubic-periodic")
        assert p.grid.equation == "schrodinger"
        assert p.grid.bc == "periodic"
        assert p.grid.components == 1

    def test_incompatible_case_has_nonzero_boundary_value(self):
        p = get_problem("wave-dirichlet-incompatible")
        assert p.nonlinearity.value(0.0) == pytest.approx(1.0)
        assert get_problem("wave-dirichlet-compatible").nonlinearity.value(0.0) == 0.0

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="nls-cubic-periodic"):
            get_problem("foo")

    def test_catalogue_builds_all_at_given_size(self):
        assert all(get_problem(name, 32).grid.n == 32 for name in list_problems())

    def test_zero_grid_size_is_rejected_not_defaulted(self):
        for name in list_problems():
            with pytest.raises(ValueError):
                get_problem(name, 0)
        assert get_problem("nls-cubic-periodic").grid.n == DEFAULT_GRID_SIZE

    def test_nonlinearity_parsing(self):
        f = make_nonlinearity("wave", "cubic_plus_const:2.5")
        assert f.value(0.0) == pytest.approx(2.5)
        assert f.value(2.0) == pytest.approx(10.5)
        assert f.tangent(2.0, 1.0) == pytest.approx(12.0)
        with pytest.raises(KeyError, match="unknown wave nonlinearity 'septic'"):
            make_nonlinearity("wave", "septic")
        with pytest.raises(KeyError, match="unknown schrodinger nonlinearity 'quintic'"):
            make_nonlinearity("schrodinger", "quintic")


# Every tabled nonlinearity, plus the parsed family.
ALL_NONLINEARITIES = [
    (equation, name) for equation, table in _NONLINEARITIES.items() for name in table
] + [("wave", "cubic_plus_const:0.5")]


class TestNonlinearities:
    @pytest.mark.parametrize("equation, name", ALL_NONLINEARITIES)
    def test_tangent_and_potential_match_the_value(self, equation, name):
        # tangent(u, v) is the derivative of value along v; the potential's
        # derivative along v is f(u) v (wave) or 2 Re(conj(v) f(u)) (Schrodinger).
        f = make_nonlinearity(equation, name)
        rng = np.random.default_rng(6)
        u, v = rng.uniform(-1, 1, (2, 64))
        if equation == "schrodinger":
            u, v = u + 1j * rng.uniform(-1, 1, 64), v + 1j * rng.uniform(-1, 1, 64)
        eps = 1e-6
        value_fd = (f.value(u + eps * v) - f.value(u - eps * v)) / (2 * eps)
        np.testing.assert_allclose(f.tangent(u, v), value_fd, rtol=0, atol=1e-8)
        potential_fd = (f.potential(u + eps * v) - f.potential(u - eps * v)) / (2 * eps)
        if equation == "wave":
            expected = f.value(u) * v
        else:
            expected = 2 * np.real(np.conj(v) * f.value(u))
        np.testing.assert_allclose(potential_fd, expected, rtol=0, atol=1e-8)


class TestBoundaryPreservation:
    def test_compatible_nonlinearity_keeps_sine_representation(self):
        # f(0) = 0 keeps the collocation values odd-extendable: the state
        # produced by evaluate_B reproduces its own physical values exactly
        p = get_problem("wave-dirichlet-compatible", 24)
        rng = np.random.default_rng(3)
        coeffs = np.zeros((2, 24), dtype=complex)
        coeffs[0, :5] = rng.standard_normal(5) * 0.4
        out = evaluate_B(p, State(p.grid, coeffs))
        phys = np.real(inverse_transform_array(p.grid, out.coeffs)[1])
        again = to_state(p.grid, np.vstack([np.zeros(24), phys]))
        assert np.max(np.abs(again.coeffs[1] - out.coeffs[1])) < 1e-13


class TestSobolevAlgebra:
    def test_product_norm_bounded_by_calibrated_constant(self):
        # calibrate the algebra constant on 100 pairs, then check 1000 more
        grid = schrodinger_grid(64)
        rng = np.random.default_rng(4)
        max_mode = 8

        def random_unit_h1():
            coeffs = np.zeros(64, dtype=complex)
            for j, k in enumerate(grid.modes):
                if abs(int(k)) <= max_mode:
                    coeffs[j] = rng.standard_normal() + 1j * rng.standard_normal()
            norm = h1_norm(coeffs)
            return coeffs / norm

        def h1_norm(coeffs):
            k = grid.modes.astype(float)
            return math.sqrt(2 * math.pi * float(np.sum((1 + k**2) * np.abs(coeffs) ** 2)))

        def product_coeffs(a, b):
            fa = np.fft.ifft(a) * 64
            fb = np.fft.ifft(b) * 64
            return np.fft.fft(fa * fb) / 64

        def ratio():
            a, b = random_unit_h1(), random_unit_h1()
            return h1_norm(product_coeffs(a, b))

        calibration = max(ratio() for _ in range(100))
        c = 1.25 * calibration  # headroom for the larger sample's tail
        assert all(ratio() <= c for _ in range(1000))
