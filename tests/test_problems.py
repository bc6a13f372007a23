import math

import mpmath
import numpy as np
import pytest

from rkspectral.problems import (
    ProblemSpec,
    dealias_mask,
    evaluate_B_array,
    evaluate_B_pair_array,
    get_problem,
    list_problems,
)
from rkspectral.spectral import SpectralGrid, State, inverse_transform_array

from oracles import evaluate_B, grid_nodes, to_state

# Every distinct map of the catalogue, by equation and map name.
MAPS = {
    (p.grid.equation, p.nonlinearity.name): p.nonlinearity
    for p in (get_problem(name, 16) for name in list_problems())
}
CUBIC = {equation: MAPS[(equation, "cubic")] for equation in ("schrodinger", "wave")}


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
        # |k| < n/3 is kept, so on n = 12 the edge modes +-4 are dropped
        assert np.array_equal(np.sort(np.abs(p.grid.modes[~mask])), [4, 4, 5, 5, 6])

    def test_grid_mismatch_rejected(self):
        p = get_problem("nls-cubic-periodic", 16)
        u = mode_state(SpectralGrid("schrodinger", "periodic", 32), 0, {0: 1.0})
        with pytest.raises(ValueError):
            evaluate_B_array(p, u.coeffs)


# Every grid kind at its smallest legal size, odd sizes (other than
# periodic), and 16, 64, 255/256 and 1024.
DEALIAS_GRIDS = [
    (equation, bc, n)
    for equation in ("schrodinger", "wave")
    for bc, sizes in (("periodic", (4, 6, 8, 10, 16, 64, 256, 1024)),
                      ("dirichlet", (2, 3, 4, 5, 7, 16, 64, 255, 256, 1024)),
                      ("neumann", (2, 3, 4, 5, 7, 16, 64, 255, 256, 1024)))
    for n in sizes
]


class TestDealiasSlice:
    @pytest.mark.parametrize("equation, bc, n", DEALIAS_GRIDS)
    def test_slice_selects_the_complement_of_the_mask(self, equation, bc, n):
        grid = SpectralGrid(equation, bc, n)
        p = ProblemSpec(grid, CUBIC[equation])
        selected = np.zeros(n, dtype=bool)
        selected[p._aliased_modes] = True
        assert np.array_equal(selected, ~dealias_mask(grid))

    @pytest.mark.parametrize("equation, bc, n", DEALIAS_GRIDS)
    def test_B_is_the_transform_with_the_top_third_zeroed(self, equation, bc, n):
        grid = SpectralGrid(equation, bc, n)
        f = CUBIC[equation]
        rng = np.random.default_rng(n)
        shape = (3, grid.components, n)
        real = rng.standard_normal(shape)
        top = ~dealias_mask(grid)
        data = [real + 1j * rng.standard_normal(shape)]
        if equation == "wave" and bc != "periodic":
            data.append(real)  # real data on a sine or cosine wave grid: float64
        for coeffs in data:
            phys = inverse_transform_array(grid, coeffs[..., 0, :])
            modal = grid.transform_array(f.value(phys))
            assert np.abs(modal[..., top]).min() > 0.0  # the rule has modes to zero
            expected = np.zeros_like(coeffs)
            expected[..., -1, :] = -modal if equation == "wave" else -1j * modal
            expected[..., top] = 0.0
            got = evaluate_B_array(ProblemSpec(grid, f), coeffs)
            assert got.tobytes() == expected.tobytes() and got.dtype == expected.dtype


class TestTwoThirdsRule:
    # Random data filling the kept band |k| < n/3, against the product of
    # the same data on a grid 4x finer, where nothing aliases.

    @staticmethod
    def band_data(n):
        grid = SpectralGrid("schrodinger", "periodic", n)
        band = dealias_mask(grid)
        coeffs = np.zeros((1, n), dtype=complex)
        draws = np.random.default_rng(0).standard_normal((2, band.sum()))
        coeffs[0, band] = draws[0] + 1j * draws[1]
        return grid, band, coeffs

    @staticmethod
    def alias_free(grid, band, coeffs, product):
        # the kept modes of ``product`` of the physical values, zero-padded 4x
        m = 4 * grid.n
        fine = np.zeros(m, dtype=complex)
        fine[grid.modes[band] % m] = coeffs[0, band]
        values = np.fft.ifft(fine, norm="forward")
        return np.fft.fft(product(values), norm="forward")[grid.modes[band] % m]

    # 48 and 96 are multiples of 3, where |k| <= n/3 would keep the edge
    # modes +-n/3 that p + q = 2n/3 folds onto
    @pytest.mark.parametrize("n", [48, 64, 96])
    def test_a_quadratic_product_does_not_alias(self, n):
        grid, band, coeffs = self.band_data(n)
        u = inverse_transform_array(grid, coeffs[0])
        dealiased = grid.transform_array(u * u)[band]
        exact = self.alias_free(grid, band, coeffs, lambda u: u * u)
        assert np.abs(dealiased - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_the_cubic_nls_product_still_aliases(self):
        # the rule zeroes the top third of B, but the kept modes of |u|^2 u
        # are off by about a fifth of their largest
        grid, band, coeffs = self.band_data(64)
        p = get_problem("nls-cubic-periodic", 64)
        B = evaluate_B_array(p, coeffs)[0]
        exact = -1j * self.alias_free(grid, band, coeffs, lambda u: np.abs(u) ** 2 * u)
        assert np.abs(B[~band]).max() == 0.0
        assert np.abs(B[band] - exact).max() / np.abs(exact).max() == pytest.approx(0.21,
                                                                                      abs=0.01)


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
    out[..., ~dealias_mask(p.grid)] = 0.0
    return out


class TestPairEvaluation:
    @pytest.mark.parametrize("equation", ["schrodinger", "wave"])
    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    @pytest.mark.parametrize("s", [1, 3])
    def test_equals_separate_evaluations_bitwise(self, equation, bc, s):
        grid = SpectralGrid(equation, bc, 32)
        p = ProblemSpec(grid, CUBIC[equation])
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
        p = get_problem("nls-cubic-periodic", 64)
        assert p.grid.equation == "schrodinger"
        assert p.grid.bc == "periodic"
        assert p.grid.components == 1

    def test_incompatible_case_has_nonzero_boundary_value(self):
        p = get_problem("wave-dirichlet-incompatible", 64)
        assert p.nonlinearity.value(0.0) == pytest.approx(1.0)
        assert get_problem("wave-dirichlet-compatible", 64).nonlinearity.value(0.0) == 0.0

    def test_each_map_has_its_own_name(self):
        # MAPS keys the catalogue's maps by equation and name: none is lost
        maps = {id(get_problem(name, 16).nonlinearity) for name in list_problems()}
        assert len(maps) == len(MAPS) == 5

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="nls-cubic-periodic"):
            get_problem("foo", 64)

    def test_catalogue_builds_all_at_given_size(self):
        assert all(get_problem(name, 32).grid.n == 32 for name in list_problems())

    def test_zero_grid_size_is_rejected_not_defaulted(self):
        for name in list_problems():
            with pytest.raises(ValueError):
                get_problem(name, 0)
        with pytest.raises(TypeError):  # the grid size has no default
            get_problem("nls-cubic-periodic")


ALL_NONLINEARITIES = list(MAPS)


class TestNonlinearities:
    @pytest.mark.parametrize("equation, name", ALL_NONLINEARITIES)
    def test_tangent_and_potential_match_the_value(self, equation, name):
        # tangent(u, v) is the derivative of value along v; the potential's
        # derivative along v is f(u) v (wave) or 2 Re(conj(v) f(u)) (Schrodinger).
        f = MAPS[(equation, name)]
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


def exact_map(equation, name, which, u, v):
    """The map ``which`` of a catalogue nonlinearity at one point, in 50-digit
    mpmath, and the sum of the magnitudes of its terms."""
    if name == "zero":
        return mpmath.mpf(0), mpmath.mpf(0)
    if equation == "schrodinger":  # V = |u|^4 / 2
        sq = abs(u) ** 2
        terms = {
            "value": [sq * u],
            "tangent": [2 * sq * v, u**2 * mpmath.conj(v)],
            "potential": [sq**2 / 2],
        }[which]
    else:
        c = 1 if name == "cubic_plus_one" else 0
        terms = {
            "value": [u**3, c],
            "tangent": [3 * u**2 * v],
            "potential": [u**4 / 4, c * u],
        }[which]
    return mpmath.fsum(terms), mpmath.fsum(abs(term) for term in terms)


# Rounding budget of each map, as (m, r): m multiplications of two data
# values, each within sqrt(5) 2^-53 normwise on complex data (2^-53 on real
# data), and r other rounded operations along the longest path, each within
# 2^-53: a non-power-of-two constant factor or divisor, the sum of a term
# and a constant (measured against the sum of the terms' magnitudes), and a
# real-by-complex product.  Squaring doubles an error.  numpy's vectorized
# complex abs is counted as 3: it was seen within 2.3 2^-53 over 20,000
# random points.  So u^p costs p - 1 multiplications whatever the shape of
# its product chain, and |u|^2 costs 2 * 3 + 1.
ROUNDING_BUDGET = {
    ("wave", "zero"): {"value": (0, 0), "tangent": (0, 0), "potential": (0, 0)},
    ("wave", "cubic"): {"value": (2, 0), "tangent": (2, 1), "potential": (3, 0)},
    ("wave", "cubic_plus_one"): {
        "value": (2, 1), "tangent": (2, 1), "potential": (3, 1),
    },
    ("schrodinger", "zero"): {"value": (0, 0), "tangent": (0, 0), "potential": (0, 0)},
    # |u|^2 u; 2 |u|^2 v + u^2 conj(v); (|u|^2)^2 / 2
    ("schrodinger", "cubic"): {"value": (0, 8), "tangent": (0, 9), "potential": (0, 15)},
}


WAVE_NONLINEARITIES = [entry for entry in ALL_NONLINEARITIES if entry[0] == "wave"]


class TestPointwiseAccuracy:
    @pytest.mark.parametrize("which", ["value", "tangent", "potential"])
    @pytest.mark.parametrize(
        "equation, name, dtype",
        [(*entry, np.float64) for entry in WAVE_NONLINEARITIES]  # Schrodinger data are complex
        + [(*entry, np.complex128) for entry in ALL_NONLINEARITIES],
    )
    def test_maps_round_within_their_budget(self, equation, name, which, dtype):
        # normwise error against a 50-digit evaluation of the exact map
        f = MAPS[(equation, name)]
        rng = np.random.default_rng(7)
        u, v = rng.uniform(-2, 2, (2, 200))
        if dtype == np.complex128:
            u, v = u + 1j * rng.uniform(-2, 2, 200), v + 1j * rng.uniform(-2, 2, 200)
        args = (u, v) if which == "tangent" else (u,)
        got = getattr(f, which)(*args)
        m, r = ROUNDING_BUDGET[(equation, name)][which]
        units = m * (math.sqrt(5) if dtype == np.complex128 else 1) + r
        gamma = units * 2.0**-53 / (1 - units * 2.0**-53)
        with mpmath.workdps(50):
            for gi, ui, vi in zip(got, u, v):
                exact, scale = exact_map(
                    equation, name, which, mpmath.mpmathify(ui), mpmath.mpmathify(vi)
                )
                assert abs(mpmath.mpmathify(gi) - exact) <= gamma * scale

    @pytest.mark.parametrize("equation, name", WAVE_NONLINEARITIES)
    def test_wave_maps_of_real_data_are_the_real_part_of_complex_ones(self, equation, name):
        # real u**3 goes to libm pow and rounds unlike the complex product;
        # the product chains round alike, so float64 and complex flows agree
        f = MAPS[(equation, name)]
        u, v = np.random.default_rng(8).uniform(-2, 2, (2, 4096))
        for which, args in (("value", (u,)), ("tangent", (u, v)), ("potential", (u,))):
            real = getattr(f, which)(*args)
            as_complex = getattr(f, which)(*(x.astype(complex) for x in args))
            assert real.dtype == np.float64
            assert np.array_equal(real, as_complex.real), which


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
        grid = SpectralGrid("schrodinger", "periodic", 64)
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
