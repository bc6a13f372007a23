import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dct, dst

from rkspectral import spectral
from rkspectral.errors import InputError, SingularResolventError
from rkspectral.spectral import (
    SpectralGrid,
    State,
    apply_A,
    apply_exp_tA,
    base_norm,
    inverse_transform_array,
    sobolev_norm,
    step_matrices,
)
from rkspectral.tableau import ButcherTableau, gauss_legendre

from oracles import (
    apply_S_hA,
    apply_stage_blocks,
    block_relative_error,
    complex_step_matrices,
    exact_propagator_block,
    exact_wave_blocks,
    grid_nodes,
    hermitian_symmetry_defect,
    solve_stage_resolvent,
    to_state,
)

# A boundary condition and a grid size for it: periodic grids need even
# n >= 4.  The Dirichlet sizes reach both sides of the dense DST-I cap.
GRID_SIZES = st.one_of(
    st.tuples(st.just("periodic"), st.integers(2, 150).map(lambda m: 2 * m)),
    st.tuples(st.sampled_from(["dirichlet", "neumann"]), st.integers(2, 300)),
)


def mode_state(grid, assignments):
    """State with given {mode: value} entries in component 0 (or tuples for wave)."""
    coeffs = np.zeros((grid.components, grid.n), dtype=complex)
    for mode, value in assignments.items():
        idx = int(np.where(grid.modes == mode)[0][0])
        if grid.components == 1:
            coeffs[0, idx] = value
        else:
            coeffs[0, idx], coeffs[1, idx] = value
    return State(grid, coeffs)


def row_transform(grid, vals):
    """The unnormalized DST-I or DCT-I of real or complex rows on a sine or
    cosine grid: its real-row kernel, taken through ``_on_parts``."""
    return spectral._on_parts(grid._row_transform, vals)


def random_state(grid, rng, scale=1.0):
    shape = (grid.components, grid.n)
    return State(grid, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


class TestTransforms:
    @pytest.mark.parametrize(
        "grid",
        [
            SpectralGrid("schrodinger", "periodic", 16),
            SpectralGrid("wave", "periodic", 16),
            SpectralGrid("wave", "dirichlet", 16),
            SpectralGrid("wave", "neumann", 16),
        ],
        ids=["periodic-nls", "periodic-wave", "dirichlet", "neumann"],
    )
    def test_roundtrip(self, grid):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((grid.components, grid.n))
        state = to_state(grid, values)
        back = inverse_transform_array(grid, state.coeffs)
        assert np.max(np.abs(back - values)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(bc_n=GRID_SIZES, seed=st.integers(0, 2**32 - 1))
    @example(bc_n=("dirichlet", spectral._DENSE_DST1_MAX_N), seed=0)
    @example(bc_n=("dirichlet", spectral._DENSE_DST1_MAX_N + 1), seed=0)
    def test_roundtrip_property(self, bc_n, seed):
        bc, n = bc_n
        grid = SpectralGrid("schrodinger", bc, n)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        tol = 1e-13 * np.max(np.abs(values))
        there_and_back = inverse_transform_array(grid, grid.transform_array(values))
        assert np.max(np.abs(there_and_back - values)) <= tol
        back_and_there = grid.transform_array(inverse_transform_array(grid, values))
        assert np.max(np.abs(back_and_there - values)) <= tol

    def test_periodic_cosine_hits_two_modes(self):
        grid = SpectralGrid("schrodinger", "periodic", 16)
        state = to_state(grid, np.cos(grid_nodes(grid)))
        active = grid.modes[np.abs(state.coeffs[0]) > 1e-12]
        assert sorted(active.tolist()) == [-1, 1]
        for mode in (-1, 1):
            idx = np.where(grid.modes == mode)[0][0]
            assert state.coeffs[0, idx] == pytest.approx(0.5, abs=1e-14)

    def test_dirichlet_sine_hits_single_mode(self):
        grid = SpectralGrid("wave", "dirichlet", 8)
        state = to_state(grid, np.vstack([np.sin(grid_nodes(grid)), np.zeros(8)]))
        assert state.coeffs[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(state.coeffs[0, 1:])) < 1e-14

    def test_size_mismatch_rejected(self):
        grid = SpectralGrid("schrodinger", "periodic", 16)
        with pytest.raises(ValueError):
            grid.transform_array(np.zeros(15))

    def test_mode_sets(self):
        assert set(SpectralGrid("schrodinger", "periodic", 8).modes) == {-3, -2, -1, 0, 1, 2, 3, 4}
        assert set(SpectralGrid("wave", "dirichlet", 5).modes) == {1, 2, 3, 4, 5}
        assert set(SpectralGrid("wave", "neumann", 5).modes) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("n", [255, 256, 257])
    @pytest.mark.parametrize("bc, transform", [("dirichlet", dst), ("neumann", dct)])
    def test_stacked_real_transform_matches_two_calls(self, n, bc, transform):
        # one call on the stacked (real, imag) rows gives each row's own transform
        rng = np.random.default_rng(n)
        grid = SpectralGrid("wave", bc, n)
        stacked = functools.partial(row_transform, grid)
        vals = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        vals[1].imag = 0.0  # a real field among complex ones
        sine = grid._sine_matrix
        if sine is not None:
            # a dense-DST-I grid (n <= 256): its reference is two dense products
            def transform(x, type, axis):
                return np.array([sine @ row for row in x])

        # joined by assignment, as the package does: ``re + 1j * im`` can
        # flip the sign of a zero
        two_calls = np.empty(vals.shape, dtype=complex)
        two_calls.real = transform(vals.real, type=1, axis=-1)
        two_calls.imag = transform(vals.imag, type=1, axis=-1)
        assert stacked(vals).tobytes() == two_calls.tobytes()
        for coeffs in (grid.transform_array(vals), inverse_transform_array(grid, vals)):
            assert coeffs.shape == vals.shape and coeffs.dtype == complex

    @pytest.mark.parametrize("n", [2, 32, 255, 256, 257, 300])
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_real_rows_transform_as_the_real_part_of_complex_ones(self, n, bc):
        # real data take the real transform alone, in float64, bit for bit
        # the real part of the stacked complex transform
        grid = SpectralGrid("wave", bc, n)
        transform = functools.partial(row_transform, grid)
        coeffs = np.random.default_rng(n).standard_normal((3, 2, n))
        strided = coeffs[:, 0, :]  # the displacement rows of a batch of states
        for rows in (strided, np.ascontiguousarray(strided), strided[1]):
            for f in (transform, grid.transform_array,
                      functools.partial(inverse_transform_array, grid)):
                got, full = f(rows), f(rows.astype(complex))
                assert got.dtype == np.float64 and full.dtype == complex
                assert got.tobytes() == np.ascontiguousarray(full.real).tobytes()

    def test_periodic_transforms_stay_complex(self):
        grid = SpectralGrid("wave", "periodic", 16)
        values = np.random.default_rng(4).standard_normal((2, 16))
        assert grid.transform_array(values).dtype == complex
        assert inverse_transform_array(grid, values).dtype == complex

    @pytest.mark.parametrize("n", [64, 100, 192, 255, 256])
    def test_dense_dst1_matches_scipy(self, n):
        grid = SpectralGrid("wave", "dirichlet", n)
        vals = np.random.default_rng(n).standard_normal((3, n))
        expected = dst(vals, type=1, axis=-1)
        dense = row_transform(grid, vals)
        assert np.max(np.abs(dense - expected)) <= 1e-14 * np.max(np.abs(expected))
        coeffs = grid.transform_array(vals)
        back = inverse_transform_array(grid, coeffs)
        assert np.max(np.abs(back - vals)) <= 1e-13 * np.max(np.abs(vals))

    @pytest.mark.parametrize("n", [32, 256])
    def test_dense_dst1_stacked_equals_separate_calls_bitwise(self, n):
        # each row is its own matrix-vector product: batching never moves a
        # bit (a BLAS product of r rows as one matrix rounds differently as
        # r changes)
        grid = SpectralGrid("wave", "dirichlet", n)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
        stacked = row_transform(grid, vals)
        for rows in range(1, 9):
            assert row_transform(grid, vals[:rows]).tobytes() == stacked[:rows].tobytes()
        for row in range(9):
            assert row_transform(grid, vals[row]).tobytes() == stacked[row].tobytes()
        batched = row_transform(grid, vals.reshape(3, 3, n))
        assert batched.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("n, dense", [(2, True), (255, True), (256, True), (257, False)])
    def test_dense_dst1_size_cap(self, n, dense):
        grid = SpectralGrid("wave", "dirichlet", n)
        assert (grid._sine_matrix is not None) is dense
        assert SpectralGrid("schrodinger", "neumann", n)._sine_matrix is None
        # each grid picks its real-row kernel once
        assert grid._row_transform is grid._row_transform
        assert (grid._row_transform is spectral._dst1) is not dense
        assert SpectralGrid("schrodinger", "neumann", n)._row_transform is spectral._dct1
        if dense:
            assert grid._sine_matrix is grid._sine_matrix
            assert grid._sine_matrix.shape == (n, n)
            with pytest.raises(ValueError):
                grid._sine_matrix[0, 0] = 1.0

    @pytest.mark.parametrize("n", [2, 3, 17, 255, 256, 257, 300, 511])
    def test_transforms_match_their_definitions(self, n):
        # the O(n^2) sums, on both sides of the dense DST-I cap; the angles
        # are reduced exactly by their period so that the sums are accurate
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        j = np.arange(n)
        sines = 2 * np.sin(np.pi * (np.outer(j + 1, j + 1) % (2 * n + 2)) / (n + 1))
        cosines = 2 * np.cos(np.pi * (np.outer(j, j) % (2 * n - 2)) / (n - 1))
        cosines[:, 0] /= 2
        cosines[:, -1] /= 2
        for got, expected in [
            (row_transform(SpectralGrid("wave", "dirichlet", n), vals), vals @ sines.T),
            (row_transform(SpectralGrid("wave", "neumann", n), vals), vals @ cosines.T),
        ]:
            assert got.shape == vals.shape and got.dtype == complex
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_fft_transforms_match_scipy_bitwise(self):
        # the real-FFT DST-I (Dirichlet n > 256) and DCT-I against scipy
        rng = np.random.default_rng(12)
        for n in [*range(2, 301), 511, 512, 1023, 1024]:
            for shape in [(n,), (2, n), (4, 3, n)]:
                rows = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(shape)
                assert spectral._dst1(rows).tobytes() == dst(rows, type=1, axis=-1).tobytes()
                assert spectral._dct1(rows).tobytes() == dct(rows, type=1, axis=-1).tobytes()

    def test_modes_and_weights_are_cached_read_only(self):
        grid = SpectralGrid("wave", "neumann", 16)
        assert grid.modes is grid.modes and grid.weights is grid.weights
        with pytest.raises(ValueError):
            grid.modes[0] = 5
        with pytest.raises(ValueError):
            grid.weights[0] = 1.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SpectralGrid("wave", "periodic", 7)
        with pytest.raises(ValueError):
            SpectralGrid("heat", "periodic", 8)
        with pytest.raises(ValueError):
            SpectralGrid("wave", "absorbing", 8)

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    @pytest.mark.parametrize("n", [8.5, 8.0, "8", None, True])
    def test_non_integer_size_rejected(self, bc, n):
        with pytest.raises(ValueError, match="grid size n must be an integer") as exc:
            SpectralGrid("wave", bc, n)
        assert exc.value.name == "n"

    @pytest.mark.parametrize("bc", ["periodic", "dirichlet", "neumann"])
    @pytest.mark.parametrize("n", [2**20 + 2, 10**400])
    def test_size_above_the_bound_rejected(self, bc, n):
        with pytest.raises(ValueError, match="grid size n must be at most 1048576, got "):
            SpectralGrid("schrodinger", bc, n)
        assert SpectralGrid("schrodinger", bc, 2**20).n == 2**20

    def test_numpy_integer_size_accepted(self):
        grid = SpectralGrid("wave", "dirichlet", np.int64(8))
        assert grid.modes.tolist() == list(range(1, 9))
        assert State(grid, np.ones((2, 8))).coeffs.shape == (2, 8)


class TestOperatorAction:
    def test_schrodinger_single_mode(self):
        u = mode_state(SpectralGrid("schrodinger", "periodic", 8), {1: 1.0})
        out = apply_A(u)
        idx = np.where(u.grid.modes == 1)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(-1j, abs=0)

    def test_wave_block(self):
        u = mode_state(SpectralGrid("wave", "periodic", 8), {2: (1.0, 0.0)})
        out = apply_A(u)
        idx = np.where(u.grid.modes == 2)[0][0]
        assert out.coeffs[0, idx] == 0.0
        assert out.coeffs[1, idx] == pytest.approx(-4.0, abs=0)

    def test_wave_zero_mode_is_nilpotent(self):
        u = mode_state(SpectralGrid("wave", "periodic", 8), {0: (2.0, 3.0)})
        once = apply_A(u)
        idx = np.where(u.grid.modes == 0)[0][0]
        assert once.coeffs[0, idx] == pytest.approx(3.0, abs=0)
        assert once.coeffs[1, idx] == 0.0
        twice = apply_A(once)
        assert abs(twice.coeffs[0, idx]) == 0.0
        assert abs(twice.coeffs[1, idx]) == 0.0


class TestPropagator:
    def test_schrodinger_half_period(self):
        u = mode_state(SpectralGrid("schrodinger", "periodic", 8), {1: 1.0})
        out = apply_exp_tA(u, math.pi)
        idx = np.where(u.grid.modes == 1)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(-1.0, abs=1e-15)

    def test_wave_quarter_period(self):
        u = mode_state(SpectralGrid("wave", "periodic", 8), {1: (1.0, 0.0)})
        out = apply_exp_tA(u, math.pi / 2)
        idx = np.where(u.grid.modes == 1)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(0.0, abs=1e-15)
        assert out.coeffs[1, idx] == pytest.approx(-1.0, abs=1e-15)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(1)
        u = random_state(SpectralGrid("wave", "periodic", 16), rng)
        assert np.array_equal(apply_exp_tA(u, 0.0).coeffs, u.coeffs)

    def test_jordan_mode_secular_term(self):
        u = mode_state(SpectralGrid("wave", "periodic", 8), {0: (1.0, 2.0)})
        out = apply_exp_tA(u, 0.5)
        idx = np.where(u.grid.modes == 0)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(2.0, abs=0)
        assert out.coeffs[1, idx] == pytest.approx(2.0, abs=0)

    @pytest.mark.parametrize(
        "grid", [SpectralGrid("schrodinger", "periodic", 16), SpectralGrid("wave", "periodic", 16)]
    )
    def test_semigroup_property(self, grid):
        rng = np.random.default_rng(2)
        u = random_state(grid, rng)
        lhs = apply_exp_tA(apply_exp_tA(u, 0.3), 0.45)
        rhs = apply_exp_tA(u, 0.75)
        assert base_norm(lhs - rhs) < 1e-12 * base_norm(u)

    @pytest.mark.parametrize(
        "t", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="10**400"), True, "1"]
    )
    def test_non_finite_time_rejected(self, t):
        # an int too large for a float reads as infinite; a bool or a string is no number
        u = mode_state(SpectralGrid("schrodinger", "periodic", 8), {1: 1.0})
        if isinstance(t, (int, float)) and not isinstance(t, bool):
            message = "propagation time must be finite"
        else:
            message = f"t must be a real number, got {t!r}"
        with pytest.raises(InputError, match=re.escape(message)) as exc:
            apply_exp_tA(u, t)
        assert exc.value.name == "t"


def unit_blocks(grid, apply):
    """Per-mode (c, c) blocks of a mode-by-mode linear map, read off by
    applying it to unit data: column q is the image of 1 in component q."""
    c = grid.components
    units = [np.eye(c)[:, q, None] * np.ones(grid.n) for q in range(c)]
    columns = [apply(State(grid, unit)).coeffs for unit in units]
    return np.stack(columns, axis=-1).transpose(1, 0, 2)  # (n, c, c)


# Every boundary condition of both equations; the periodic and Neumann
# grids hold k = 0, whose wave block is nilpotent.
LINEAR_PART_GRIDS = [
    SpectralGrid(equation, bc, 256 if bc == "periodic" else 255)
    for equation in ("schrodinger", "wave")
    for bc in ("periodic", "dirichlet", "neumann")
]


class TestLinearPartClosedForm:
    @pytest.mark.parametrize("grid", LINEAR_PART_GRIDS, ids=lambda g: f"{g.equation}-{g.bc}")
    def test_apply_A_equals_explicit_blocks(self, grid):
        k = grid.modes.astype(float)
        if grid.equation == "schrodinger":
            explicit = (-1j * k**2)[:, None, None]
        else:
            explicit = np.zeros((grid.n, 2, 2), dtype=complex)
            explicit[:, 0, 1] = 1.0
            explicit[:, 1, 0] = -(k**2)
        assert np.array_equal(unit_blocks(grid, apply_A), explicit)

    @pytest.mark.parametrize("grid", LINEAR_PART_GRIDS, ids=lambda g: f"{g.equation}-{g.bc}")
    @pytest.mark.parametrize("t", [0.3, 2.5, -1.7, 1e-3])
    def test_apply_exp_tA_matches_50_digit_closed_form(self, grid, t):
        # Within 32 units of 2^-53 max(1, |lambda t|), relative to each
        # block's largest entry: the rounding of the argument lambda t alone
        # moves cos and sin by about 2^-53 |lambda t|.
        blocks = unit_blocks(grid, lambda u: apply_exp_tA(u, t))
        for index, k in enumerate(grid.modes):
            modulus = int(k) ** 2 if grid.equation == "schrodinger" else abs(int(k))  # |lambda|
            scale = max(1.0, abs(t) * modulus)
            exact = exact_propagator_block(grid.equation, k, t)
            error = block_relative_error(blocks[index], exact)
            assert error <= 32 * 2.0**-53 * scale, (int(k), error / (2.0**-53 * scale))


class TestStageResolvent:
    def test_midpoint_schrodinger_closed_form(self):
        grid = SpectralGrid("schrodinger", "periodic", 8)
        rhs = np.zeros((1, 1, 8), dtype=complex)
        idx = np.where(grid.modes == 1)[0][0]
        rhs[0, 0, idx] = 1.0
        w = solve_stage_resolvent(grid, rhs, gauss_legendre(1), 0.1)
        assert w[0, 0, idx] == pytest.approx(1 / (1 + 0.05j), abs=1e-15)

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(3)
        grid = SpectralGrid("wave", "periodic", 16)
        data = rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16))
        out = solve_stage_resolvent(grid, data, gauss_legendre(2), 0.0)
        assert np.max(np.abs(out - data)) < 1e-15

    @pytest.mark.parametrize("mode", [1, 3, 7])
    def test_midpoint_wave_against_dense_solve(self, mode):
        grid = SpectralGrid("wave", "periodic", 16)
        h = 0.2
        rhs = np.zeros((1, 2, 16), dtype=complex)
        idx = np.where(grid.modes == mode)[0][0]
        rhs[0, :, idx] = [1.0, 0.0]
        w = solve_stage_resolvent(grid, rhs, gauss_legendre(1), h)
        block = np.array([[0.0, 1.0], [-float(mode) ** 2, 0.0]])
        expected = np.linalg.solve(np.eye(2) - (h / 2) * block, np.array([1.0, 0.0]))
        assert w[0, :, idx] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "grid", [SpectralGrid("schrodinger", "periodic", 32), SpectralGrid("wave", "periodic", 32)]
    )
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_resolvent_identity(self, grid, s):
        # (I - h a A)^{-1} = I + h a A (I - h a A)^{-1}
        rng = np.random.default_rng(4)
        t = gauss_legendre(s)
        h = 0.07
        data = rng.standard_normal((s, grid.components, grid.n)).astype(complex)
        w = solve_stage_resolvent(grid, data, t, h)
        aw = np.einsum("ij,jcn->icn", t.a, np.stack([apply_A(State(grid, x)).coeffs for x in w]))
        defect = np.max(np.abs(w - (data + h * aw)))
        assert defect < 1e-11

    @pytest.mark.parametrize("equation", ["schrodinger", "wave"])
    def test_step_too_large_for_the_symbols_raises(self, equation):
        # h a k^2 (h a k for the wave) overflows: no step matrix is finite
        grid = SpectralGrid(equation, "periodic", 16)
        message = r"step matrices for h=1e\+308 are not finite \(overflow"
        with pytest.raises(ValueError, match=message):
            step_matrices(gauss_legendre(2), 1e308, grid)

    @pytest.mark.parametrize("equation, bc", [("schrodinger", "periodic"), ("wave", "dirichlet"),
                                              ("wave", "neumann")])
    @pytest.mark.parametrize("s", [1, 3])
    def test_blocks_are_mode_last(self, equation, bc, s):
        grid = SpectralGrid(equation, bc, 16)
        c = grid.components
        stage_inv, update = step_matrices(gauss_legendre(s), 0.01, grid)
        assert stage_inv.shape == (s * c, s * c, 16) and update.shape == (c, c, 16)
        assert stage_inv.flags.c_contiguous and update.flags.c_contiguous
        # the last axis is the storage order: column k applies to mode k
        unit = np.zeros((c, 16), dtype=complex)
        unit[0, 5] = 1.0
        assert np.array_equal(apply_S_hA(State(grid, unit), gauss_legendre(s), 0.01).coeffs[:, 5],
                              update[:, 0, 5])

    def test_repeated_calls_build_fresh_equal_arrays(self):
        grid = SpectralGrid("wave", "periodic", 16)
        t = gauss_legendre(2)
        first = step_matrices(t, 0.01, grid)
        again = step_matrices(t, 0.01, grid)
        for before, after in zip(first, again):
            assert not np.shares_memory(before, after)
            assert before.tobytes() == after.tobytes()


ALL_GRID_KINDS = [(eq, bc) for eq in ("schrodinger", "wave")
                  for bc in ("periodic", "dirichlet", "neumann")]


class TestStageBlockKernel:
    @pytest.mark.parametrize("equation, bc", ALL_GRID_KINDS)
    @pytest.mark.parametrize("s", range(1, 9))
    @pytest.mark.parametrize("n", [8, 64])
    def test_matches_swapaxes_oracle_bitwise(self, equation, bc, s, n):
        # The stage inverse goes through the update's block kernel on the
        # data viewed as (..., s c, n); every value is the oracle's bits.
        grid = SpectralGrid(equation, bc, n + (bc == "dirichlet"))
        stage_inv, _ = step_matrices(gauss_legendre(s), 0.03, grid)
        rng = np.random.default_rng(s)
        for lead in [(), (2,), (5, 2)]:
            shape = lead + (s, grid.components, grid.n)
            real = rng.standard_normal(shape)
            for data in (real, real + 1j * rng.standard_normal(shape)):
                got = spectral._apply_stage_inv(stage_inv, data)
                expected = apply_stage_blocks(stage_inv, data)
                assert got.shape == expected.shape and got.dtype == expected.dtype
                assert got.flags.c_contiguous
                assert got.tobytes() == expected.tobytes(), (lead, data.dtype)


# Square blocks of every size up to the wave's s = 8 stage inverse, and the
# update's (c, s c) forcing blocks for both equations and s = 1..8.
KERNEL_BLOCK_SHAPES = [(r, r) for r in range(1, 17)] + [
    (c, s * c) for c in (1, 2) for s in range(2, 9)
]


class TestBlockKernelAgainstMatmul:
    @pytest.mark.parametrize("rows, cols", KERNEL_BLOCK_SHAPES)
    def test_matches_per_mode_matmul(self, rows, cols):
        # An independent oracle: each mode's block times its data vector
        # by np.matmul, which adds in an order of its own, so the two agree
        # within the rounding of a length-cols dot product.
        rng = np.random.default_rng(16 * rows + cols)
        n = 37
        for lead in [(), (2,), (5, 2)]:
            for kind in (float, complex):
                blocks = rng.standard_normal((rows, cols, n))
                data = rng.standard_normal(lead + (cols, n))
                if kind is complex:
                    blocks = blocks + 1j * rng.standard_normal(blocks.shape)
                    data = data + 1j * rng.standard_normal(data.shape)
                got = spectral._apply_update(blocks, data)
                per_mode = np.moveaxis(blocks, -1, 0)  # (n, rows, cols)
                vectors = np.moveaxis(data, -1, -2)[..., None]  # (..., n, cols, 1)
                want = np.moveaxis(np.matmul(per_mode, vectors)[..., 0], -1, -2)
                scale = np.moveaxis(np.matmul(np.abs(per_mode), np.abs(vectors))[..., 0], -1, -2)
                assert got.shape == lead + (rows, n) and got.dtype == kind
                assert got.flags.c_contiguous
                bound = 2 * cols * np.finfo(float).eps * scale
                assert np.all(np.abs(got - want) <= bound), (lead, kind)


class TestDistinctSymbolBuild:
    @pytest.mark.parametrize("equation, bc", ALL_GRID_KINDS)
    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_index_maps_back_to_every_mode_once(self, equation, bc, n):
        grid = SpectralGrid(equation, bc, n - (bc != "periodic"))
        first, inverse = grid._distinct_symbols
        k2 = grid.modes**2
        assert len(first) == (grid.n // 2 + 1 if bc == "periodic" else grid.n)
        assert np.all(np.diff(first) > 0)  # storage order
        assert np.array_equal(inverse[first], np.arange(len(first)))
        assert np.array_equal(k2[first][inverse], k2)
        assert len(np.unique(k2[first])) == len(first)
        assert not first.flags.writeable and not inverse.flags.writeable

    @pytest.mark.parametrize("equation, bc", ALL_GRID_KINDS)
    def test_matches_complex_construction_bitwise(self, equation, bc):
        # Schrodinger blocks are the LU construction's bits.  Wave blocks
        # come in closed form from the s x s resolvent and differ from the
        # LU's in the last bits, the LU being the less accurate side (see
        # the 50-digit test); per block they stay within 1e-13 (stage
        # inverse) and 5e-13 (update) relative; 4.0e-14 and 1.9e-13 seen.
        for n in (16, 256, 1024):
            grid = SpectralGrid(equation, bc, n - (bc != "periodic"))
            for s in range(1, 7):
                t = gauss_legendre(s)
                for h in (1e-3, 0.37, 2.5):
                    built = step_matrices(t, h, grid)
                    oracle = complex_step_matrices(t, h, grid)
                    for got, want, bound in zip(built, oracle, (1e-13, 5e-13)):
                        assert got.shape == want.shape and want.dtype == complex
                        if equation == "schrodinger":
                            # bytes compare the signs of zero parts too
                            assert got.tobytes() == want.tobytes(), (n, s, h)
                        else:
                            # the LU of real blocks is real: the wave's are float64
                            assert got.dtype == float and not want.imag.any()
                            error = np.max(np.abs(got - want), axis=(0, 1))
                            scale = np.max(np.abs(want), axis=(0, 1))
                            assert np.all(error <= bound * scale), (n, s, h)

    def test_wave_zero_mode_blocks_are_exact(self):
        # At k = 0, M = [[0, 1], [0, 0]] is nilpotent, so the stage inverse
        # is I + h a (x) M and the update I + h sum(b) M: no rounding but
        # that of the products h a_ij and h sum(b).
        grid = SpectralGrid("wave", "periodic", 8)
        zero = int(np.flatnonzero(grid.modes == 0)[0])
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        for s in range(1, 9):
            t = gauss_legendre(s)
            for h in np.logspace(-4, 1, 2004):
                stage_inv, update = step_matrices(t, h, grid)
                exact_stage = np.eye(2 * s) + h * np.kron(t.a, nilpotent)
                exact_update = np.array([[1.0, h * t.b.sum()], [0.0, 1.0]])
                assert stage_inv.dtype == update.dtype == float
                assert stage_inv[..., zero].tobytes() == exact_stage.tobytes(), (s, h)
                assert update[..., zero].tobytes() == exact_update.tobytes(), (s, h)

    @pytest.mark.parametrize("s", [2, 4, 8])
    def test_wave_blocks_match_50_digit_construction(self, s):
        # The same binary tableau in 50-digit arithmetic: every block lies
        # within 5e-15 of it, relative to the block's largest entry (the
        # LU construction reaches 1.9e-13 at s = 8).
        t = gauss_legendre(s)
        for bc in ("dirichlet", "periodic"):
            grid = SpectralGrid("wave", bc, 256)
            first = grid._distinct_symbols[0]
            for h in (1e-3, 0.37, 2.5, 5.0):
                stage_inv, update = step_matrices(t, h, grid)
                for index in first[[0, 7, 100, -1]]:  # k = 0, 7, 100, 128 or 1, 8, 101, 256
                    exact_stage, exact_update = exact_wave_blocks(t, h, int(grid.modes[index]))
                    where = (bc, h, int(grid.modes[index]))
                    assert block_relative_error(stage_inv[..., index], exact_stage) <= 5e-15, where
                    assert block_relative_error(update[..., index], exact_update) <= 5e-15, where

    @pytest.mark.parametrize(
        "n, bc, h, mode",
        [(8, "periodic", 1.0, 1), (8, "periodic", 0.25, 2), (16, "periodic", 1 / 9, 3),
         (8, "dirichlet", 0.25, 2)],
    )
    def test_singular_resolvent_names_storage_mode(self, n, bc, h, mode):
        # a = [[0, -1], [1, 0]] has eigenvalues +-i, so the block of mode k
        # is singular exactly when h k^2 = 1; +k and -k both qualify.
        t = ButcherTableau(2, [[0, -1], [1, 0]], [0.5, 0.5], [-1, 1], 1)
        with pytest.raises(SingularResolventError) as info:
            step_matrices(t, h, SpectralGrid("schrodinger", bc, n))
        assert info.value.where == mode


class TestUpdateMap:
    def test_midpoint_schrodinger_rational_form(self):
        grid = SpectralGrid("schrodinger", "periodic", 8)
        u = mode_state(grid, {2: 1.0})
        h = 0.05
        out = apply_S_hA(u, gauss_legendre(1), h)
        idx = np.where(grid.modes == 2)[0][0]
        z = h * (-1j * 4.0)
        assert out.coeffs[0, idx] == pytest.approx((1 + z / 2) / (1 - z / 2), abs=1e-14)
        assert abs(out.coeffs[0, idx]) == pytest.approx(1.0, abs=1e-14)

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(6)
        u = random_state(SpectralGrid("schrodinger", "periodic", 16), rng)
        out = apply_S_hA(u, gauss_legendre(2), 0.0)
        assert np.max(np.abs(out.coeffs - u.coeffs)) < 1e-15

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_unimodular_on_schrodinger_spectrum(self, s):
        # discrete normal-operator stability: modulus one per mode
        grid = SpectralGrid("schrodinger", "periodic", 128)
        t = gauss_legendre(s)
        for h in (1e-3, 1e-2, 1e-1, 1.0):
            _, update = step_matrices(t, h, grid)
            assert np.max(np.abs(np.abs(update[0, 0]) - 1.0)) < 1e-14


class TestScaleNorms:
    def test_rung_zero_is_base_norm(self):
        rng = np.random.default_rng(7)
        u = random_state(SpectralGrid("wave", "periodic", 16), rng)
        assert sobolev_norm(u, 0) == pytest.approx(base_norm(u), abs=0)

    def test_single_mode_values(self):
        u = mode_state(SpectralGrid("schrodinger", "periodic", 8), {1: 1.0})
        assert sobolev_norm(u, 0) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-14)
        assert sobolev_norm(u, 1) == pytest.approx(math.sqrt(4 * math.pi), abs=1e-14)

    @pytest.mark.parametrize(
        "grid", [SpectralGrid("schrodinger", "periodic", 32), SpectralGrid("wave", "periodic", 32)]
    )
    def test_operator_maps_one_rung_down(self, grid):
        rng = np.random.default_rng(8)
        for _ in range(100):
            u = random_state(grid, rng)
            k = int(rng.integers(0, 7))
            assert sobolev_norm(apply_A(u), k) <= sobolev_norm(u, k + 1)

    def test_rungs_are_monotone(self):
        rng = np.random.default_rng(9)
        u = random_state(SpectralGrid("schrodinger", "periodic", 16), rng)
        norms = [sobolev_norm(u, k) for k in range(7)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_scale_cap_enforced(self):
        u = mode_state(SpectralGrid("schrodinger", "periodic", 8), {1: 1.0})
        for k, message in [(9, "scale index must satisfy 0 <= k <= 8, got 9"),
                           (-1, "scale index must satisfy 0 <= k <= 8, got -1"),
                           (True, "k must be an integer, got True"),
                           (2.5, "k must be an integer, got 2.5")]:
            with pytest.raises(InputError, match=re.escape(message)) as exc:
                sobolev_norm(u, k)
            assert exc.value.name == "k"


class TestStateHygiene:
    def test_hermitian_symmetry_of_real_fields(self):
        rng = np.random.default_rng(10)
        grid = SpectralGrid("wave", "periodic", 16)
        state = to_state(grid, rng.standard_normal((2, 16)))
        assert hermitian_symmetry_defect(state) < 1e-12
        # symmetry survives the linear flow and the update map
        assert hermitian_symmetry_defect(apply_exp_tA(state, 0.37)) < 1e-12
        assert hermitian_symmetry_defect(apply_S_hA(state, gauss_legendre(2), 0.1)) < 1e-12

    @pytest.mark.parametrize("equation, shape", [("schrodinger", (2, 16)), ("wave", (1, 16)),
                                                 ("wave", (2, 8)), ("schrodinger", (16,))])
    def test_coefficients_of_another_shape_rejected(self, equation, shape):
        grid = SpectralGrid(equation, "periodic", 16)
        with pytest.raises(ValueError, match=re.escape(
                f"coefficients must have shape ({grid.components}, 16)")):
            State(grid, np.zeros(shape))

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        u = random_state(SpectralGrid("wave", "periodic", 16), rng)
        v = random_state(SpectralGrid("wave", "periodic", 32), rng)
        with pytest.raises(ValueError):
            _ = u + v
