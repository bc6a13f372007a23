import functools
import math

import numpy as np
import pytest
from scipy.fft import dct, dst

from rkspectral import spectral
from rkspectral.errors import SingularResolventError
from rkspectral.spectral import (
    SpectralGrid,
    StageSet,
    State,
    apply_A,
    apply_exp_tA,
    apply_S_hA,
    base_norm,
    hermitian_symmetry_defect,
    inverse_transform_array,
    schrodinger_grid,
    sobolev_norm,
    solve_stage_resolvent,
    step_matrices,
    wave_grid,
)
from rkspectral.tableau import ButcherTableau, gauss_legendre


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


def random_state(grid, rng, scale=1.0):
    shape = (grid.components, grid.n)
    return State(grid, scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))


class TestTransforms:
    @pytest.mark.parametrize(
        "grid",
        [
            schrodinger_grid(16),
            wave_grid(16),
            wave_grid(16, "dirichlet"),
            wave_grid(16, "neumann"),
        ],
        ids=["periodic-nls", "periodic-wave", "dirichlet", "neumann"],
    )
    def test_roundtrip(self, grid):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((grid.components, grid.n))
        state = grid.transform(values)
        back = inverse_transform_array(grid, state.coeffs)
        assert np.max(np.abs(back - values)) < 1e-12

    def test_periodic_cosine_hits_two_modes(self):
        grid = schrodinger_grid(16)
        state = grid.transform(np.cos(grid.nodes))
        active = grid.modes[np.abs(state.coeffs[0]) > 1e-12]
        assert sorted(active.tolist()) == [-1, 1]
        for mode in (-1, 1):
            idx = np.where(grid.modes == mode)[0][0]
            assert state.coeffs[0, idx] == pytest.approx(0.5, abs=1e-14)

    def test_dirichlet_sine_hits_single_mode(self):
        grid = wave_grid(8, "dirichlet")
        state = grid.transform(np.vstack([np.sin(grid.nodes), np.zeros(8)]))
        assert state.coeffs[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(state.coeffs[0, 1:])) < 1e-14

    def test_size_mismatch_rejected(self):
        grid = schrodinger_grid(16)
        with pytest.raises(ValueError):
            grid.transform(np.zeros(15))

    def test_mode_sets(self):
        assert set(schrodinger_grid(8).modes) == {-3, -2, -1, 0, 1, 2, 3, 4}
        assert set(wave_grid(5, "dirichlet").modes) == {1, 2, 3, 4, 5}
        assert set(wave_grid(5, "neumann").modes) == {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("n", [255, 256, 257])
    @pytest.mark.parametrize(
        "bc, stacked, transform",
        [("dirichlet", spectral._complex_dst1, dst), ("neumann", spectral._complex_dct1, dct)],
    )
    def test_stacked_real_transform_matches_two_calls(self, n, bc, stacked, transform):
        # one call on the stacked (real, imag) rows gives each row's own transform
        rng = np.random.default_rng(n)
        grid = wave_grid(n, bc)
        vals = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        vals[1].imag = 0.0  # a real field among complex ones
        sine = grid._sine_matrix
        if sine is not None:
            # a dense-DST-I grid (n <= 256): its reference is two dense products
            stacked = functools.partial(stacked, sine=sine)

            def transform(x, type, axis):
                return np.array([sine @ row for row in x])

        two_calls = transform(vals.real, type=1, axis=-1) + 1j * transform(
            vals.imag, type=1, axis=-1
        )
        assert stacked(vals).tobytes() == two_calls.tobytes()
        for coeffs in (grid.transform_array(vals), inverse_transform_array(grid, vals)):
            assert coeffs.shape == vals.shape and coeffs.dtype == complex

    @pytest.mark.parametrize("n", [64, 100, 192, 255, 256])
    def test_dense_dst1_matches_scipy(self, n):
        grid = wave_grid(n, "dirichlet")
        vals = np.random.default_rng(n).standard_normal((3, n))
        expected = dst(vals, type=1, axis=-1)
        dense = spectral._complex_dst1(vals, grid._sine_matrix)
        assert np.max(np.abs(dense - expected)) <= 1e-14 * np.max(np.abs(expected))
        coeffs = grid.transform_array(vals)
        back = inverse_transform_array(grid, coeffs)
        assert np.max(np.abs(back - vals)) <= 1e-13 * np.max(np.abs(vals))

    @pytest.mark.parametrize("n", [32, 256])
    def test_dense_dst1_stacked_equals_separate_calls_bitwise(self, n):
        # each row is its own matrix-vector product: batching never moves a
        # bit (a BLAS product of r rows as one matrix rounds differently as
        # r changes)
        sine = wave_grid(n, "dirichlet")._sine_matrix
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((9, n)) + 1j * rng.standard_normal((9, n))
        stacked = spectral._complex_dst1(vals, sine)
        for rows in range(1, 9):
            assert spectral._complex_dst1(vals[:rows], sine).tobytes() == (
                stacked[:rows].tobytes()
            )
        for row in range(9):
            assert spectral._complex_dst1(vals[row], sine).tobytes() == stacked[row].tobytes()
        batched = spectral._complex_dst1(vals.reshape(3, 3, n), sine)
        assert batched.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("n, dense", [(2, True), (255, True), (256, True), (257, False)])
    def test_dense_dst1_size_cap(self, n, dense):
        grid = wave_grid(n, "dirichlet")
        assert (grid._sine_matrix is not None) is dense
        assert schrodinger_grid(n, "neumann")._sine_matrix is None
        if dense:
            assert grid._sine_matrix is grid._sine_matrix
            assert grid._sine_matrix.shape == (n, n)
            with pytest.raises(ValueError):
                grid._sine_matrix[0, 0] = 1.0

    def test_modes_and_weights_are_cached_read_only(self):
        grid = wave_grid(16, "neumann")
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


class TestOperatorAction:
    def test_schrodinger_single_mode(self):
        u = mode_state(schrodinger_grid(8), {1: 1.0})
        out = apply_A(u)
        idx = np.where(u.grid.modes == 1)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(-1j, abs=0)

    def test_wave_block(self):
        u = mode_state(wave_grid(8), {2: (1.0, 0.0)})
        out = apply_A(u)
        idx = np.where(u.grid.modes == 2)[0][0]
        assert out.coeffs[0, idx] == 0.0
        assert out.coeffs[1, idx] == pytest.approx(-4.0, abs=0)

    def test_wave_zero_mode_is_nilpotent(self):
        u = mode_state(wave_grid(8), {0: (2.0, 3.0)})
        once = apply_A(u)
        idx = np.where(u.grid.modes == 0)[0][0]
        assert once.coeffs[0, idx] == pytest.approx(3.0, abs=0)
        assert once.coeffs[1, idx] == 0.0
        twice = apply_A(once)
        assert abs(twice.coeffs[0, idx]) == 0.0
        assert abs(twice.coeffs[1, idx]) == 0.0


class TestPropagator:
    def test_schrodinger_half_period(self):
        u = mode_state(schrodinger_grid(8), {1: 1.0})
        out = apply_exp_tA(u, math.pi)
        idx = np.where(u.grid.modes == 1)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(-1.0, abs=1e-15)

    def test_wave_quarter_period(self):
        u = mode_state(wave_grid(8), {1: (1.0, 0.0)})
        out = apply_exp_tA(u, math.pi / 2)
        idx = np.where(u.grid.modes == 1)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(0.0, abs=1e-15)
        assert out.coeffs[1, idx] == pytest.approx(-1.0, abs=1e-15)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(1)
        u = random_state(wave_grid(16), rng)
        assert np.array_equal(apply_exp_tA(u, 0.0).coeffs, u.coeffs)

    def test_jordan_mode_secular_term(self):
        u = mode_state(wave_grid(8), {0: (1.0, 2.0)})
        out = apply_exp_tA(u, 0.5)
        idx = np.where(u.grid.modes == 0)[0][0]
        assert out.coeffs[0, idx] == pytest.approx(2.0, abs=0)
        assert out.coeffs[1, idx] == pytest.approx(2.0, abs=0)

    @pytest.mark.parametrize("grid", [schrodinger_grid(16), wave_grid(16)])
    def test_semigroup_property(self, grid):
        rng = np.random.default_rng(2)
        u = random_state(grid, rng)
        lhs = apply_exp_tA(apply_exp_tA(u, 0.3), 0.45)
        rhs = apply_exp_tA(u, 0.75)
        assert base_norm(lhs - rhs) < 1e-12 * base_norm(u)


class TestStageResolvent:
    def test_midpoint_schrodinger_closed_form(self):
        grid = schrodinger_grid(8)
        rhs = StageSet(grid, np.zeros((1, 1, 8), dtype=complex))
        idx = np.where(grid.modes == 1)[0][0]
        rhs.data[0, 0, idx] = 1.0
        w = solve_stage_resolvent(rhs, gauss_legendre(1), 0.1)
        assert w.data[0, 0, idx] == pytest.approx(1 / (1 + 0.05j), abs=1e-15)

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(3)
        grid = wave_grid(16)
        data = rng.standard_normal((2, 2, 16)) + 1j * rng.standard_normal((2, 2, 16))
        rhs = StageSet(grid, data)
        out = solve_stage_resolvent(rhs, gauss_legendre(2), 0.0)
        assert np.max(np.abs(out.data - rhs.data)) < 1e-15

    @pytest.mark.parametrize("mode", [1, 3, 7])
    def test_midpoint_wave_against_dense_solve(self, mode):
        grid = wave_grid(16)
        h = 0.2
        rhs = StageSet(grid, np.zeros((1, 2, 16), dtype=complex))
        idx = np.where(grid.modes == mode)[0][0]
        rhs.data[0, :, idx] = [1.0, 0.0]
        w = solve_stage_resolvent(rhs, gauss_legendre(1), h)
        block = np.array([[0.0, 1.0], [-float(mode) ** 2, 0.0]])
        expected = np.linalg.solve(np.eye(2) - (h / 2) * block, np.array([1.0, 0.0]))
        assert w.data[0, :, idx] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("grid", [schrodinger_grid(32), wave_grid(32)])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_resolvent_identity(self, grid, s):
        # (I - h a A)^{-1} = I + h a A (I - h a A)^{-1}
        rng = np.random.default_rng(4)
        t = gauss_legendre(s)
        h = 0.07
        data = rng.standard_normal((s, grid.components, grid.n)).astype(complex)
        rhs = StageSet(grid, data)
        w = solve_stage_resolvent(rhs, t, h)
        aw = np.einsum(
            "ij,jcn->icn", t.a, np.stack([apply_A(w.stage(j)).coeffs for j in range(s)])
        )
        defect = np.max(np.abs(w.data - (rhs.data + h * aw)))
        assert defect < 1e-11

    def test_repeated_calls_build_fresh_equal_arrays(self):
        grid = wave_grid(16)
        t = gauss_legendre(2)
        first = step_matrices(t, 0.01, grid)
        again = step_matrices(t, 0.01, grid)
        for before, after in zip(first, again):
            assert not np.shares_memory(before, after)
            assert before.tobytes() == after.tobytes()


def complex_step_matrices(t, h, grid):
    """The fully complex construction over every mode, kept as the
    reference that the distinct-symbol build must reproduce bit for bit."""
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
    return stage_inv, update


ALL_GRID_KINDS = [(eq, bc) for eq in ("schrodinger", "wave")
                  for bc in ("periodic", "dirichlet", "neumann")]


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
        for n in (16, 256, 1024):
            grid = SpectralGrid(equation, bc, n - (bc != "periodic"))
            for s in range(1, 7):
                t = gauss_legendre(s)
                for h in (1e-3, 0.37, 2.5):
                    built = step_matrices(t, h, grid)
                    for got, want in zip(built, complex_step_matrices(t, h, grid)):
                        assert got.dtype == want.dtype == complex
                        assert got.shape == want.shape
                        # bytes compare the signs of zero parts too
                        assert got.tobytes() == want.tobytes(), (n, s, h)

    def test_wave_symbol_blocks_are_real(self):
        assert wave_grid(16).symbol_blocks().dtype == np.float64
        assert schrodinger_grid(16).symbol_blocks().dtype == complex

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
            step_matrices(t, h, schrodinger_grid(n, bc))
        assert info.value.where == mode


class TestUpdateMap:
    def test_midpoint_schrodinger_rational_form(self):
        grid = schrodinger_grid(8)
        u = mode_state(grid, {2: 1.0})
        h = 0.05
        out = apply_S_hA(u, gauss_legendre(1), h)
        idx = np.where(grid.modes == 2)[0][0]
        z = h * (-1j * 4.0)
        assert out.coeffs[0, idx] == pytest.approx((1 + z / 2) / (1 - z / 2), abs=1e-14)
        assert abs(out.coeffs[0, idx]) == pytest.approx(1.0, abs=1e-14)

    def test_zero_step_is_identity(self):
        rng = np.random.default_rng(6)
        u = random_state(schrodinger_grid(16), rng)
        out = apply_S_hA(u, gauss_legendre(2), 0.0)
        assert np.max(np.abs(out.coeffs - u.coeffs)) < 1e-15

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_unimodular_on_schrodinger_spectrum(self, s):
        # discrete normal-operator stability: modulus one per mode
        grid = schrodinger_grid(128)
        t = gauss_legendre(s)
        for h in (1e-3, 1e-2, 1e-1, 1.0):
            _, update = step_matrices(t, h, grid)
            assert np.max(np.abs(np.abs(update[:, 0, 0]) - 1.0)) < 1e-14


class TestScaleNorms:
    def test_rung_zero_is_base_norm(self):
        rng = np.random.default_rng(7)
        u = random_state(wave_grid(16), rng)
        assert sobolev_norm(u, 0) == pytest.approx(base_norm(u), abs=0)

    def test_single_mode_values(self):
        u = mode_state(schrodinger_grid(8), {1: 1.0})
        assert sobolev_norm(u, 0) == pytest.approx(math.sqrt(2 * math.pi), abs=1e-14)
        assert sobolev_norm(u, 1) == pytest.approx(math.sqrt(4 * math.pi), abs=1e-14)

    @pytest.mark.parametrize("grid", [schrodinger_grid(32), wave_grid(32)])
    def test_operator_maps_one_rung_down(self, grid):
        rng = np.random.default_rng(8)
        for _ in range(100):
            u = random_state(grid, rng)
            k = int(rng.integers(0, 7))
            assert sobolev_norm(apply_A(u), k) <= sobolev_norm(u, k + 1)

    def test_rungs_are_monotone(self):
        rng = np.random.default_rng(9)
        u = random_state(schrodinger_grid(16), rng)
        norms = [sobolev_norm(u, k) for k in range(7)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_scale_cap_enforced(self):
        u = mode_state(schrodinger_grid(8), {1: 1.0})
        with pytest.raises(ValueError):
            sobolev_norm(u, 9)
        with pytest.raises(ValueError):
            sobolev_norm(u, 3, k_max=2)


class TestStateHygiene:
    def test_hermitian_symmetry_of_real_fields(self):
        rng = np.random.default_rng(10)
        grid = wave_grid(16)
        state = grid.transform(rng.standard_normal((2, 16)))
        assert hermitian_symmetry_defect(state) < 1e-12
        # symmetry survives the linear flow and the update map
        assert hermitian_symmetry_defect(apply_exp_tA(state, 0.37)) < 1e-12
        assert hermitian_symmetry_defect(apply_S_hA(state, gauss_legendre(2), 0.1)) < 1e-12

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        grid = wave_grid(16)
        state = random_state(grid, rng)
        path = tmp_path / "state.csv"
        state.to_csv(path)
        again = State.from_csv(grid, path)
        assert np.array_equal(state.coeffs, again.coeffs)

    def test_grid_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        u = random_state(wave_grid(16), rng)
        v = random_state(wave_grid(32), rng)
        with pytest.raises(ValueError):
            _ = u + v
