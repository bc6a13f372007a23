"""Spectral grids, modal states, and exact per-mode realizations of the
linear part of the evolution.

The linear operator acts diagonally (Schrodinger, scalar symbol
``-i k^2`` per mode) or block-diagonally (wave as a first-order system,
2x2 block ``[[0, 1], [-k^2, 0]]`` per mode).  This makes the semigroup,
the stage resolvent ``(I - h a (x) A)^{-1}`` and the update map
``S(hA)`` exact small-matrix computations, so convergence studies see
time-discretization error only.

Mode index sets: periodic k in {-n/2+1, ..., n/2}; Dirichlet (sine)
k in {1, ..., n}; Neumann (cosine) k in {0, ..., n-1}.  For the periodic
wave system the k = 0 block is nilpotent and generates the familiar
secular (linear-in-time) drift; the exact formulas below cover it.

Transforms: periodic grids use numpy's FFT, Neumann grids scipy's DCT-I.
Dirichlet grids with n <= 256 apply DST-I as a product with the grid's
cached ``2 sin(pi j k / (n+1))`` matrix; larger ones call scipy's DST-I,
whose length-2(n+1) FFT is slow when 2(n+1) has a large prime factor
(n = 256: 2 x 257).  Either way a complex transform is one real call on
the stacked (real, imaginary) rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import dct, dst

from .errors import SingularResolventError
from .tableau import ButcherTableau

DEFAULT_SCALE_CAP = 8

# Largest Dirichlet grid whose DST-I runs as a dense matrix product: the
# benchmark's Dirichlet run (n = 256) is the only size measured end to
# end, and the O(n^2) product loses to the FFT at n = 511 and 512.
_DENSE_DST1_MAX_N = 256


@dataclass(frozen=True)
class SpectralGrid:
    """A one-dimensional spectral grid with a per-mode linear symbol.

    Attributes
    ----------
    equation : str
        "schrodinger" (one complex component) or "wave" (two components).
    bc : str
        "periodic", "dirichlet", or "neumann".
    n : int
        Number of retained modes (= number of collocation points).
    """

    equation: str
    bc: str
    n: int

    def __post_init__(self):
        if self.equation not in ("schrodinger", "wave"):
            raise ValueError(f"unknown equation kind {self.equation!r}")
        if self.bc not in ("periodic", "dirichlet", "neumann"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.bc == "periodic":
            if self.n < 4 or self.n % 2:
                raise ValueError("periodic grids require even n >= 4")
        elif self.n < 2:
            raise ValueError("need at least two modes")

    @property
    def components(self) -> int:
        return 2 if self.equation == "wave" else 1

    @property
    def length(self) -> float:
        return 2 * math.pi if self.bc == "periodic" else math.pi

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer mode numbers, in transform storage order (read-only)."""
        if self.bc == "periodic":
            k = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
            k[self.n // 2] = self.n // 2  # label Nyquist +n/2; symbols are even in k
        elif self.bc == "dirichlet":
            k = np.arange(1, self.n + 1, dtype=np.int64)
        else:
            k = np.arange(self.n, dtype=np.int64)
        return _read_only(k)

    @property
    def nodes(self) -> np.ndarray:
        """Collocation points matching the transform convention."""
        if self.bc == "periodic":
            return 2 * math.pi * np.arange(self.n) / self.n
        if self.bc == "dirichlet":
            return math.pi * np.arange(1, self.n + 1) / (self.n + 1)
        return math.pi * np.arange(self.n) / (self.n - 1)

    @cached_property
    def weights(self) -> np.ndarray:
        """Per-mode Parseval weights of the continuum L2 norm (read-only)."""
        w = np.full(self.n, 2 * math.pi if self.bc == "periodic" else math.pi / 2)
        if self.bc == "neumann":
            w[0] = math.pi
        return _read_only(w)

    @cached_property
    def _distinct_symbols(self) -> tuple[np.ndarray, np.ndarray]:
        """First storage index of each distinct ``k^2``, ascending, and per
        mode the position of its representative.  Symbols are even in k,
        so on a periodic grid mode -k (stored after k = 0, ..., n/2) shares
        the block of k: n/2 + 1 distinct symbols.  Other grids have n.
        """
        if self.bc != "periodic":
            return (_read_only(np.arange(self.n)),) * 2
        return _read_only(np.arange(self.n // 2 + 1)), _read_only(np.abs(self.modes))

    @cached_property
    def _h1_factor(self) -> np.ndarray:
        """``k^2 + 1`` per mode: the H1 factor of the wave base norm."""
        return _read_only(self.modes.astype(float) ** 2 + 1.0)

    @cached_property
    def _sine_matrix(self) -> np.ndarray | None:
        """The DST-I matrix ``2 sin(pi j k / (n+1))``, j, k = 1..n, on a
        Dirichlet grid with n <= ``_DENSE_DST1_MAX_N``; None elsewhere.
        Read-only.  The angles are reduced exactly to ``j k mod 2(n+1)``
        and read from a table of the 2(n+1) sines; the n x n products are
        int32 (they fit, since n <= 256), which keeps the build's
        temporaries at half the matrix's size.
        """
        if self.bc != "dirichlet" or self.n > _DENSE_DST1_MAX_N:
            return None
        period = 2 * (self.n + 1)
        table = 2 * np.sin(np.pi * np.arange(period) / (self.n + 1))
        k = np.arange(1, self.n + 1, dtype=np.int32)
        angles = np.multiply.outer(k, k)
        angles %= period
        return _read_only(table[angles])

    def symbol_blocks(self) -> np.ndarray:
        """Per-mode symbol of the linear operator: (n, c, c), complex for
        the Schrodinger equation and real for the wave system."""
        k = self.modes.astype(float)
        if self.equation == "schrodinger":
            return (-1j * k**2).reshape(self.n, 1, 1)
        blocks = np.zeros((self.n, 2, 2))
        blocks[:, 0, 1] = 1.0
        blocks[:, 1, 0] = -(k**2)
        return blocks

    # -- transforms -------------------------------------------------------

    def transform(self, values) -> "State":
        """Map physical collocation values to a modal State.

        ``values`` has shape (n,) for one component or (components, n).
        """
        vals = np.asarray(values)
        if vals.ndim == 1:
            vals = vals[None, :]
        if vals.shape != (self.components, self.n):
            raise ValueError(
                f"expected values of shape ({self.components}, {self.n}), got {vals.shape}"
            )
        return State(self, self.transform_array(vals))

    def transform_array(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of raw physical values (..., n), batched."""
        vals = np.asarray(values, dtype=complex)
        if vals.shape[-1] != self.n:
            raise ValueError(f"last axis must have length {self.n}")
        if self.bc == "periodic":
            return np.fft.fft(vals, axis=-1) / self.n
        if self.bc == "dirichlet":
            return _complex_dst1(vals, self._sine_matrix) / (self.n + 1)
        coeffs = _complex_dct1(vals) / (self.n - 1)
        coeffs[..., 0] /= 2
        coeffs[..., -1] /= 2
        return coeffs

    def zero_state(self) -> "State":
        return State(self, np.zeros((self.components, self.n), dtype=complex))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _complex_dst1(vals, sine=None):
    """DST-I of complex data as one real call on the stacked (real, imag)
    rows; each row comes out bit for bit as its own transform would.

    ``sine`` is a grid's ``_sine_matrix``: when given, the transform is a
    product with it, taken with each row as an (n, 1) column so that
    numpy computes every row on its own with a BLAS matrix-vector call (a
    product with the rows as one matrix rounds a row differently
    depending on how many rows come with it); when None, scipy's DST-I.
    The dense path's last bits come from the installed BLAS kernel, so
    they can differ between CPUs, BLAS builds and thread settings.  It
    is faster than scipy where 2(n+1) has a large prime factor (two rows,
    2-core x86_64: n = 256 19 us against 62 us) and slower at some smooth
    n (n = 255: 18 us against 14 us).
    """
    rows = np.stack([vals.real, vals.imag])
    if sine is None:
        parts = dst(rows, type=1, axis=-1)
    else:
        parts = np.matmul(sine, rows[..., None])[..., 0]
    return parts[0] + 1j * parts[1]


def _complex_dct1(vals):
    parts = dct(np.stack([vals.real, vals.imag]), type=1, axis=-1)
    return parts[0] + 1j * parts[1]


def schrodinger_grid(n: int, bc: str = "periodic") -> SpectralGrid:
    return SpectralGrid("schrodinger", bc, n)


def wave_grid(n: int, bc: str = "periodic") -> SpectralGrid:
    return SpectralGrid("wave", bc, n)


@dataclass(frozen=True)
class State:
    """Modal coefficients of one solution snapshot on a grid.

    ``coeffs`` has shape (components, n) and is treated as immutable;
    all operations return fresh states.
    """

    grid: SpectralGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.grid.components, self.grid.n):
            raise ValueError(
                f"coefficients must have shape ({self.grid.components}, {self.grid.n})"
            )
        object.__setattr__(self, "coeffs", c)

    def copy(self) -> "State":
        return State(self.grid, self.coeffs.copy())

    def __add__(self, other: "State") -> "State":
        _check_same_grid(self, other)
        return State(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "State") -> "State":
        _check_same_grid(self, other)
        return State(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "State":
        return State(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def to_physical(self) -> np.ndarray:
        """Collocation values; shape (n,) for one component, else (2, n)."""
        vals = inverse_transform_array(self.grid, self.coeffs)
        return vals[0] if self.grid.components == 1 else vals

    def to_csv(self, path):
        """Dump coefficients as rows mode, re, im per component."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            header = ["mode"]
            for comp in range(self.grid.components):
                header += [f"re{comp}", f"im{comp}"]
            writer.writerow(header)
            for i, k in enumerate(self.grid.modes):
                row = [int(k)]
                for comp in range(self.grid.components):
                    row += [
                        repr(float(self.coeffs[comp, i].real)),
                        repr(float(self.coeffs[comp, i].imag)),
                    ]
                writer.writerow(row)

    @staticmethod
    def from_csv(grid: SpectralGrid, path) -> "State":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != grid.n:
            raise ValueError(f"expected {grid.n} coefficient rows, got {len(rows)}")
        coeffs = np.zeros((grid.components, grid.n), dtype=complex)
        for i, row in enumerate(rows):
            if int(row[0]) != int(grid.modes[i]):
                raise ValueError(f"mode mismatch at row {i}: {row[0]} vs {grid.modes[i]}")
            for comp in range(grid.components):
                coeffs[comp, i] = float(row[1 + 2 * comp]) + 1j * float(row[2 + 2 * comp])
        return State(grid, coeffs)


def _check_same_grid(u, v):
    if u.grid != v.grid:
        raise ValueError("states live on different grids")


def inverse_transform_array(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """Modal coefficients (components, n) to physical values (components, n)."""
    if grid.bc == "periodic":
        return np.fft.ifft(coeffs, axis=-1) * grid.n
    if grid.bc == "dirichlet":
        return _complex_dst1(coeffs, grid._sine_matrix) / 2
    half = coeffs.copy()
    half[..., 1:-1] /= 2
    return _complex_dct1(half)


@dataclass(frozen=True)
class StageSet:
    """The s stage vectors of one implicit step, on a common grid.

    ``data`` has shape (s, components, n).
    """

    grid: SpectralGrid
    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=complex)
        if d.ndim != 3 or d.shape[1:] != (self.grid.components, self.grid.n):
            raise ValueError("stage data must have shape (s, components, n)")
        object.__setattr__(self, "data", d)

    @property
    def s(self) -> int:
        return self.data.shape[0]

    def stage(self, j: int) -> State:
        return State(self.grid, self.data[j])

    @staticmethod
    def broadcast(u: State, s: int) -> "StageSet":
        return StageSet(u.grid, np.broadcast_to(u.coeffs, (s,) + u.coeffs.shape).copy())


# -- linear operator actions ------------------------------------------------


def apply_A(u: State) -> State:
    """Apply the linear symbol mode by mode."""
    k = u.grid.modes.astype(float)
    if u.grid.components == 1:
        return State(u.grid, (-1j * k**2) * u.coeffs)
    out = np.empty_like(u.coeffs)
    out[0] = u.coeffs[1]
    out[1] = -(k**2) * u.coeffs[0]
    return State(u.grid, out)


def apply_exp_tA(u: State, t: float) -> State:
    """Apply the exact propagator of the linear part for time t."""
    if not np.isfinite(t):
        raise ValueError("propagation time must be finite")
    k = u.grid.modes.astype(float)
    if u.grid.components == 1:
        return State(u.grid, np.exp(-1j * k**2 * t) * u.coeffs)
    zero = k == 0
    safe_k = np.where(zero, 1.0, k)
    cos_kt = np.cos(k * t)
    sin_over_k = np.where(zero, t, np.sin(safe_k * t) / safe_k)
    k_sin = np.where(zero, 0.0, safe_k * np.sin(safe_k * t))
    out = np.empty_like(u.coeffs)
    out[0] = cos_kt * u.coeffs[0] + sin_over_k * u.coeffs[1]
    out[1] = -k_sin * u.coeffs[0] + cos_kt * u.coeffs[1]
    return State(u.grid, out)


# -- norms -------------------------------------------------------------------


def base_norm_sq(u: State) -> float:
    """Squared base-space norm: discrete L2, or H1 x L2 for the wave system."""
    return float(_base_norm_sq_rows(u.grid, u.coeffs))


def _base_norm_sq_rows(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """``base_norm_sq`` of every state in a (..., components, n) array."""
    w = grid.weights
    if grid.components == 1:
        return np.sum(w * np.abs(coeffs[..., 0, :]) ** 2, axis=-1)
    return np.sum(
        w * (grid._h1_factor * np.abs(coeffs[..., 0, :]) ** 2 + np.abs(coeffs[..., 1, :]) ** 2),
        axis=-1,
    )


def base_norm(u: State) -> float:
    return math.sqrt(base_norm_sq(u))


def sobolev_norm(u: State, k: int, k_max: int = DEFAULT_SCALE_CAP) -> float:
    """Scale norm of rung k: the graph norm of the k-th operator power.

    Uses the binomial closed form of the recursion
    ``|u|_{k}^2 = |Au|_{k-1}^2 + |u|_{k-1}^2``, i.e.
    ``sum_j C(k, j) |A^j u|_0^2``.
    """
    if not 0 <= k <= k_max:
        raise ValueError(f"scale index must satisfy 0 <= k <= {k_max}, got {k}")
    total = 0.0
    v = u
    for j in range(k + 1):
        total += math.comb(k, j) * base_norm_sq(v)
        if j < k:
            v = apply_A(v)
    return math.sqrt(total)


def hermitian_symmetry_defect(u: State) -> float:
    """Max deviation from conj-symmetry of coefficients (periodic grids).

    Real-valued physical fields have coefficients with c[-k] = conj(c[k]).
    """
    if u.grid.bc != "periodic":
        raise ValueError("Hermitian symmetry is a periodic-grid notion")
    c = u.coeffs
    flipped = np.conj(np.roll(c[:, ::-1], 1, axis=-1))  # index of -k mod n
    return float(np.max(np.abs(c - flipped)))


# -- stage resolvent and update map -------------------------------------------


def _build_symbol_matrices(t: ButcherTableau, h: float, grid: SpectralGrid):
    """Inverse stage blocks and update matrices per distinct symbol.

    Returns (stage_inv, update) with shapes (m, s*c, s*c) and (m, c, c),
    both complex, for the m representatives ``grid._distinct_symbols[0]``
    in that order: stage_inv realizes ``(I - h a (x) A_k)^{-1}`` and
    update realizes ``S(h A_k) = I + h sum_j b_j A_k (stage_inv 1)_j``.
    The wave system's real blocks keep the arithmetic real except for the
    inversion, which runs in complex so that every bit matches the fully
    complex construction (a real LU rounds differently).
    """
    first = grid._distinct_symbols[0]
    blocks = grid.symbol_blocks()[first]
    n, c = len(first), grid.components
    s = t.s
    kron = (t.a[None, :, None, :, None] * blocks[:, None, :, None, :]).reshape(n, s * c, s * c)
    m = (np.eye(s * c)[None, :, :] - h * kron).astype(complex, copy=False)
    try:
        stage_inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        dets = np.abs(np.linalg.det(m))
        mode = int(grid.modes[first[int(np.argmin(dets))]])
        raise SingularResolventError(mode) from None

    work = stage_inv if np.iscomplexobj(blocks) else stage_inv.real
    ones_block = np.tile(np.eye(c), (s, 1))  # 1 (x) I_c
    e = work @ ones_block  # (n, s*c, c)
    bsum = np.einsum("j,kjpq->kpq", t.b, e.reshape(n, s, c, c))
    update = (np.eye(c)[None, :, :] + h * (blocks @ bsum)).astype(complex, copy=False)
    return stage_inv, update


def step_matrices(t: ButcherTableau, h: float, grid: SpectralGrid):
    """Per-mode stage resolvent and update matrices for step size h.

    Returns (stage_inv, update), shapes (n, s*c, s*c) and (n, c, c): the
    matrices of ``_build_symbol_matrices`` gathered back to storage
    order.  Nothing is kept between calls: a run builds them once and
    applies them at every step.  A repeated call performs the same
    operations, so it returns fresh arrays with the same bits.
    """
    stage_inv, update = _build_symbol_matrices(t, h, grid)
    inverse = grid._distinct_symbols[1]
    return stage_inv[inverse], update[inverse]


def solve_stage_resolvent(rhs: StageSet, t: ButcherTableau, h: float) -> StageSet:
    """Solve ``(I - h a (x) A) W = rhs`` mode by mode."""
    if h < 0:
        raise ValueError("step size must be nonnegative")
    stage_inv, _ = step_matrices(t, h, rhs.grid)
    return StageSet(rhs.grid, _apply_stage_inv(stage_inv, rhs.data))


def _apply_stage_inv(stage_inv: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Apply per-mode (s*c, s*c) blocks to stage data (..., s, c, n)."""
    vec = data.reshape(data.shape[:-3] + (-1, data.shape[-1])).swapaxes(-1, -2)
    out = np.einsum("kpq,...kq->...kp", stage_inv, vec)
    return np.ascontiguousarray(out.swapaxes(-1, -2).reshape(data.shape))


def _apply_update(update: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply per-mode (c, c) update blocks to states (..., c, n)."""
    return np.ascontiguousarray(np.einsum("kpq,...qk->...pk", update, coeffs))


def apply_S_hA(u: State, t: ButcherTableau, h: float) -> State:
    """Apply the update map ``S(hA)`` of the method to a state."""
    if h < 0:
        raise ValueError("step size must be nonnegative")
    _, update = step_matrices(t, h, u.grid)
    return State(u.grid, _apply_update(update, u.coeffs))
