"""Spectral grids, modal states, and exact per-mode realizations of the
linear part of the evolution.

The linear operator acts diagonally (Schrodinger, scalar symbol
``-i k^2`` per mode) or block-diagonally (wave as a first-order system,
2x2 block ``M = [[0, 1], [-k^2, 0]]`` with eigenvalues +-ik).  Every
function of A the package applies -- A itself, the semigroup e^{tA}, and
a step's stage resolvent ``(I - h a (x) A)^{-1}`` and update ``S(hA)`` --
comes from one evaluator, ``_symbol_function``: f at one eigenvalue per
distinct symbol, taken as is for a Schrodinger mode and, since M^2 =
-k^2 I, as ``Re f (x) I + (Im f / k) (x) M`` for a wave mode.  The
semigroup is exact and convergence studies see time-discretization
error only.  The stage resolvent is the only function of A that needs
a matrix inverse per symbol (``tableau._resolvent``); the stability
sweep (``harness.stability_growth``) reads S at the eigenvalues
(``_eigenvalues``) from the tableau's stability polynomials instead.

Mode index sets: periodic k in {-n/2+1, ..., n/2}; Dirichlet (sine)
k in {1, ..., n}; Neumann (cosine) k in {0, ..., n-1}.  For the periodic
and Neumann wave systems the k = 0 block is nilpotent and generates the
familiar secular (linear-in-time) drift; the evaluator covers it with
f'(0) in place of Im f / k.

Transforms all run on ``numpy.fft``.  Periodic grids use the complex FFT.
Neumann grids take DCT-I as the real FFT of the length-2(n-1) even
extension.  Dirichlet grids with n <= 256 apply DST-I as a product with
the grid's cached ``2 sin(pi j k / (n+1))`` matrix; larger ones take the
real FFT of the length-2(n+1) odd extension, which is slow when 2(n+1)
has a large prime factor (n = 256: 2 x 257).  Either way real data --
the coefficients and fields of a wave state on a sine or cosine grid --
take one real call, and complex data one real call on the stacked
(real, imaginary) rows.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularResolventError
from .tableau import ButcherTableau, _resolvent

DEFAULT_SCALE_CAP = 8

# Largest Dirichlet grid whose DST-I runs as a dense matrix product: the
# benchmark's Dirichlet run (n = 256) is the only size measured end to
# end.  There numpy's length-514 real FFT takes the slow Bluestein path
# (two rows: 86 us against 22 us for the product), and the O(n^2)
# product loses to the FFT at n = 511 and 512.
_DENSE_DST1_MAX_N = 256

# Largest grid size, 1,024 times the largest any study or benchmark runs.
_MAX_MODES = 2**20


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
        try:
            operator.index(self.n)
        except TypeError:
            raise ValueError(f"grid size n must be an integer, got {self.n!r}") from None
        if self.n > _MAX_MODES:
            raise ValueError(f"grid size n must be at most {_MAX_MODES}, got {self.n!r}")
        if self.bc == "periodic":
            if self.n < 4 or self.n % 2:
                raise ValueError("periodic grids require even n >= 4")
        elif self.n < 2:
            raise ValueError("need at least two modes")

    @property
    def components(self) -> int:
        return 2 if self.equation == "wave" else 1

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

    # -- transforms -------------------------------------------------------

    def transform_array(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of raw physical values (..., n), batched.

        Complex on a periodic grid; on a sine or cosine grid real values
        give real (float64) coefficients, complex values complex ones.
        """
        real = self.bc != "periodic" and not np.iscomplexobj(values)
        vals = np.asarray(values, dtype=float if real else complex)
        if vals.shape[-1] != self.n:
            raise ValueError(f"last axis must have length {self.n}")
        return self._transform(vals)

    def _transform(self, vals: np.ndarray) -> np.ndarray:
        """``transform_array``'s kernel: float64 or complex128 values
        (..., n), complex on a periodic grid, taken as they are."""
        if self.bc == "periodic":
            return np.fft.fft(vals, axis=-1) / self.n
        # Scaled by the reciprocal: numpy divides complex data by a real
        # scalar that way, so real values come out bit for bit as the real
        # part of the same values taken as complex.
        if self.bc == "dirichlet":
            return _complex_dst1(vals, self._sine_matrix) * (1 / (self.n + 1))
        coeffs = _complex_dct1(vals) * (1 / (self.n - 1))
        coeffs[..., 0] /= 2
        coeffs[..., -1] /= 2
        return coeffs


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _complex_dst1(vals, sine=None):
    """DST-I of real or complex data as one real call (``_on_parts``); each
    row comes out bit for bit as its own transform would.

    ``sine`` is a grid's ``_sine_matrix``: when given, the transform is a
    product with it, taken with each row as an (n, 1) column so that
    numpy computes every row on its own with a BLAS matrix-vector call (a
    product with the rows as one matrix rounds a row differently
    depending on how many rows come with it); when None, the real FFT of
    the odd extension ``[0, x, 0, -x reversed]`` of length 2(n+1), whose
    negated imaginary parts 1..n are the transform (FFTW's RODFT00).
    The dense path's last bits come from the installed BLAS kernel, so
    they can differ between CPUs, BLAS builds and thread settings.  It
    is faster than the FFT where 2(n+1) has a large prime factor (two
    rows, 2-core x86_64: n = 256 22 us against 86 us) and slower at some
    smooth n.
    """
    if sine is None:
        return _on_parts(_dst1, vals)
    return _on_parts(lambda rows: np.matmul(sine, rows[..., None])[..., 0], vals)


def _complex_dct1(vals):
    return _on_parts(_dct1, vals)


def _on_parts(real_transform, vals):
    """Apply ``real_transform`` in one call: to real ``vals`` as they are
    (float64 out), to complex ``vals`` on their stacked (real, imag) rows,
    rejoining the two halves as complex data."""
    if not np.iscomplexobj(vals):
        return real_transform(vals)
    parts = real_transform(np.stack([vals.real, vals.imag]))
    out = np.empty(parts.shape[1:], dtype=complex)
    out.real = parts[0]
    out.imag = parts[1]
    return out


def _dst1(rows):
    """Unnormalized DST-I, ``2 sum_j x_j sin(pi (j+1)(k+1) / (n+1))``,
    along the last axis of real rows."""
    n = rows.shape[-1]
    ext = np.zeros(rows.shape[:-1] + (2 * (n + 1),))
    ext[..., 1 : n + 1] = rows
    ext[..., n + 2 :] = -rows[..., ::-1]
    return -np.fft.rfft(ext, axis=-1).imag[..., 1 : n + 1]


def _dct1(rows):
    """Unnormalized DCT-I, ``x_0 + (-1)^k x_{n-1} + 2 sum_{0<j<n-1} x_j
    cos(pi j k / (n-1))``, along the last axis of real rows: the real
    FFT of the even extension ``[x, x[n-2:0:-1]]`` of length 2(n-1)
    (FFTW's REDFT00)."""
    n = rows.shape[-1]
    ext = np.concatenate([rows, rows[..., n - 2 : 0 : -1]], axis=-1)
    return np.fft.rfft(ext, axis=-1).real[..., :n]


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

    def __add__(self, other: "State") -> "State":
        _check_same_grid(self, other)
        return State(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "State") -> "State":
        _check_same_grid(self, other)
        return State(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "State":
        return State(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


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


# -- linear operator actions ------------------------------------------------


def apply_A(u: State) -> State:
    """Apply the linear symbol mode by mode."""
    return State(u.grid, _apply_update(_generator(u.grid), u.coeffs))


def apply_exp_tA(u: State, t: float) -> State:
    """Apply the exact propagator of the linear part for time t."""
    if not np.isfinite(t):
        raise ValueError("propagation time must be finite")
    propagator = np.exp(t * _eigenvalues(u.grid)[1])[:, None, None]
    return State(u.grid, _apply_update(_symbol_function(u.grid, propagator, t), u.coeffs))


# -- norms -------------------------------------------------------------------


def base_norm_sq(u: State) -> float:
    """Squared base-space norm: discrete L2, or H1 x L2 for the wave system."""
    return float(_base_norm_sq_rows(u.grid, u.coeffs))


def _base_norm_sq_rows(grid: SpectralGrid, coeffs: np.ndarray) -> np.ndarray:
    """``base_norm_sq`` of every state in a (..., components, n) array."""
    w = grid.weights
    if grid.components == 1:
        return (w * np.abs(coeffs[..., 0, :]) ** 2).sum(axis=-1)
    return (
        w * (grid._h1_factor * np.abs(coeffs[..., 0, :]) ** 2 + np.abs(coeffs[..., 1, :]) ** 2)
    ).sum(axis=-1)


def base_norm(u: State) -> float:
    return math.sqrt(base_norm_sq(u))


def sobolev_norm(u: State, k: int) -> float:
    """Scale norm of rung k: the graph norm of the k-th operator power.

    Uses the binomial closed form of the recursion
    ``|u|_{k}^2 = |Au|_{k-1}^2 + |u|_{k-1}^2``, i.e.
    ``sum_j C(k, j) |A^j u|_0^2``.
    """
    if not 0 <= k <= DEFAULT_SCALE_CAP:
        raise ValueError(f"scale index must satisfy 0 <= k <= {DEFAULT_SCALE_CAP}, got {k}")
    total = 0.0
    v = u
    for j in range(k + 1):
        total += math.comb(k, j) * base_norm_sq(v)
        if j < k:
            v = apply_A(v)
    return math.sqrt(total)


# -- stage resolvent and update map -------------------------------------------


def step_matrices(t: ButcherTableau, h: float, grid: SpectralGrid):
    """Per-mode stage resolvent and update matrices for step size h.

    Returns (stage_inv, update), shapes (n, s*c, s*c) and (n, c, c), both
    complex, in storage order: stage_inv realizes ``(I - h a (x) A_k)^{-1}``
    and update realizes ``S(h A_k) = I + h sum_j b_j A_k (stage_inv 1)_j``.
    They are ``_symbol_function`` of X = (I - h a lambda)^{-1} (slope h a)
    and of S(h lambda) (slope h sum(b)), both read once per distinct
    symbol's eigenvalue lambda (``_eigenvalues``) from one batched s x s
    inverse (``tableau._resolvent``); a SingularResolventError names the
    first singular mode, and h, and arithmetic that overflows (an h far
    out of range) a ValueError naming h.  Nothing is kept: a repeated
    call returns fresh arrays, same bits.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            x, sigma, singular = _resolvent(t, h, _eigenvalues(grid)[1])
            _check_singular(grid, singular, h)
            return (
                _symbol_function(grid, x, h * t.a),
                _symbol_function(grid, sigma[:, None, None], h * t.b.sum()),
            )
    except FloatingPointError as exc:
        raise ValueError(f"step matrices for h={h!r} are not finite ({exc})") from None


def _eigenvalues(grid: SpectralGrid):
    """k and the eigenvalue lambda of each distinct symbol, in
    ``grid._distinct_symbols[0]`` order: -i k^2 (Schrodinger) or ik (wave,
    whose block M has eigenvalues +-ik)."""
    k = grid.modes[grid._distinct_symbols[0]].astype(float)
    return k, -1j * k**2 if grid.components == 1 else 1j * k


def _check_singular(grid: SpectralGrid, singular: np.ndarray, h: float):
    """Raise SingularResolventError naming the first distinct symbol's mode
    (``_eigenvalues`` order) flagged in ``singular``, and h."""
    if singular.any():
        first = grid._distinct_symbols[0]
        raise SingularResolventError(int(grid.modes[first[int(np.argmax(singular))]]), h)


def _generator(grid: SpectralGrid) -> np.ndarray:
    """Per-mode blocks of A itself: f(lambda) = lambda, slope 1."""
    return _symbol_function(grid, _eigenvalues(grid)[1][:, None, None], 1.0)


def _symbol_function(grid: SpectralGrid, f: np.ndarray, slope) -> np.ndarray:
    """Per-mode blocks of f(A), complex (n, r c, r c) in storage order,
    from the values f (m, r, r) of a real function f at each distinct
    symbol's eigenvalue (``_eigenvalues``) and ``slope`` = f'(0).

    Schrodinger: A acts on a mode by the scalar -i k^2, so f(A) is f
    itself.  Wave: M = [[0, 1], [-k^2, 0]] has M^2 = -k^2 I, so f(M) =
    Re f(ik) (x) I + (Im f(ik) / k) (x) M.  At k = 0, M is nilpotent,
    Im f(ik) / k tends to f'(0) = ``slope``, and Re f is already f(0).
    """
    inverse = grid._distinct_symbols[1]
    if grid.components == 1:
        return f[inverse]
    k = _eigenvalues(grid)[0]
    blocks = np.zeros((len(k), 2, 2))
    blocks[:, 0, 1] = 1.0
    blocks[:, 1, 0] = -(k**2)
    zero = (k == 0)[:, None, None]
    im = np.where(zero, slope, f.imag / np.where(zero, 1.0, k[:, None, None]))
    kron = f.real[:, :, None, :, None] * np.eye(2)[:, None, :]
    kron = kron + im[:, :, None, :, None] * blocks[:, None, :, None, :]
    return kron.reshape(len(k), 2 * f.shape[1], -1).astype(complex)[inverse]


def _apply_stage_inv(stage_inv: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Apply per-mode (s*c, s*c) blocks to stage data (..., s, c, n): the
    block kernel ``_apply_update`` on the data viewed as (..., s*c, n)."""
    rows = data.reshape(data.shape[:-3] + (-1, data.shape[-1]))
    return _apply_update(stage_inv, rows).reshape(data.shape)


def _apply_update(update: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Apply per-mode (r, r) blocks to data (..., r, n), mode by mode: the
    one block kernel of A, e^{tA}, the update S(hA) and the stage inverse."""
    return np.ascontiguousarray(np.einsum("kpq,...qk->...pk", update, coeffs))
