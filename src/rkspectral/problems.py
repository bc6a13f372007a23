"""Semilinear right-hand sides evaluated pseudospectrally.

The nonlinear part acts pointwise on physical values (a superposition
operator): inverse-transform, apply the scalar function on the
collocation grid, transform back.  For the wave system the result lands
in the velocity component as ``(0, -f(u))``; for the Schrodinger
equation it is ``-i dV/d(conj u)``.  The top third of B's spectrum is
then zeroed (2/3 rule).  The rule removes the aliasing of a quadratic
product of data in the kept band, but not of the cubic products here:
for random data filling the band on n = 64, the dealiased NLS B is off
the alias-free product's kept modes by about a fifth of their largest.
The dealiased semi-discrete system is still Hamiltonian on the band: B
is the band projection of the gradient of the collocation energy, so
the flow of data in the band is symplectic.

The integer powers in the maps are chains of products, ``u * (u * u)``
rather than ``u**3``: numpy sends a real ``u**3`` to libm ``pow``, about
20 us per 256 points against about 1 us for the products (timeit, one
Intel Xeon core), and a product chain on real data rounds like the real
part of the same chain on complex data, where ``pow`` does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import SpectralGrid, inverse_transform_array


# -- scalar nonlinearities -----------------------------------------------------


@dataclass(frozen=True)
class Nonlinearity:
    """The pointwise map f of B, its linearization and its potential.

    ``value(u)`` is f(u): for the wave system f of the displacement, for
    the Schrodinger equation the Wirtinger derivative dV/d(conj u) of
    the potential V.  ``tangent(u, v)`` is Df(u) v, the derivative
    applied to a direction.  ``potential(u)`` is the energy density: the
    antiderivative F of f with F(0) = 0 for the wave system, V for the
    Schrodinger equation.
    """

    name: str
    value: callable
    tangent: callable
    potential: callable


_WAVE_ZERO = Nonlinearity("zero", lambda u: 0 * u, lambda u, v: 0 * u * v, lambda u: 0 * u)
_WAVE_CUBIC = Nonlinearity(
    "cubic",
    lambda u: u * (u * u),
    lambda u, v: 3 * u**2 * v,
    lambda u: (u * u) * (u * u) / 4,
)
_NLS_ZERO = Nonlinearity("zero", lambda u: 0 * u, lambda u, v: 0 * v, lambda u: 0 * abs(u))
# V = |u|^4 / 2, the standard cubic case
_NLS_CUBIC = Nonlinearity(
    "cubic",
    value=lambda u: np.abs(u) ** 2 * u,
    tangent=lambda u, v: 2 * np.abs(u) ** 2 * v + u**2 * np.conj(v),
    potential=lambda u: (np.abs(u) ** 2) ** 2 / 2,
)


# -- problem definition --------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A semilinear evolution problem on a spectral grid; the grid's
    ``equation`` says which one.

    B is the nonlinearity's collocation transform with the top third of
    its modes zeroed (2/3 rule), which removes a quadratic product's
    aliasing but not a cubic's; on the kept band the dealiased system is
    still Hamiltonian.  The nonlinearity is evaluated wherever the stages
    go; a blow-up shows as a non-finite stage, which the stepper raises
    as NumericalBlowupError.
    """

    grid: SpectralGrid
    nonlinearity: Nonlinearity
    name: str = field(default="")

    def __post_init__(self):
        if not self.name:
            object.__setattr__(self, "name", f"{self.grid.equation}-{self.nonlinearity.name}")

    @cached_property
    def _aliased_modes(self) -> slice:
        """The modes ``dealias_mask(grid)`` drops, as a slice, computed once
        per problem: the top third is one run of storage indices (on a
        periodic grid the middle of the FFT order, around Nyquist)."""
        aliased = np.flatnonzero(~dealias_mask(self.grid))
        return slice(int(aliased[0]), int(aliased[-1]) + 1)


def dealias_mask(grid: SpectralGrid) -> np.ndarray:
    """Boolean mask of modes kept by the 2/3 rule (top third zeroed).  On a
    periodic grid it keeps |k| < n/3: the sum of two kept modes is below
    2n/3 in size, so it aliases only onto modes the rule drops."""
    k = np.abs(grid.modes)
    if grid.bc == "periodic":
        return 3 * k < grid.n
    return k <= (2 * int(k.max())) // 3


def _modal_B(p: ProblemSpec, values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Transform pointwise nonlinearity values (..., n) into B's component
    of an array shaped like ``like`` (..., components, n), dealiased by
    zeroing the slice ``p._aliased_modes``.

    The values come from the inverse transform of ``like``, so they are
    float64 or complex128 and go straight to the transform kernel; only
    the length is checked.  A Schrodinger B is the transform itself, with
    a component axis; a wave B is zero in the displacement component.
    """
    if like.shape[-1] != p.grid.n:
        raise ValueError(f"coefficients must have {p.grid.n} modes, got {like.shape[-1]}")
    if p.grid.equation == "wave":
        out = np.zeros_like(like)
        out[..., 1, :] = -p.grid._transform(values)
    else:
        out = (-1j * p.grid._transform(values))[..., None, :]
    out[..., p._aliased_modes] = 0.0
    return out


def evaluate_B_array(p: ProblemSpec, coeffs: np.ndarray) -> np.ndarray:
    """Batched nonlinearity: coeffs (..., components, n) -> same shape."""
    phys = inverse_transform_array(p.grid, coeffs[..., 0, :])
    return _modal_B(p, p.nonlinearity.value(phys), coeffs)


def evaluate_B_pair_array(p: ProblemSpec, pair: np.ndarray) -> np.ndarray:
    """(B(u), DB(u) v) for ``pair = (u, v)`` stacked on a leading axis.

    ``pair`` has shape (2, ..., components, n).  Both halves share one
    inverse and one forward transform; batched rows transform exactly as
    single rows, so each half equals its own evaluation bit for bit.
    """
    u_phys, v_phys = inverse_transform_array(p.grid, pair[..., 0, :])
    f = p.nonlinearity
    return _modal_B(p, np.stack([f.value(u_phys), f.tangent(u_phys, v_phys)]), pair)


# -- catalogue -----------------------------------------------------------------


# name -> (equation, boundary condition, nonlinearity)
_CATALOGUE = {
    "nls-cubic-periodic": ("schrodinger", "periodic", _NLS_CUBIC),
    "nls-linear-periodic": ("schrodinger", "periodic", _NLS_ZERO),
    "wave-cubic-periodic": ("wave", "periodic", _WAVE_CUBIC),
    "wave-linear-periodic": ("wave", "periodic", _WAVE_ZERO),
    "wave-dirichlet-compatible": ("wave", "dirichlet", _WAVE_CUBIC),
    # f(0) = 1, so B is not zero on the boundary, where u is
    "wave-dirichlet-incompatible": ("wave", "dirichlet", Nonlinearity(
        "cubic_plus_one",
        lambda u: u * (u * u) + 1.0,
        lambda u, v: 3 * u**2 * v,
        lambda u: (u * u) * (u * u) / 4 + 1.0 * u,
    )),
    "wave-neumann": ("wave", "neumann", _WAVE_CUBIC),
}


def list_problems() -> list:
    return sorted(_CATALOGUE)


def get_problem(name: str, n: int) -> ProblemSpec:
    """Build a catalogue problem on a grid of ``n`` modes."""
    if name not in _CATALOGUE:
        raise KeyError(f"unknown problem {name!r}; available: {list_problems()}")
    equation, bc, nonlinearity = _CATALOGUE[name]
    return ProblemSpec(SpectralGrid(equation, bc, n), nonlinearity, name=name)
