"""Semilinear right-hand sides evaluated pseudospectrally.

The nonlinear part acts pointwise on physical values (a superposition
operator): inverse-transform, apply the scalar function on the
collocation grid, transform back.  For the wave system the result lands
in the velocity component as ``(0, -f(u))``; for the Schrodinger
equation it is ``-i dV/d(conj u)``.  Cubic products alias onto retained
modes unless the top third of the spectrum is zeroed afterwards
(2/3 rule), which is the default here.

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


def _wave_cubic_plus_const(c: float) -> Nonlinearity:
    return Nonlinearity(
        name=f"cubic_plus_const:{c:g}",
        value=lambda u: u * (u * u) + c,
        tangent=lambda u, v: 3 * u**2 * v,
        potential=lambda u: (u * u) * (u * u) / 4 + c * u,
    )


_NONLINEARITIES = {
    "wave": {
        "zero": Nonlinearity("zero", lambda u: 0 * u, lambda u, v: 0 * u * v, lambda u: 0 * u),
        "cubic": Nonlinearity(
            "cubic",
            lambda u: u * (u * u),
            lambda u, v: 3 * u**2 * v,
            lambda u: (u * u) * (u * u) / 4,
        ),
        "quintic": Nonlinearity(
            "quintic",
            lambda u: u * ((u * u) * (u * u)),
            lambda u, v: 5 * ((u * u) * (u * u)) * v,
            # numpy divides complex data by 6 as a product with 1/6
            lambda u: (u * u) * ((u * u) * (u * u)) * (1 / 6),
        ),
    },
    "schrodinger": {
        "zero": Nonlinearity("zero", lambda u: 0 * u, lambda u, v: 0 * v, lambda u: 0 * abs(u)),
        # V = |u|^4 / 2, the standard cubic case
        "cubic": Nonlinearity(
            "cubic",
            value=lambda u: np.abs(u) ** 2 * u,
            tangent=lambda u, v: 2 * np.abs(u) ** 2 * v + u**2 * np.conj(v),
            potential=lambda u: (np.abs(u) ** 2) ** 2 / 2,
        ),
    },
}


def make_nonlinearity(equation: str, spec: str) -> Nonlinearity:
    """Resolve a nonlinearity of a grid's ``equation`` ("wave" or
    "schrodinger") by name, e.g. 'cubic' or 'cubic_plus_const:1.0'."""
    table = _NONLINEARITIES[equation]
    if spec in table:
        return table[spec]
    if equation == "wave" and spec.startswith("cubic_plus_const:"):
        c = float(spec.split(":", 1)[1])
        if not np.isfinite(c):
            raise ValueError(f"the constant of {spec!r} must be finite")
        return _wave_cubic_plus_const(c)
    raise KeyError(f"unknown {equation} nonlinearity {spec!r}; known: {sorted(table)}")


# -- problem definition --------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A semilinear evolution problem on a spectral grid; the grid's
    ``equation`` says which one.

    ``dealias`` zeroes the top third of B's modes (2/3 rule).  The
    nonlinearity is evaluated wherever the stages go; a blow-up shows as
    a non-finite stage, which the stepper raises as NumericalBlowupError.
    """

    grid: SpectralGrid
    nonlinearity: Nonlinearity
    dealias: bool = True
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
    """Boolean mask of modes kept by the 2/3 rule (top third zeroed)."""
    k = np.abs(grid.modes)
    if grid.bc == "periodic":
        return k <= grid.n // 3
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
    if p.dealias:
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
    "nls-cubic-periodic": ("schrodinger", "periodic", "cubic"),
    "nls-linear-periodic": ("schrodinger", "periodic", "zero"),
    "wave-cubic-periodic": ("wave", "periodic", "cubic"),
    "wave-linear-periodic": ("wave", "periodic", "zero"),
    "wave-dirichlet-compatible": ("wave", "dirichlet", "cubic"),
    "wave-dirichlet-incompatible": ("wave", "dirichlet", "cubic_plus_const:1.0"),
    "wave-neumann": ("wave", "neumann", "cubic"),
}


def list_problems() -> list:
    return sorted(_CATALOGUE)


def get_problem(name: str, n: int) -> ProblemSpec:
    """Build a catalogue problem on a grid of ``n`` modes."""
    if name not in _CATALOGUE:
        raise KeyError(f"unknown problem {name!r}; available: {list_problems()}")
    equation, bc, nonlinearity = _CATALOGUE[name]
    grid = SpectralGrid(equation, bc, n)
    return ProblemSpec(grid, make_nonlinearity(equation, nonlinearity), name=name)
