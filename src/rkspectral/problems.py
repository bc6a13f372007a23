"""Semilinear right-hand sides evaluated pseudospectrally.

The nonlinear part acts pointwise on physical values (a superposition
operator): inverse-transform, apply the scalar function on the
collocation grid, transform back.  For the wave system the result lands
in the velocity component as ``(0, -f(u))``; for the Schrodinger
equation it is ``-i dV/d(conj u)``.  Cubic products alias onto retained
modes unless the top third of the spectrum is zeroed afterwards
(2/3 rule), which is the default here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import SpectralGrid, inverse_transform_array

DEFAULT_GRID_SIZE = 64


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
        value=lambda u: u**3 + c,
        tangent=lambda u, v: 3 * u**2 * v,
        potential=lambda u: u**4 / 4 + c * u,
    )


_NONLINEARITIES = {
    "wave": {
        "zero": Nonlinearity("zero", lambda u: 0 * u, lambda u, v: 0 * u * v, lambda u: 0 * u),
        "cubic": Nonlinearity(
            "cubic", lambda u: u**3, lambda u, v: 3 * u**2 * v, lambda u: u**4 / 4
        ),
        "quintic": Nonlinearity(
            "quintic", lambda u: u**5, lambda u, v: 5 * u**4 * v, lambda u: u**6 / 6
        ),
    },
    "schrodinger": {
        "zero": Nonlinearity("zero", lambda u: 0 * u, lambda u, v: 0 * v, lambda u: 0 * abs(u)),
        # V = |u|^4 / 2, the standard cubic case
        "cubic": Nonlinearity(
            "cubic",
            value=lambda u: np.abs(u) ** 2 * u,
            tangent=lambda u, v: 2 * np.abs(u) ** 2 * v + u**2 * np.conj(v),
            potential=lambda u: np.abs(u) ** 4 / 2,
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
        return _wave_cubic_plus_const(float(spec.split(":", 1)[1]))
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
    def _aliased_modes(self) -> np.ndarray:
        """Complement of ``dealias_mask(grid)``, computed once per problem."""
        return ~dealias_mask(self.grid)


def dealias_mask(grid: SpectralGrid) -> np.ndarray:
    """Boolean mask of modes kept by the 2/3 rule (top third zeroed)."""
    k = np.abs(grid.modes)
    if grid.bc == "periodic":
        return k <= grid.n // 3
    return k <= (2 * int(k.max())) // 3


def _modal_B(p: ProblemSpec, values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Transform pointwise nonlinearity values (..., n) into B's component
    of an array shaped like ``like`` (..., components, n), dealiased."""
    out = np.zeros_like(like)
    if p.grid.equation == "wave":
        out[..., 1, :] = -p.grid.transform_array(values)
    else:
        out[..., 0, :] = -1j * p.grid.transform_array(values)
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


def get_problem(name: str, n: int | None = None) -> ProblemSpec:
    """Look up a catalogue problem, optionally overriding the grid size."""
    if name not in _CATALOGUE:
        raise KeyError(f"unknown problem {name!r}; available: {list_problems()}")
    equation, bc, nonlinearity = _CATALOGUE[name]
    grid = SpectralGrid(equation, bc, DEFAULT_GRID_SIZE if n is None else n)
    return ProblemSpec(grid, make_nonlinearity(equation, nonlinearity), name=name)
