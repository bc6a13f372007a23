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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainEscapeError
from .spectral import SpectralGrid, inverse_transform_array, schrodinger_grid, wave_grid

DEFAULT_GRID_SIZE = 64


# -- scalar nonlinearities -----------------------------------------------------


@dataclass(frozen=True)
class WaveNonlinearity:
    """Real scalar nonlinearity f for the wave system, with derivative
    and antiderivative (the latter normalized to F(0) = 0, used for the
    energy functional)."""

    name: str
    value: callable
    derivative: callable
    antiderivative: callable


@dataclass(frozen=True)
class NlsNonlinearity:
    """Complex nonlinearity data for the Schrodinger equation.

    ``gradient`` is the Wirtinger derivative of the potential with
    respect to conj(u); ``gradient_tangent`` is its linearization
    applied to a direction, and ``potential`` the real potential density
    used for the energy functional.
    """

    name: str
    gradient: callable
    gradient_tangent: callable
    potential: callable


def _wave_cubic_plus_const(c: float) -> WaveNonlinearity:
    return WaveNonlinearity(
        name=f"cubic_plus_const:{c:g}",
        value=lambda u: u**3 + c,
        derivative=lambda u: 3 * u**2,
        antiderivative=lambda u: u**4 / 4 + c * u,
    )


_WAVE_NONLINEARITIES = {
    "zero": WaveNonlinearity("zero", lambda u: 0 * u, lambda u: 0 * u, lambda u: 0 * u),
    "cubic": WaveNonlinearity("cubic", lambda u: u**3, lambda u: 3 * u**2, lambda u: u**4 / 4),
    "quintic": WaveNonlinearity(
        "quintic", lambda u: u**5, lambda u: 5 * u**4, lambda u: u**6 / 6
    ),
}

_NLS_NONLINEARITIES = {
    "zero": NlsNonlinearity("zero", lambda u: 0 * u, lambda u, v: 0 * v, lambda u: 0 * abs(u)),
    # V = |u|^4 / 2, the standard cubic case
    "cubic": NlsNonlinearity(
        "cubic",
        gradient=lambda u: np.abs(u) ** 2 * u,
        gradient_tangent=lambda u, v: 2 * np.abs(u) ** 2 * v + u**2 * np.conj(v),
        potential=lambda u: np.abs(u) ** 4 / 2,
    ),
}


def make_nonlinearity(kind: str, spec: str):
    """Resolve a nonlinearity by name, e.g. 'cubic' or 'cubic_plus_const:1.0'."""
    table = _WAVE_NONLINEARITIES if kind == "wave" else _NLS_NONLINEARITIES
    if spec in table:
        return table[spec]
    if kind == "wave" and spec.startswith("cubic_plus_const:"):
        return _wave_cubic_plus_const(float(spec.split(":", 1)[1]))
    raise KeyError(f"unknown {kind} nonlinearity {spec!r}; known: {sorted(table)}")


# -- problem definition --------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A semilinear evolution problem on a spectral grid.

    ``scale_bound`` is the pointwise-magnitude radius on which the
    nonlinearity is trusted; evaluation outside it raises, making
    blow-up diagnosable instead of silent.
    """

    kind: str
    grid: SpectralGrid
    nonlinearity: object
    dealias: bool = True
    scale_bound: float = math.inf
    name: str = field(default="")

    def __post_init__(self):
        if self.kind not in ("wave", "nls"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        expected = "wave" if self.kind == "wave" else "schrodinger"
        if self.grid.equation != expected:
            raise ValueError(
                f"{self.kind} problems need a {expected} grid, got {self.grid.equation}"
            )
        if not self.name:
            object.__setattr__(self, "name", f"{self.kind}-{self.nonlinearity.name}")

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


def _guard_domain(p: ProblemSpec, phys: np.ndarray):
    if not math.isfinite(p.scale_bound):
        return
    max_abs = float(np.max(np.abs(phys)))
    if max_abs > p.scale_bound:
        raise DomainEscapeError(max_abs, p.scale_bound)


def _modal_B(p: ProblemSpec, values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Transform pointwise nonlinearity values (..., n) into B's component
    of an array shaped like ``like`` (..., components, n), dealiased."""
    out = np.zeros_like(like)
    if p.kind == "wave":
        out[..., 1, :] = -p.grid.transform_array(values)
    else:
        out[..., 0, :] = -1j * p.grid.transform_array(values)
    if p.dealias:
        out[..., p._aliased_modes] = 0.0
    return out


def evaluate_B_array(p: ProblemSpec, coeffs: np.ndarray) -> np.ndarray:
    """Batched nonlinearity: coeffs (..., components, n) -> same shape."""
    phys = inverse_transform_array(p.grid, coeffs[..., 0, :])
    _guard_domain(p, phys)
    f = p.nonlinearity
    return _modal_B(p, f.value(phys) if p.kind == "wave" else f.gradient(phys), coeffs)


def evaluate_B_pair_array(p: ProblemSpec, pair: np.ndarray) -> np.ndarray:
    """(B(u), DB(u) v) for ``pair = (u, v)`` stacked on a leading axis.

    ``pair`` has shape (2, ..., components, n).  Both halves share one
    inverse and one forward transform; batched rows transform exactly as
    single rows, so each half equals its own evaluation bit for bit.
    """
    u_phys, v_phys = inverse_transform_array(p.grid, pair[..., 0, :])
    _guard_domain(p, u_phys)
    f = p.nonlinearity
    if p.kind == "wave":
        values = [f.value(u_phys), f.derivative(u_phys) * v_phys]
    else:
        values = [f.gradient(u_phys), f.gradient_tangent(u_phys, v_phys)]
    return _modal_B(p, np.stack(values), pair)


# -- catalogue -----------------------------------------------------------------


def _catalogue() -> dict:
    return {
        "nls-cubic-periodic": lambda n: ProblemSpec(
            "nls", schrodinger_grid(n), make_nonlinearity("nls", "cubic"),
            name="nls-cubic-periodic",
        ),
        "nls-linear-periodic": lambda n: ProblemSpec(
            "nls", schrodinger_grid(n), make_nonlinearity("nls", "zero"),
            name="nls-linear-periodic",
        ),
        "wave-cubic-periodic": lambda n: ProblemSpec(
            "wave", wave_grid(n), make_nonlinearity("wave", "cubic"),
            name="wave-cubic-periodic",
        ),
        "wave-linear-periodic": lambda n: ProblemSpec(
            "wave", wave_grid(n), make_nonlinearity("wave", "zero"),
            name="wave-linear-periodic",
        ),
        "wave-dirichlet-compatible": lambda n: ProblemSpec(
            "wave", wave_grid(n, "dirichlet"), make_nonlinearity("wave", "cubic"),
            name="wave-dirichlet-compatible",
        ),
        "wave-dirichlet-incompatible": lambda n: ProblemSpec(
            "wave", wave_grid(n, "dirichlet"), make_nonlinearity("wave", "cubic_plus_const:1.0"),
            name="wave-dirichlet-incompatible",
        ),
        "wave-neumann": lambda n: ProblemSpec(
            "wave", wave_grid(n, "neumann"), make_nonlinearity("wave", "cubic"),
            name="wave-neumann",
        ),
    }


def list_problems() -> list:
    return sorted(_catalogue())


def get_problem(name: str, n: int | None = None) -> ProblemSpec:
    """Look up a catalogue problem, optionally overriding the grid size."""
    factories = _catalogue()
    if name not in factories:
        raise KeyError(f"unknown problem {name!r}; available: {list_problems()}")
    return factories[name](DEFAULT_GRID_SIZE if n is None else n)
