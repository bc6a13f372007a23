"""Butcher tableaus: Gauss-Legendre construction and A-stability checks.

A tableau ``(a, b, c)`` defines an s-stage implicit Runge-Kutta method.
The stability function

    S(z) = 1 + z * b^T (I - z a)^{-1} 1 = det(I - z (a - 1 b^T)) / det(I - z a)

encodes the method's action on the scalar test equation (Hairer & Wanner,
Solving ODEs II, IV.3, Prop. 3.2); A-stability
demands |S(z)| <= 1 on the closed left half-plane together with
invertibility of (I - z a) there, which holds exactly when ``a`` has no
eigenvalue in the closed left half-plane other than 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, SingularResolventError, _count

_ROW_SUM_TOL = 1e-12
_WEIGHT_SUM_TOL = 1e-12
_EIG_BOUNDARY_TOL = 1e-10
_RK1_TOL = 1e-12
# Sample counts of the sampled A-stability check.
_BOUNDARY_SAMPLES = 200
_INTERIOR_SAMPLES = 64
# Most stages of a Gauss-Legendre tableau, and so of an order study's reference.
_MAX_STAGES = 8


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an s-stage Runge-Kutta method.

    Attributes
    ----------
    s : int
        Stage count.
    a : ndarray, shape (s, s)
        Stage coefficient matrix.
    b : ndarray, shape (s,)
        Quadrature weights.
    c : ndarray, shape (s,)
        Collocation nodes in [0, 1].
    p : int
        Classical order (metadata; 2s for Gauss-Legendre, user-supplied
        for custom tableaus and cross-checked empirically by the study
        harness rather than proved from order conditions).
    label : str
        Short descriptor used in reports.
    """

    s: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: int
    label: str = "custom"

    def __post_init__(self):
        a, b, c = (np.asarray(x, dtype=float) for x in (self.a, self.b, self.c))
        for name, x in zip("abc", (a, b, c)):
            object.__setattr__(self, name, x)
        if _count("s", self.s) < 1:
            raise InputError("s", "stage count must be positive")
        if a.shape != (self.s, self.s) or b.shape != (self.s,) or c.shape != (self.s,):
            raise ValueError("inconsistent tableau shapes")
        if _count("p", self.p) < 1:
            raise InputError("p", "classical order must be positive")
        if not all(np.isfinite(x).all() for x in (a, b, c)):
            raise ValueError("tableau coefficients must be finite")
        row_defect = np.max(np.abs(a.sum(axis=1) - c))
        if row_defect > _ROW_SUM_TOL:
            raise ValueError(
                f"rows of a must sum to c (collocation consistency); defect {row_defect:.3e}"
            )
        weight_defect = abs(b.sum() - 1.0)
        if weight_defect > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1; defect {weight_defect:.3e}")
        for x in (a, b, c):
            x.setflags(write=False)

    @cached_property
    def _stability_polynomials(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending coefficients of N(z) = det(I - z (a - 1 b^T)) and D(z) =
        det(I - z a), S = N / D, each trimmed of its zero leading
        coefficients (an explicit tableau's D has degree < s).  They come
        from the binary tableau as given, in exact integer arithmetic
        (``_det_polynomial``), each rounded once to the nearest float.
        """
        # q a and q b as integers, q the largest denominator among them
        ratios = [x.as_integer_ratio() for x in (*self.a.ravel().tolist(), *self.b.tolist())]
        q = max(d for _, d in ratios)
        ints = [n * (q // d) for n, d in ratios]
        a = [ints[i : i + self.s] for i in range(0, self.s * self.s, self.s)]
        b = ints[self.s * self.s :]
        polys = []
        for m in ([[x - y for x, y in zip(row, b)] for row in a], a):
            coeffs = np.array(_det_polynomial(m, q))
            coeffs = coeffs[: np.flatnonzero(coeffs)[-1] + 1]
            coeffs.setflags(write=False)
            polys.append(coeffs)
        return tuple(polys)

    def to_json(self) -> str:
        return json.dumps(
            {
                "s": self.s,
                "a": self.a.tolist(),
                "b": self.b.tolist(),
                "c": self.c.tolist(),
                "p": self.p,
            }
        )

    @staticmethod
    def from_json(text: str, label: str) -> "ButcherTableau":
        """Parse a tableau from a JSON document with keys s, a, b, c, p."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"tableau JSON must be an object, got {type(doc).__name__}")
        missing = [k for k in ("s", "a", "b", "c", "p") if k not in doc]
        if missing:
            raise ValueError(f"tableau JSON missing keys: {missing}")
        fields = {"s": doc["s"], "p": doc["p"]}  # counts, which the tableau checks
        for key in "abc":
            try:
                fields[key] = np.asarray(doc[key], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"tableau JSON key {key!r}: {exc}") from exc
        return ButcherTableau(**fields, label=label)


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the sampled A-stability check.

    ``rk1_ok`` reports |S(z)| <= 1 on all sampled points of the closed
    left half-plane.  Sampling cannot certify boundedness on the whole
    half-plane; by the maximum principle for the rational S, the
    imaginary-axis sweep carries the weight and the interior grid is a
    safety net.  ``rk2_ok`` is the exact eigenvalue criterion: no
    eigenvalue of ``a`` may lie in the closed left half-plane except 0.
    ``a_eigenvalues`` lists those eigenvalues and ``a_invertible`` says
    whether none of them is 0; ``check_a_stability`` sets every field.
    """

    rk1_ok: bool
    rk1_worst: tuple[complex, float]
    rk2_ok: bool
    a_eigenvalues: list
    a_invertible: bool

    @property
    def a_stable(self) -> bool:
        return self.rk1_ok and self.rk2_ok


def _det_polynomial(m, q) -> list[float]:
    """Ascending coefficients of det(I - z m / q) for a square integer
    matrix m and an integer q, each rounded once to the nearest float.

    Faddeev-LeVerrier in integers: p_0 = 1, M_k = m (M_{k-1} + p_{k-1} I),
    p_k = -tr(M_k) / k, every division exact; det(I - z m / q) has
    coefficients p_k / q^k.
    """
    s = len(m)
    coeffs = [1]
    power = [[0] * s for _ in range(s)]
    for k in range(1, s + 1):
        for i in range(s):
            power[i][i] += coeffs[-1]
        power = [[sum(m[i][l] * power[l][j] for l in range(s)) for j in range(s)]
                 for i in range(s)]
        coeffs.append(-sum(power[i][i] for i in range(s)) // k)
    try:
        return [c / q**k for k, c in enumerate(coeffs)]
    except OverflowError:
        raise ValueError("stability polynomial coefficients overflow a float") from None


def _legendre_value_and_derivative(x, s):
    """Evaluate the degree-s Legendre polynomial and its derivative at x."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for m in range(2, s + 1):
        p_prev, p = p, ((2 * m - 1) * x * p - (m - 1) * p_prev) / m
    dp = s * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _legendre_roots(s, tol=1e-14, max_iter=100):
    """Roots of the degree-s Legendre polynomial on (-1, 1).

    Newton iteration from Chebyshev initial guesses; converges in a
    handful of iterations for s <= _MAX_STAGES.
    """
    i = np.arange(1, s + 1)
    x = np.cos(np.pi * (4 * i - 1) / (4 * s + 2))
    for _ in range(max_iter):
        p, dp = _legendre_value_and_derivative(x, s)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < tol:
            break
    else:
        raise RuntimeError(f"Legendre root Newton iteration stalled for s={s}")
    return np.sort(x)


def gauss_legendre(s: int) -> ButcherTableau:
    """Construct the s-stage Gauss-Legendre collocation tableau, 1 <= s <= _MAX_STAGES.

    The nodes are the roots of the shifted Legendre polynomial of degree
    s on [0, 1]; the coefficients are the exact integrals of the
    Lagrange basis at these nodes,

        a_ij = int_0^{c_i} l_j,   b_j = int_0^1 l_j,

    giving classical order p = 2s.
    """
    if not 1 <= s <= _MAX_STAGES:
        raise ValueError(f"stage count must be in [1, {_MAX_STAGES}], got {s}")
    c = 0.5 * (_legendre_roots(s) + 1.0)
    a = np.empty((s, s))
    b = np.empty(s)
    for j in range(s):
        others = np.delete(c, j)
        if others.size:
            basis = np.polynomial.Polynomial.fromroots(others) / np.prod(c[j] - others)
        else:
            basis = np.polynomial.Polynomial([1.0])
        primitive = basis.integ()
        b[j] = primitive(1.0) - primitive(0.0)
        a[:, j] = primitive(c) - primitive(0.0)
    return ButcherTableau(s=s, a=a, b=b, c=c, p=2 * s, label=f"gl:{s}")


def stability_function(t: ButcherTableau, z: complex) -> complex:
    """Evaluate S(z) = 1 + z b^T (I - z a)^{-1} 1 at one point."""
    value, singular = _stability_values(t, np.array([complex(z)]))
    if singular[0]:
        raise SingularResolventError(complex(z))
    return value[0]


def _stability_values(t: ButcherTableau, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S(z) = N(z) / D(z) at the complex points ``z`` (any shape) from the
    tableau's stability polynomials, and the mask of singular points,
    D(z) = 0, where S reads inf.

    Horner (``np.polyval``) runs in z where |z| <= 1 and, where |z| > 1,
    on the reversed polynomials in w = 1/z: S = z^(deg N - deg D) N~(w) /
    D~(w).  Each branch sees only its own points and no power of z beyond
    that ratio's is formed, so a finite S does not overflow on the way.
    """
    num, den = t._stability_polynomials
    z = np.asarray(z, dtype=complex)
    inner = np.abs(z) <= 1.0
    outer = ~inner
    w = 1 / z[outer]
    n_val, d_val = np.empty_like(z), np.empty_like(z)
    n_val[inner] = np.polyval(num[::-1], z[inner])
    d_val[inner] = np.polyval(den[::-1], z[inner])
    n_val[outer], d_val[outer] = np.polyval(num, w), np.polyval(den, w)
    singular = d_val == 0
    sigma = np.divide(n_val, d_val, out=np.full_like(z, np.inf), where=~singular)
    shift = len(num) - len(den)
    if shift:
        scaled = outer & ~singular
        factor = z[scaled] if shift > 0 else 1 / z[scaled]
        sigma[scaled] *= factor ** abs(shift)
    return sigma, singular


def _resolvent(t, h, lam):
    """The stage resolvent of the step matrices: X = (I - h (a lam))^{-1},
    their update S(h lam) = 1 + h (lam b^T X 1) and the mask of singular
    (I - h a lam), at the complex points ``lam`` (shape (m,)); a singular
    point reads lam = 0 (X = I), then S = inf.  Every other reading of S
    takes it from the stability polynomials (``_stability_values``)."""
    m = np.eye(t.s) - h * (t.a * lam[:, None, None])
    try:
        x = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(m) == 0
        x, sigma, _ = _resolvent(t, h, np.where(singular, 0, lam))
        sigma[singular] = np.inf
        return x, sigma, singular
    bsum = np.einsum("j,kjq->kq", t.b, x @ np.ones((t.s, 1)))[:, 0]
    return x, 1.0 + h * (lam * bsum), np.zeros(len(lam), dtype=bool)


def quadrature_order(t: ButcherTableau) -> int:
    """Largest k such that sum_i b_i c_i^{j-1} = 1/j for all j <= k.

    This is the simplifying condition B(k); Gauss-Legendre tableaus
    achieve the maximal B(2s).
    """
    order = 0
    for j in range(1, 4 * t.s + 4):
        if abs(t.b @ t.c ** (j - 1) - 1.0 / j) <= 1e-10:
            order = j
        else:
            break
    return order


def check_a_stability(t: ButcherTableau) -> StabilityReport:
    """Sampled A-stability check of a tableau.

    Evaluates |S(z)| on a log-spaced sweep of the imaginary axis with
    |y| in [1e-3, 1e6] and on a coarse log grid in the open left
    half-plane, and tests that the eigenvalues of ``a`` avoid the closed
    left half-plane except for an exact zero (tolerance band 1e-10).
    Failures are reported, never raised; only a tableau whose stability
    polynomials have a coefficient beyond the float range raises
    ValueError.
    """
    y = np.logspace(-3, 6, _BOUNDARY_SAMPLES)
    boundary = np.concatenate([1j * y, -1j * y])

    m = max(4, int(np.sqrt(_INTERIOR_SAMPLES)))
    re = -np.logspace(-3, 6, m)
    im_half = np.logspace(-3, 6, max(2, m // 2))
    im = np.concatenate([-im_half, [0.0], im_half])
    interior = (re[:, None] + 1j * im[None, :]).ravel()

    samples = np.concatenate([boundary, interior])
    values = np.abs(_stability_values(t, samples)[0])
    worst = int(np.argmax(values))
    rk1_ok = bool(values[worst] <= 1.0 + _RK1_TOL)

    eigs = np.linalg.eigvals(t.a)
    bad = (eigs.real <= _EIG_BOUNDARY_TOL) & (np.abs(eigs) > _EIG_BOUNDARY_TOL)
    rk2_ok = not bool(bad.any())
    a_invertible = bool(np.min(np.abs(eigs)) > _EIG_BOUNDARY_TOL)

    return StabilityReport(
        rk1_ok=rk1_ok,
        rk1_worst=(complex(samples[worst]), float(values[worst])),
        rk2_ok=rk2_ok,
        a_eigenvalues=[complex(e) for e in eigs],
        a_invertible=a_invertible,
    )


def resolve_tableau(spec: str) -> ButcherTableau:
    """Resolve a tableau descriptor: 'gl:s' or a path to a JSON file."""
    if spec.startswith("gl:"):
        return gauss_legendre(int(spec.split(":", 1)[1]))
    with open(spec, encoding="utf-8") as fh:
        return ButcherTableau.from_json(fh.read(), label=spec)
