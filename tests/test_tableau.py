import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkspectral.errors import SingularResolventError
from rkspectral.tableau import (
    ButcherTableau,
    _stability_values,
    check_a_stability,
    gauss_legendre,
    quadrature_order,
    resolve_tableau,
    stability_function,
)

from oracles import exact_stability_function, exact_stability_polynomials

SQRT3 = np.sqrt(3.0)


def explicit_euler():
    return ButcherTableau(s=1, a=np.array([[0.0]]), b=np.array([1.0]), c=np.array([0.0]), p=1)


def implicit_euler():
    return ButcherTableau(s=1, a=np.array([[1.0]]), b=np.array([1.0]), c=np.array([1.0]), p=1)


def quadrature_oracle_a(c, i, j, points=24):
    """a_ij = integral over [0, c_i] of the j-th Lagrange basis, by Gauss
    quadrature on the interval (independent of the generator's exact
    polynomial integration)."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    x = 0.5 * c[i] * (nodes + 1.0)
    w = 0.5 * c[i] * weights

    def lagrange(t):
        val = np.ones_like(t)
        for m in range(len(c)):
            if m != j:
                val = val * (t - c[m]) / (c[j] - c[m])
        return val

    return float(np.sum(w * lagrange(x)))


class TestGaussLegendre:
    def test_one_stage_is_the_midpoint_rule(self):
        t = gauss_legendre(1)
        assert np.array_equal(t.a, [[0.5]])
        assert np.array_equal(t.b, [1.0])
        assert np.array_equal(t.c, [0.5])
        assert t.p == 2

    def test_two_stage_closed_form(self):
        t = gauss_legendre(2)
        assert np.allclose(t.c, [0.5 - SQRT3 / 6, 0.5 + SQRT3 / 6], atol=1e-15, rtol=0)
        expected_a = [[0.25, 0.25 - SQRT3 / 6], [0.25 + SQRT3 / 6, 0.25]]
        assert np.allclose(t.a, expected_a, atol=1e-15, rtol=0)
        assert np.allclose(t.b, [0.5, 0.5], atol=1e-15, rtol=0)
        assert t.p == 4

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_matrix_against_quadrature_oracle(self, s):
        t = gauss_legendre(s)
        for i in range(s):
            for j in range(s):
                assert t.a[i, j] == pytest.approx(quadrature_oracle_a(t.c, i, j), abs=1e-13)

    @pytest.mark.parametrize("s", range(1, 6))
    def test_weights_integrate_monomials_exactly(self, s):
        t = gauss_legendre(s)
        for k in range(1, 2 * s + 1):
            assert t.b @ t.c ** (k - 1) == pytest.approx(1.0 / k, abs=1e-12)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_row_sum_and_weight_invariants(self, s):
        t = gauss_legendre(s)
        assert np.max(np.abs(t.a.sum(axis=1) - t.c)) < 1e-12
        assert abs(t.b.sum() - 1.0) < 1e-12
        assert t.p == 2 * s

    @pytest.mark.parametrize("s", range(1, 9))
    def test_cooper_condition(self, s):
        # b_i a_ij + b_j a_ji = b_i b_j: the quadratic invariants of a Gauss
        # method.  Up to 5.3e-14 (s = 8) with today's coefficients.
        t = gauss_legendre(s)
        defect = t.b[:, None] * t.a + (t.b[:, None] * t.a).T - np.outer(t.b, t.b)
        assert np.max(np.abs(defect)) <= 1e-13

    @pytest.mark.parametrize("s", [0, 9, -3])
    def test_stage_count_range(self, s):
        with pytest.raises(ValueError):
            gauss_legendre(s)


class TestStabilityFunction:
    def test_midpoint_at_one(self):
        assert stability_function(gauss_legendre(1), 1.0) == pytest.approx(3.0, abs=1e-14)

    @pytest.mark.parametrize("s", [1, 2, 3, 5])
    def test_value_at_zero_is_one(self, s):
        assert stability_function(gauss_legendre(s), 0.0) == pytest.approx(1.0, abs=0)

    def test_two_stage_unimodular_at_i(self):
        assert abs(stability_function(gauss_legendre(2), 1j)) == pytest.approx(1.0, abs=1e-13)

    def test_matches_midpoint_rational_form(self):
        t = gauss_legendre(1)
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = -rng.uniform(0, 5) + 1j * rng.uniform(-5, 5)
            expected = (1 + z / 2) / (1 - z / 2)
            assert stability_function(t, z) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_conjugate_symmetry(self, s):
        t = gauss_legendre(s)
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.normal() + 1j * rng.normal()
            assert stability_function(t, np.conj(z)) == pytest.approx(
                np.conj(stability_function(t, z)), abs=1e-13
            )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_unimodular_on_imaginary_axis(self, s):
        t = gauss_legendre(s)
        for y in np.logspace(-3, 6, 200):
            for z in (1j * y, -1j * y):
                assert abs(stability_function(t, z)) == pytest.approx(1.0, abs=1e-12)

    def test_singular_point_raises(self):
        with pytest.raises(SingularResolventError):
            stability_function(gauss_legendre(1), 2.0)


def pade_exp(s, z):
    """The (s, s) diagonal Pade approximant P(z) / P(-z) of exp, the
    stability function of the s-stage Gauss-Legendre method (Hairer &
    Wanner, Solving ODEs II, IV.3-IV.5), with P_j = (2s-j)! s! / ((2s)! j!
    (s-j)!), evaluated at 30 digits."""
    with mpmath.workdps(30):
        coeffs = [
            mpmath.mpf(math.factorial(2 * s - j) * math.factorial(s))
            / (math.factorial(2 * s) * math.factorial(j) * math.factorial(s - j))
            for j in range(s + 1)
        ]
        z = mpmath.mpc(z)
        return complex(mpmath.polyval(coeffs[::-1], z) / mpmath.polyval(coeffs[::-1], -z))


def _into_disc(xy):
    z = complex(*xy)
    return z if abs(z) <= 10 else z * (10 / abs(z))


# Points of the closed left half-plane with |z| <= 10.
LEFT_HALF_DISC = st.tuples(st.floats(-10, 0), st.floats(-10, 10)).map(_into_disc)


# gl:8's coefficients put |S(iy)| - 1 at 4.9e-12 near y = 7.75.
GL8_UNIMODULAR_DEFECT = pytest.param(
    8, marks=pytest.mark.xfail(strict=True, reason="gl:8 coefficients (ROADMAP item 5)")
)


class TestStabilityFunctionOracles:
    @settings(max_examples=60, deadline=None)
    @given(z=LEFT_HALF_DISC)
    @example(z=-10.0)
    @pytest.mark.parametrize("s", range(1, 9))
    def test_matches_diagonal_pade_approximant(self, s, z):
        # Measured against max(1, |R|), which is 1 here since |R| <= 1: S
        # has zeros in the left half-plane and |R(-10)| ~ e^-10, where the
        # error relative to |R| itself says nothing.  Up to 4.9e-12 (s = 8).
        expected = pade_exp(s, z)
        got = stability_function(gauss_legendre(s), z)
        assert abs(got - expected) <= 1e-11 * max(1.0, abs(expected))

    @settings(max_examples=60, deadline=None)
    @given(y=st.floats(-1e6, 1e6))
    @example(y=7.75)
    @pytest.mark.parametrize("s", [*range(1, 8), GL8_UNIMODULAR_DEFECT])
    def test_unimodular_on_imaginary_axis_property(self, s, y):
        assert abs(abs(stability_function(gauss_legendre(s), 1j * y)) - 1.0) <= 1e-12


class TestAStabilityCheck:
    @pytest.mark.parametrize("s", range(1, 8))
    def test_gauss_legendre_passes(self, s):
        report = check_a_stability(gauss_legendre(s))
        assert report.rk1_ok and report.rk2_ok and report.a_invertible
        assert report.rk1_worst[1] <= 1.0 + 1e-12

    def test_explicit_euler_fails_rk1(self):
        report = check_a_stability(explicit_euler())
        assert not report.rk1_ok
        assert report.rk1_worst[1] > 1.0
        assert not report.a_invertible

    def test_singular_sample_is_reported_not_raised(self):
        # 1 - z a vanishes at the interior sample z = -1e-3
        t = ButcherTableau(s=1, a=[[-1000.0]], b=[1.0], c=[-1000.0], p=1)
        report = check_a_stability(t)
        assert not report.rk1_ok
        assert report.rk1_worst == (-0.001, math.inf)

    def test_midpoint_eigenvalues(self):
        report = check_a_stability(gauss_legendre(1))
        assert report.a_eigenvalues == pytest.approx([0.5])


# Tableaus beside gl:1..gl:8 whose stability polynomials test the
# evaluator: an L-stable pair with deg N < deg D (implicit Euler, Radau IIA
# s = 2) and explicit ones with deg D < s, the last one with deg N < s too.
CUSTOM_TABLEAUS = {
    "implicit-euler": implicit_euler(),
    "radau-iia-2": ButcherTableau(2, [[5 / 12, -1 / 12], [3 / 4, 1 / 4]], [3 / 4, 1 / 4],
                                  [1 / 3, 1.0], 3),
    "explicit-euler": explicit_euler(),
    "explicit-2-stage": ButcherTableau(2, [[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0], [0.0, 1.0], 1),
}
ALL_TABLEAUS = {f"gl:{s}": gauss_legendre(s) for s in range(1, 9)} | CUSTOM_TABLEAUS

# Points on rays of the whole plane, on both sides of |z| = 1 and out to
# |z| = 1e300, where a forward Horner form of a degree-8 polynomial overflows.
EVALUATOR_POINTS = [
    r * complex(math.cos(math.pi * q), math.sin(math.pi * q))
    for r in (1e-300, 0.3, 1.0, 1.001, 40.0, 1e8, 1e200, 1e300)
    for q in (0.5, 0.75, 1.0, 1.25, 1.5)
]


class TestStabilityPolynomials:
    @pytest.mark.parametrize("name", list(ALL_TABLEAUS))
    def test_coefficients_are_the_rounded_characteristic_polynomials(self, name):
        # N(z) = det(I - z (a - 1 b^T)) and D(z) = det(I - z a) of the binary
        # tableau, each coefficient the float nearest the 50-digit sum of
        # principal minors, with the zero leading coefficients trimmed.
        t = ALL_TABLEAUS[name]
        want = [np.trim_zeros(np.array([float(c) for c in poly]), "b").tolist()
                for poly in exact_stability_polynomials(t)]
        assert [poly.tolist() for poly in t._stability_polynomials] == want

    @pytest.mark.parametrize("name", list(ALL_TABLEAUS))
    def test_values_match_the_resolvent_form(self, name):
        # against the 50-digit 1 + z b^T (I - z a)^{-1} 1, measured against
        # max(1, |S|); up to 6.8e-16 (gl:6).  Points where |S| overflows a
        # float are left out.
        t = ALL_TABLEAUS[name]
        for z in EVALUATOR_POINTS:
            expected = exact_stability_function(t, z)
            if abs(expected) < 1e300:
                error = abs(mpmath.mpc(stability_function(t, z)) - expected)
                assert error <= 2e-15 * max(1, abs(expected)), z

    def test_coefficient_that_overflows_a_float_raises(self):
        # det(I - z a) = (1 - 1e200 z)^2 has a z^2 coefficient of 1e400
        t = ButcherTableau(2, [[1e200, 0], [0, 1e200]], [0.5, 0.5], [1e200, 1e200], 1)
        with pytest.raises(ValueError, match="overflow a float"):
            stability_function(t, 0.5)

    def test_singular_points_read_inf(self):
        # D(z) = 1 + z^2 / 4 for a = [[0, -1/2], [1/2, 0]] vanishes at z = +-2i,
        # where the evaluator runs on the reversed polynomials
        t = ButcherTableau(2, [[0, -0.5], [0.5, 0]], [0.5, 0.5], [-0.5, 0.5], 1)
        sigma, singular = _stability_values(t, np.array([2j, -2j, 1j, 4.0]))
        assert singular.tolist() == [True, True, False, False]
        assert np.isinf(sigma[:2]).all() and np.isfinite(sigma[2:]).all()


class TestQuadratureOrder:
    def test_values(self):
        assert quadrature_order(gauss_legendre(1)) == 2
        assert quadrature_order(gauss_legendre(3)) == 6
        assert quadrature_order(implicit_euler()) == 1


class TestTableauValidation:
    def test_row_sum_violation_rejected(self):
        with pytest.raises(ValueError, match="collocation"):
            ButcherTableau(
                s=1, a=np.array([[0.4]]), b=np.array([1.0]), c=np.array([0.5]), p=2
            )

    def test_weight_sum_violation_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ButcherTableau(
                s=1, a=np.array([[0.5]]), b=np.array([0.9]), c=np.array([0.5]), p=2
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ButcherTableau(
                s=2, a=np.array([[0.5]]), b=np.array([1.0]), c=np.array([0.5]), p=2
            )


@st.composite
def valid_tableaus(draw):
    """Tableaus the constructor accepts: c is the row sums of a, and the
    last weight makes the weights sum to 1."""
    s = draw(st.integers(1, 4))
    entries = st.floats(-10, 10)
    rows = draw(st.lists(st.lists(entries, min_size=s, max_size=s), min_size=s, max_size=s))
    head = draw(st.lists(entries, min_size=s - 1, max_size=s - 1))
    a = np.array(rows)
    b = np.array([*head, 1.0 - math.fsum(head)])
    return ButcherTableau(s, a, b, a.sum(axis=1), draw(st.integers(1, 2 * s)))


def assert_json_roundtrip(t):
    # field by field: dataclass == on array fields raises
    again = ButcherTableau.from_json(t.to_json(), t.label)
    assert (again.s, again.p, again.label) == (t.s, t.p, t.label)
    for name in ("a", "b", "c"):
        got, want = getattr(again, name), getattr(t, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class TestJsonInterface:
    @pytest.mark.parametrize("s", range(1, 9))
    def test_gauss_legendre_roundtrip_is_bitwise(self, s):
        assert_json_roundtrip(gauss_legendre(s))

    @settings(max_examples=100, deadline=None)
    @given(t=valid_tableaus())
    @example(t=ButcherTableau(2, [[-0.0, 0.5], [5e-324, 0.1]], [-0.0, 1.0], [0.5, 0.1], 3))
    def test_roundtrip_property(self, t):
        assert_json_roundtrip(t)

    def test_roundtrip(self):
        t = gauss_legendre(3)
        again = ButcherTableau.from_json(t.to_json(), "gl:3")
        assert np.array_equal(again.a, t.a)
        assert np.array_equal(again.b, t.b)
        assert np.array_equal(again.c, t.c)
        assert again.p == t.p

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ButcherTableau.from_json(json.dumps({"s": 1, "a": [[0.5]]}), "t.json")

    @pytest.mark.parametrize("doc", [[1, 2], "gl:1", 3, None])
    def test_document_that_is_not_an_object_rejected(self, doc):
        with pytest.raises(ValueError, match="must be an object"):
            ButcherTableau.from_json(json.dumps(doc), "t.json")

    @pytest.mark.parametrize(
        "key, value", [("s", None), ("a", {"x": 1}), ("c", "abc"), ("p", [2])]
    )
    def test_unconvertible_value_names_its_key(self, key, value):
        doc = {"s": 1, "a": [[0.5]], "b": [1], "c": [0.5], "p": 2, key: value}
        with pytest.raises(ValueError, match=f"tableau JSON key '{key}'"):
            ButcherTableau.from_json(json.dumps(doc), "t.json")

    def test_null_coefficient_rejected(self):
        doc = {"s": 1, "a": [[0.5]], "b": [None], "c": [0.5], "p": 2}
        with pytest.raises(ValueError, match="finite"):
            ButcherTableau.from_json(json.dumps(doc), "t.json")

    def test_resolve_gl_spec(self):
        t = resolve_tableau("gl:2")
        assert t.s == 2 and t.p == 4

    def test_resolve_path(self, tmp_path):
        path = tmp_path / "tableau.json"
        path.write_text(gauss_legendre(2).to_json(), encoding="utf-8")
        t = resolve_tableau(str(path))
        assert t.s == 2
        assert np.allclose(t.a, gauss_legendre(2).a, atol=0)
