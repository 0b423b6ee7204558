"""factor_unipoly and roots_in_field against sympy over Q and Q(zeta_n).

sympy factors over QQ<z>, the field generated by a root z of the n-th
cyclotomic polynomial, so z corresponds to zeta_n and an element's power
basis coefficients carry over unchanged.  Inputs are random products of
monic factors of degree 1 to 3 with small coefficients, some repeated.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

from hopfcheck.cyclotomic import (
    UniPoly,
    _norm,
    factor_unipoly,
    make_field,
    roots_in_field,
)

ORDERS = (1, 3, 4, 5, 8)
X, T, Y = sympy.symbols("x t y")


def sympy_field(n):
    if n == 1:
        return QQ
    return QQ.alg_field_from_poly(sympy.Poly(sympy.cyclotomic_poly(n, T), T))


def to_sympy(poly, domain):
    """The polynomial in sympy over domain, coefficients highest degree first."""
    coeffs = []
    for c in reversed(poly.coeffs):
        parts = [QQ(q.numerator, q.denominator) for q in reversed(c.coeffs)]
        coeffs.append(parts[0] if domain == QQ else domain.new(parts))
    return sympy.Poly.from_list(coeffs, X, domain=domain)


def from_sympy(poly, field):
    coeffs = []
    for c in reversed(poly.rep.to_list()):
        parts = [c] if field.order == 1 else list(reversed(c.to_list()))
        coeffs.append(field.element([Fraction(int(q.numerator), int(q.denominator))
                                     for q in parts]))
    return UniPoly(field, coeffs)


def sympy_factors(poly):
    """sympy's monic irreducible factors with multiplicity, in our field."""
    domain = sympy_field(poly.field.order)
    _, factors = to_sympy(poly, domain).factor_list()
    return [(from_sympy(f.monic(), poly.field), m) for f, m in factors]


def _key(pm):
    poly, mult = pm
    return poly.degree, tuple(c.coeffs for c in poly.coeffs), mult


@st.composite
def products(draw):
    field = make_field(draw(st.sampled_from(ORDERS)))
    powers = [field.zeta(k) for k in range(field.order)] or [field.one()]
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = [
            draw(st.integers(-2, 2)) * draw(st.sampled_from(powers))
            for _ in range(draw(st.integers(1, 3)))
        ]
        factor = UniPoly(field, coeffs + [field.one()])
        factors.extend([factor] * draw(st.integers(1, 2)))
    product = UniPoly(field, [field.one()])
    for factor in factors:
        product = product * factor
    lead = draw(st.sampled_from((1, -3, Fraction(1, 2))))
    return product * UniPoly(field, [field.from_rational(lead)])


@settings(max_examples=60, deadline=None)
@given(products())
def test_factors_match_sympy(poly):
    assert sorted(factor_unipoly(poly), key=_key) == sorted(sympy_factors(poly), key=_key)


@settings(max_examples=60, deadline=None)
@given(products())
def test_roots_match_sympy(poly):
    expected = []
    for factor, mult in sympy_factors(poly):
        if factor.degree == 1:
            expected.extend([-factor.coeffs[0]] * mult)
    expected.sort(key=lambda r: r.coeffs)
    assert roots_in_field(poly) == expected
    assert all(poly.evaluate(r).is_zero() for r in expected)


@pytest.mark.parametrize("n", (3, 4, 5, 8, 12))
@pytest.mark.parametrize("shift", (0, 1, 2))
def test_norm_is_the_resultant_with_phi_n(n, shift):
    """_norm(f, s) = Res_y(Phi_n(y), f(x - s*y, y)), with f's coefficients
    written as polynomials in y = zeta_n; f need not be monic."""
    field = make_field(n)
    rng = random.Random(100 * n + shift)
    coeffs = [
        field.element([rng.randint(-2, 2) for _ in range(field.degree)])
        for _ in range(3)
    ]
    f = UniPoly(field, coeffs + [field.zeta(rng.randrange(n)) * 2])
    in_y = [sum(sympy.Rational(q.numerator, q.denominator) * Y**i
                for i, q in enumerate(c.coeffs)) for c in f.coeffs]
    f_xy = sum(c * (X - shift * Y) ** i for i, c in enumerate(in_y))
    expected = sympy.resultant(sympy.cyclotomic_poly(n, Y), sympy.expand(f_xy), Y)
    got = [sympy.Rational(c.rational.numerator, c.rational.denominator)
           for c in reversed(_norm(f, shift).coeffs)]
    assert sympy.Poly(expected, X).all_coeffs() == got
