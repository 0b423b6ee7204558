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
    _factor_squarefree_q,
    _norm,
    _poly_sort_key,
    _recast,
    _roots_of_unity_split,
    _trager_squarefree,
    cyclotomic_coeffs,
    factor_unipoly,
    make_field,
    roots_in_field,
    squarefree_decomposition,
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


# --- the roots-of-unity shortcut before the rational factorization ---------------


def ref_factor_squarefree_cyclo(poly):
    """The rational-first route: a root at zero, then an all-rational
    polynomial factored over Q with each nonlinear factor sent to the
    roots-of-unity shortcut or to Trager; any other polynomial to the
    shortcut or to Trager."""
    field = poly.field
    if poly.degree <= 1:
        return [poly]
    out = []
    if poly.coeffs[0].is_zero():
        x = UniPoly(field, [field.zero(), field.one()])
        out.append(x)
        poly = poly // x
        if poly.degree <= 1:
            return sorted(out + ([poly] if poly.degree == 1 else []), key=_poly_sort_key)
    if all(c.is_rational() for c in poly.coeffs):
        parts = [_recast(q, field) for q in _factor_squarefree_q(_recast(poly, make_field(1)))]
    else:
        parts = [poly]
    for part in parts:
        if part.degree <= 1:
            out.append(part)
        else:
            out.extend(_roots_of_unity_split(part) or _trager_squarefree(part))
    return sorted(out, key=_poly_sort_key)


def ref_factor_unipoly(poly):
    out = []
    for sq, mult in squarefree_decomposition(poly):
        out.extend((p, mult) for p in ref_factor_squarefree_cyclo(sq))
    return sorted(out, key=lambda pm: _poly_sort_key(pm[0]))


def _x_power_minus(field, n, c):
    return UniPoly(field, [-c] + [field.zero()] * (n - 1) + [field.one()])


def _cyclotomic(field, d):
    return UniPoly.from_ints(field, list(cyclotomic_coeffs(d)))


def _product(field, factors):
    out = UniPoly(field, [field.one()])
    for f in factors:
        out = out * f
    return out


def shortcut_cases():
    """(label, polynomial, whether every root is a root of unity of the field)."""
    cases = []
    for n, minus_one, plus_one in ((12, (2, 3, 4, 6, 12), (2, 6)),
                                   (20, (2, 4, 5, 10, 20), (10,)),
                                   (44, (2, 11, 22), (22,))):
        f = make_field(n)
        for d in minus_one:
            cases.append(("x^%d - 1 / Q(zeta%d)" % (d, n), _x_power_minus(f, d, f.one()), True))
        for d in plus_one:
            cases.append(("x^%d + 1 / Q(zeta%d)" % (d, n), _x_power_minus(f, d, -f.one()), True))
        cases.append(("x^2 - zeta^2 / Q(zeta%d)" % n, _x_power_minus(f, 2, f.zeta(2)), True))
        x_minus_2 = UniPoly(f, [f.from_rational(-2), f.one()])
        cases.append(("(x - 2)(x^2 + 1) / Q(zeta%d)" % n, x_minus_2 * _cyclotomic(f, 4), False))
    for n in (12, 20):
        f = make_field(n)
        cases.append(("x^2 - 2 / Q(zeta%d)" % n, _x_power_minus(f, 2, f.from_rational(2)), False))
    f12, f20, f44 = make_field(12), make_field(20), make_field(44)
    cases.append(("x^4 + 1 / Q(zeta12)", _x_power_minus(f12, 4, -f12.one()), False))
    for field, ds, split in ((f12, (3, 6, 12), True), (f12, (1, 8), False),
                             (f20, (2, 5, 10), True), (f20, (4, 3), False),
                             (f44, (11, 44), True)):
        label = "%s / Q(zeta%d)" % (" ".join("Phi_%d" % d for d in ds), field.order)
        cases.append((label, _product(field, [_cyclotomic(field, d) for d in ds]), split))
    z = f12.zeta()
    cases.append(("(x - zeta)(x - zeta - 1) / Q(zeta12)",
                  UniPoly(f12, [-z, f12.one()]) * UniPoly(f12, [-z - 1, f12.one()]), False))
    return cases


SHORTCUT_CASES = {label: (poly, roots_of_unity) for label, poly, roots_of_unity in shortcut_cases()}


@pytest.mark.parametrize("label", sorted(SHORTCUT_CASES))
def test_factor_matches_rational_first_route(label):
    """factor_unipoly tries the roots-of-unity shortcut before factoring over
    Q and gives the rational-first route's list; the shortcut applies
    exactly when every root is a root of unity of the field, and falls
    through otherwise."""
    poly, roots_of_unity = SHORTCUT_CASES[label]
    assert (_roots_of_unity_split(poly) is not None) == roots_of_unity, label
    got = factor_unipoly(poly)
    assert got == ref_factor_unipoly(poly), label
    if roots_of_unity:
        assert all(f.degree == 1 for f, _ in got)
    if poly.field.order == 12:
        assert sorted(got, key=_key) == sorted(sympy_factors(poly), key=_key), label
