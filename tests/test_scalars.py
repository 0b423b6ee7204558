"""Oracle tests for the Q(zeta_n) scalars.

Arithmetic is checked against sympy (polynomial remainder modulo the
cyclotomic polynomial), and the outside view of an element (`coeffs`,
`to_strings`, `hash`) against a small reference model of the padded
phi(n)-Fraction vector representation.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.cyclotomic import cyclotomic_coeffs, embed, make_field

sympy = pytest.importorskip("sympy")

ORDERS = (1, 3, 4, 5, 8, 12, 20, 28, 44)
X = sympy.Symbol("x")

small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def elements(draw, orders=st.sampled_from(ORDERS)):
    """(element, raw coefficients): up to 2 * phi(n) small rationals, so inputs
    both below and above the field degree are reduced."""
    field = make_field(draw(orders))
    raw = draw(st.lists(small_rationals, max_size=2 * field.degree))
    return field.element(raw), raw


@st.composite
def pairs(draw):
    order = st.just(draw(st.sampled_from(ORDERS)))
    (a, ra), (b, rb) = draw(elements(order)), draw(elements(order))
    return a, ra, b, rb


# --- reference model: the padded Fraction vector --------------------------------


def ref_coeffs(order, raw):
    """phi(n) Fractions of sum raw[i] x^i reduced modulo Phi_n."""
    phi = cyclotomic_coeffs(order)
    deg = len(phi) - 1
    out = [Fraction(c) for c in raw]
    for i in range(len(out) - 1, deg - 1, -1):
        c = out[i]
        for k in range(deg):
            out[i - deg + k] -= c * phi[k]
    out = out[:deg]
    return tuple(out + [Fraction(0)] * (deg - len(out)))


def ref_strings(coeffs):
    return ["%d/%d" % (c.numerator, c.denominator) for c in coeffs]


def ref_hash(order, coeffs):
    return hash((order, coeffs))


# --- sympy oracle ------------------------------------------------------------


def to_sympy(el):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * X**i for i, c in enumerate(el.coeffs)),
        sympy.Integer(0),
    )


def sympy_coeffs(expr, order):
    phi = sympy.cyclotomic_poly(order, X)
    rem = sympy.Poly(sympy.rem(sympy.expand(expr), phi, X), X, domain="QQ")
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
    deg = sympy.degree(phi, X)
    cs = cs[:deg] if any(cs) else []
    return tuple(cs + [Fraction(0)] * (deg - len(cs)))


def assert_canonical(el):
    num, den = el.num, el.den
    assert isinstance(num, tuple) and all(type(x) is int for x in num)
    assert type(den) is int and den > 0
    assert len(num) <= el.field.degree
    assert not num or num[-1] != 0
    assert math.gcd(den, *num) == 1
    if not num:
        assert (num, den) == ((), 1)


# --- tests ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_ring_ops_match_sympy(pair):
    a, _, b, _ = pair
    order = a.field.order
    sa, sb = to_sympy(a), to_sympy(b)
    for got, expr in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)):
        assert_canonical(got)
        assert got.coeffs == sympy_coeffs(expr, order)
    assert (a == b) == (sympy_coeffs(sa - sb, order) == sympy_coeffs(0, order))
    assert (a - b == 0) == (a == b)


@settings(max_examples=40, deadline=None)
@given(pairs())
def test_division_and_inverse_match_sympy(pair):
    a, _, b, _ = pair
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            b.inverse()
        with pytest.raises(ZeroDivisionError):
            a / b
        return
    order = a.field.order
    phi = sympy.cyclotomic_poly(order, X)
    inv = sympy.invert(to_sympy(b), phi, X) if order > 1 else 1 / to_sympy(b)
    got_inv, got_div = b.inverse(), a / b
    assert_canonical(got_inv)
    assert_canonical(got_div)
    assert got_inv.coeffs == sympy_coeffs(inv, order)
    assert got_div.coeffs == sympy_coeffs(to_sympy(a) * inv, order)
    assert got_div * b == a


@settings(max_examples=60, deadline=None)
@given(elements(), small_rationals)
def test_mixed_rational_operands(pair, r):
    a, _ = pair
    f = a.field
    ra = f.from_rational(r)
    assert_canonical(ra)
    assert a + r == a + ra == r + a
    assert a - r == a - ra == -(r - a)
    assert a * r == a * ra == r * a
    assert ra == r and (ra == r + 1) is False
    assert ra.rational == r
    if r:
        assert a / r == a / ra
        assert_canonical(r / a if not a.is_zero() else ra)


@settings(max_examples=80, deadline=None)
@given(elements())
def test_outside_view_matches_padded_fraction_reference(pair):
    el, raw = pair
    order = el.field.order
    coeffs = ref_coeffs(order, raw)
    assert_canonical(el)
    assert el.coeffs == coeffs
    assert all(type(c) is Fraction for c in el.coeffs)
    assert el.to_strings() == ref_strings(coeffs)
    assert hash(el) == ref_hash(order, coeffs)
    assert hash(-el) == ref_hash(order, tuple(-c for c in coeffs))
    assert el.is_zero() == (not any(coeffs))
    assert el.is_one() == (coeffs == (1,) + (0,) * (el.field.degree - 1))
    assert el.is_rational() == (not any(coeffs[1:]))


@pytest.mark.parametrize("order", ORDERS)
def test_constants_and_zeta_forms(order):
    f = make_field(order)
    deg = f.degree
    assert (f.zero().num, f.zero().den) == ((), 1)
    assert (f.one().num, f.one().den) == ((1,), 1)
    assert f.from_rational(0) is f.zero()
    assert f.from_rational(Fraction(-6, 4)).num == (-3,)
    assert f.from_rational(Fraction(-6, 4)).den == 2
    for power in range(2 * order):
        z = f.zeta(power)
        assert_canonical(z)
        assert z.coeffs == ref_coeffs(order, [0] * (power % order) + [1])
    assert hash(f.zero()) == hash((order, (Fraction(0),) * deg))
    assert hash(f.from_rational(Fraction(1, 3))) == hash(
        (order, (Fraction(1, 3),) + (Fraction(0),) * (deg - 1))
    )


@settings(max_examples=40, deadline=None)
@given(elements(st.sampled_from((3, 4, 5))), st.sampled_from((2, 3, 4)))
def test_embed_matches_substitution(pair, mult):
    el, raw = pair
    src = el.field
    target = make_field(src.order * mult)
    got = embed(el, target)
    assert_canonical(got)
    spread = [Fraction(0)] * (len(raw) * mult)
    for i, c in enumerate(raw):
        spread[i * mult] = c
    assert got.coeffs == ref_coeffs(target.order, spread)
