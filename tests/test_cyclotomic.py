import random
from fractions import Fraction

import pytest

from hopfcheck.cyclotomic import (
    FieldMismatch,
    MultiPoly,
    PolyRing,
    UniPoly,
    VariableMismatch,
    cyclotomic_coeffs,
    embed,
    factor_unipoly,
    make_field,
    rational_from_str,
    rational_to_str,
    roots_in_field,
    squarefree_decomposition,
)
from hopfcheck.linalg import Matrix


def poly(field, *ints):
    return UniPoly.from_ints(field, ints)


class TestCyclotomicPolynomials:
    def test_phi_1(self):
        assert cyclotomic_coeffs(1) == (-1, 1)
        assert make_field(1).degree == 1

    def test_phi_4(self):
        assert cyclotomic_coeffs(4) == (1, 0, 1)
        assert make_field(4).degree == 2

    def test_phi_6_by_division(self):
        # divide x^6 - 1 by Phi_1 * Phi_2 * Phi_3 independently
        from hopfcheck.cyclotomic import _int_trial_div

        num = [-1, 0, 0, 0, 0, 0, 1]
        for d in (1, 2, 3):
            num = _int_trial_div(num, list(cyclotomic_coeffs(d)))
        assert tuple(num) == (1, -1, 1)
        assert cyclotomic_coeffs(6) == (1, -1, 1)

    def test_primitive_root_orders(self):
        for n in range(1, 45):
            field = make_field(n)
            z = field.zeta()
            assert z ** n == field.one()
            for m in range(1, n):
                assert z ** m != field.one(), (n, m)


class TestFieldArithmetic:
    def test_zeta4_squares_to_minus_one(self):
        f = make_field(4)
        z = f.zeta()
        assert z * z == f.from_rational(-1)

    def test_one_plus_zeta_times_one_minus_zeta(self):
        f = make_field(4)
        z = f.zeta()
        assert (1 + z) * (1 - z) == f.from_rational(2)

    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_inverse_of_zeta(self, n):
        f = make_field(n)
        z = f.zeta()
        assert 1 / z == z ** (n - 1)

    def test_mixed_field_raises(self):
        a = make_field(3).zeta()
        b = make_field(4).zeta()
        with pytest.raises(FieldMismatch):
            a + b

    def test_division_by_zero(self):
        f = make_field(5)
        with pytest.raises(ZeroDivisionError):
            f.one() / f.zero()

    def test_field_axioms_random(self):
        rng = random.Random(20260808)
        for n in (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20):
            f = make_field(n)

            def rand_el():
                return f.element(
                    [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(f.degree)]
                )

            for _ in range(6):
                a, b, c = rand_el(), rand_el(), rand_el()
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + b == b + a
                assert a * b == b * a
                if not a.is_zero():
                    assert a * a.inverse() == f.one()

    def test_embedding(self):
        small = make_field(3)
        big = make_field(12)
        z3 = small.zeta()
        image = embed(z3, big)
        assert image == big.zeta(4)
        assert embed(small.from_rational(Fraction(2, 7)), big) == big.from_rational(
            Fraction(2, 7)
        )

    @pytest.mark.parametrize("k", (5, 7, 11))
    def test_spread_is_a_galois_automorphism_of_q_zeta12(self, k):
        from hopfcheck.cyclotomic import _spread

        f = make_field(12)
        rng = random.Random(k)

        def rand_el():
            return f.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(f.degree)])

        def sigma(j, x):
            return _spread(x, f, j)

        assert sigma(k, f.zeta()) == f.zeta(k)
        assert sigma(k, f.zero()) == f.zero() and sigma(k, f.one()) == f.one()
        for _ in range(20):
            a, b = rand_el(), rand_el()
            assert sigma(k, a + b) == sigma(k, a) + sigma(k, b)
            assert sigma(k, a * b) == sigma(k, a) * sigma(k, b)
            for l in (5, 7, 11):
                assert sigma(k, sigma(l, a)) == sigma(k * l % 12, a)
            assert sigma(k, sigma(k, a)) == a  # every unit mod 12 squares to 1

    def test_rational_strings(self):
        assert rational_to_str(Fraction(0)) == "0/1"
        assert rational_to_str(Fraction(-3, 6)) == "-1/2"
        assert rational_from_str("-1/2") == Fraction(-1, 2)
        with pytest.raises(ZeroDivisionError):
            rational_from_str("1/0")


class TestFactorization:
    def test_x4_minus_1_over_q(self):
        f = make_field(1)
        factors = factor_unipoly(poly(f, -1, 0, 0, 0, 1))
        assert sorted(p.degree for p, _ in factors) == [1, 1, 2]
        assert all(m == 1 for _, m in factors)
        assert poly(f, 1, 0, 1) in [p for p, _ in factors]

    def test_x2_plus_1_over_q_zeta4(self):
        f = make_field(4)
        factors = factor_unipoly(UniPoly(f, [f.one(), f.zero(), f.one()]))
        assert [p.degree for p, _ in factors] == [1, 1]
        roots = roots_in_field(UniPoly(f, [f.one(), f.zero(), f.one()]))
        assert set(roots) == {f.zeta(), -f.zeta()}

    def test_phi6_irreducible_over_q(self):
        f = make_field(1)
        factors = factor_unipoly(poly(f, 1, -1, 1))
        assert len(factors) == 1 and factors[0][0].degree == 2

    def test_repeated_root(self):
        f = make_field(1)
        # (x - 2)^2
        factors = factor_unipoly(poly(f, 4, -4, 1))
        assert len(factors) == 1
        p, m = factors[0]
        assert m == 2 and p == poly(f, -2, 1)
        assert roots_in_field(poly(f, 4, -4, 1)) == [f.from_rational(2)] * 2

    def test_three_factors_over_q_zeta20_by_the_norm(self):
        f = make_field(20)
        z = f.zeta
        factors = [
            UniPoly(f, [2 * z(9), 0, -1, 1]),
            UniPoly(f, [z(18), -z(19), 1]),
            UniPoly(f, [-2 * z(5), -z(15), 1]),
        ]
        product = factors[0] * factors[1] * factors[2]
        got = factor_unipoly(product)
        assert len(got) == 3 and all(m == 1 for _, m in got)
        assert {p for p, _ in got} == set(factors)

    def test_memoized_factors_come_in_a_fresh_list(self):
        f = make_field(3)
        first = factor_unipoly(poly(f, -1, 0, 0, 1))
        first.clear()
        again = factor_unipoly(poly(f, -1, 0, 0, 1))
        assert again is not first and [p.degree for p, _ in again] == [1, 1, 1]
        # the same coefficients over another field are factored there
        assert [p.degree for p, _ in factor_unipoly(poly(make_field(1), -1, 0, 0, 1))] == [1, 2]

    def test_roots_x3_minus_1_over_q_zeta3(self):
        f = make_field(3)
        roots = roots_in_field(poly(f, -1, 0, 0, 1))
        assert set(roots) == {f.one(), f.zeta(), f.zeta(2)}

    def test_x2_plus_1_has_no_rational_roots(self):
        f = make_field(1)
        assert roots_in_field(poly(f, 1, 0, 1)) == []

    def test_minimal_polynomial_of_zeta_splits(self):
        for n in (3, 4, 5, 6, 8, 12):
            f = make_field(n)
            phi = UniPoly.from_ints(f, cyclotomic_coeffs(n))
            assert f.zeta() in roots_in_field(phi)

    def test_squarefree_decomposition(self):
        f = make_field(1)
        # (x-1)^2 (x+2)^3
        p = poly(f, -1, 1) * poly(f, -1, 1) * poly(f, 2, 1) * poly(f, 2, 1) * poly(f, 2, 1)
        parts = squarefree_decomposition(p)
        assert [(q.coeffs, m) for q, m in parts] == [
            (poly(f, -1, 1).coeffs, 2),
            (poly(f, 2, 1).coeffs, 3),
        ]

    def test_reconstruction_random_over_q(self):
        rng = random.Random(991)
        f = make_field(1)
        for _ in range(140):
            deg = rng.randint(1, 8)
            coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 4)]
            p = poly(f, *coeffs)
            self._check_reconstruction(p)

    def test_reconstruction_random_over_cyclotomic(self):
        rng = random.Random(992)
        for n in (3, 4):
            f = make_field(n)
            for _ in range(30):
                deg = rng.randint(1, 6)
                coeffs = [
                    f.element([rng.randint(-3, 3) for _ in range(f.degree)])
                    for _ in range(deg)
                ]
                coeffs.append(f.one())
                p = UniPoly(f, coeffs)
                if p.degree < 1:
                    continue
                self._check_reconstruction(p)

    @staticmethod
    def _check_reconstruction(p):
        factors = factor_unipoly(p)
        prod = UniPoly(p.field, [p.lead])
        for q, m in factors:
            assert q.lead.is_one()
            for _ in range(m):
                prod = prod * q
        assert prod == p, (p, factors)


class TestMultiPoly:
    VARS = ("alpha", "beta")

    def setup_method(self):
        self.f = make_field(1)
        self.alpha = MultiPoly.variable(self.f, self.VARS, "alpha")
        self.beta = MultiPoly.variable(self.f, self.VARS, "beta")

    def test_product_of_variables(self):
        p = self.alpha * self.beta
        assert p.terms == {(1, 1): self.f.one()}

    def test_subtraction_leaves_constant(self):
        p = (self.alpha + 1) - self.alpha
        assert p.is_constant() and p.constant_value.is_one()

    def test_square_expansion(self):
        p = (self.alpha + self.beta) ** 2
        expected = (
            self.alpha * self.alpha
            + 2 * (self.alpha * self.beta)
            + self.beta * self.beta
        )
        assert p == expected

    def test_variable_mismatch(self):
        other = MultiPoly.variable(self.f, ("x", "y"), "x")
        with pytest.raises(VariableMismatch):
            self.alpha + other

    def test_substitute(self):
        p = self.alpha ** 2 + self.beta
        q = p.substitute({"alpha": 3})
        assert q == self.beta + 9
        r = p.substitute({"alpha": self.beta})
        assert r == self.beta ** 2 + self.beta

    def test_too_many_variables(self):
        with pytest.raises(ValueError):
            MultiPoly(self.f, tuple("v%d" % i for i in range(13)))


class TestPolyRing:
    VARS = ("alpha", "beta")

    def setup_method(self):
        self.f = make_field(1)
        self.ring = PolyRing(self.f, self.VARS)

    def test_promote(self):
        ring = self.ring
        three = MultiPoly.constant(self.f, self.VARS, 3)
        assert ring.promote(3) == three
        half = Fraction(1, 2)
        assert ring.promote(half).terms == {(0, 0): self.f.from_rational(half)}
        assert ring.promote(self.f.from_rational(3)) == three
        alpha = ring.var("alpha")
        assert ring.promote(alpha) is alpha
        assert alpha.terms == {(1, 0): self.f.one()}

    def test_promote_rejects_other_variables(self):
        with pytest.raises(VariableMismatch):
            self.ring.promote(MultiPoly.variable(self.f, ("x", "y"), "x"))

    def test_promote_rejects_other_fields(self):
        with pytest.raises(FieldMismatch):
            self.ring.promote(make_field(3).zeta())
        with pytest.raises(FieldMismatch):
            self.ring.promote(MultiPoly.constant(make_field(3), self.VARS, 1))

    def test_is_one_and_is_zero(self):
        ring = self.ring
        alpha = ring.var("alpha")
        assert ring.one().is_one() and not ring.one().is_zero()
        assert ring.zero().is_zero() and not ring.zero().is_one()
        assert (alpha - alpha + 1).is_one()
        for p in (alpha, alpha + 1, ring.promote(2), ring.promote(-1)):
            assert not p.is_one() and not p.is_zero()

    def test_equality_and_hash(self):
        same = PolyRing(make_field(1), list(self.VARS))
        assert same == self.ring and hash(same) == hash(self.ring)
        assert PolyRing(self.f, ("beta", "alpha")) != self.ring
        assert PolyRing(make_field(3), self.VARS) != self.ring
        assert self.ring != self.f and self.f != self.ring

    def test_matrix_over_ring_is_not_a_q_matrix(self):
        q_mat = Matrix.identity(self.f, 2)
        ring_mat = Matrix.identity(self.ring, 2)
        assert ring_mat.is_identity()
        assert q_mat != ring_mat and ring_mat != q_mat
        with pytest.raises(FieldMismatch):
            q_mat + ring_mat
        alpha = self.ring.var("alpha")
        m = Matrix(self.ring, [[alpha, 1], [0, alpha]])
        square = (m * m).data
        assert square == [[alpha * alpha, 2 * alpha], [0, alpha * alpha]]
        assert all(isinstance(c, MultiPoly) for row in square for c in row)
