import random
from fractions import Fraction

import pytest

from hopfcheck.cyclotomic import MultiPoly, PolyRing, make_field
from hopfcheck.linalg import (
    Matrix,
    ShapeMismatch,
    Tensor3,
    unit_vector,
    vec_dot,
    vec_is_zero,
    zero_vector,
)

Q = make_field(1)


def mat(rows):
    return Matrix(Q, [[Fraction(c) for c in row] for row in rows])


class TestRref:
    def test_identity(self):
        m = Matrix.identity(Q, 3)
        red, rank, pivots = m.rref()
        assert red == m and rank == 3 and pivots == [0, 1, 2]

    def test_zero(self):
        m = Matrix.zero(Q, 2, 4)
        red, rank, pivots = m.rref()
        assert red == m and rank == 0 and pivots == []

    def test_rank_one(self):
        m = mat([[1, 2], [2, 4]])
        red, rank, _ = m.rref()
        assert rank == 1
        assert red == mat([[1, 2], [0, 0]])


class TestKernel:
    def test_identity_kernel_empty(self):
        assert Matrix.identity(Q, 4).kernel() == []

    def test_zero_kernel_full(self):
        assert len(Matrix.zero(Q, 2, 3).kernel()) == 3

    def test_line(self):
        basis = mat([[1, 1]]).kernel()
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == Q.zero()

    def test_kernel_dim_plus_rank(self):
        rng = random.Random(7)
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
            _, rank, _ = m.rref()
            ker = m.kernel()
            assert rank + len(ker) == cols
            for v in ker:
                assert vec_is_zero(m.apply(v))


class TestSolve:
    def test_identity_solve(self):
        m = Matrix.identity(Q, 3)
        b = (Q.from_rational(1), Q.from_rational(2), Q.from_rational(3))
        sol, ker = m.solve(b)
        assert sol == b and ker == []

    def test_no_solution(self):
        m = mat([[1, 0], [0, 0]])
        b = (Q.one(), Q.one())
        assert m.solve(b) is None

    def test_underdetermined(self):
        m = mat([[1, 1]])
        b = (Q.from_rational(2),)
        sol, ker = m.solve(b)
        assert sol == (Q.from_rational(2), Q.zero())
        assert len(ker) == 1

    def test_solution_verifies(self):
        rng = random.Random(13)
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = mat([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
            b = tuple(Q.from_rational(rng.randint(-3, 3)) for _ in range(rows))
            result = m.solve(b)
            if result is not None:
                sol, _ = result
                assert m.apply(sol) == b

    # (field order, rows, rhs, particular, kernel) as to_strings() lists; the
    # expected values are the output of the former solve, which eliminated
    # the augmented matrix and then called kernel() for a second elimination
    FIXED = [
        (1, [[1, 2, 0, 3], [2, 4, 1, 7], [0, 0, 1, 1]], [1, 3, 1],
         [["1/1"], ["0/1"], ["1/1"], ["0/1"]],
         [[["-2/1"], ["1/1"], ["0/1"], ["0/1"]],
          [["-3/1"], ["0/1"], ["-1/1"], ["1/1"]]]),
        (1, [[1, 1], [1, 1]], [1, 2], None, None),
        (1, [[2, 1], [1, 3]], [1, 2], [["1/5"], ["3/5"]], []),
        (3, [[1, "z", "z2"], ["z", "z2", 1]], [1, "z"],
         [["1/1", "0/1"], ["0/1", "0/1"], ["0/1", "0/1"]],
         [[["0/1", "-1/1"], ["1/1", "0/1"], ["0/1", "0/1"]],
          [["1/1", "1/1"], ["0/1", "0/1"], ["1/1", "0/1"]]]),
    ]

    @staticmethod
    def _fixed_system(order, rows, rhs):
        f = make_field(order)
        named = {"z": f.zeta(), "z2": f.zeta(2)}
        m = Matrix(f, [[named.get(c, c) for c in row] for row in rows])
        return m, tuple(f.promote(named.get(c, c)) for c in rhs)

    @pytest.mark.parametrize("order, rows, rhs, particular, kernel", FIXED)
    def test_fixed_systems_match_former_solve(self, order, rows, rhs, particular, kernel):
        m, b = self._fixed_system(order, rows, rhs)
        result = m.solve(b)
        if particular is None:
            assert result is None
            return
        sol, basis = result
        assert [c.to_strings() for c in sol] == particular
        assert [[c.to_strings() for c in v] for v in basis] == kernel
        assert basis == m.kernel()

    def test_one_elimination_per_solve(self, monkeypatch):
        calls = []
        rref = Matrix.rref

        def counting_rref(self):
            calls.append(self.cols)
            return rref(self)

        monkeypatch.setattr(Matrix, "rref", counting_rref)
        for order, rows, rhs, _, _ in self.FIXED:
            m, b = self._fixed_system(order, rows, rhs)
            calls.clear()
            m.solve(b)
            assert calls == [m.cols + 1]


class TestConstruction:
    def test_public_constructor_promotes(self):
        m = Matrix(Q, [[1, Fraction(1, 2)]])
        assert m.data == [[Q.from_rational(1), Q.from_rational(Fraction(1, 2))]]
        assert all(c.field is Q for c in m.data[0])
        with pytest.raises(ShapeMismatch):
            Matrix(Q, [[1, 2], [3]])

    def test_from_columns(self):
        assert Matrix.from_columns(Q, [(1, 2), (3, 4)]) == mat([[1, 3], [2, 4]])
        empty = Matrix.from_columns(Q, [])
        assert (empty.rows, empty.cols, empty.data) == (0, 0, [])

    @staticmethod
    def _fixed_q12():
        f = make_field(12)
        z = f.zeta()
        r0 = [f.one(), z, f.from_rational(2), z * z]
        r1 = [z * z, f.from_rational(Fraction(1, 2)), -z, f.one()]
        r2 = [x + z * y for x, y in zip(r0, r1)]
        b = [[z, 0], [Fraction(-1, 3), z * z], [1, 1], [0, z]]
        return Matrix(f, [r0, r1, r2]), Matrix(f, b)

    def test_rref_and_product_match_former_results(self):
        a, b = self._fixed_q12()
        red, rank, pivots = a.rref()
        assert (rank, pivots) == (2, [0, 1])
        assert [[c.to_strings() for c in row] for row in red.data] == [
            [["1/1", "0/1", "0/1", "0/1"], ["0/1", "0/1", "0/1", "0/1"],
             ["2/5", "-4/5", "2/5", "8/5"], ["4/5", "-4/5", "-3/5", "2/5"]],
            [["0/1", "0/1", "0/1", "0/1"], ["1/1", "0/1", "0/1", "0/1"],
             ["4/5", "6/5", "-8/5", "-8/5"], ["4/5", "4/5", "-2/5", "4/5"]],
            [["0/1"] * 4] * 4,
        ]
        assert [[c.to_strings() for c in row] for row in (a * b).data] == [
            [["2/1", "2/3", "0/1", "0/1"], ["2/1", "0/1", "0/1", "2/1"]],
            [["-1/6", "-1/1", "0/1", "1/1"], ["0/1", "0/1", "1/2", "0/1"]],
            [["1/1", "1/2", "0/1", "0/1"], ["2/1", "0/1", "0/1", "5/2"]],
        ]
        # results built without promotion equal the promoted ones
        assert red == Matrix(a.field, red.data) and (red.rows, red.cols) == (3, 4)


class TestTensorContract:
    def test_group_algebra_swap(self):
        # multiplication tensor of k[Z_2]; left-mult by the generator swaps basis
        t = Tensor3(
            Q,
            (2, 2, 2),
            {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1},
        )
        g = unit_vector(Q, 2, 1)
        m = t.contract(0, g).transpose()
        assert m == mat([[0, 1], [1, 0]])

    def test_unit_gives_identity(self):
        t = Tensor3(
            Q,
            (2, 2, 2),
            {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1},
        )
        one = unit_vector(Q, 2, 0)
        assert t.contract(0, one).transpose().is_identity()
        assert t.contract(1, one).transpose().is_identity()

    def test_shape_mismatch(self):
        t = Tensor3(Q, (2, 2, 2), {(0, 0, 0): 1})
        with pytest.raises(ShapeMismatch):
            t.contract(0, zero_vector(Q, 3))

    def test_no_stored_zeros(self):
        t = Tensor3(Q, (2, 2, 2), {(0, 0, 0): 0, (1, 1, 0): 2})
        assert list(t.entries) == [(1, 1, 0)]


class TestVecDot:
    def test_empty_vectors_give_the_fields_zero(self):
        assert vec_dot((), (), Q) is Q.zero()
        q12 = make_field(12)
        assert vec_dot((), (), q12) is q12.zero()

    def test_ring_entries_give_a_ring_element(self):
        ring = PolyRing(Q, ("alpha", "beta"))
        alpha, beta = ring.var("alpha"), ring.var("beta")
        assert vec_dot((alpha, ring.zero()), (ring.zero(), beta), ring) == ring.zero()
        got = vec_dot((alpha, ring.one()), (beta, ring.promote(2)), ring)
        assert isinstance(got, MultiPoly)
        assert got == alpha * beta + ring.promote(2)

    def test_field_entries(self):
        v = (Q.from_rational(2), Q.zero(), Q.from_rational(-1))
        w = (Q.from_rational(3), Q.from_rational(5), Q.from_rational(4))
        assert vec_dot(v, w, Q) == Q.from_rational(2)
