import random
from fractions import Fraction

import pytest

from hopfcheck.cyclotomic import make_field
from hopfcheck.linalg import (
    Matrix,
    ShapeMismatch,
    Tensor3,
    common_kernel,
    unit_vector,
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


class TestTensorContract:
    def test_group_algebra_swap(self):
        # multiplication tensor of k[Z_2]; left-mult by the generator swaps basis
        t = Tensor3(
            Q,
            (2, 2, 2),
            {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1},
        )
        g = unit_vector(Q, 2, 1)
        m = t.contract("left-mult", g)
        assert m == mat([[0, 1], [1, 0]])

    def test_unit_gives_identity(self):
        t = Tensor3(
            Q,
            (2, 2, 2),
            {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1},
        )
        one = unit_vector(Q, 2, 0)
        assert t.contract("left-mult", one).is_identity()
        assert t.contract("right-mult", one).is_identity()

    def test_shape_mismatch(self):
        t = Tensor3(Q, (2, 2, 2), {(0, 0, 0): 1})
        with pytest.raises(ShapeMismatch):
            t.contract("left-mult", zero_vector(Q, 3))

    def test_no_stored_zeros(self):
        t = Tensor3(Q, (2, 2, 2), {(0, 0, 0): 0, (1, 1, 0): 2})
        assert list(t.entries) == [(1, 1, 0)]


class TestCommonKernel:
    def test_intersection(self):
        m1 = mat([[1, 0, 0]])
        m2 = mat([[0, 1, 1]])
        basis = common_kernel([m1.apply, m2.apply], 3, Q)
        assert len(basis) == 1
        v = basis[0]
        assert v[0].is_zero() and v[1] + v[2] == Q.zero()

    def test_empty_intersection(self):
        blocks = [Matrix.identity(Q, 2).apply]
        assert common_kernel(blocks, 2, Q) == []
