import pytest

from hopfcheck.cyclotomic import make_field
from hopfcheck.families import (
    BadParams,
    NotPrimitiveRoot,
    a_tau_mu,
    group_algebra,
    sweedler,
    taft,
    taft_tensor_group,
)
from hopfcheck.hopf import (
    HopfAlgebra,
    group_likes,
    solve_antipode,
    structure_equal,
    trace_s2,
    verify_hopf,
)
from hopfcheck.linalg import unit_vector


class TestDimensions:
    def test_taft_dim(self):
        assert taft(2, -1).dim == 4
        assert taft(3, make_field(3).zeta()).dim == 9

    def test_a_tau_mu_dim(self):
        assert a_tau_mu(3, 2, -1, 0).dim == 12
        assert a_tau_mu(5, 2, -1, 1).dim == 20

    def test_tensor_dim(self):
        assert taft_tensor_group(2, -1, 7).dim == 28

    def test_trivial_group(self):
        h = group_algebra(1)
        assert h.dim == 1 and verify_hopf(h).ok


class TestRelations:
    def test_taft_2_matches_sweedler_tensors(self):
        assert structure_equal(taft(2, -1), sweedler())

    def test_y_squared_relation_in_table(self):
        # basis a^i y^j at index 2i + j; y = index 1, a^2 = index 4
        h = a_tau_mu(5, 2, -1, 1)
        y = unit_vector(h.field, h.dim, 1)
        y2 = h.algebra.multiply(y, y)
        expected = list(h.field.zero() for _ in range(h.dim))
        expected[0] = h.field.one()
        expected[4] = -h.field.one()
        assert y2 == tuple(expected)  # y^2 = 1 - a^2

    def test_mu_zero_is_nilpotent(self):
        h = a_tau_mu(3, 2, -1, 0)
        y = unit_vector(h.field, h.dim, 1)
        assert all(c.is_zero() for c in h.algebra.multiply(y, y))

    def test_commutation(self):
        # a y = tau y a with tau = -1
        h = a_tau_mu(3, 2, -1, 0)
        a = unit_vector(h.field, h.dim, 2)
        y = unit_vector(h.field, h.dim, 1)
        ay = h.algebra.multiply(a, y)
        ya = h.algebra.multiply(y, a)
        assert ay == tuple(-c for c in ya)


class TestParameterValidation:
    def test_not_primitive_root(self):
        with pytest.raises(NotPrimitiveRoot):
            taft(2, 1)
        with pytest.raises(NotPrimitiveRoot):
            a_tau_mu(3, 2, 1, 0)
        f = make_field(3)
        with pytest.raises(NotPrimitiveRoot):
            taft(6, f.zeta())  # zeta_3 has order 3, not 6

    def test_bad_params(self):
        with pytest.raises(BadParams):
            a_tau_mu(3, 2, -1, 2)
        with pytest.raises(BadParams):
            a_tau_mu(4, 2, -1, 0)
        with pytest.raises(BadParams):
            a_tau_mu(3, 3, -1, 0)
        with pytest.raises(BadParams):
            taft(1, 1)
        with pytest.raises(BadParams):
            group_algebra(0)


class TestGroupLikes:
    def test_taft_3(self):
        likes = group_likes(taft(3, make_field(3).zeta()))
        assert len(likes) == 3 and likes.is_cyclic()

    def test_tensor_group_count(self):
        likes = group_likes(taft_tensor_group(2, -1, 5))
        assert len(likes) == 10

    def test_taft_trace_zero(self):
        assert trace_s2(taft(3, make_field(3).zeta())).is_zero()



FAMILY_BUILDERS = {
    "A(tau,0)": lambda p: a_tau_mu(p, 2, -1, 0),
    "A(tau,1)": lambda p: a_tau_mu(p, 2, -1, 1),
    "T2 x k[Zp]": lambda p: taft_tensor_group(2, -1, p),
    "k[Z4p]": lambda p: group_algebra(4 * p),
}


def _assert_antipode_is_solved_one(h):
    stripped = HopfAlgebra(h.algebra, h.comult, h.counit)
    assert h.antipode == solve_antipode(stripped)


@pytest.mark.parametrize("name", sorted(FAMILY_BUILDERS))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_antipode_from_generator_images_equals_solved(name, p):
    _assert_antipode_is_solved_one(FAMILY_BUILDERS[name](p))


def test_taft_antipode_from_generator_images_equals_solved():
    _assert_antipode_is_solved_one(taft(3, make_field(3).zeta()))
    _assert_antipode_is_solved_one(sweedler())
