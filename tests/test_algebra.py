import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import algebra
from hopfcheck.cyclotomic import make_field
from hopfcheck.algebra import (
    AssocAlgebra,
    _characters_among,
    _is_character,
    algebra_generators,
    center,
    characters,
    ideal_closure,
    is_semisimple_trace,
    radical,
    verify_algebra,
)
from hopfcheck.families import a_tau_mu, group_algebra, taft_tensor_group
from hopfcheck.hopf import dual_algebra
from hopfcheck.linalg import Matrix, Tensor3, unit_vector
from test_basis_independence import dense_a31
from test_sparse_kernels import ref_kernel, scalars
from test_verify_generators import perturbations, ref_characters

Q = make_field(1)


def group_algebra_assoc(n, field=None):
    field = field or Q
    entries = {(i, j, (i + j) % n): 1 for i in range(n) for j in range(n)}
    return AssocAlgebra(
        field, n, Tensor3(field, (n, n, n), entries), unit_vector(field, n, 0)
    )


def sweedler_assoc(field=None, break_x_square=False):
    # basis 1, g, x, xg with g^2 = 1, x^2 = 0, gx = -xg
    field = field or Q
    entries = {
        (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (0, 3, 3): 1,
        (1, 0, 1): 1, (2, 0, 2): 1, (3, 0, 3): 1,
        (1, 1, 0): 1,
        (1, 2, 3): -1,
        (1, 3, 2): -1,
        (2, 1, 3): 1,
        (3, 1, 2): 1,
    }
    if break_x_square:
        entries[(2, 2, 0)] = 1
    return AssocAlgebra(
        field, 4, Tensor3(field, (4, 4, 4), entries), unit_vector(field, 4, 0)
    )


def matrix_algebra_2x2(field=None):
    # basis E11, E12, E21, E22
    field = field or Q
    entries = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    if b == c:
                        i = 2 * a + b
                        j = 2 * c + d
                        k = 2 * a + d
                        entries[(i, j, k)] = 1
    unit = [field.one(), field.zero(), field.zero(), field.one()]
    return AssocAlgebra(field, 4, Tensor3(field, (4, 4, 4), entries), unit)


def dual_numbers(field=None):
    # k[X]/(X^2), basis 1, X
    field = field or Q
    entries = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    return AssocAlgebra(
        field, 2, Tensor3(field, (2, 2, 2), entries), unit_vector(field, 2, 0)
    )


class TestVerifyAlgebra:
    def test_group_algebra_passes(self):
        assert verify_algebra(group_algebra_assoc(3)).ok

    def test_sweedler_passes(self):
        assert verify_algebra(sweedler_assoc()).ok

    def test_broken_sweedler_fails_on_xxg(self):
        report = verify_algebra(sweedler_assoc(break_x_square=True))
        assert not report.ok
        locations = {v.location for v in report.violations if v.law == "associativity"}
        assert (2, 2, 1) in locations  # (x, x, g)

    def test_matrix_algebra_passes(self):
        assert verify_algebra(matrix_algebra_2x2()).ok


class TestRadical:
    def test_group_algebras_semisimple(self):
        for n in (1, 2, 3, 5, 6):
            assert radical(group_algebra_assoc(n)) == []
            assert is_semisimple_trace(group_algebra_assoc(n))

    def test_sweedler_radical_is_x_xg(self):
        rad = radical(sweedler_assoc())
        assert len(rad) == 2
        for v in rad:
            assert v[0].is_zero() and v[1].is_zero()
        assert not is_semisimple_trace(sweedler_assoc())

    def test_dual_numbers(self):
        rad = radical(dual_numbers())
        assert len(rad) == 1
        assert rad[0][0].is_zero() and not rad[0][1].is_zero()

    def test_radical_is_two_sided_ideal(self):
        alg = sweedler_assoc()
        rad = radical(alg)
        closed = ideal_closure(alg, rad)
        assert len(closed) == len(rad)

    def test_matrix_algebra_semisimple(self):
        assert is_semisimple_trace(matrix_algebra_2x2())


def ref_radical(alg):
    """The Gram loop radical replaced: Tr L_{b_i b_j} summed over the table
    row of b_i b_j against the trace of left multiplication by each b_t."""
    dim = alg.dim
    zero = alg.field.zero()
    left_traces = [zero] * dim  # left_traces[t] = Tr L_{b_t}
    for (i, j, k), c in alg.mult.entries.items():
        if j == k:
            left_traces[i] = left_traces[i] + c
    gram = [[zero] * dim for _ in range(dim)]
    table = alg.mult.by_ij()
    for i in range(dim):
        for j in range(dim):
            acc = zero
            for t, c in table.get((i, j), ()):
                tr = left_traces[t]
                if not tr.is_zero():
                    acc = acc + c * tr
            gram[i][j] = acc
    return ref_kernel(Matrix(alg.field, gram))


RADICAL_INPUTS = {
    "dense A(3,1)": dense_a31,
    **{
        "A(%d,%d)" % (p, mu): functools.partial(a_tau_mu, p, 2, -1, mu)
        for p in (3, 5)
        for mu in (0, 1)
    },
    **{"T2xk[Z%d]" % p: functools.partial(taft_tensor_group, 2, -1, p) for p in (3, 5)},
    **{"k[Z%d]" % (4 * p): functools.partial(group_algebra, 4 * p) for p in (3, 5)},
}


@pytest.mark.parametrize("name", sorted(RADICAL_INPUTS))
def test_radical_matches_gram_loop(name):
    """On H and H*, and on each one-constant perturbation: the trace form
    is defined on a non-associative table too."""
    h = RADICAL_INPUTS[name]()
    for label, x in [("unperturbed", h)] + perturbations(h, name):
        for side, alg in (("H", x.algebra), ("H*", dual_algebra(x))):
            assert radical(alg) == ref_radical(alg), (label, side)


class TestCharacters:
    def test_cyclic_group_over_its_field(self):
        f = make_field(3)
        res = characters(group_algebra_assoc(3, f))
        assert len(res.characters) == 3
        values = sorted(tuple(c.coeffs) for c in (chi[1] for chi in res.characters))
        assert values == sorted(
            tuple(f.zeta(j).coeffs) for j in range(3)
        )

    def test_cyclic_group_over_q_reports_obstruction(self):
        res = characters(group_algebra_assoc(3, Q))
        assert len(res.characters) == 1
        assert any(f.degree == 2 for f in res.unresolved_factors)

    def test_sweedler_has_two_characters(self):
        res = characters(sweedler_assoc())
        assert len(res.characters) == 2
        gvals = sorted(chi[1].rational for chi in res.characters)
        assert gvals == [Fraction(-1), Fraction(1)]
        for chi in res.characters:
            assert chi[2].is_zero() and chi[3].is_zero()

    def test_matrix_algebra_has_none(self):
        assert characters(matrix_algebra_2x2()).characters == []

    def test_characters_vanish_on_radical(self):
        alg = sweedler_assoc()
        rad = radical(alg)
        for chi in characters(alg).characters:
            for v in rad:
                acc = Q.zero()
                for c, x in zip(chi, v):
                    acc = acc + c * x
                assert acc.is_zero()

    def test_split_commutative_count_equals_dim(self):
        f = make_field(6)
        res = characters(group_algebra_assoc(6, f))
        assert len(res.characters) == 6
        assert res.unresolved_factors == []


# name -> (algebra, whether every split reads eigenvalues off its block)
EIGENVECTOR_SPLIT_INPUTS = {
    "dense A(3,1)": (lambda: dense_a31().algebra, False),
    "dense A(3,1)*": (lambda: dual_algebra(dense_a31()), False),
}
for _p in (3, 5):
    for _name, _build in (
        ("A(%d,0)*", functools.partial(a_tau_mu, _p, 2, -1, 0)),
        ("A(%d,1)*", functools.partial(a_tau_mu, _p, 2, -1, 1)),
        ("T2xk[Z%d]*", functools.partial(taft_tensor_group, 2, -1, _p)),
    ):
        EIGENVECTOR_SPLIT_INPUTS[_name % _p] = (lambda b=_build: dual_algebra(b()), True)


@pytest.mark.parametrize("name", sorted(EIGENVECTOR_SPLIT_INPUTS))
def test_characters_split_eigenvector_blocks(name, monkeypatch):
    """The duals of the families have semisimple quotient k^G in a basis of
    idempotents: every block is made of eigenvectors, so nothing is
    factored.  In a dense basis the search factors; both match the
    reference, which factors every block."""
    build, eigenvectors_only = EIGENVECTOR_SPLIT_INPUTS[name]
    alg = build()
    calls = []
    original = algebra.minimal_polynomial
    monkeypatch.setattr(
        algebra, "minimal_polynomial", lambda *a: calls.append(a) or original(*a)
    )
    found = characters(alg).characters
    monkeypatch.undo()
    assert found == ref_characters(alg)
    assert (not calls) == eigenvectors_only


# name -> a Hopf algebra; both its algebra and its dual's are searched
GENERATOR_SPLIT_INPUTS = {"k[Z12]": lambda: group_algebra(12)}
for _p in (3, 5):
    GENERATOR_SPLIT_INPUTS["A(%d,0)" % _p] = functools.partial(a_tau_mu, _p, 2, -1, 0)
    GENERATOR_SPLIT_INPUTS["T2xk[Z%d]" % _p] = functools.partial(
        taft_tensor_group, 2, -1, _p
    )


@pytest.mark.parametrize("side", ("H", "H*"))
@pytest.mark.parametrize("name", sorted(GENERATOR_SPLIT_INPUTS))
def test_characters_multiply_only_generators_into_blocks(name, side, monkeypatch):
    """Inside characters, only algebra_generators(Q) of the split quotient
    Q are multiplied into its blocks (by basis_times); every other chi(b_k)
    is read off a block's vector.  Reading them by multiplying every basis
    element into every block makes about dim Q^2 products of other
    elements."""
    h = GENERATOR_SPLIT_INPUTS[name]()
    alg = h.algebra if side == "H" else dual_algebra(h)
    quotients, multiplied = [], []
    original_quotient = algebra.quotient_algebra
    original_times = AssocAlgebra.basis_times

    def quotient_algebra(a, ideal):
        out = original_quotient(a, ideal)
        quotients.append(out[0])
        return out

    def basis_times(self, i, v, right=False):
        multiplied.append((self, i))
        return original_times(self, i, v, right)

    monkeypatch.setattr(algebra, "quotient_algebra", quotient_algebra)
    monkeypatch.setattr(AssocAlgebra, "basis_times", basis_times)
    found = characters(alg).characters
    monkeypatch.undo()
    split = quotients[-1]
    into_blocks = {i for a, i in multiplied if a is split}
    assert into_blocks, name  # the quotient was split
    assert into_blocks <= set(algebra_generators(split)), (name, side)
    assert len(found) == split.dim  # Q is k^n: one character per block
    if alg.dim <= 12:
        assert found == ref_characters(alg)


# name -> an algebra whose search factors a minimal polynomial
FACTORING_INPUTS = {
    **{n: lambda b=b: b().algebra for n, b in GENERATOR_SPLIT_INPUTS.items()},
    **{n: b for n, (b, only) in EIGENVECTOR_SPLIT_INPUTS.items() if not only},
}


@pytest.mark.parametrize("name", sorted(FACTORING_INPUTS))
def test_characters_factor_without_rref(name, monkeypatch):
    """A block that is not made of eigenvectors is split on sparse vectors:
    its coordinates come from one EchelonBasis and each eigenspace from one
    sparse_kernel, so no dense Matrix.rref runs.  Each input is built fresh
    and before the count starts, so no cached radical or quotient hides a
    call."""
    alg = FACTORING_INPUTS[name]()
    factored, rrefs = [], []
    original = algebra.minimal_polynomial
    original_rref = Matrix.rref
    monkeypatch.setattr(
        algebra, "minimal_polynomial", lambda *a: factored.append(a) or original(*a)
    )
    monkeypatch.setattr(Matrix, "rref", lambda m: rrefs.append(m) or original_rref(m))
    characters(alg)
    monkeypatch.undo()
    assert factored, name
    assert not rrefs, name


def test_characters_refuse_a_block_that_is_not_invariant():
    """A non-associative table: e0 the unit, e1^2 = e1, e2^2 = -e0 and
    e1 e2 = e2 e1 = 0.  The eigenspace {e0 - e1, e2} of e1 is not invariant
    under e2 (e2 (e0 - e1) = e2 but e2 e2 = -e0), and characters says so
    rather than report x^2 + 1 as an unresolved factor."""
    entries = {
        (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1, (1, 0, 1): 1, (1, 1, 1): 1,
        (2, 0, 2): 1, (2, 2, 0): -1,
    }
    alg = AssocAlgebra(Q, 3, Tensor3(Q, (3, 3, 3), entries), unit_vector(Q, 3, 0))
    with pytest.raises(ArithmeticError, match="block is not invariant"):
        characters(alg)


def every_pair_is_character(alg, chi):
    """chi(1) = 1 and every table row (i, j), summed over every k, equals
    chi_i chi_j."""
    field = alg.field
    one = field.zero()
    for c, u in zip(chi, alg.unit):
        one = one + c * u
    if not one.is_one():
        return False
    table = alg.mult.by_ij()
    for i in range(alg.dim):
        for j in range(alg.dim):
            acc = field.zero()
            for k, m in table.get((i, j), ()):
                acc = acc + m * chi[k]
            if acc != chi[i] * chi[j]:
                return False
    return True


@st.composite
def character_candidates(draw):
    """A random sparse table over Q or Q(zeta_12) with zero, sparse and
    dense candidates chi; sometimes repaired so that the first candidate is
    a character, and sometimes with rows outside its support whose terms in
    the support cancel."""
    field = draw(st.sampled_from((Q, make_field(12))))
    dim = draw(st.integers(1, 5))
    values = [field.one(), field.from_rational(-1)] + [
        field.zeta(k) for k in range(1, field.order)
    ]

    def candidate():
        kind = draw(st.sampled_from(("zero", "sparse", "dense")))
        if kind == "zero":
            return (field.zero(),) * dim
        if kind == "dense":
            return tuple(draw(st.sampled_from(values)) for _ in range(dim))
        return tuple(draw(scalars(field, density=0.4)) for _ in range(dim))

    cands = [candidate() for _ in range(draw(st.integers(1, 3)))]
    entries = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                c = draw(scalars(field, density=0.25))
                if not c.is_zero():
                    entries[(i, j, k)] = c
    unit = tuple(draw(scalars(field, density=0.5)) for _ in range(dim))
    chi = cands[0]
    support = [k for k, c in enumerate(chi) if not c.is_zero()]
    if support and draw(st.booleans()):
        # make chi a character: row (i, j) gets the term at p that it
        # needs, and the unit is b_p / chi_p
        p = support[0]
        for i in range(dim):
            for j in range(dim):
                acc = field.zero()
                for k in range(dim):
                    if k != p and (i, j, k) in entries:
                        acc = acc + entries[(i, j, k)] * chi[k]
                entries[(i, j, p)] = (chi[i] * chi[j] - acc) / chi[p]
        unit = tuple(
            chi[p].inverse() if k == p else field.zero() for k in range(dim)
        )
        cands.append(tuple(c * field.zeta(1) for c in chi))  # shares products
    outside = [i for i in range(dim) if i not in support]
    if outside and len(support) > 1 and draw(st.booleans()):
        # a row outside the support whose two terms in it cancel
        i, j = draw(st.sampled_from(outside)), draw(st.integers(0, dim - 1))
        k1, k2 = support[:2]
        for k in range(dim):
            entries.pop((i, j, k), None)
        entries[(i, j, k1)] = chi[k2]
        entries[(i, j, k2)] = -chi[k1]
    alg = AssocAlgebra(field, dim, Tensor3(field, (dim,) * 3, entries), unit)
    return alg, cands


@settings(max_examples=150, deadline=None)
@given(character_candidates())
def test_is_character_matches_every_pair_walk(problem):
    """The walk over the rows with a term in the support and the pairs
    inside it decides what the walk over every basis pair decides, alone
    and with products shared among candidates."""
    alg, cands = problem
    expected = [chi for chi in cands if every_pair_is_character(alg, chi)]
    assert [chi for chi in cands if _is_character(alg, chi)] == expected
    assert _characters_among(alg, cands) == expected


class TestCenter:
    def test_commutative_full(self):
        assert len(center(group_algebra_assoc(4))) == 4

    def test_matrix_algebra_center_is_scalars(self):
        c = center(matrix_algebra_2x2())
        assert len(c) == 1

    def test_sweedler_center_is_scalars(self):
        # xg anticommutes with g (xg*g = x, g*xg = -x), so only 1 is central
        c = center(sweedler_assoc())
        assert len(c) == 1
        v = c[0]
        assert not v[0].is_zero()
        assert all(v[i].is_zero() for i in (1, 2, 3))

    def test_center_elements_commute(self):
        alg = sweedler_assoc()
        for z in center(alg):
            for i in range(alg.dim):
                e = unit_vector(Q, alg.dim, i)
                assert alg.multiply(z, e) == alg.multiply(e, z)


def full_walk_is_character(alg, chi):
    """Every table row summed over every k, then the pairs of nonzero
    entries of chi with no row."""
    one = alg.field.zero()
    for c, u in zip(chi, alg.unit):
        one = one + c * u
    if not one.is_one():
        return False
    table = alg.mult.by_ij()
    for (i, j), row in table.items():
        acc = alg.field.zero()
        for k, m in row:
            acc = acc + m * chi[k]
        if acc != chi[i] * chi[j]:
            return False
    support = [i for i, c in enumerate(chi) if not c.is_zero()]
    return all((i, j) in table for i in support for j in support)


class TestIsCharacterSupportWalk:
    """The support walk decides the same equations as the full walk."""

    ALGEBRAS = {
        "k[Z3]/Q12": lambda: group_algebra_assoc(3, make_field(12)),
        "k[Z4]/Q4": lambda: group_algebra_assoc(4, make_field(4)),
        "sweedler": sweedler_assoc,
        "sweedler, x^2 = 1": lambda: sweedler_assoc(break_x_square=True),
        "M2": matrix_algebra_2x2,
        "dual numbers": dual_numbers,
    }

    @staticmethod
    def _perturbed(alg, rng):
        """alg with one table constant changed, added or removed."""
        entries = dict(alg.mult.entries)
        key = rng.choice(sorted(entries))
        if rng.random() < 0.3:
            del entries[key]
        elif rng.random() < 0.5:
            entries[key] = entries[key] + 1
        else:
            i, j, _ = key
            entries[(i, j, rng.randrange(alg.dim))] = alg.field.from_rational(
                rng.choice((1, -1, 2))
            )
        return AssocAlgebra(
            alg.field, alg.dim, Tensor3(alg.field, alg.mult.dims, entries), alg.unit
        )

    @pytest.mark.parametrize("name", sorted(ALGEBRAS))
    def test_matches_full_walk(self, name):
        alg = self.ALGEBRAS[name]()
        field, dim = alg.field, alg.dim
        rng = random.Random(name)
        values = [field.zero(), field.one(), field.from_rational(-1)]
        values += [field.zeta(k) for k in range(1, field.order)]
        try:
            chars = characters(alg).characters
        except ArithmeticError:  # the search refuses a non-associative table
            chars = []
        candidates = list(chars) + [alg.unit]
        for _ in range(40):
            candidates.append(tuple(rng.choice(values) for _ in range(dim)))
        for chi in chars:
            t = rng.randrange(dim)
            candidates.append(chi[:t] + (chi[t] + 1,) + chi[t + 1:])
        tables = [alg] + [self._perturbed(alg, rng) for _ in range(8)]
        agreed = 0
        for table in tables:
            for chi in candidates:
                expected = full_walk_is_character(table, chi)
                assert _is_character(table, chi) == expected, (name, chi)
                agreed += expected
        assert agreed >= len(chars)  # each character passes on its own table


def double_loop_multiply(alg, a, b):
    """AssocAlgebra.multiply as a dense double loop: every b_j is tested for
    each nonzero a_i."""
    out = [alg.field.zero()] * alg.dim
    table = alg.mult.by_ij()
    for i, ai in enumerate(a):
        if ai.is_zero():
            continue
        for j, bj in enumerate(b):
            if bj.is_zero():
                continue
            for k, m in table.get((i, j), ()):
                out[k] = out[k] + ai * bj * m
    return tuple(out)


MULTIPLY_ALGEBRAS = {
    "sweedler": sweedler_assoc,
    "k[Z3]/Q12": lambda: group_algebra_assoc(3, make_field(12)),
    "M2": matrix_algebra_2x2,
    "A(3,1)": lambda: a_tau_mu(3, 2, -1, 1).algebra,
    "A(3,1)*": lambda: dual_algebra(a_tau_mu(3, 2, -1, 1)),
}
_MULTIPLY_CACHE: dict = {}


@st.composite
def multiply_operands(draw, algebras=MULTIPLY_ALGEBRAS):
    """An algebra of `algebras` and two vectors, each zero, sparse (at most
    3 nonzero entries) or dense (every entry nonzero)."""
    name = draw(st.sampled_from(sorted(algebras)))
    if name not in _MULTIPLY_CACHE:
        _MULTIPLY_CACHE[name] = algebras[name]()
    alg = _MULTIPLY_CACHE[name]
    field, dim = alg.field, alg.dim
    values = st.sampled_from(
        [field.from_rational(Fraction(n, d)) for n in (-2, -1, 1, 3) for d in (1, 2)]
        + [field.zeta(k) for k in range(1, field.order)]
    )

    def vector():
        kind = draw(st.sampled_from(("zero", "sparse", "dense")))
        out = [field.zero()] * dim
        if kind == "sparse":
            entries = st.dictionaries(st.integers(0, dim - 1), values, max_size=3)
            for t, x in draw(entries).items():
                out[t] = x
        elif kind == "dense":
            out = [draw(values) for _ in range(dim)]
        return tuple(out)

    return name, alg, vector(), vector()


@settings(max_examples=80, deadline=None)
@given(multiply_operands())
def test_multiply_matches_double_loop(case):
    name, alg, a, b = case
    assert alg.multiply(a, b) == double_loop_multiply(alg, a, b), name


def triple_loop_multiply(alg, a, b):
    """sum_ijk a_i b_j m[i][j][k] b_k over every index triple."""
    every = range(alg.dim)
    return tuple(
        sum((a[i] * b[j] * alg.mult.get(i, j, k) for i in every for j in every),
            alg.field.zero())
        for k in every
    )


# every table leaves some pair of basis elements without a row
ROW_GAP_ALGEBRAS = {
    "sweedler/Q": sweedler_assoc,
    "sweedler/Q12": lambda: sweedler_assoc(make_field(12)),
    "M2/Q12": lambda: matrix_algebra_2x2(make_field(12)),
    "A(3,1)*": lambda: dual_algebra(a_tau_mu(3, 2, -1, 1)),
}


@settings(max_examples=80, deadline=None)
@given(multiply_operands(ROW_GAP_ALGEBRAS))
def test_multiply_skipping_pairs_without_a_row_matches_triple_loop(case):
    name, alg, a, b = case
    assert len(alg.mult.by_ij()) < alg.dim**2, name
    assert alg.multiply(a, b) == triple_loop_multiply(alg, a, b), name
