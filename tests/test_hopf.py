import dataclasses
import functools
import itertools

import pytest

from hopfcheck import families, hopf
from hopfcheck.algebra import (
    AssocAlgebra,
    is_semisimple_trace,
    minimal_polynomial,
    radical,
)
from hopfcheck.cyclotomic import UniPoly, is_prime, make_field, roots_in_field
from hopfcheck.families import a_tau_mu, group_algebra, sweedler, taft, taft_tensor_group
from hopfcheck.hopf import (
    LABEL_A0,
    LABEL_A0_DUAL,
    LABEL_A1,
    LABEL_A1_DUAL,
    LABEL_TAFT_TENSOR,
    AntipodeOrderOverflow,
    DegenerateIntegral,
    Fingerprint,
    HopfAlgebra,
    NoAntipode,
    NotGroupLike,
    antipode_order,
    check_radford_s4,
    coradical,
    dual,
    dual_algebra,
    fingerprint,
    group_likes,
    integrals,
    is_pointed,
    reference_fingerprints,
    is_semisimple_lr,
    skew_primitives,
    skew_profile,
    solve_antipode,
    structure_equal,
    tensor_hopf,
    trace_s2,
    verify_hopf,
)
from hopfcheck.io import manifest_for, parse, serialize
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    unit_vector,
    vec_dot,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
from test_basis_independence import dense_a31
from test_verify_generators import is_group_like, transport, transpose

Q = make_field(1)


# --- brute-force group-like oracle ----------------------------------------


def group_likes_bruteforce(h: HopfAlgebra) -> list[tuple]:
    """Direct quadratic solve of Delta(g) = g (x) g, eps(g) = 1 (dim <= 6 oracle).

    Any group-like has a nonzero coordinate at some pivot j0, and then is an
    eigenvector of the slice operator A_j0 with eigenvalue equal to its own
    j0-th coordinate.  Enumerates eigenvalues per pivot via minimal-polynomial
    roots and verifies each isolated candidate against the full quadratic
    system.
    """
    if h.dim > 6:
        raise ValueError("brute-force group-like search is for dim <= 6")
    field = h.field
    dim = h.dim
    found = {}
    for j0 in range(dim):
        f = unit_vector(field, dim, j0)
        a_mat = h.comult.contract(1, f).transpose()
        minpoly = minimal_polynomial(a_mat)
        for gamma in set(roots_in_field(minpoly)):
            if gamma.is_zero():
                continue
            shifted = a_mat - Matrix.identity(field, dim).scale(gamma)
            eigen = shifted.kernel()
            coeffs = [v[j0] for v in eigen]
            pivot = next((t for t, c in enumerate(coeffs) if not c.is_zero()), None)
            if pivot is None:
                continue
            # affine slice of the eigenspace with j0-coordinate = gamma
            base = vec_scale(gamma / coeffs[pivot], eigen[pivot])
            directions = [
                vec_sub(v, vec_scale(coeffs[t] / coeffs[pivot], eigen[pivot]))
                for t, v in enumerate(eigen)
                if t != pivot
            ]
            directions = [w for w in directions if not vec_is_zero(w)]
            if not directions:
                if is_group_like(h, base):
                    found[tuple(base)] = True
            elif len(directions) == 1:
                for cand in _quadratic_line_solutions(h, base, directions[0]):
                    if is_group_like(h, cand):
                        found[tuple(cand)] = True
            else:
                raise ArithmeticError(
                    "brute-force search inconclusive: affine family too large"
                )
    out = sorted(found, key=lambda g: tuple(tuple(c.coeffs) for c in g))
    return [tuple(g) for g in out]


def _quadratic_line_solutions(h: HopfAlgebra, base, direction):
    """Solve Delta(v) = v (x) v with eps(v) = 1 on the line v = base + t*dir."""
    field = h.field
    d_base = h.delta_vec(base)
    d_dir = h.delta_vec(direction)
    keys = set(d_base) | set(d_dir)
    for j in range(h.dim):
        for k in range(h.dim):
            if not (base[j].is_zero() and direction[j].is_zero()):
                if not (base[k].is_zero() and direction[k].is_zero()):
                    keys.add((j, k))
    zero = field.zero()
    candidates = None
    for j, k in sorted(keys):
        c0 = d_base.get((j, k), zero) - base[j] * base[k]
        c1 = (
            d_dir.get((j, k), zero)
            - base[j] * direction[k]
            - direction[j] * base[k]
        )
        c2 = -direction[j] * direction[k]
        poly = UniPoly(field, [c0, c1, c2])
        if poly.is_zero():
            continue
        if poly.degree == 0:
            return []
        roots = roots_in_field(poly)
        root_set = set(roots)
        candidates = root_set if candidates is None else candidates & root_set
        if not candidates:
            return []
    if candidates is None:
        return []
    out = []
    for t in candidates:
        out.append(tuple(b + t * w for b, w in zip(base, direction)))
    return out


def perturbed_sweedler_antipode():
    h = sweedler()
    data = [list(row) for row in h.antipode.data]
    # S(x) = -xg lives in column 2 (basis 1, x, g, gx ordering is (i,j) lex:
    # 1=(0,0), x=(0,1), g=(1,0), gx=(1,1)); flip its sign
    col = 1
    for r in range(4):
        data[r][col] = -data[r][col]
    return HopfAlgebra(h.algebra, h.comult, h.counit, Matrix(h.field, data))


def fresh_copy(h):
    """The same structure through a manifest round trip: no shared caches."""
    return parse(serialize(manifest_for(h))).payload


def monoid_algebra(table):
    """k[M] for the monoid with b_i b_j = b_table[i][j] and unit b_0; every
    b_i is group-like.  A bialgebra, and a Hopf algebra only if M is a group."""
    n = len(table)
    mult = {(i, j, table[i][j]): 1 for i in range(n) for j in range(n)}
    alg = AssocAlgebra(Q, n, Tensor3(Q, (n, n, n), mult), unit_vector(Q, n, 0))
    comult = Tensor3(Q, (n, n, n), {(i, i, i): 1 for i in range(n)})
    return HopfAlgebra(alg, comult, [Q.one()] * n)


def idempotent_monoid():
    """k[{1, z}] with z^2 = z and Delta(z) = z (x) z."""
    return monoid_algebra([[0, 1], [1, 1]])


def spread(h):
    """h in the basis b_{i+1} + (b_0 + ... + b_{n-1}): the unit is off every
    basis vector."""
    field, dim = h.field, h.dim
    cols = [
        tuple(field.from_rational(1 + (r == (i + 1) % dim)) for r in range(dim))
        for i in range(dim)
    ]
    return transport(h, cols)


def without_antipode(h):
    return HopfAlgebra(h.algebra, h.comult, h.counit)


def cyclic_antipode_z33():
    """k[Z_33] over Q with its antipode replaced by the 33-cycle permutation
    b_j -> b_(j+1): not a Hopf algebra, and S has order 33."""
    field = make_field(1)
    h = group_algebra(33, field)
    columns = [unit_vector(field, 33, (j + 1) % 33) for j in range(33)]
    cycle = Matrix.from_columns(field, columns)
    return HopfAlgebra(h.algebra, h.comult, h.counit, cycle)


class TestVerifyHopf:
    def test_sweedler_passes(self):
        assert verify_hopf(sweedler()).ok

    def test_group_algebras_pass(self):
        for n in (1, 2, 5):
            assert verify_hopf(group_algebra(n)).ok

    def test_a_tau_mu_passes(self):
        assert verify_hopf(a_tau_mu(3, 2, -1, 1)).ok

    def test_wrong_antipode_sign_fails_on_x(self):
        report = verify_hopf(perturbed_sweedler_antipode())
        assert not report.ok
        laws = {v.law for v in report.violations}
        assert laws <= {"antipode-left", "antipode-right"}
        locations = {v.location for v in report.violations}
        assert (1,) in locations  # basis element x

    def test_report_lines_deterministic(self):
        lines = verify_hopf(sweedler()).lines()
        assert lines == verify_hopf(sweedler()).lines()
        assert lines[0] == "associativity: ok"


class TestSolveAntipode:
    def test_sweedler_antipode_values(self):
        h = sweedler()
        s = solve_antipode(h)
        # basis 1, x, g, gx; S(g) = g, S(x) = -xg = gx
        assert s.column(2) == unit_vector(Q, 4, 2)
        assert s.column(1) == vec_scale(Q.from_rational(1), unit_vector(Q, 4, 3))

    def test_group_algebra_antipode_is_inversion(self):
        h = group_algebra(6)
        s = solve_antipode(h)
        for i in range(6):
            assert s.column(i) == unit_vector(h.field, 6, (-i) % 6)

    def test_idempotent_monoid_has_no_antipode(self):
        with pytest.raises(NoAntipode):
            solve_antipode(idempotent_monoid())


@pytest.fixture
def integral_solves(monkeypatch):
    """The dimension of each input solved by hopf._solve_antipode_dense."""
    calls = []
    original = hopf._solve_antipode_dense

    def counting(h):
        calls.append(h.dim)
        return original(h)

    monkeypatch.setattr(hopf, "_solve_antipode_dense", counting)
    return calls


def broken_sweedler():
    """Sweedler's algebra with 1 (x) 1 added to Delta(x): not a bialgebra."""
    h = sweedler()
    entries = dict(h.comult.entries)
    entries[(1, 0, 0)] = 1
    return HopfAlgebra(h.algebra, Tensor3(Q, h.comult.dims, entries), h.counit)


LEFT_ZERO = [[0, 1, 2], [1, 1, 1], [2, 2, 2]]  # a b = a for a, b != 1
RIGHT_ZERO = [[0, 1, 2], [1, 1, 2], [2, 1, 2]]  # a b = b for a, b != 1


class TestAntipodeFromIntegrals:
    """solve_antipode inverts T(x) = lam(x Lambda_1) Lambda_2 (Radford)."""

    @pytest.mark.parametrize(
        "make",
        (sweedler, lambda: a_tau_mu(3, 2, -1, 0), lambda: a_tau_mu(3, 2, -1, 1),
         lambda: group_algebra(6)),
        ids=("sweedler", "A(3,0)", "A(3,1)", "k[Z6]"),
    )
    def test_moved_input_gets_the_transported_antipode(self, integral_solves, make):
        h = spread(make())
        assert solve_antipode(without_antipode(h)) == h.antipode
        assert integral_solves == [h.dim]

    def test_a51_dual_gets_its_antipode(self, integral_solves):
        h = dual(a_tau_mu(5, 2, -1, 1))
        assert solve_antipode(without_antipode(h)) == h.antipode
        assert integral_solves == [20]

    @pytest.mark.parametrize(
        "make, message",
        (
            (lambda: monoid_algebra(LEFT_ZERO), "left integral space has dimension 0"),
            (lambda: monoid_algebra(RIGHT_ZERO), "left integral space has dimension 2"),
            (lambda: transpose(monoid_algebra(LEFT_ZERO)),
             "right dual integral space has dimension 2"),
            (lambda: transpose(monoid_algebra(RIGHT_ZERO)),
             "right dual integral space has dimension 0"),
            (idempotent_monoid, r"lam\(x Lambda_1\) Lambda_2 is singular"),
            (broken_sweedler, "left antipode law fails on basis 0"),
        ),
        ids=("left-zero", "right-zero", "left-zero*", "right-zero*", "idempotent",
             "certificate"),
    )
    def test_each_failure_is_no_antipode(self, integral_solves, make, message):
        h = spread(make())
        with pytest.raises(NoAntipode, match="^%s$" % message):
            solve_antipode(h)
        assert integral_solves == [h.dim]


def monoid_tables(n):
    """Every associative table on b_0, ..., b_{n-1} with identity b_0."""
    for values in itertools.product(range(n), repeat=(n - 1) ** 2):
        rest = iter(values)
        table = [[i + j if i * j == 0 else next(rest) for j in range(n)]
                 for i in range(n)]
        if all(table[table[a][b]][c] == table[a][table[b][c]]
               for a, b, c in itertools.product(range(n), repeat=3)):
            yield table


MONOID_TABLES = [table for n in (2, 3) for table in monoid_tables(n)]


def is_group(table):
    """A finite monoid is a group when every element has a right inverse."""
    return all(0 in row for row in table)


class TestMonoidAntipodes:
    """k[M] for every monoid M of order 2 or 3: an antipode exactly when M is
    a group, and the same reason for none in the monoid's basis and spread."""

    def test_thirteen_tables_two_groups(self):
        assert len(MONOID_TABLES) == 13
        assert sum(map(is_group, MONOID_TABLES)) == 2

    @pytest.mark.parametrize(
        "table", MONOID_TABLES,
        ids=lambda t: "".join(str(x) for row in t for x in row),
    )
    def test_antipode_iff_group(self, table):
        h = monoid_algebra(table)
        n = h.dim
        if is_group(table):
            inversion = Matrix.from_columns(
                Q, [unit_vector(Q, n, row.index(0)) for row in table]
            )
            assert solve_antipode(h) == inversion
            moved = spread(HopfAlgebra(h.algebra, h.comult, h.counit, inversion))
            assert solve_antipode(without_antipode(moved)) == moved.antipode
            return
        messages = []
        for x in (h, spread(h)):
            with pytest.raises(NoAntipode) as info:
                solve_antipode(x)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestDual:
    def test_double_dual_identity(self):
        for h in (sweedler(), group_algebra(4), a_tau_mu(3, 2, -1, 0)):
            # dualize an unlinked copy of H*, so the transpose really runs twice
            assert structure_equal(dual(fresh_copy(dual(h))), h)
            assert dual(dual(h)) is h

    def test_dual_group_algebra_group_count(self):
        h = group_algebra(5)  # default field Q(zeta_5)
        d = dual(h)
        assert verify_hopf(d).ok
        assert len(group_likes(d)) == 5

    def test_sweedler_self_dual_fingerprint(self):
        assert fingerprint(dual(sweedler())) == fingerprint(sweedler())


class TestTensor:
    def test_tensor_with_trivial_is_identity(self):
        h = sweedler()
        t = tensor_hopf(h, group_algebra(1, h.field))
        assert structure_equal(t, h)

    def test_tensor_dim(self):
        f = make_field(12)
        t = tensor_hopf(taft(2, -1, f), group_algebra(3, f))
        assert t.dim == 12
        assert verify_hopf(t).ok

    def test_taft_tensor_group_group_likes(self):
        t = taft_tensor_group(2, -1, 5)
        likes = group_likes(t)
        assert len(likes) == 10
        assert likes.is_cyclic()


class TestIntegrals:
    def test_group_algebra_unimodular(self):
        h = group_algebra(4)
        data = integrals(h)
        # Lambda proportional to sum of all group elements
        lam = data.left_integral
        assert all(c == lam[0] for c in lam)
        assert data.distinguished_a == h.unit
        assert data.distinguished_alpha == tuple(h.counit)

    def test_sweedler_integral_data(self):
        h = sweedler()
        data = integrals(h)
        lam = data.left_integral
        # Lambda = x + gx up to scalar: zero on 1, g; equal coords on x, gx
        assert lam[0].is_zero() and lam[2].is_zero()
        assert not lam[1].is_zero() and lam[1] == lam[3]
        # Lambda g = -Lambda
        prod = h.algebra.multiply(lam, unit_vector(Q, 4, 2))
        assert prod == vec_scale(Q.from_rational(-1), lam)
        # a = g and alpha(g) = -1
        assert data.distinguished_a == unit_vector(Q, 4, 2)
        assert data.distinguished_alpha[2] == Q.from_rational(-1)

    def test_integral_defining_equations(self):
        for h in (sweedler(), group_algebra(3), a_tau_mu(3, 2, -1, 1)):
            data = integrals(h)
            lam = data.left_integral
            for i in range(h.dim):
                e = unit_vector(h.field, h.dim, i)
                assert h.algebra.multiply(e, lam) == vec_scale(h.counit[i], lam)


class TestRadford:
    def test_group_algebra(self):
        h = group_algebra(5)
        assert check_radford_s4(h, integrals(h))
        assert h.antipode.power(2).is_identity()

    def test_sweedler(self):
        h = sweedler()
        assert check_radford_s4(h, integrals(h))
        assert h.antipode.power(4).is_identity()

    def test_a_tau_mu_s4_identity(self):
        h = a_tau_mu(3, 2, -1, 1)
        assert check_radford_s4(h, integrals(h))
        assert h.antipode.power(4).is_identity()


def radford_s4_oracle(h, data):
    """check_radford_s4 by the loop it replaced: alpha^{-1}(b_j) alpha(b_l) b_k
    summed over the triples (j, k, l) of sweedler_triples(i)."""
    field, dim = h.field, h.dim
    s4 = h.antipode.power(4)
    alpha = data.distinguished_alpha
    alpha_inv = tuple(vec_dot(alpha, h.antipode.column(j), field) for j in range(dim))
    a = data.distinguished_a
    a_inv = h.antipode.apply(a)
    for i in range(dim):
        w = [field.zero()] * dim
        for j, k, l, c in h.sweedler_triples(i):
            f = alpha_inv[j] * alpha[l]
            if not f.is_zero():
                w[k] = w[k] + c * f
        conj = h.algebra.multiply(a, h.algebra.multiply(tuple(w), a_inv))
        if conj != s4.column(i):
            return False
    return True


RADFORD_FAMILIES = {"sweedler": sweedler}
for _p in (3, 5):
    RADFORD_FAMILIES.update({
        "k[Z%d]" % _p: lambda p=_p: group_algebra(p),
        "T%d" % _p: lambda p=_p: taft(p, make_field(p).zeta()),
        "A(%d,0)" % _p: lambda p=_p: a_tau_mu(p, 2, -1, 0),
        "A(%d,1)" % _p: lambda p=_p: a_tau_mu(p, 2, -1, 1),
        "T2xk[Z%d]" % _p: lambda p=_p: taft_tensor_group(2, -1, p),
    })
RADFORD_INPUTS = dict(RADFORD_FAMILIES)
RADFORD_INPUTS.update({
    name + "*": lambda make=make: dual(make()) for name, make in RADFORD_FAMILIES.items()
})
RADFORD_INPUTS["dense A(3,1)"] = dense_a31


class TestRadfordAgainstTripleLoop:
    """check_radford_s4 gives the Delta^2-triple loop's verdict on the true
    integral data and with a or alpha replaced by another group-like, on
    every family and its dual at p in {3, 5} and on a dense A(3,1)."""

    @pytest.mark.parametrize("name", sorted(RADFORD_INPUTS))
    def test_same_verdict(self, name):
        h = RADFORD_INPUTS[name]()
        data = integrals(h)
        assert check_radford_s4(h, data) and radford_s4_oracle(h, data)
        perturbed = [
            dataclasses.replace(data, distinguished_a=g)
            for g in group_likes(h).elements
            if g != data.distinguished_a
        ] + [
            dataclasses.replace(data, distinguished_alpha=chi)
            for chi in group_likes(dual(h)).elements
            if chi != data.distinguished_alpha
        ]
        verdicts = []
        for other in perturbed:
            verdicts.append(check_radford_s4(h, other))
            assert verdicts[-1] == radford_s4_oracle(h, other)
        # in k[Zn], commutative and cocommutative, every replacement passes;
        # every other input has one that fails
        assert all(verdicts) == name.startswith("k[Z")


class TestComputeOnce:
    def test_solve_integrals_radford_share_one_integral_pair(self, monkeypatch):
        calls = []
        original = hopf.integral_line

        def counting(*args, **kwargs):
            calls.append(args[0].dims[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(hopf, "integral_line", counting)
        h = without_antipode(a_tau_mu(5, 2, -1, 1))
        h.antipode = solve_antipode(h)
        data = integrals(h)
        assert check_radford_s4(h, data)
        assert calls == [20, 20]  # Lambda and lam, once each
        pair = h._cache["integral_pair"]
        assert pair == (data.left_integral, data.right_dual_integral)
        assert pair == hopf._integral_pair(without_antipode(a_tau_mu(5, 2, -1, 1)))

    def test_verify_does_not_repeat_the_antipode_certificate(self, monkeypatch):
        h = without_antipode(a_tau_mu(3, 2, -1, 1))
        calls = []
        original = hopf.antipode_law_failures

        def counting(h, s):
            calls.append(h.dim)
            return original(h, s)

        monkeypatch.setattr(hopf, "antipode_law_failures", counting)
        h.antipode = solve_antipode(h)
        assert verify_hopf(h).ok
        assert calls == [12]
        # another matrix in the antipode's place is checked again
        h.antipode = h.antipode.scale(-1)
        report = verify_hopf(h)
        assert calls == [12, 12]
        assert [v.law for v in report.violations][:1] == ["antipode-left"]

    def test_degenerate_integral_is_not_cached(self):
        h = monoid_algebra(LEFT_ZERO)
        for _ in range(2):
            with pytest.raises(
                DegenerateIntegral, match="^left integral space has dimension 0$"
            ):
                integrals(h)
        assert "integral_pair" not in h._cache


class TestSemisimplicity:
    def test_group_algebra_trace(self):
        for n in (2, 3, 6):
            h = group_algebra(n)
            assert trace_s2(h) == h.field.from_rational(n)
            assert is_semisimple_lr(h)
            assert is_semisimple_trace(h.algebra)

    def test_sweedler_trace_zero(self):
        h = sweedler()
        assert trace_s2(h).is_zero()
        assert not is_semisimple_lr(h)
        assert not is_semisimple_trace(h.algebra)

    def test_larson_radford_agrees_with_trace_form(self):
        for h in (sweedler(), group_algebra(4), a_tau_mu(3, 2, -1, 0)):
            assert is_semisimple_lr(h) == is_semisimple_trace(h.algebra)


class TestGroupLikes:
    def test_cyclic(self):
        h = group_algebra(6)
        likes = group_likes(h)
        assert len(likes) == 6 and likes.is_cyclic()
        assert sorted(likes.orders) == [1, 2, 3, 3, 6, 6]
        assert likes.complete

    def test_sweedler(self):
        likes = group_likes(sweedler())
        assert len(likes) == 2
        assert sorted(likes.orders) == [1, 2]

    def test_linear_independence(self):
        for h in (sweedler(), group_algebra(5), a_tau_mu(3, 2, -1, 0)):
            likes = group_likes(h)
            assert (
                Matrix(h.field, [list(v) for v in likes.elements]).rref()[1]
                == len(likes)
            )

    def test_brute_force_oracle_agrees(self):
        key = lambda g: tuple(tuple(c.coeffs) for c in g)
        for h in (sweedler(), group_algebra(3), group_algebra(4), group_algebra(6)):
            expected = sorted(group_likes(h).elements, key=key)
            assert sorted(group_likes_bruteforce(h), key=key) == expected

    def test_a_tau_mu_group(self):
        likes = group_likes(a_tau_mu(3, 2, -1, 0))
        assert len(likes) == 6 and likes.is_cyclic()


class TestSkewPrimitives:
    def test_sweedler_g_1(self):
        h = sweedler()
        g = unit_vector(Q, 4, 2)
        basis = skew_primitives(h, g, h.unit)
        assert len(basis) == 1
        v = basis[0]
        assert not v[1].is_zero()  # contains x
        assert v[0].is_zero() and v[2].is_zero()

    def test_group_algebra_has_none(self):
        h = group_algebra(5)
        likes = group_likes(h)
        for g in likes.elements:
            for k in likes.elements:
                assert skew_primitives(h, g, k) == []

    def test_a_tau_mu_contains_y(self):
        h = a_tau_mu(3, 2, -1, 1)
        a = unit_vector(h.field, 12, 2)  # basis a^i y^j at i*2+j; a = (1,0)
        basis = skew_primitives(h, h.unit, a)
        assert len(basis) == 1
        assert not basis[0][1].is_zero()  # y = index (0,1) -> 1

    def test_not_group_like(self):
        h = sweedler()
        with pytest.raises(NotGroupLike):
            skew_primitives(h, unit_vector(Q, 4, 1), h.unit)


class TestCoradicalAndPointed:
    def test_group_algebra_everything(self):
        h = group_algebra(4)
        assert len(coradical(h)) == 4
        assert is_pointed(h)

    def test_sweedler(self):
        h = sweedler()
        assert len(coradical(h)) == 2
        assert is_pointed(h)

    def test_dual_a_tau_1_not_pointed(self):
        h = dual(a_tau_mu(3, 2, -1, 1))
        assert not is_pointed(h)


class TestFingerprint:
    def test_sweedler(self):
        fp = fingerprint(sweedler())
        assert fp.dim == 4
        assert fp.group_order == 2
        assert fp.trace_s2_key == ("rat", "0/1")
        assert fp.pointed and fp.dual_pointed
        assert fp.antipode_order == 4

    def test_group_algebra_6(self):
        fp = fingerprint(group_algebra(6))
        assert fp.dim == 6 and fp.group_order == 6
        assert fp.antipode_order == 2
        assert fp.trace_s2_key == ("rat", "6/1")

    def test_a_tau_mu_12(self):
        fp = fingerprint(a_tau_mu(3, 2, -1, 1))
        assert fp.dim == 12 and fp.group_order == 6
        assert fp.pointed and not fp.dual_pointed

    def test_antipode_order_cap(self):
        assert antipode_order(group_algebra(3)) == 2
        assert antipode_order(taft(3, make_field(3).zeta())) == 6

    def test_antipode_order_beyond_the_cap_raises(self):
        with pytest.raises(AntipodeOrderOverflow, match="^antipode order exceeds 32$"):
            antipode_order(cyclic_antipode_z33())

    def test_double_dual_fingerprint(self):
        h = a_tau_mu(3, 2, -1, 1)
        assert fingerprint(dual(fresh_copy(dual(h)))) == fingerprint(h)
        assert dual(dual(h)) is h

    def test_group_algebra_self_dual_fingerprint(self):
        h = group_algebra(5)
        assert fingerprint(dual(h)) == fingerprint(h)


class TestAntipodeStructure:
    @pytest.mark.parametrize(
        "build",
        [sweedler, lambda: group_algebra(4), lambda: a_tau_mu(3, 2, -1, 0),
         lambda: taft(3, make_field(3).zeta())],
    )
    def test_antihomomorphism_and_counit(self, build):
        h = build()
        s = h.antipode
        assert s.apply(h.unit) == h.unit
        for i in range(h.dim):
            col = s.column(i)
            assert h.counit_of(col) == h.counit[i]
        for i in range(h.dim):
            for j in range(h.dim):
                ei = unit_vector(h.field, h.dim, i)
                ej = unit_vector(h.field, h.dim, j)
                lhs = s.apply(h.algebra.multiply(ei, ej))
                rhs = h.algebra.multiply(s.apply(ej), s.apply(ei))
                assert lhs == rhs, (i, j)

    def test_taft_traces_vanish(self):
        assert trace_s2(taft(2, -1)).is_zero()
        assert trace_s2(taft(3, make_field(3).zeta())).is_zero()

    def test_left_mult_by_x_is_rank_two_nilpotent(self):
        h = sweedler()
        x = unit_vector(Q, 4, 1)  # basis order (1, x, g, gx)
        lx = h.algebra.mult.contract(0, x).transpose()
        assert lx.rref()[1] == 2
        assert (lx * lx) == Matrix.zero(Q, 4, 4)


def per_pair_skew_profile(h):
    """The skew profile from one skew_primitives solve per pair (g, g2) of
    group-likes, with no translation and no candidates."""
    likes = group_likes(h)
    oracle: dict = {}
    for a, g in enumerate(likes.elements):
        for b, g2 in enumerate(likes.elements):
            d = len(skew_primitives(h, g, g2))
            if d:
                key = (likes.orders[a], likes.orders[b])
                oracle[key] = oracle.get(key, 0) + d
    return oracle


SKEW_ORACLE_INPUTS = {
    "sweedler": sweedler,
    "k[Z12]": lambda: group_algebra(12),
    "dense A(3,1)": dense_a31,
}
for _p in (3, 5, 7):
    SKEW_ORACLE_INPUTS.update({
        "A(%d,0)" % _p: functools.partial(a_tau_mu, _p, 2, -1, 0),
        "A(%d,1)" % _p: functools.partial(a_tau_mu, _p, 2, -1, 1),
        "T2xk[Z%d]" % _p: functools.partial(taft_tensor_group, 2, -1, _p),
    })


def _invariants(h):
    return (
        group_likes(h),
        coradical(h),
        skew_profile(h),
        fingerprint(h),
        radical(dual_algebra(h)),
    )


class TestComputedOnce:
    @pytest.mark.parametrize(
        "build",
        [
            sweedler,
            lambda: a_tau_mu(3, 2, -1, 0),
            lambda: a_tau_mu(3, 2, -1, 1),
            lambda: taft_tensor_group(2, -1, 3),
            lambda: group_algebra(12),
        ],
        ids=["sweedler", "A(3,0)", "A(3,1)", "T2xk[Z3]", "k[Z12]"],
    )
    @pytest.mark.parametrize("dual_first", [True, False])
    def test_cached_invariants_match_fresh_copy(self, build, dual_first):
        h = build()
        d = dual(h)
        order = (d, h) if dual_first else (h, d)
        got = [_invariants(x) for x in order]
        for x, inv in zip(order, got):
            assert inv == _invariants(fresh_copy(x))
            assert _invariants(x) == inv

    def test_cached_results_are_copies(self):
        h = a_tau_mu(3, 2, -1, 1)
        profile = skew_profile(h)
        expected = dict(profile)
        profile.clear()
        assert skew_profile(h) == expected
        rad = radical(dual_algebra(h))
        assert rad
        rad.clear()
        assert radical(dual_algebra(h))

    @pytest.mark.parametrize(
        "name", sorted(SKEW_ORACLE_INPUTS) + sorted(n + "*" for n in SKEW_ORACLE_INPUTS)
    )
    def test_skew_profile_matches_per_pair_oracle(self, name):
        """The one-kernel counts on the normal forms at p = 3, 5, 7, the
        semisimple k[Z_12] and A(3,1) in a dense basis, and their duals."""
        h = SKEW_ORACLE_INPUTS[name.rstrip("*")]()
        if name.endswith("*"):
            h = dual(h)
        assert skew_profile(h) == per_pair_skew_profile(h)

    def test_fingerprint_of_h_and_dual_solves_once(self, monkeypatch):
        calls = {"characters": 0, "skew_primitives": 0}

        def counting(name):
            original = getattr(hopf, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(hopf, name, counting(name))
        h = a_tau_mu(3, 2, -1, 1)
        fingerprint(h)
        fingerprint(dual(h))
        # one character search per algebra (H* and H); the skew counts of the
        # 8 elements of G(H) and G(H*) come from one kernel per side, and no
        # skew_primitives system is solved
        assert len(group_likes(h)) + len(group_likes(dual(h))) == 8
        assert calls == {"characters": 2, "skew_primitives": 0}


# --- the reference fingerprints: closed form against the computed path -----


def computed_reference_fingerprints(p: int) -> dict:
    """The five reference fingerprints of dimension 4p computed from the
    constructed families: the oracle for reference_fingerprints' closed form."""
    a0 = a_tau_mu(p, 2, -1, 0)
    a1 = a_tau_mu(p, 2, -1, 1)
    return {
        LABEL_A0: fingerprint(a0),
        LABEL_A0_DUAL: fingerprint(dual(a0)),
        LABEL_A1: fingerprint(a1),
        LABEL_A1_DUAL: fingerprint(dual(a1)),
        LABEL_TAFT_TENSOR: fingerprint(taft_tensor_group(2, -1, p)),
    }


DUAL_LABEL = {
    LABEL_A0: LABEL_A0_DUAL,
    LABEL_A0_DUAL: LABEL_A0,
    LABEL_A1: LABEL_A1_DUAL,
    LABEL_A1_DUAL: LABEL_A1,
    LABEL_TAFT_TENSOR: LABEL_TAFT_TENSOR,
}


class TestReferenceFingerprints:
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_closed_form_matches_computed(self, p):
        closed = reference_fingerprints(p)
        computed = computed_reference_fingerprints(p)
        assert list(closed) == list(computed)
        for label, ref in computed.items():
            for f in dataclasses.fields(Fingerprint):
                got = getattr(closed[label], f.name)
                assert got == getattr(ref, f.name), (p, label, f.name)

    def test_closed_form_distinct_below_200(self):
        # the unique-match rule of classify_4p needs five distinct references
        for p in filter(is_prime, range(3, 200)):
            refs = reference_fingerprints(p)
            assert len(set(refs.values())) == 5, p
            for label, fp in refs.items():
                assert fp.dim == 4 * p
                assert fp.group_order == len(fp.group_element_orders)
                other = refs[DUAL_LABEL[label]]
                assert fp.dual_group_order == other.group_order, (p, label)
                assert fp.dual_pointed == other.pointed, (p, label)
                assert fp.dual_skew_profile == other.skew_profile, (p, label)

    def test_classify_builds_no_families(self, monkeypatch):
        a0 = a_tau_mu(5, 2, -1, 0)
        a1 = a_tau_mu(5, 2, -1, 1)
        inputs = {
            LABEL_A0: a0,
            LABEL_A0_DUAL: dual(a0),
            LABEL_A1: a1,
            LABEL_A1_DUAL: dual(a1),
            LABEL_TAFT_TENSOR: taft_tensor_group(2, -1, 5),
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("classify_4p constructed a reference family")

        for name in ("a_tau_mu", "taft", "taft_tensor_group"):
            monkeypatch.setattr(families, name, forbidden)
        monkeypatch.setattr(hopf, "_REFERENCE_CACHE", {})
        got = {label: hopf.classify_4p(h) for label, h in inputs.items()}
        assert got == {label: label for label in inputs}
