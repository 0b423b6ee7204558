import random
from fractions import Fraction

import pytest

from hopfcheck import yetter_drinfeld
from hopfcheck.cyclotomic import make_field
from hopfcheck.families import group_algebra, sweedler, taft_tensor_group
from hopfcheck.hopf import (
    HopfAlgebra,
    NoAntipode,
    coradical,
    dual,
    fingerprint,
    group_likes,
    structure_equal,
    verify_hopf,
)
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    dense_vector,
    sparse_vector,
    unit_vector,
    vec_dot,
    vec_scale,
)
from hopfcheck.yetter_drinfeld import (
    BaseMismatch,
    BraidedHopf,
    VerificationFailure,
    YDModule,
    bosonize,
    braided_integrals,
    braiding,
    check_dual_biproduct,
    dual_braided,
    ordinary_to_braided,
    trivial_yd,
    verify_braided_hopf,
    verify_yd,
)

Q = make_field(1)

# Sweedler basis order is (1, x, g, gx); indices:
ONE, X, G, GX = 0, 1, 2, 3


def h4(field=None):
    return sweedler(field)


def action_tensor(field, matrices):
    """The action tensor of one matrix per base element, column j of
    matrices[b] being b . v_j: entry (b, j, k) is row k, column j."""
    n = matrices[0].rows
    return Tensor3(
        field,
        (len(matrices), n, n),
        {
            (b, j, k): c
            for b, m in enumerate(matrices)
            for k, row in enumerate(m.data)
            for j, c in enumerate(row)
        },
    )


def action_matrices(v):
    """v's action as one matrix per base element, column j = b . v_j."""
    n = v.dim
    return [
        Matrix(v.field, [[v.action.get(b, j, k) for j in range(n)] for k in range(n)])
        for b in range(v.base.dim)
    ]


def line_module(base, g_sign, coaction_index):
    """1-dimensional module with g acting by g_sign, x by 0, rho(v) = b (x) v."""
    field = base.field
    action = []
    for i in range(base.dim):
        if i == ONE:
            action.append(Matrix(field, [[field.one()]]))
        elif i == G:
            action.append(Matrix(field, [[field.from_rational(g_sign)]]))
        else:
            action.append(Matrix(field, [[field.zero()]]))
    coaction = Tensor3(field, (1, base.dim, 1), {(0, coaction_index, 0): 1})
    return YDModule(base, 1, action_tensor(field, action), coaction)


def product_line(base, lines):
    """The tensor product of line modules given as (g_sign, coaction_index)
    pairs: the line whose sign and group-like are the products of theirs."""
    sign, index = 1, ONE
    for s, i in lines:
        sign *= s
        index = ONE if index == i else G
    return line_module(base, sign, index)


def nilpotent_line_over_z2(field=None):
    """R = k[x]/(x^2) in the YD category over k[Z_2]: bosonizes to Sweedler."""
    base = group_algebra(2, field or Q)
    f = base.field
    # action: g.x = -x; coaction rho(x) = g (x) x; basis (1, x)
    action = [
        Matrix.identity(f, 2),
        Matrix(f, [[f.one(), f.zero()], [f.zero(), f.from_rational(-1)]]),
    ]
    coaction = Tensor3(f, (2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    yd = YDModule(base, 2, action_tensor(f, action), coaction)
    mult = Tensor3(f, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    comult = Tensor3(f, (2, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    counit = (f.one(), f.zero())
    antipode = Matrix(f, [[f.one(), f.zero()], [f.zero(), f.from_rational(-1)]])
    return BraidedHopf(yd, mult, (f.one(), f.zero()), comult, counit, antipode)


def nichols_line(n):
    """R = k[x]/(x^n) over k[Z_n] with g . x = zeta_n x and rho(x) = g (x) x:
    Delta(x^m) = sum_k binom_zeta(m, k) x^k (x) x^(m-k) and
    S(x^m) = (-1)^m zeta^(m(m-1)/2) x^m."""
    f = make_field(n)
    base = group_algebra(n, f)
    z = f.zeta()
    zero = f.zero()

    def diagonal(entries):
        return Matrix(
            f, [[entries[m] if m == k else zero for k in range(n)] for m in range(n)]
        )

    action = [diagonal([z ** (a * m) for m in range(n)]) for a in range(n)]
    coaction = Tensor3(f, (n, n, n), {(m, m, m): 1 for m in range(n)})
    mult = {(a, b, a + b): 1 for a in range(n) for b in range(n) if a + b < n}
    # zeta-binomials by Pascal's rule [m, k] = [m-1, k-1] + zeta^k [m-1, k]
    binom = [[f.one()]]
    for m in range(1, n):
        prev = binom[-1] + [zero]
        binom.append(
            [f.one()] + [prev[k - 1] + z ** k * prev[k] for k in range(1, m + 1)]
        )
    comult = {(m, k, m - k): binom[m][k] for m in range(n) for k in range(m + 1)}
    antipode = diagonal(
        [f.from_rational((-1) ** m) * z ** (m * (m - 1) // 2) for m in range(n)]
    )
    unit = unit_vector(f, n, 0)
    return BraidedHopf(
        YDModule(base, n, action_tensor(f, action), coaction),
        Tensor3(f, (n, n, n), mult),
        unit,
        Tensor3(f, (n, n, n), comult),
        unit,
        antipode,
    )


def h4_line(coaction_index):
    """R = k[u]/(u^2) over H4 with g . u = -u, x . u = 0 and
    rho(u) = b (x) u for the base index coaction_index; u is primitive and
    S(u) = -u.  A Yetter-Drinfeld module for b = g, not for b = 1."""
    base = h4()
    f = base.field
    one, zero, minus = f.one(), f.zero(), f.from_rational(-1)
    action = [Matrix(f, [[zero, zero], [zero, zero]]) for _ in range(base.dim)]
    action[ONE] = Matrix.identity(f, 2)
    action[G] = Matrix(f, [[one, zero], [zero, minus]])
    coaction = Tensor3(f, (2, base.dim, 2), {(0, ONE, 0): 1, (1, coaction_index, 1): 1})
    mult = Tensor3(f, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    comult = Tensor3(f, (2, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    antipode = Matrix(f, [[one, zero], [zero, minus]])
    yd = YDModule(base, 2, action_tensor(f, action), coaction)
    return BraidedHopf(yd, mult, (one, zero), comult, (one, zero), antipode)


def extracted_dual_braided(r):
    """R* read off (R x B)*: the oracle for dual_braided.

    The five structure fields are R's transposed.  B* embeds in (R x B)* as
    beta -> eps_R (x) beta and R* as f -> f (x) eps_B.  The B*-action is the
    adjoint action beta_1 f S*(beta_2) and the B*-coaction is Delta*(f),
    each evaluated back on R x B: the R-leg at 1_R, the B-leg at 1_B.
    """
    base = r.base
    hdual = dual(bosonize(r, base, check=False))
    field = r.field
    rd, bd = r.dim, base.dim
    zero = field.zero()

    def flat(u, w):  # u (x) w on the R-major basis of (R x B)*
        return tuple(x * y for x in u for y in w)

    def proj_r(v):  # evaluate the B-leg at 1_B
        return tuple(
            vec_dot(v[i * bd:(i + 1) * bd], base.unit, field) for i in range(rd)
        )

    rstar_units = [flat(unit_vector(field, rd, i), base.counit) for i in range(rd)]
    bstar_units = [flat(r.counit, unit_vector(field, bd, j)) for j in range(bd)]

    # beta . f = sum_x (b_x f) w_x with w_x = sum_y c_xy S*(b_y) over Delta*(beta)
    alg = hdual.algebra
    s_cols = [sparse_vector(col) for col in hdual.antipode.columns()]
    action = []
    for beta in bstar_units:
        legs: dict = {}
        for (x, y), c in hdual.delta_vec(beta).items():
            w = legs.setdefault(x, {})
            for t, st in s_cols[y].items():
                w[t] = w.get(t, zero) + c * st
        cols = []
        for f in map(sparse_vector, rstar_units):
            acc: dict = {}
            for x, w in legs.items():
                left = alg.basis_times(x, f)
                for t, wt in w.items():
                    for u, v in alg.basis_times(t, left, right=True).items():
                        acc[u] = acc.get(u, zero) + wt * v
            cols.append(proj_r(dense_vector(field, rd * bd, acc)))
        action.append(Matrix.from_columns(field, cols))

    coaction_entries: dict = {}
    for i, f in enumerate(rstar_units):
        for (x, y), c in hdual.delta_vec(f).items():
            key = (i, x % bd, y // bd)
            c = c * r.unit[x // bd] * base.unit[y % bd]
            coaction_entries[key] = coaction_entries.get(key, zero) + c

    yd_star = YDModule(
        dual(base),
        rd,
        action_tensor(field, action),
        Tensor3(field, (rd, bd, rd), coaction_entries),
    )
    return BraidedHopf(
        yd_star,
        r.comult.permuted((1, 2, 0)),
        r.counit,
        r.mult.permuted((2, 0, 1)),
        r.unit,
        r.antipode.transpose(),
    )


def braided_fields(r):
    """Everything a BraidedHopf holds besides its base."""
    return (
        r.yd.action,
        r.yd.coaction,
        r.mult,
        r.unit,
        r.comult,
        r.counit,
        r.antipode,
    )


F12, F20 = make_field(12), make_field(20)

# the valid braided Hopf algebras that dual_braided is checked on
VALID = {
    "trivial-line": lambda: ordinary_to_braided(group_algebra(1, Q), sweedler()),
    "Z3-over-H4": lambda: ordinary_to_braided(group_algebra(3, F12), sweedler(F12)),
    "Z5-over-H4": lambda: ordinary_to_braided(group_algebra(5, F20), sweedler(F20)),
    "nilpotent-line-over-Z2": nilpotent_line_over_z2,
    "sweedler-over-k": lambda: ordinary_to_braided(sweedler(), group_algebra(1, Q)),
    "nichols-3": lambda: nichols_line(3),
    "nichols-4": lambda: nichols_line(4),
    "nichols-5": lambda: nichols_line(5),
    "H4-line": lambda: h4_line(G),
}


class TestVerifyYD:
    def test_trivial_yd_passes(self):
        for base in (h4(), group_algebra(3)):
            assert verify_yd(trivial_yd(base, 3)).ok

    def test_sign_line_with_g_coaction_passes(self):
        assert verify_yd(line_module(h4(), -1, G)).ok

    def test_sign_line_with_trivial_coaction_fails_at_x(self):
        report = verify_yd(line_module(h4(), -1, ONE))
        assert not report.ok
        bad = {v.location[0] for v in report.violations if v.law == "yd-compatibility"}
        # fails exactly on the nilpotent part (x, and with it gx = g*x)
        assert X in bad and G not in bad and ONE not in bad

    def test_trivial_line_with_g_coaction_fails(self):
        assert not verify_yd(line_module(h4(), 1, G)).ok


class TestShapes:
    @pytest.mark.parametrize("dims", [(4, 2, 3), (3, 2, 2), (2, 2, 4), (4, 3, 3)])
    def test_yd_module_rejects_an_action_of_wrong_dims(self, dims):
        v = trivial_yd(h4(), 2)
        with pytest.raises(ValueError, match="^action tensor has wrong shape$"):
            YDModule(v.base, 2, Tensor3(Q, dims, {}), v.coaction)

    def test_braided_rejects_a_comultiplication_of_wrong_dims(self):
        r = nichols_line(3)
        comult = Tensor3(r.field, (3, 3, 4), r.comult.entries)
        with pytest.raises(ValueError, match="^comultiplication tensor has wrong shape$"):
            BraidedHopf(r.yd, r.mult, r.unit, comult, r.counit, r.antipode)

    @pytest.mark.parametrize("size", [None, 2, 4])
    def test_braided_rejects_a_missing_or_misshapen_antipode(self, size):
        r = nichols_line(3)
        antipode = None if size is None else Matrix.identity(r.field, size)
        with pytest.raises(ValueError, match="^antipode must be a 3 x 3 matrix$"):
            BraidedHopf(r.yd, r.mult, r.unit, r.comult, r.counit, antipode)


class TestBraiding:
    def test_trivial_yd_braiding_is_flip(self):
        base = h4()
        v = trivial_yd(base, 2)
        w = trivial_yd(base, 3)
        c = braiding(v, w)
        # flip: (i, j) -> (j, i)
        for i in range(2):
            for j in range(3):
                col = c.column(i * 3 + j)
                assert col == unit_vector(base.field, 6, j * 2 + i)

    def test_sign_line_squares_to_minus_flip(self):
        base = h4()
        v = line_module(base, -1, G)
        c = braiding(v, v)
        assert c.data[0][0] == base.field.from_rational(-1)

    def test_random_valid_yd_braidings_invertible(self):
        rng = random.Random(424242)
        base = h4()
        lines = [(1, ONE), (-1, G)]
        for _ in range(50):
            pieces_v = [rng.choice(lines) for _ in range(rng.randint(1, 2))]
            pieces_w = [rng.choice(lines) for _ in range(rng.randint(1, 2))]
            v = product_line(base, pieces_v)
            w = product_line(base, pieces_w)
            c = braiding(v, w)
            _, rank, _ = c.rref()
            assert rank == v.dim * w.dim

    def test_hexagon_instance(self):
        base = h4()
        v = line_module(base, -1, G)
        w = line_module(base, 1, ONE)
        # x is a line or v (x) w; wx is w (x) x
        for x_pieces in ([(-1, G)], [(-1, G), (1, ONE)]):
            x = product_line(base, x_pieces)
            wx = product_line(base, [(1, ONE)] + x_pieces)
            lhs = braiding(v, wx)
            c_vw = braiding(v, w)
            c_vx = braiding(v, x)
            dv, dw, dx = v.dim, w.dim, x.dim
            for i in range(dv):
                for j in range(dw):
                    for k in range(dx):
                        start = unit_vector(base.field, dv * dw * dx, (i * dw + j) * dx + k)
                        # c_{V,W} (x) id_X
                requires = None
            # apply as functions on basis vectors
            for i in range(dv):
                for j in range(dw):
                    for k in range(dx):
                        # lhs on v_i (x) (w_j (x) x_k)
                        out_lhs = lhs.column(i * (dw * dx) + j * dx + k)
                        # rhs: first c_vw on (i, j) -> sum over (j', i')
                        acc = {}
                        col1 = c_vw.column(i * dw + j)
                        for t, coeff in enumerate(col1):
                            if coeff.is_zero():
                                continue
                            jp, ip = divmod(t, dv)
                            col2 = c_vx.column(ip * dx + k)
                            for u, coeff2 in enumerate(col2):
                                if coeff2.is_zero():
                                    continue
                                kp, ipp = divmod(u, dv)
                                key = (jp * dx + kp) * dv + ipp
                                acc[key] = acc.get(key, base.field.zero()) + coeff * coeff2
                        for t, val in enumerate(out_lhs):
                            assert acc.get(t, base.field.zero()) == val


class TestVerifyBraidedHopf:
    def test_trivial_group_algebra_passes(self):
        base = h4(make_field(3))
        r = ordinary_to_braided(group_algebra(3, make_field(3)), base)
        assert verify_braided_hopf(r).ok

    def test_one_dimensional_passes(self):
        base = h4()
        r = ordinary_to_braided(group_algebra(1, Q), base)
        assert verify_braided_hopf(r).ok

    def test_nilpotent_line_passes(self):
        assert verify_braided_hopf(nilpotent_line_over_z2()).ok

    def test_identity_antipode_fails(self):
        base = h4(make_field(3))
        r = ordinary_to_braided(group_algebra(3, make_field(3)), base)
        broken = BraidedHopf(
            r.yd,
            r.mult,
            r.unit,
            r.comult,
            r.counit,
            Matrix.identity(r.field, r.dim),
        )
        report = verify_braided_hopf(broken)
        assert not report.ok
        assert any(v.law == "antipode-law" for v in report.violations)


class TestBosonize:
    def test_trivial_line_gives_sweedler(self):
        base = sweedler()
        r = ordinary_to_braided(group_algebra(1, Q), base)
        h = bosonize(r, base)
        assert structure_equal(h, base)

    def test_z5_biproduct(self):
        f = make_field(20)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(5, f), base)
        h = bosonize(r, base)
        assert h.dim == 20
        assert verify_hopf(h).ok
        likes = group_likes(h)
        assert len(likes) == 10
        assert len(coradical(h)) == 10

    def test_z3_biproduct_matches_taft_tensor(self):
        f = make_field(12)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(3, f), base)
        h = bosonize(r, base)
        assert fingerprint(h) == fingerprint(taft_tensor_group(2, -1, 3))

    def test_base_without_antipode_raises(self):
        sw = sweedler()
        base = HopfAlgebra(sw.algebra, sw.comult, sw.counit)
        r = ordinary_to_braided(group_algebra(1, Q), base)
        with pytest.raises(NoAntipode, match="^bosonizing requires the base antipode$"):
            bosonize(r, base)

    def test_nilpotent_line_bosonizes_to_sweedler_class(self):
        r = nilpotent_line_over_z2()
        h = bosonize(r, r.base)
        assert h.dim == 4
        assert verify_hopf(h).ok
        assert fingerprint(h) == fingerprint(sweedler())


class TestDualBiproduct:
    def test_trivial_line(self):
        base = sweedler()
        r = ordinary_to_braided(group_algebra(1, Q), base)
        assert check_dual_biproduct(r, base)

    @pytest.mark.parametrize("n,field_order", [(3, 12), (5, 20)])
    def test_group_lines(self, n, field_order):
        f = make_field(field_order)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(n, f), base)
        assert check_dual_biproduct(r, base)

    def test_nontrivial_braiding_case(self):
        r = nilpotent_line_over_z2()
        assert verify_braided_hopf(dual_braided(r)).ok
        assert check_dual_biproduct(r, r.base)

    def test_antipode_not_its_own_transpose(self):
        # S(x) = gx but S(gx) = -x in sweedler's basis 1, x, g, gx, so
        # S_{R*} = S_R^T is pinned down here; the lines above have symmetric S_R
        base = group_algebra(1, Q)
        r = ordinary_to_braided(sweedler(), base)
        assert dual_braided(r).antipode != r.antipode
        assert check_dual_biproduct(r, base)


class TestDualBraided:
    @pytest.mark.parametrize("name", sorted(VALID))
    def test_equals_extraction_from_dual_biproduct(self, name):
        r = VALID[name]()
        rstar = dual_braided(r)
        oracle = extracted_dual_braided(r)
        assert rstar.base is oracle.base
        assert braided_fields(rstar) == braided_fields(oracle)

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_double_dual_is_identity(self, name):
        r = VALID[name]()
        twice = dual_braided(dual_braided(r))
        assert twice.base is r.base
        assert braided_fields(twice) == braided_fields(r)

    @pytest.mark.parametrize("name", ["nichols-3", "nichols-4", "nichols-5", "H4-line"])
    def test_dual_biproduct_holds(self, name):
        r = VALID[name]()
        assert verify_braided_hopf(r).ok
        assert check_dual_biproduct(r, r.base)

    def test_h4_line_with_trivial_coaction_fails(self):
        r = h4_line(ONE)
        assert not verify_braided_hopf(r).ok
        with pytest.raises(VerificationFailure):
            check_dual_biproduct(r, r.base)

    def test_builds_no_biproduct(self, monkeypatch):
        calls = []
        original = yetter_drinfeld.bosonize

        def counting(r, base, check=True):
            calls.append((r.dim, base.dim))
            return original(r, base, check)

        monkeypatch.setattr(yetter_drinfeld, "bosonize", counting)
        dual_braided(VALID["Z3-over-H4"]())
        assert calls == []


class TestDualBiproductBuildsOnce:
    def test_two_biproducts(self, monkeypatch):
        """R x B is built once, checked, and its dual gives R*; then R* x B*."""
        calls = []
        original = yetter_drinfeld.bosonize

        def counting(r, base, check=True):
            calls.append((r.dim, base.dim))
            return original(r, base, check)

        monkeypatch.setattr(yetter_drinfeld, "bosonize", counting)
        f = make_field(12)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(3, f), base)
        assert check_dual_biproduct(r, base)
        assert calls == [(3, 4), (3, 4)]

    def test_one_hopf_verification(self, monkeypatch):
        """(R x B)* equals R* x B*, so only R x B runs verify_hopf."""
        calls = []
        original = yetter_drinfeld.verify_hopf

        def counting(h):
            calls.append(h.dim)
            return original(h)

        monkeypatch.setattr(yetter_drinfeld, "verify_hopf", counting)
        f = make_field(20)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(5, f), base)
        assert check_dual_biproduct(r, base)
        assert calls == [20]

    def test_differing_dual_biproduct_is_verified(self, monkeypatch):
        """An R* x B* that differs from (R x B)* still runs verify_hopf."""
        original = yetter_drinfeld.dual_braided

        def wrong_antipode(r):
            rstar = original(r)
            rstar.antipode = rstar.antipode.scale(-1)
            return rstar

        monkeypatch.setattr(yetter_drinfeld, "dual_braided", wrong_antipode)
        r = nilpotent_line_over_z2()
        with pytest.raises(VerificationFailure, match="^biproduct fails Hopf axioms"):
            check_dual_biproduct(r, r.base)

    def test_mismatched_base_raises(self):
        f = make_field(12)
        r = ordinary_to_braided(group_algebra(3, f), sweedler(f))
        with pytest.raises(BaseMismatch):
            check_dual_biproduct(r, group_algebra(4, f))


class TestBraidedIntegrals:
    def test_group_algebra_integral(self):
        f = make_field(12)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(3, f), base)
        data = braided_integrals(r)
        lam = data.right_integral
        assert all(c == lam[0] for c in lam) and not lam[0].is_zero()
        assert data.chi == tuple(base.counit)

    def test_one_dimensional(self):
        base = sweedler()
        r = ordinary_to_braided(group_algebra(1, Q), base)
        data = braided_integrals(r)
        assert data.right_integral == (Q.one(),)
        assert data.dual_right_integral == (Q.one(),)

    def test_semisimple_integral_counit_nonzero(self):
        f = make_field(20)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(5, f), base)
        data = braided_integrals(r)
        acc = f.zero()
        for e, c in zip(r.counit, data.right_integral):
            acc = acc + e * c
        assert not acc.is_zero()


class TestModuleAlgebraIdempotents:
    def test_g_fixes_and_x_kills_central_idempotents(self):
        # semisimple trivial-YD module algebras: every central idempotent e
        # spans a g-stable ideal, g.e = e and x.e = 0
        f = make_field(3)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(3, f), base)
        z3 = f.zeta()
        third = f.from_rational(Fraction(1, 3))
        act = action_matrices(r.yd)
        for j in range(3):
            e = tuple(third * z3 ** ((-j * k) % 3) for k in range(3))
            assert r.algebra.multiply(e, e) == e
            assert act[G].apply(e) == e
            assert all(c.is_zero() for c in act[X].apply(e))

    def test_biproduct_central_idempotent_relations(self):
        # decompose central idempotents E = r1 e0 + r2 e1 + r3 xe0 + r4 xe1
        # of R x H4 and check the forced action relations
        f = make_field(3)
        base = sweedler(f)
        r = ordinary_to_braided(group_algebra(3, f), base)
        h = bosonize(r, base)
        half = f.from_rational(Fraction(1, 2))
        # H4-leg basis (1, x, g, gx); e0 = (1+g)/2, e1 = (1-g)/2,
        # xe0 = (x + xg)/2 = (x - gx)/2, xe1 = (x + gx)/2
        leg = {
            "e0": {ONE: half, G: half},
            "e1": {ONE: half, G: -half},
            "xe0": {X: half, GX: -half},
            "xe1": {X: half, GX: half},
        }
        basis_mat = Matrix(
            f,
            [
                [leg[name].get(row, f.zero()) for name in ("e0", "e1", "xe0", "xe1")]
                for row in range(4)
            ],
        ).inverse()
        z3 = f.zeta()
        third = f.from_rational(Fraction(1, 3))
        for j in range(3):
            fj = tuple(third * z3 ** ((-j * k) % 3) for k in range(3))
            # E = f_j (x) 1 in R-major coordinates
            e_vec = [f.zero()] * 12
            for i, c in enumerate(fj):
                e_vec[i * 4 + ONE] = c
            e_vec = tuple(e_vec)
            assert h.algebra.multiply(e_vec, e_vec) == e_vec
            for i in range(12):
                b = unit_vector(f, 12, i)
                assert h.algebra.multiply(e_vec, b) == h.algebra.multiply(b, e_vec)
            # r-components in the (e0, e1, xe0, xe1) frame
            comps = {name: [f.zero()] * 3 for name in ("e0", "e1", "xe0", "xe1")}
            for i in range(3):
                coords = tuple(e_vec[i * 4 + t] for t in range(4))
                sol = basis_mat.apply(coords)
                for t, name in enumerate(("e0", "e1", "xe0", "xe1")):
                    comps[name][i] = sol[t]
            r1, r2 = tuple(comps["e0"]), tuple(comps["e1"])
            r3, r4 = tuple(comps["xe0"]), tuple(comps["xe1"])
            act = action_matrices(r.yd)
            g_act = act[G].apply
            x_act = act[X].apply
            assert g_act(r1) == r1 and g_act(r2) == r2
            assert g_act(r3) == vec_scale(f.from_rational(-1), r3)
            assert g_act(r4) == vec_scale(f.from_rational(-1), r4)
            diff = tuple(a - b for a, b in zip(r1, r2))
            assert x_act(r3) == diff and x_act(r4) == diff
