"""Yetter-Drinfeld modules over a base Hopf algebra, braided Hopf algebra
verification, the Radford biproduct (bosonization), and the dual-biproduct
identity (R x B)* = R* x B*.

A YDModule carries both structure maps as tensors: the action
action[b][j][k] = coefficient of v_k in b_b . v_j, shaped like a product,
and the coaction rho[i][j][k] = coefficient of b_j (x) v_k in rho(v_i),
shaped like a coproduct.  So R*'s action and coaction are R's coaction and
action with their legs permuted, as hopf.dual permutes a coproduct and a
product.  A BraidedHopf adds the five structure fields of a Hopf algebra
object living in the category.
"""

from __future__ import annotations

from dataclasses import dataclass

from hopfcheck.algebra import (
    AssocAlgebra,
    Report,
    Violation,
    is_semisimple_trace,
    verify_algebra,
)
from hopfcheck.cyclotomic import FieldMismatch
from hopfcheck.hopf import (
    DegenerateIntegral,
    HopfAlgebra,
    NoAntipode,
    antipode_law_failures,
    coassociative,
    dual,
    integral_line,
    paired_to_one,
    structure_equal,
    verify_hopf,
)
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    dense_vector,
    kron_vector,
    sparse_sub_scaled,
    sparse_vector,
    unit_vector,
    vec_dot,
    vec_is_zero,
    vec_outer,
    vec_scale,
    zero_vector,
)


class BaseMismatch(ValueError):
    """Operands are Yetter-Drinfeld modules over different bases."""


class VerificationFailure(ValueError):
    """A constructed object failed its own axiom suite."""


class YDModule:
    """A simultaneous module and comodule over B with the compatibility law
    rho(b.v) = b1 v_{-1} S(b3) (x) b2.v0 (checked by verify_yd)."""

    __slots__ = ("base", "dim", "action", "coaction")

    def __init__(self, base: HopfAlgebra, dim: int, action: Tensor3, coaction: Tensor3):
        if action.dims != (base.dim, dim, dim):
            raise ValueError("action tensor has wrong shape")
        if coaction.dims != (dim, base.dim, dim):
            raise ValueError("coaction tensor has wrong shape")
        self.base = base
        self.dim = dim
        self.action = action
        self.coaction = coaction

    @property
    def field(self):
        return self.base.field

    def act_basis(self, b: int, j: int) -> dict:
        """b_b . v_j as {module index: coeff} without zeros."""
        return dict(self.action.by_ij().get((b, j), ()))

    def coact_basis(self, i: int):
        """rho(v_i) as a sparse tuple of (base index, module index, coeff)."""
        return self.coaction.by_i().get(i, ())

    def coact_vec(self, v) -> dict:
        return self.coaction.contract_first(v)


def trivial_yd(base: HopfAlgebra, dim: int) -> YDModule:
    """b . v = eps(b) v and rho(v) = 1 (x) v."""
    field = base.field
    action = {(b, i, i): c for b, c in enumerate(base.counit) for i in range(dim)}
    coaction = {(i, j, i): c for i in range(dim) for j, c in enumerate(base.unit)}
    return YDModule(
        base,
        dim,
        Tensor3(field, (base.dim, dim, dim), action),
        Tensor3(field, (dim, base.dim, dim), coaction),
    )


def verify_yd(v: YDModule) -> Report:
    """Module, comodule, and compatibility laws on all basis pairs, each
    decided as a residual that must vanish."""
    report = Report(
        checks=["module", "comodule", "yd-compatibility"]
    )
    base = v.base
    field = v.field
    dim = v.dim
    bdim = base.dim
    zero = field.zero()
    act = v.act_basis

    # module: 1 . v_l = v_l and b_i . (b_j . v_l) = (b_i b_j) . v_l, column
    # by column; one violation per law and pair
    unit = sparse_vector(base.unit)
    for l in range(dim):
        diff = {l: field.one()}
        for i, c in unit.items():
            sparse_sub_scaled(diff, c, act(i, l))
        if diff:
            report.add(Violation("module", ("unit",), "1 . v != v"))
            break
    for i in range(bdim):
        for j in range(bdim):
            for l in range(dim):
                diff = {}
                for t, x in act(j, l).items():
                    sparse_sub_scaled(diff, -x, act(i, t))
                for k, c in base.algebra.basis_product(i, j):
                    sparse_sub_scaled(diff, c, act(k, l))
                if diff:
                    report.add(Violation("module", (i, j), "action not multiplicative"))
                    break

    # comodule: counitality and coassociativity over the base
    eps_leg = v.coaction.contract(1, base.counit)
    for i in range(dim):
        if eps_leg.row(i) != unit_vector(field, dim, i):
            report.add(Violation("comodule", (i,), "(eps (x) id) rho != id"))
        if not coassociative(v.coact_basis(i), base.delta_basis, v.coact_basis, field):
            report.add(Violation("comodule", (i,), "coaction not coassociative"))

    # compatibility: rho(b.v) = b1 v_{-1} S(b3) (x) b2 . v0
    if base.antipode is None:
        report.add(Violation("yd-compatibility", (), "base antipode missing"))
        return report
    s_cols = base.antipode.columns()
    for bi in range(bdim):
        triples = base.sweedler_triples(bi)
        for vi in range(dim):
            diff = v.coact_vec(dense_vector(field, dim, act(bi, vi)))
            for b1, b2, b3, c in triples:
                for vm1, v0, c2 in v.coact_basis(vi):
                    coeff = c * c2
                    left_leg = base.algebra.multiply(
                        _basis_product_vec(base.algebra, b1, vm1), s_cols[b3]
                    )
                    acted = act(b2, v0)
                    for t, x in enumerate(left_leg):
                        if x.is_zero():
                            continue
                        for u, y in acted.items():
                            key = (t, u)
                            diff[key] = diff.get(key, zero) - coeff * x * y
            if not vec_is_zero(diff.values()):
                report.add(
                    Violation("yd-compatibility", (bi, vi), "compatibility fails")
                )
    return report


def _basis_product_vec(alg: AssocAlgebra, i: int, j: int) -> tuple:
    """b_i b_j as a dense vector."""
    return dense_vector(alg.field, alg.dim, dict(alg.basis_product(i, j)))


def braiding(v: YDModule, w: YDModule) -> Matrix:
    """c(v (x) w) = (v_{-1} . w) (x) v_0, a matrix on V (x) W -> W (x) V."""
    if v.base is not w.base and not structure_equal(v.base, w.base):
        raise BaseMismatch("braiding requires a common base")
    field = v.field
    rows = v.dim * w.dim
    data = [[field.zero()] * rows for _ in range(rows)]
    for i in range(v.dim):
        for j in range(w.dim):
            col = i * w.dim + j
            for b, k, c in v.coact_basis(i):
                for t, x in w.act_basis(b, j).items():
                    data[t * v.dim + k][col] = data[t * v.dim + k][col] + c * x
    return Matrix(field, data)


class BraidedHopf:
    """A Hopf algebra object in the Yetter-Drinfeld category over yd.base."""

    __slots__ = ("yd", "mult", "unit", "comult", "counit", "antipode", "_algebra")

    def __init__(self, yd: YDModule, mult: Tensor3, unit, comult: Tensor3, counit, antipode: Matrix):
        d = yd.dim
        if comult.dims != (d, d, d):
            raise ValueError("comultiplication tensor has wrong shape")
        if antipode is None or (antipode.rows, antipode.cols) != (d, d):
            raise ValueError("antipode must be a %d x %d matrix" % (d, d))
        self.yd = yd
        self.mult = mult
        self.unit = tuple(yd.field.promote(c) for c in unit)
        self.comult = comult
        self.counit = tuple(yd.field.promote(c) for c in counit)
        self.antipode = antipode
        self._algebra = AssocAlgebra(yd.field, d, mult, self.unit)

    @property
    def field(self):
        return self.yd.field

    @property
    def dim(self):
        return self.yd.dim

    @property
    def base(self):
        return self.yd.base

    @property
    def algebra(self) -> AssocAlgebra:
        return self._algebra

    def delta_basis(self, i: int):
        return self.comult.by_i().get(i, ())

    def counit_of(self, v):
        return vec_dot(self.counit, v, self.field)


def ordinary_to_braided(h: HopfAlgebra, base: HopfAlgebra) -> BraidedHopf:
    """An ordinary Hopf algebra as a braided one with trivial YD structure."""
    if h.field != base.field:
        raise FieldMismatch("braided object and base over different fields")
    yd = trivial_yd(base, h.dim)
    return BraidedHopf(
        yd, h.algebra.mult, h.unit, h.comult, h.counit, h.antipode
    )


def module_algebra_failures(yd: YDModule, alg: AssocAlgebra):
    """Locations where alg, on yd's space, is not a module algebra: per base
    index bi, (bi,) if b . 1 != eps(b) 1, then (bi, i, j) for each basis pair
    with b . (rs) != (b1 . r)(b2 . s).  A generator, like
    hopf.antipode_law_failures."""
    base = yd.base
    act = yd.act_basis
    unit_acted = yd.action.contract(1, alg.unit)
    for bi in range(base.dim):
        if unit_acted.row(bi) != vec_scale(base.counit[bi], alg.unit):
            yield (bi,)
        deltas = base.delta_basis(bi)
        for i in range(yd.dim):
            for j in range(yd.dim):
                # b . (r_i r_j) - sum c (b1 . r_i)(b2 . r_j), without zeros
                diff: dict = {}
                for k, c in alg.basis_product(i, j):
                    sparse_sub_scaled(diff, -c, act(bi, k))
                for b1, b2, c in deltas:
                    right = act(b2, j)
                    for t, x in act(b1, i).items():
                        sparse_sub_scaled(diff, c * x, alg.basis_times(t, right))
                if diff:
                    yield (bi, i, j)


def comodule_algebra_failures(yd: YDModule, alg: AssocAlgebra):
    """Locations where alg, on yd's space, is not a comodule algebra:
    ("unit",) if rho(1) != 1 (x) 1, then (i, j) for each basis pair with
    rho(rs) != r_{-1} s_{-1} (x) r_0 s_0.  A generator."""
    base = yd.base
    zero = yd.field.zero()
    dim = yd.dim
    if yd.coact_vec(alg.unit) != vec_outer(base.unit, alg.unit):
        yield ("unit",)
    for i in range(dim):
        for j in range(dim):
            diff = yd.coact_vec(_basis_product_vec(alg, i, j))
            for a1, k1, c1 in yd.coact_basis(i):
                for a2, k2, c2 in yd.coact_basis(j):
                    c = c1 * c2
                    rprod = alg.basis_product(k1, k2)
                    for t, x in base.algebra.basis_product(a1, a2):
                        for u, y in rprod:
                            key = (t, u)
                            diff[key] = diff.get(key, zero) - c * x * y
            if not vec_is_zero(diff.values()):
                yield (i, j)


def verify_braided_hopf(r: BraidedHopf) -> Report:
    """Axioms of a Hopf algebra object in the Yetter-Drinfeld category.

    Checks, in order: the underlying Yetter-Drinfeld structure; algebra and
    coalgebra axioms; multiplication/unit and comultiplication/counit being
    morphisms in the category; braided multiplicativity of the
    comultiplication; both antipode convolution laws; and the braided
    anti-homomorphism identity S(rs) = (r_{-1} . S(s)) S(r_0).
    """
    report = Report(
        checks=[
            "yd-structure",
            "algebra",
            "coalgebra",
            "module-algebra",
            "comodule-algebra",
            "module-coalgebra",
            "comodule-coalgebra",
            "braided-comult-multiplicative",
            "antipode-law",
            "braided-antipode-antihom",
        ]
    )
    yd = r.yd
    field = r.field
    dim = r.dim
    base = r.base
    bdim = base.dim
    zero = field.zero()
    for v in verify_yd(yd).violations:
        report.add(Violation("yd-structure", v.location, "%s: %s" % (v.law, v.detail)))
    for v in verify_algebra(r.algebra).violations:
        report.add(Violation("algebra", v.location, "%s: %s" % (v.law, v.detail)))

    # coalgebra axioms
    eps_left, eps_right = (r.comult.contract(leg, r.counit) for leg in (1, 2))
    for i in range(dim):
        rows = r.delta_basis(i)
        e_i = unit_vector(field, dim, i)
        if eps_left.row(i) != e_i or eps_right.row(i) != e_i:
            report.add(Violation("coalgebra", (i,), "counit law fails"))
        if not coassociative(rows, r.delta_basis, r.delta_basis, field):
            report.add(Violation("coalgebra", (i,), "comult not coassociative"))

    for loc in module_algebra_failures(yd, r.algebra):
        detail = "b . 1 != eps(b) 1" if len(loc) == 1 else "not a module algebra"
        report.add(Violation("module-algebra", loc, detail))
    for loc in comodule_algebra_failures(yd, r.algebra):
        detail = "rho(1) != 1 (x) 1" if loc == ("unit",) else "not a comodule algebra"
        report.add(Violation("comodule-algebra", loc, detail))

    # module coalgebra: Delta(b . r) = b1 . r1 (x) b2 . r2; eps(b.r) = eps(b)eps(r)
    act = yd.act_basis
    for bi in range(bdim):
        for i in range(dim):
            acted = dense_vector(field, dim, act(bi, i))
            diff = r.comult.contract_first(acted)
            for b1, b2, c in base.delta_basis(bi):
                for j, k, c2 in r.delta_basis(i):
                    cc = c * c2
                    right = act(b2, k)
                    for t, x in act(b1, j).items():
                        for u, y in right.items():
                            key = (t, u)
                            diff[key] = diff.get(key, zero) - cc * x * y
            if not vec_is_zero(diff.values()):
                report.add(
                    Violation("module-coalgebra", (bi, i), "Delta not a module map")
                )
            if r.counit_of(acted) != base.counit[bi] * r.counit[i]:
                report.add(
                    Violation("module-coalgebra", (bi, i), "eps not a module map")
                )

    # comodule coalgebra: rho(R(x)R)(Delta r) = (id (x) Delta) rho(r), and
    # eps a comodule map: r_{-1} eps(r_0) = eps(r) 1_B, row i of eps_coact
    eps_coact = yd.coaction.contract(2, r.counit)
    for i in range(dim):
        diff: dict = {}
        for j, k, c in r.delta_basis(i):
            for a1, t1, c1 in yd.coact_basis(j):
                for a2, t2, c2 in yd.coact_basis(k):
                    cc = c * c1 * c2
                    for b, x in base.algebra.basis_product(a1, a2):
                        key = (b, t1, t2)
                        diff[key] = diff.get(key, zero) + cc * x
        for a, t, c in yd.coact_basis(i):
            for j, k, c2 in r.delta_basis(t):
                key = (a, j, k)
                diff[key] = diff.get(key, zero) - c * c2
        if not vec_is_zero(diff.values()):
            report.add(
                Violation("comodule-coalgebra", (i,), "Delta not a comodule map")
            )
        if eps_coact.row(i) != vec_scale(r.counit[i], base.unit):
            report.add(Violation("comodule-coalgebra", (i,), "eps not a comodule map"))

    # braided multiplicativity:
    # Delta(rs) = r1 ((r2)_{-1} . s1) (x) (r2)_0 s2
    for i in range(dim):
        for j in range(dim):
            diff = r.comult.contract_first(_basis_product_vec(r.algebra, i, j))
            for r1, r2, c in r.delta_basis(i):
                for s1, s2, c2 in r.delta_basis(j):
                    cc = c * c2
                    for b, r2_0, c3 in yd.coact_basis(r2):
                        left = r.algebra.basis_times(r1, act(b, s1))
                        right = r.algebra.basis_product(r2_0, s2)
                        for t, x in left.items():
                            for u, y in right:
                                key = (t, u)
                                diff[key] = diff.get(key, zero) - cc * c3 * x * y
            if not vec_is_zero(diff.values()):
                report.add(
                    Violation(
                        "braided-comult-multiplicative",
                        (i, j),
                        "Delta(rs) != braided product of Deltas",
                    )
                )

    # antipode convolution laws, one violation per basis element
    for i in dict.fromkeys(i for i, _ in antipode_law_failures(r, r.antipode)):
        report.add(Violation("antipode-law", (i,), "convolution law fails"))

    # braided anti-homomorphism: S(rs) = (r_{-1} . S(s)) S(r_0); row b of
    # s_acted[j] is b . S(r_j)
    s_cols = r.antipode.columns()
    s_acted = [yd.action.contract(1, col) for col in s_cols]
    for i in range(dim):
        for j in range(dim):
            prod = _basis_product_vec(r.algebra, i, j)
            lhs = r.antipode.apply(prod)
            rhs = list(zero_vector(field, dim))
            for b, r0, c in yd.coact_basis(i):
                term = r.algebra.multiply(s_acted[j].row(b), s_cols[r0])
                for t, x in enumerate(term):
                    if not x.is_zero():
                        rhs[t] = rhs[t] + c * x
            if lhs != tuple(rhs):
                report.add(
                    Violation(
                        "braided-antipode-antihom",
                        (i, j),
                        "S(rs) != (r_-1 . S(s)) S(r_0)",
                    )
                )
    return report


def bosonize(r: BraidedHopf, base: HopfAlgebra, check: bool = True) -> HopfAlgebra:
    """Radford biproduct R x B on the R-major basis (r_i, b_j).

    (r a)(s b) = r (a1 . s) (x) a2 b
    Delta(r b)  = r1 (r2)_{-1} b1 (x) (r2)_0 b2
    eps(r b)    = eps(r) eps(b)
    S(r b)      = (1 (x) S_B(r_{-1} b)) (r_0' (x) 1) with r_0' = S_R(r_0)

    The antipode must carry the coaction factor r_{-1}: for a trivial
    coaction it collapses to (S_B(b)_1 . S_R(r)) (x) S_B(b)_2, but without
    r_{-1} the antipode law fails whenever the coaction is nontrivial.
    """
    if not structure_equal(r.base, base):
        raise BaseMismatch("braided object lives over a different base")
    if base.antipode is None:
        raise NoAntipode("bosonizing requires the base antipode")
    yd = r.yd
    field = r.field
    rd, bd = r.dim, base.dim
    dim = rd * bd

    def fuse(i, j):
        return i * bd + j

    zero = field.zero()
    mult_entries: dict = {}
    for a1k in range(bd):  # a index
        delta_a = base.delta_basis(a1k)
        for i in range(rd):  # r index
            row = fuse(i, a1k)
            for j in range(rd):  # s index
                # r_i (a1 . s_j), formed once for every b
                rparts = [
                    (a2, c, sorted(r.algebra.basis_times(i, yd.act_basis(a1, j)).items()))
                    for a1, a2, c in delta_a
                ]
                for b in range(bd):  # b index
                    col = fuse(j, b)
                    acc: dict = {}
                    for a2, c, rpart in rparts:
                        bpart = base.algebra.basis_product(a2, b)
                        for t, x in rpart:
                            for u, y in bpart:
                                key = fuse(t, u)
                                acc[key] = acc.get(key, zero) + c * x * y
                    for key, val in acc.items():
                        if not val.is_zero():
                            mult_entries[(row, col, key)] = val
    comult_entries: dict = {}
    for i in range(rd):
        for b in range(bd):
            row = fuse(i, b)
            acc: dict = {}
            for r1, r2, c in r.delta_basis(i):
                for b1, b2, c2 in base.delta_basis(b):
                    cc = c * c2
                    for a, r2_0, c3 in yd.coact_basis(r2):
                        bleft = base.algebra.basis_product(a, b1)
                        for t, x in bleft:
                            key = (fuse(r1, t), fuse(r2_0, b2))
                            acc[key] = acc.get(key, zero) + cc * c3 * x
            for (jj, kk), val in acc.items():
                if not val.is_zero():
                    comult_entries[(row, jj, kk)] = val
    # antipode: S(r b) = (1 (x) S_B(r_{-1} b)) (S_R(r_0) (x) 1)
    #                  = (beta_1 . S_R(r_0)) (x) beta_2, beta = S_B(r_{-1} b)
    anti = [[zero] * dim for _ in range(dim)]
    sr_acted = [yd.action.contract(1, col) for col in r.antipode.columns()]
    for i in range(rd):
        for b in range(bd):
            col = fuse(i, b)
            for a, r0, c in yd.coact_basis(i):
                beta = base.antipode.apply(_basis_product_vec(base.algebra, a, b))
                dbeta = base.delta_vec(beta)
                for (b1, b2), c2 in dbeta.items():
                    for t, x in enumerate(sr_acted[r0].row(b1)):
                        if not x.is_zero():
                            anti[fuse(t, b2)][col] = (
                                anti[fuse(t, b2)][col] + c * c2 * x
                            )
    unit = kron_vector(field, r.unit, base.unit)
    alg = AssocAlgebra(field, dim, Tensor3(field, (dim, dim, dim), mult_entries), unit)
    h = HopfAlgebra(
        alg,
        Tensor3(field, (dim, dim, dim), comult_entries),
        kron_vector(field, r.counit, base.counit),
        Matrix(field, anti),
    )
    if check:
        report = verify_hopf(h)
        if not report.ok:
            raise VerificationFailure(
                "biproduct fails Hopf axioms:\n" + "\n".join(report.lines())
            )
    return h


def dual_braided(r: BraidedHopf) -> BraidedHopf:
    """R* as a braided Hopf algebra over B*, checked by verify_braided_hopf.

    R*'s multiplication, unit, comultiplication, counit and antipode are the
    transposes of R's comultiplication, counit, multiplication, unit and S_R,
    with the index permutations of hopf.dual.  Its B*-action and B*-coaction
    are R's coaction and action with their legs permuted the same way:
        (b_j* . r_i*)(r_k) = b_j*((r_k)_{-1}) r_i*((r_k)_0),
        rho(f) = sum_j b_j* (x) f(b_j . -).

    These are the structure maps that R* inherits inside (R x B)*, through
    f -> f (x) eps_B and evaluation of the B-leg at 1_B.  The map
    pi: R x B -> B, r b -> eps(r) b, is a Hopf map, so beta -> eps_R (x) beta
    embeds B* in (R x B)* as a Hopf algebra, and Delta* and S* act on it as
    they do in B*.  The adjoint action beta_1 (f (x) eps_B) S*(beta_2),
    evaluated at r 1_B, is beta(r_{-1}) f(r_0), by eps(v_{-1}) v_0 = v and
    S_B(1) = 1.  And Delta*(f (x) eps_B), evaluated at (1_R b) (x) (r 1_B),
    is (f (x) eps_B)((b_1 . r) b_2) = f(b . r).  Neither formula depends on
    where the unit sits in either basis.

    The algebra and coalgebra of R* are those of (R x B)* on the same
    elements.  In the biproduct, (r 1_B)(s 1_B) = rs 1_B, because 1_B acts
    trivially, and Delta(r 1_B) = r_1 (r_2)_{-1} (x) (r_2)_0 1_B, because
    Delta(1_B) = 1_B (x) 1_B.  Evaluated on these elements:
        (f eps_B)(g eps_B) at r 1_B = f(r_1) eps_B((r_2)_{-1}) g((r_2)_0)
                                    = f(r_1) g(r_2),
    which is Delta_R transposed.  Likewise
        Delta*(f eps_B) at (r 1_B, s 1_B) = f(rs),
    which is m_R transposed.  The unit eps_R (x) eps_B evaluates to eps_R,
    and f (x) eps_B at 1_R 1_B is f(1_R).  The convolution laws of S_R then
    transpose: with m* = Delta^T, Delta* = m^T, 1* = eps and eps*(f) = f(1),
        (m* (S^T (x) id) Delta*)(f) at r = f(S(r_1) r_2) = eps(r) f(1),
    which is eps*(f) 1* at r, and the same on the right.  So S_R^T is the
    antipode of R*, unique as the convolution inverse of the identity.
    """
    yd_star = YDModule(
        dual(r.base),
        r.dim,
        r.yd.coaction.permuted((1, 2, 0)),
        r.yd.action.permuted((2, 0, 1)),
    )
    rstar = BraidedHopf(
        yd_star,
        r.comult.permuted((1, 2, 0)),
        r.counit,
        r.mult.permuted((2, 0, 1)),
        r.unit,
        r.antipode.transpose(),
    )
    report = verify_braided_hopf(rstar)
    if not report.ok:
        raise VerificationFailure(
            "dual braided object fails axioms:\n" + "\n".join(report.lines())
        )
    return rstar


def check_dual_biproduct(r: BraidedHopf, base: HopfAlgebra) -> bool:
    """(R x B)* == R* x B* under (r_i (x) b_j)* <-> r_i* (x) b_j*, tensor-exactly.

    R x B passes verify_hopf, and so does its dual: each law of H* is a law
    of H transposed.  R* comes from R alone (dual_braided), not from
    (R x B)*.  So R* x B* is checked only when it differs from (R x B)*,
    and the answer or VerificationFailure is that of bosonizing R* x B*
    with its check.
    """
    lhs = dual(bosonize(r, base))
    rstar = dual_braided(r)
    if structure_equal(lhs, bosonize(rstar, dual(base), check=False)):
        return True
    bosonize(rstar, dual(base))  # raises VerificationFailure if it fails
    return False


@dataclass
class BraidedIntegrals:
    right_integral: tuple       # Lambda_R in R
    dual_right_integral: tuple  # lambda_R in R*
    chi: tuple                  # values of chi in G(B*) on the base's basis


def braided_integrals(r: BraidedHopf) -> BraidedIntegrals:
    """Right integrals of R and R*, and the group-like chi of B* they induce.

    Lambda_R is the right integral of R's algebra and lambda_R that of R*'s,
    whose product is R's coproduct transposed and whose counit is R's unit;
    lambda_R(Lambda_R) = 1 when that pairing is nonzero.  When the
    underlying algebra of R is semisimple, asserts chi = eps_B and the
    trivial-coaction/antipode-fixedness identities of the integral.
    """
    field = r.field
    dim = r.dim
    big = integral_line(
        r.mult, r.counit, True, "right integral space of R has dimension %d"
    )
    lam = integral_line(
        r.comult.permuted((1, 2, 0)),
        r.unit,
        True,
        "right integral space of R* has dimension %d",
    )
    lam = paired_to_one(lam, big, field)

    # chi(b) from b . Lambda = chi(b) Lambda, row b of acted
    pivot = next(i for i, c in enumerate(big) if not c.is_zero())
    acted = r.yd.action.contract(1, big)
    chi = []
    for bi in range(r.base.dim):
        img = acted.row(bi)
        scale = img[pivot] / big[pivot]
        if img != vec_scale(scale, big):
            raise DegenerateIntegral("chi is ill-defined on the integral")
        chi.append(scale)
    chi = tuple(chi)

    if is_semisimple_trace(r.algebra):
        eps_r_lambda = r.counit_of(big)
        if eps_r_lambda.is_zero():
            raise DegenerateIntegral("eps_R(Lambda_R) = 0 for semisimple R")
        if chi != tuple(r.base.counit):
            raise DegenerateIntegral("chi != eps_B for semisimple R")
        if r.yd.coact_vec(big) != vec_outer(r.base.unit, big):
            raise DegenerateIntegral("rho(Lambda_R) != 1 (x) Lambda_R")
        if r.antipode.apply(big) != big:
            raise DegenerateIntegral("S_R(Lambda_R) != Lambda_R")
        # r_{-1} lambda(r_0) = lambda(r) 1_B on every basis element
        lam_coact = r.yd.coaction.contract(2, lam)
        for i in range(dim):
            if lam_coact.row(i) != vec_scale(lam[i], r.base.unit):
                raise DegenerateIntegral("r_{-1} lambda(r_0) != lambda(r) 1_B")
    return BraidedIntegrals(big, lam, chi)
