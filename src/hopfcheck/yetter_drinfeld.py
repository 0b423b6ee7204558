"""Yetter-Drinfeld modules over a base Hopf algebra, braided Hopf algebra
verification, the Radford biproduct (bosonization), and the dual-biproduct
identity (R x B)* = R* x B*.

A YDModule carries one action matrix per basis element of the base B and a
coaction tensor rho[i][j][k] = coefficient of b_j (x) v_k in rho(v_i).  A
BraidedHopf adds the five structure fields of a Hopf algebra object living
in the category.
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
    antipode_law_failures,
    coassociative,
    counit_law,
    dual,
    integral_line,
    right_dual_integral,
    verify_hopf,
)
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    sparse_equal,
    unit_vector,
    vec_dot,
    vec_outer,
    vec_scale,
    vec_sub,
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

    def __init__(self, base: HopfAlgebra, dim: int, action, coaction: Tensor3):
        if len(action) != base.dim:
            raise ValueError("one action matrix per base basis element required")
        if coaction.dims != (dim, base.dim, dim):
            raise ValueError("coaction tensor has wrong shape")
        self.base = base
        self.dim = dim
        self.action = list(action)
        self.coaction = coaction

    @property
    def field(self):
        return self.base.field

    def act(self, b_vec, v) -> tuple:
        """(sum_i b_i action_i) applied to v."""
        out = list(zero_vector(self.field, self.dim))
        for i, c in enumerate(b_vec):
            if c.is_zero():
                continue
            img = self.action[i].apply(v)
            for t, x in enumerate(img):
                if not x.is_zero():
                    out[t] = out[t] + c * x
        return tuple(out)

    def coact_basis(self, i: int):
        """rho(v_i) as a sparse tuple of (base index, module index, coeff)."""
        return self.coaction.by_i().get(i, ())

    def coact_vec(self, v) -> dict:
        return self.coaction.contract_first(v)


def trivial_yd(base: HopfAlgebra, dim: int) -> YDModule:
    """b . v = eps(b) v and rho(v) = 1 (x) v."""
    field = base.field
    ident = Matrix.identity(field, dim)
    action = [ident.scale(base.counit[i]) for i in range(base.dim)]
    unit_idx = [i for i, c in enumerate(base.unit) if not c.is_zero()]
    entries = {}
    for i in range(dim):
        for j in unit_idx:
            entries[(i, j, i)] = base.unit[j]
    return YDModule(base, dim, action, Tensor3(field, (dim, base.dim, dim), entries))


def tensor_yd(v: YDModule, w: YDModule) -> YDModule:
    """V (x) W with b.(x (x) y) = b1.x (x) b2.y and diagonal coaction."""
    if not _same_base(v.base, w.base):
        raise BaseMismatch("tensor of YD modules needs a common base")
    base = v.base
    field = v.field
    dim = v.dim * w.dim

    def fuse(i, j):
        return i * w.dim + j

    action = []
    for bi in range(base.dim):
        data = [[field.zero()] * dim for _ in range(dim)]
        for b1, b2, c in base.delta_basis(bi):
            m1 = v.action[b1]
            m2 = w.action[b2]
            for i in range(v.dim):
                for t, x in enumerate(m1.column(i)):
                    if x.is_zero():
                        continue
                    for j in range(w.dim):
                        for u, y in enumerate(m2.column(j)):
                            if not y.is_zero():
                                data[fuse(t, u)][fuse(i, j)] = (
                                    data[fuse(t, u)][fuse(i, j)] + c * x * y
                                )
        action.append(Matrix(field, data))
    entries: dict = {}
    for i in range(v.dim):
        for j in range(w.dim):
            for a1, k1, c1 in v.coact_basis(i):
                for a2, k2, c2 in w.coact_basis(j):
                    c = c1 * c2
                    for b, x in base.algebra.basis_product(a1, a2):
                        key = (fuse(i, j), b, fuse(k1, k2))
                        entries[key] = entries.get(key, field.zero()) + c * x
    entries = {k: c for k, c in entries.items() if not c.is_zero()}
    return YDModule(base, dim, action, Tensor3(field, (dim, base.dim, dim), entries))


def verify_yd(v: YDModule) -> Report:
    """Module, comodule, and compatibility laws on all basis pairs."""
    report = Report(
        checks=["module", "comodule", "yd-compatibility"]
    )
    base = v.base
    field = v.field
    dim = v.dim
    bdim = base.dim

    # module: action of 1 is the identity; action composes along mult
    unit_action = _combine_action(v, base.unit)
    if not unit_action.is_identity():
        report.add(Violation("module", ("unit",), "1 . v != v"))
    for i in range(bdim):
        for j in range(bdim):
            composed = v.action[i] * v.action[j]
            expected = Matrix.zero(field, dim, dim)
            for k, c in base.algebra.basis_product(i, j):
                expected = expected + v.action[k].scale(c)
            if composed != expected:
                report.add(Violation("module", (i, j), "action not multiplicative"))

    # comodule: counitality and coassociativity over the base
    for i in range(dim):
        rows = v.coact_basis(i)
        if not counit_law(rows, base.counit, 0, i, field, dim):
            report.add(Violation("comodule", (i,), "(eps (x) id) rho != id"))
        if not coassociative(rows, base.delta_basis, v.coact_basis, field):
            report.add(Violation("comodule", (i,), "coaction not coassociative"))

    # compatibility: rho(b.v) = b1 v_{-1} S(b3) (x) b2 . v0
    if base.antipode is None:
        report.add(Violation("yd-compatibility", (), "base antipode missing"))
        return report
    s_cols = base.antipode.columns()
    for bi in range(bdim):
        triples = base.sweedler_triples(bi)
        for vi in range(dim):
            lhs = v.coact_vec(v.action[bi].column(vi))
            rhs: dict = {}
            for b1, b2, b3, c in triples:
                for vm1, v0, c2 in v.coact_basis(vi):
                    coeff = c * c2
                    left_leg = base.algebra.multiply(
                        base.algebra.multiply(
                            unit_vector(field, bdim, b1),
                            unit_vector(field, bdim, vm1),
                        ),
                        s_cols[b3],
                    )
                    acted = v.action[b2].column(v0)
                    for t, x in enumerate(left_leg):
                        if x.is_zero():
                            continue
                        for u, y in enumerate(acted):
                            if not y.is_zero():
                                key = (t, u)
                                rhs[key] = rhs.get(key, field.zero()) + coeff * x * y
            if not sparse_equal(lhs, rhs):
                report.add(
                    Violation("yd-compatibility", (bi, vi), "compatibility fails")
                )
    return report


def _combine_action(v: YDModule, b_vec) -> Matrix:
    acc = Matrix.zero(v.field, v.dim, v.dim)
    for i, c in enumerate(b_vec):
        if not c.is_zero():
            acc = acc + v.action[i].scale(c)
    return acc


def braiding(v: YDModule, w: YDModule) -> Matrix:
    """c(v (x) w) = (v_{-1} . w) (x) v_0, a matrix on V (x) W -> W (x) V."""
    if v.base is not w.base and not _same_base(v.base, w.base):
        raise BaseMismatch("braiding requires a common base")
    field = v.field
    rows = v.dim * w.dim
    data = [[field.zero()] * rows for _ in range(rows)]
    for i in range(v.dim):
        for j in range(w.dim):
            col = i * w.dim + j
            for b, k, c in v.coact_basis(i):
                img = w.action[b].column(j)
                for t, x in enumerate(img):
                    if not x.is_zero():
                        data[t * v.dim + k][col] = (
                            data[t * v.dim + k][col] + c * x
                        )
    return Matrix(field, data)


def _same_base(b1: HopfAlgebra, b2: HopfAlgebra) -> bool:
    from hopfcheck.hopf import structure_equal

    return structure_equal(b1, b2)


class BraidedHopf:
    """A Hopf algebra object in the Yetter-Drinfeld category over yd.base."""

    __slots__ = ("yd", "mult", "unit", "comult", "counit", "antipode", "_algebra")

    def __init__(self, yd: YDModule, mult: Tensor3, unit, comult: Tensor3, counit, antipode: Matrix):
        d = yd.dim
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
        return vec_dot(self.counit, v)


def ordinary_to_braided(h: HopfAlgebra, base: HopfAlgebra) -> BraidedHopf:
    """An ordinary Hopf algebra as a braided one with trivial YD structure."""
    if h.field.order != base.field.order:
        raise FieldMismatch("braided object and base over different fields")
    yd = trivial_yd(base, h.dim)
    return BraidedHopf(
        yd, h.algebra.mult, h.unit, h.comult, h.counit, h.antipode
    )


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
    for v in verify_yd(yd).violations:
        report.add(Violation("yd-structure", v.location, "%s: %s" % (v.law, v.detail)))
    for v in verify_algebra(r.algebra).violations:
        report.add(Violation("algebra", v.location, "%s: %s" % (v.law, v.detail)))

    # coalgebra axioms
    for i in range(dim):
        rows = r.delta_basis(i)
        if not (
            counit_law(rows, r.counit, 0, i, field, dim)
            and counit_law(rows, r.counit, 1, i, field, dim)
        ):
            report.add(Violation("coalgebra", (i,), "counit law fails"))
        if not coassociative(rows, r.delta_basis, r.delta_basis, field):
            report.add(Violation("coalgebra", (i,), "comult not coassociative"))

    # module algebra: b . (rs) = (b1 . r)(b2 . s); b . 1 = eps(b) 1
    for bi in range(bdim):
        if yd.act(unit_vector(field, bdim, bi), r.unit) != vec_scale(
            base.counit[bi], r.unit
        ):
            report.add(Violation("module-algebra", (bi,), "b . 1 != eps(b) 1"))
        for i in range(dim):
            for j in range(dim):
                prod = r.algebra.multiply(
                    unit_vector(field, dim, i), unit_vector(field, dim, j)
                )
                lhs = yd.action[bi].apply(prod)
                rhs = list(zero_vector(field, dim))
                for b1, b2, c in base.delta_basis(bi):
                    left = yd.action[b1].column(i)
                    right = yd.action[b2].column(j)
                    term = r.algebra.multiply(left, right)
                    for t, x in enumerate(term):
                        if not x.is_zero():
                            rhs[t] = rhs[t] + c * x
                if lhs != tuple(rhs):
                    report.add(
                        Violation("module-algebra", (bi, i, j), "not a module algebra")
                    )

    # comodule algebra: rho(rs) = r_{-1} s_{-1} (x) r_0 s_0; rho(1) = 1 (x) 1
    if not sparse_equal(yd.coact_vec(r.unit), vec_outer(base.unit, r.unit)):
        report.add(Violation("comodule-algebra", ("unit",), "rho(1) != 1 (x) 1"))
    for i in range(dim):
        for j in range(dim):
            prod = r.algebra.multiply(
                unit_vector(field, dim, i), unit_vector(field, dim, j)
            )
            lhs = yd.coact_vec(prod)
            rhs: dict = {}
            for a1, k1, c1 in yd.coact_basis(i):
                for a2, k2, c2 in yd.coact_basis(j):
                    c = c1 * c2
                    bprod = base.algebra.basis_product(a1, a2)
                    rprod = r.algebra.basis_product(k1, k2)
                    for t, x in bprod:
                        for u, y in rprod:
                            key = (t, u)
                            rhs[key] = rhs.get(key, field.zero()) + c * x * y
            if not sparse_equal(lhs, rhs):
                report.add(
                    Violation("comodule-algebra", (i, j), "not a comodule algebra")
                )

    # module coalgebra: Delta(b . r) = b1 . r1 (x) b2 . r2; eps(b.r) = eps(b)eps(r)
    for bi in range(bdim):
        for i in range(dim):
            acted = yd.action[bi].column(i)
            lhs = r.comult.contract_first(acted)
            rhs: dict = {}
            for b1, b2, c in base.delta_basis(bi):
                for j, k, c2 in r.delta_basis(i):
                    cc = c * c2
                    left = yd.action[b1].column(j)
                    right = yd.action[b2].column(k)
                    for t, x in enumerate(left):
                        if x.is_zero():
                            continue
                        for u, y in enumerate(right):
                            if not y.is_zero():
                                key = (t, u)
                                rhs[key] = rhs.get(key, field.zero()) + cc * x * y
            if not sparse_equal(lhs, rhs):
                report.add(
                    Violation("module-coalgebra", (bi, i), "Delta not a module map")
                )
            if r.counit_of(acted) != base.counit[bi] * r.counit[i]:
                report.add(
                    Violation("module-coalgebra", (bi, i), "eps not a module map")
                )

    # comodule coalgebra: rho(R(x)R)(Delta r) = (id (x) Delta) rho(r), and
    # eps a comodule map: r_{-1} eps(r_0) = eps(r) 1_B
    for i in range(dim):
        lhs: dict = {}
        for j, k, c in r.delta_basis(i):
            for a1, t1, c1 in yd.coact_basis(j):
                for a2, t2, c2 in yd.coact_basis(k):
                    cc = c * c1 * c2
                    for b, x in base.algebra.basis_product(a1, a2):
                        key = (b, t1, t2)
                        lhs[key] = lhs.get(key, field.zero()) + cc * x
        rhs: dict = {}
        for a, t, c in yd.coact_basis(i):
            for j, k, c2 in r.delta_basis(t):
                key = (a, j, k)
                rhs[key] = rhs.get(key, field.zero()) + c * c2
        if not sparse_equal(lhs, rhs):
            report.add(
                Violation("comodule-coalgebra", (i,), "Delta not a comodule map")
            )
        eps_leg = list(zero_vector(field, bdim))
        for a, t, c in yd.coact_basis(i):
            if not r.counit[t].is_zero():
                eps_leg[a] = eps_leg[a] + c * r.counit[t]
        if tuple(eps_leg) != vec_scale(r.counit[i], base.unit):
            report.add(Violation("comodule-coalgebra", (i,), "eps not a comodule map"))

    # braided multiplicativity:
    # Delta(rs) = r1 ((r2)_{-1} . s1) (x) (r2)_0 s2
    for i in range(dim):
        for j in range(dim):
            prod = r.algebra.multiply(
                unit_vector(field, dim, i), unit_vector(field, dim, j)
            )
            lhs = r.comult.contract_first(prod)
            rhs: dict = {}
            for r1, r2, c in r.delta_basis(i):
                for s1, s2, c2 in r.delta_basis(j):
                    cc = c * c2
                    for b, r2_0, c3 in yd.coact_basis(r2):
                        acted = yd.action[b].column(s1)
                        left = r.algebra.multiply(
                            unit_vector(field, dim, r1), acted
                        )
                        right = r.algebra.basis_product(r2_0, s2)
                        for t, x in enumerate(left):
                            if x.is_zero():
                                continue
                            for u, y in right:
                                key = (t, u)
                                rhs[key] = (
                                    rhs.get(key, field.zero()) + cc * c3 * x * y
                                )
            if not sparse_equal(lhs, rhs):
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

    # braided anti-homomorphism: S(rs) = (r_{-1} . S(s)) S(r_0)
    s_cols = r.antipode.columns()
    for i in range(dim):
        for j in range(dim):
            prod = r.algebra.multiply(
                unit_vector(field, dim, i), unit_vector(field, dim, j)
            )
            lhs = r.antipode.apply(prod)
            rhs = list(zero_vector(field, dim))
            for b, r0, c in yd.coact_basis(i):
                acted = yd.action[b].apply(s_cols[j])
                term = r.algebra.multiply(acted, s_cols[r0])
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
    if not _same_base(r.base, base):
        raise BaseMismatch("braided object lives over a different base")
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
                for b in range(bd):  # b index
                    col = fuse(j, b)
                    acc: dict = {}
                    for a1, a2, c in delta_a:
                        acted = yd.action[a1].column(j)
                        rpart = r.algebra.multiply(
                            unit_vector(field, rd, i), acted
                        )
                        bpart = base.algebra.basis_product(a2, b)
                        for t, x in enumerate(rpart):
                            if x.is_zero():
                                continue
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
    unit = [zero] * dim
    for i, x in enumerate(r.unit):
        if x.is_zero():
            continue
        for j, y in enumerate(base.unit):
            if not y.is_zero():
                unit[fuse(i, j)] = x * y
    counit = [zero] * dim
    for i in range(rd):
        for j in range(bd):
            counit[fuse(i, j)] = r.counit[i] * base.counit[j]
    # antipode: S(r b) = (1 (x) S_B(r_{-1} b)) (S_R(r_0) (x) 1)
    #                  = (beta_1 . S_R(r_0)) (x) beta_2, beta = S_B(r_{-1} b)
    anti = [[zero] * dim for _ in range(dim)]
    sr_cols = r.antipode.columns()
    for i in range(rd):
        for b in range(bd):
            col = fuse(i, b)
            for a, r0, c in yd.coact_basis(i):
                beta = base.antipode.apply(
                    base.algebra.multiply(
                        unit_vector(field, bd, a), unit_vector(field, bd, b)
                    )
                )
                dbeta = base.delta_vec(beta)
                for (b1, b2), c2 in dbeta.items():
                    acted = yd.action[b1].apply(sr_cols[r0])
                    for t, x in enumerate(acted):
                        if not x.is_zero():
                            anti[fuse(t, b2)][col] = (
                                anti[fuse(t, b2)][col] + c * c2 * x
                            )
    alg = AssocAlgebra(
        field, dim, Tensor3(field, (dim, dim, dim), mult_entries), tuple(unit)
    )
    h = HopfAlgebra(
        alg,
        Tensor3(field, (dim, dim, dim), comult_entries),
        tuple(counit),
        Matrix(field, anti),
    )
    if check:
        report = verify_hopf(h)
        if not report.ok:
            raise VerificationFailure(
                "biproduct fails Hopf axioms:\n" + "\n".join(report.lines())
            )
    return h


def dual_braided(r: BraidedHopf, check: bool = True) -> BraidedHopf:
    """R* as a braided Hopf algebra over B*, extracted from (R x B)*.

    All structure is obtained by tensor transposition of R x B followed by
    the canonical projections onto the R*- and B*-legs, so no convention is
    assumed beyond the biproduct formulas themselves; the result is re-run
    through verify_braided_hopf.
    """
    base = r.base
    hdual = dual(bosonize(r, base, check=False))
    bdual = dual(base)
    field = r.field
    rd, bd = r.dim, base.dim

    def fuse(i, j):
        return i * bd + j

    def inj_r(f):  # R* -> (R x B)*: f (x) eps_B
        out = [field.zero()] * (rd * bd)
        for i, c in enumerate(f):
            if not c.is_zero():
                for j, e in enumerate(base.counit):
                    if not e.is_zero():
                        out[fuse(i, j)] = c * e
        return tuple(out)

    def inj_b(f):  # B* -> (R x B)*: eps_R (x) f
        out = [field.zero()] * (rd * bd)
        for j, c in enumerate(f):
            if not c.is_zero():
                for i, e in enumerate(r.counit):
                    if not e.is_zero():
                        out[fuse(i, j)] = c * e
        return tuple(out)

    def proj_r(v):  # evaluate the B-leg at 1_B
        out = [field.zero()] * rd
        for i in range(rd):
            acc = field.zero()
            for j, u in enumerate(base.unit):
                if not u.is_zero():
                    acc = acc + v[fuse(i, j)] * u
            out[i] = acc
        return tuple(out)

    def proj_b(v):  # evaluate the R-leg at 1_R
        out = [field.zero()] * bd
        for j in range(bd):
            acc = field.zero()
            for i, u in enumerate(r.unit):
                if not u.is_zero():
                    acc = acc + v[fuse(i, j)] * u
            out[j] = acc
        return tuple(out)

    rstar_units = [inj_r(unit_vector(field, rd, i)) for i in range(rd)]
    bstar_units = [inj_b(unit_vector(field, bd, j)) for j in range(bd)]

    mult_entries = {}
    for i in range(rd):
        for j in range(rd):
            prod = proj_r(hdual.algebra.multiply(rstar_units[i], rstar_units[j]))
            for k, c in enumerate(prod):
                if not c.is_zero():
                    mult_entries[(i, j, k)] = c
    unit_r = proj_r(hdual.unit)
    comult_entries = {}
    for i in range(rd):
        dd = hdual.delta_vec(rstar_units[i])
        acc: dict = {}
        for (x, y), c in dd.items():
            rx = proj_r(unit_vector(field, rd * bd, x))
            ry = proj_r(unit_vector(field, rd * bd, y))
            for j, cj in enumerate(rx):
                if cj.is_zero():
                    continue
                for k, ck in enumerate(ry):
                    if not ck.is_zero():
                        key = (j, k)
                        acc[key] = acc.get(key, field.zero()) + c * cj * ck
        for (j, k), c in acc.items():
            if not c.is_zero():
                comult_entries[(i, j, k)] = c
    counit_r = tuple(hdual.counit_of(f) for f in rstar_units)

    # B*-action on R*: beta . f = Pi_R( beta1 f S*(beta2) )
    action = []
    for j in range(bd):
        cols = []
        bstar = bstar_units[j]
        d_beta = hdual.delta_vec(bstar)
        for i in range(rd):
            f = rstar_units[i]
            acc = [field.zero()] * rd
            for (x, y), c in d_beta.items():
                sx = hdual.antipode.apply(unit_vector(field, rd * bd, y))
                term = hdual.algebra.multiply(
                    hdual.algebra.multiply(unit_vector(field, rd * bd, x), f), sx
                )
                pr = proj_r(term)
                for t, v in enumerate(pr):
                    if not v.is_zero():
                        acc[t] = acc[t] + c * v
            cols.append(tuple(acc))
        action.append(Matrix.from_columns(field, cols))

    # B*-coaction on R*: (Pi_B (x) Pi_R) Delta* restricted to R*
    coaction_entries = {}
    for i in range(rd):
        dd = hdual.delta_vec(rstar_units[i])
        acc: dict = {}
        for (x, y), c in dd.items():
            bx = proj_b(unit_vector(field, rd * bd, x))
            ry = proj_r(unit_vector(field, rd * bd, y))
            for j, cj in enumerate(bx):
                if cj.is_zero():
                    continue
                for k, ck in enumerate(ry):
                    if not ck.is_zero():
                        key = (j, k)
                        acc[key] = acc.get(key, field.zero()) + c * cj * ck
        for (j, k), c in acc.items():
            if not c.is_zero():
                coaction_entries[(i, j, k)] = c

    yd_star = YDModule(
        bdual, rd, action, Tensor3(field, (rd, bd, rd), coaction_entries)
    )
    # the braided antipode satisfies the ordinary convolution equations in
    # R*'s own structure; direct extraction from S_{(R x B)*} would carry a
    # coaction twist, so solve instead (the solution is unique)
    from hopfcheck.hopf import solve_antipode

    rstar_alg = AssocAlgebra(
        field, rd, Tensor3(field, (rd, rd, rd), mult_entries), unit_r
    )
    carrier = HopfAlgebra(
        rstar_alg, Tensor3(field, (rd, rd, rd), comult_entries), counit_r
    )
    anti = solve_antipode(carrier)
    rstar = BraidedHopf(
        yd_star,
        Tensor3(field, (rd, rd, rd), mult_entries),
        unit_r,
        Tensor3(field, (rd, rd, rd), comult_entries),
        counit_r,
        anti,
    )
    if check:
        report = verify_braided_hopf(rstar)
        if not report.ok:
            raise VerificationFailure(
                "dual braided object fails axioms:\n" + "\n".join(report.lines())
            )
    return rstar


def check_dual_biproduct(r: BraidedHopf, base: HopfAlgebra) -> bool:
    """(R x B)* == R* x B* under (r_i (x) b_j)* <-> r_i* (x) b_j*, tensor-exactly."""
    from hopfcheck.hopf import structure_equal

    lhs = dual(bosonize(r, base))
    rstar = dual_braided(r)
    rhs = bosonize(rstar, dual(base))
    return structure_equal(lhs, rhs)


@dataclass
class BraidedIntegrals:
    right_integral: tuple       # Lambda_R in R
    dual_right_integral: tuple  # lambda_R in R*
    chi: tuple                  # values of chi in G(B*) on the base's basis


def braided_integrals(r: BraidedHopf) -> BraidedIntegrals:
    """Right integrals of R and R*, and the group-like chi of B* they induce.

    When the underlying algebra of R is semisimple, asserts chi = eps_B and
    the trivial-coaction/antipode-fixedness identities of the integral.
    """
    field = r.field
    dim = r.dim

    def right_block(i):
        e = unit_vector(field, dim, i)
        eps = r.counit[i]

        def apply(v):
            return vec_sub(r.algebra.multiply(v, e), vec_scale(eps, v))

        return apply

    big = integral_line(
        [right_block(i) for i in range(dim)],
        field,
        dim,
        "right integral space of R has dimension %d",
    )
    lam = right_dual_integral(r, big, "right integral space of R* has dimension %d")

    # chi(b) from b . Lambda = chi(b) Lambda
    pivot = next(i for i, c in enumerate(big) if not c.is_zero())
    chi = []
    for bi in range(r.base.dim):
        img = r.yd.action[bi].apply(big)
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
        if not sparse_equal(r.yd.coact_vec(big), vec_outer(r.base.unit, big)):
            raise DegenerateIntegral("rho(Lambda_R) != 1 (x) Lambda_R")
        if r.antipode.apply(big) != big:
            raise DegenerateIntegral("S_R(Lambda_R) != Lambda_R")
        # r_{-1} lambda(r_0) = lambda(r) 1_B on every basis element
        for i in range(dim):
            acc = list(zero_vector(field, r.base.dim))
            for a, t, c in r.yd.coact_basis(i):
                if not lam[t].is_zero():
                    acc[a] = acc[a] + c * lam[t]
            if tuple(acc) != vec_scale(lam[i], r.base.unit):
                raise DegenerateIntegral("r_{-1} lambda(r_0) != lambda(r) 1_B")
    return BraidedIntegrals(big, lam, chi)
