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

The candidate is built on sweedler()'s basis (1, x, g, gx) over the
parameter ring PolyRing(Q, VARS): a YDModule for the action and coaction,
an AssocAlgebra for R, the antipode ansatz as a Matrix and the integral as
a vector.  Before the chain runs, the library checks the structure laws on
these objects: verify_yd checks the module, comodule and Yetter-Drinfeld
laws, and the braided suite's module_algebra_failures and
comodule_algebra_failures check that R is a module and comodule algebra.
A failed law ends the case as consistent, so dim5-check exits 1.  The chain
then uses the same objects' product, action, coaction and antipode.

All arithmetic is exact multivariate polynomial arithmetic over Q.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import PolyRing, make_field
from hopfcheck.families import sweedler
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    unit_vector,
    vec_combination,
    vec_dot,
    vec_is_zero,
    vec_scale,
    vec_sub,
)
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

# sweedler()'s basis: g^2 = 1, x^2 = 0, gx = -xg
_H_ONE, _H_X, _H_G, _H_GX = range(4)
_H_NAMES = ("1", "x", "g", "gx")

# candidate basis order
IOTA, U, V, UV, E = range(5)
_R_NAMES = ("iota", "u", "v", "uv", "e")


def _map_entries(ring: PolyRing, f, obj):
    """obj over ring with f applied to every scalar: a Tensor3, a Matrix or a
    vector."""
    if isinstance(obj, Tensor3):
        return Tensor3(ring, obj.dims, {k: f(c) for k, c in obj.entries.items()})
    if isinstance(obj, Matrix):
        return Matrix(ring, [[f(c) for c in row] for row in obj.data])
    return tuple(f(c) for c in obj)


@dataclass
class Candidate:
    """The symbolic candidate R = A + k e for one coaction case.

    yd is R as a YDModule over sweedler() promoted into PolyRing(Q, VARS),
    alg is R's algebra, antipode the ansatz (column j is S(r_j)) and lam the
    integral normalized by lambda(uv) = lambda(e) = 1.
    """

    case: str
    yd: YDModule
    alg: AssocAlgebra
    antipode: Matrix
    lam: tuple

    @property
    def ring(self) -> PolyRing:
        return self.alg.field

    def substituted(self, assignments: dict) -> "Candidate":
        """A copy with the given parameter values substituted everywhere."""
        ring = self.ring

        def sub(obj):
            return _map_entries(ring, lambda c: c.substitute(assignments), obj)

        yd = YDModule(
            self.yd.base, self.yd.dim, sub(self.yd.action), sub(self.yd.coaction)
        )
        alg = AssocAlgebra(ring, self.alg.dim, sub(self.alg.mult), sub(self.alg.unit))
        return Candidate(self.case, yd, alg, sub(self.antipode), sub(self.lam))


def build_case(case: str) -> Candidate:
    """The full symbolic candidate for one coaction case.

    zeta5 = zeta6 = 0 and zeta1 = zeta7 = 1 are substituted on construction
    (forced by S(1_R) = 1_R and eps independence); case A also fixes gamma = 0.
    """
    if case not in CASES:
        raise ValueError("case must be one of %r" % (CASES,))
    ring = PolyRing(make_field(1), VARS)
    alpha, beta, eta, z2, z3, z4 = (
        ring.var(n) for n in ("alpha", "beta", "eta", "zeta2", "zeta3", "zeta4")
    )
    gamma = ring.zero() if case == "A" else ring.var("gamma")

    def lift(obj):
        return _map_entries(ring, ring.promote, obj)

    def matrix(entries):  # {(row, col): coeff}
        rows = [[entries.get((i, j), 0) for j in range(5)] for i in range(5)]
        return Matrix(ring, rows)

    sw = sweedler()
    base = HopfAlgebra(
        AssocAlgebra(ring, 4, lift(sw.algebra.mult), lift(sw.unit)),
        lift(sw.comult),
        lift(sw.counit),
        lift(sw.antipode),
    )

    # u^2 = alpha iota, v^2 = beta iota, uv + vu = gamma iota, iota the unit
    # of A, e an orthogonal central idempotent
    mult = {
        (IOTA, IOTA, IOTA): 1, (IOTA, U, U): 1, (IOTA, V, V): 1, (IOTA, UV, UV): 1,
        (U, IOTA, U): 1, (V, IOTA, V): 1, (UV, IOTA, UV): 1,
        (U, U, IOTA): alpha, (U, V, UV): 1, (V, U, IOTA): gamma, (V, U, UV): -1,
        (V, V, IOTA): beta, (U, UV, V): alpha, (UV, U, U): gamma, (UV, U, V): -alpha,
        (V, UV, V): gamma, (V, UV, U): -beta, (UV, V, U): beta,
        (UV, UV, UV): gamma, (UV, UV, IOTA): -alpha * beta, (E, E, E): 1,
    }

    # b . r as {(b, r, s): coefficient of s}: g = diag(1, -1, -1, 1, 1);
    # x: v -> iota, uv -> u; gx acts as g after x
    g_sign = (1, -1, -1, 1, 1)
    x_image = {V: IOTA, UV: U}
    action = {(_H_ONE, r, r): 1 for r in range(5)}
    action.update({(_H_G, r, r): g_sign[r] for r in range(5)})
    action.update({(_H_X, r, s): 1 for r, s in x_image.items()})
    action.update({(_H_GX, r, s): g_sign[s] for r, s in x_image.items()})

    # rho(r) as {(r, base index, r0): coeff}.  rho(uv) is written out as
    # rho(u) rho(v); comodule_algebra_failures checks that product.
    rho = {(IOTA, _H_ONE, IOTA): 1, (E, _H_ONE, E): 1}
    if case == "A":
        rho.update({
            (U, _H_ONE, U): 1, (U, _H_X, UV): 2,
            (V, _H_G, V): 1, (V, _H_GX, IOTA): 2 * beta,
            (UV, _H_G, UV): 1,
        })
    elif case == "B":
        rho.update({
            (U, _H_G, U): 1,
            (V, _H_G, V): 1, (V, _H_GX, IOTA): -eta,
            (UV, _H_ONE, UV): 1, (UV, _H_X, U): -eta,
        })
    else:
        rho.update({
            (U, _H_G, U): 1, (U, _H_GX, IOTA): -1,
            (V, _H_G, V): 1,
            (UV, _H_ONE, UV): 1, (UV, _H_X, V): 1,
        })

    yd = YDModule(
        base, 5, Tensor3(ring, (4, 5, 5), action), Tensor3(ring, (5, 4, 5), rho)
    )
    alg = AssocAlgebra(ring, 5, Tensor3(ring, (5, 5, 5), mult), lift((1, 0, 0, 0, 1)))
    # S(iota) = iota, S(u) = z2 u, S(v) = z3 u + v, S(uv) = z4 iota + z2 uv,
    # S(e) = e
    antipode = matrix({
        (IOTA, IOTA): 1, (U, U): z2, (U, V): z3, (V, V): 1,
        (IOTA, UV): z4, (UV, UV): z2, (E, E): 1,
    })
    return Candidate(case, yd, alg, antipode, lift((0, 0, 0, 1, 1)))


def _vec_repr(vec) -> str:
    parts = []
    for name, c in zip(_R_NAMES, vec):
        if not c.is_zero():
            parts.append("(%r).%s" % (c, name))
    return " + ".join(parts) if parts else "0"


def _tensor_repr(t: dict) -> str:
    parts = []
    for (h, r), c in sorted(t.items()):
        parts.append("(%r).%s(x)%s" % (c, _H_NAMES[h], _R_NAMES[r]))
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


def check_integral_constraints(cand: Candidate) -> ContradictionReport:
    """The integral identities: forced lambda values, gamma = 1, zeta2 = 1.

    For case A the trivial-coaction identity of the integral eliminates the
    case before any normalization; the report carries the residual g - 1.
    The invariance steps evaluate the candidate's action and counit; a step
    that forces nothing ends the report before any contradiction.
    """
    report = ContradictionReport(cand.case)
    ring = cand.ring
    alg = cand.alg
    basis = [unit_vector(ring, 5, i) for i in range(5)]

    def lam_of(vec):
        return vec_dot(vec, cand.lam, ring)

    # (a) lambda(iota) = lambda(u) = lambda(v) = 0 from
    #     lambda(b . r) = eps(b) lambda(r), with b . r read off the action
    lam_ring = PolyRing(ring.field, ("l_iota", "l_u", "l_v"))
    shadow = {i: lam_ring.var(n) for i, n in zip((IOTA, U, V), lam_ring.variables)}

    def shadow_lam(vec):
        # lambda(vec) with lambda(uv) = lambda(e) = 1; None when a coefficient
        # of vec involves the parameters
        if not all(c.is_constant() for c in vec):
            return None
        acc = lam_ring.zero()
        for idx, c in enumerate(vec):
            value = lam_ring.promote(c.constant_value)
            acc = acc + value * shadow.get(idx, lam_ring.one())
        return acc

    counit = cand.yd.base.counit
    for b, r, forced in ((_H_G, U, "l_u"), (_H_G, V, "l_v"), (_H_X, V, "l_iota")):
        bn, rn = _H_NAMES[b], _R_NAMES[r]
        name = "lambda(%s.%s) - eps(%s) lambda(%s)" % (bn, rn, bn, rn)
        # b . r - eps(b) r
        acted = cand.yd.action.contract(1, basis[r]).row(b)
        moved = vec_sub(acted, vec_scale(counit[b], basis[r]))
        residual = shadow_lam(moved)
        # forcing needs residual = c * forced with c a nonzero constant
        ok = (
            residual is not None
            and not residual.is_zero()
            and residual.substitute({forced: 0}).is_zero()
        )
        shown = "lambda(%s)" % _vec_repr(moved) if residual is None else repr(residual)
        verb = "forcing" if ok else "not forcing"
        detail = "%s = %s, %s %s = 0" % (name, shown, verb, forced)
        report.add("integral-invariance", detail, ok=ok)
        if not ok:
            return report
    report.add("lambda", "lambda = (0, 0, 0, 1, 1) on (iota, u, v, uv, e)")

    # (b) lambda(vu) = gamma lambda(iota) - lambda(uv) = -1
    vu = alg.multiply(basis[V], basis[U])
    lam_vu = lam_of(vu)
    gamma_term = vu[IOTA]
    report.add(
        "lambda(vu)",
        "lambda(vu) = (%r) lambda(iota) - lambda(uv) = %r" % (gamma_term, lam_vu),
        ok=lam_vu == -1,
    )
    if lam_vu != -1:
        return report

    if cand.case == "A":
        # rho(uv) must be 1 (x) uv by r_{-1} lambda(r_0) = lambda(r) 1;
        # the computed coaction of uv is g (x) uv
        rho_uv = cand.yd.coact_vec(basis[UV])
        report.add("rho(uv)", _tensor_repr(rho_uv))
        acc = list(cand.yd.coaction.contract(2, cand.lam).row(UV))
        acc[_H_ONE] = acc[_H_ONE] - lam_of(basis[UV])
        detail = " + ".join(
            "(%r).%s" % (v, _H_NAMES[h]) for h, v in enumerate(acc) if not v.is_zero()
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
    duals = [basis[UV], vec_scale(-1, basis[V]), basis[U], basis[IOTA], basis[E]]
    for r in range(5):
        values = [lam_of(alg.multiply(dvec, basis[r])) for dvec in duals]
        residual = vec_sub(vec_combination(values, basis, ring, 5), basis[r])
        report.add(
            "dual-basis[%s]" % _R_NAMES[r],
            "exact" if vec_is_zero(residual) else "residual %s" % _vec_repr(residual),
            ok=True,  # the uv cross term is expected; recorded, not fatal
        )

    # (d) counit contraction: multiply the legs of the dual-basis tensor
    legs = [alg.multiply(basis[d], dvec) for d, dvec in enumerate(duals)]
    contracted = vec_combination([ring.one()] * 5, legs, ring, 5)
    diff = vec_sub(contracted, alg.unit)
    report.add(
        "counit-contraction",
        "sum d_i d'_i = %s; equating to 1_R forces gamma = 1"
        % _vec_repr(contracted),
        ok=diff[E].is_zero() and not diff[IOTA].is_zero(),
    )
    report.forced["gamma"] = 1

    # (e) lambda applied to the antipode-mapped dual basis forces zeta2 = 1
    values = [lam_of(cand.antipode.column(d)) for d in range(5)]
    acc = vec_combination(values, duals, ring, 5)
    report.add(
        "antipode-normalization",
        "(lambda (x) id) of the S-mapped dual basis = %s; "
        "equating to 1_R forces zeta2 = 1" % _vec_repr(acc),
        ok=acc[E] == ring.one() and acc[IOTA] == ring.var("zeta2"),
    )
    report.forced["zeta2"] = 1
    return report


def check_antipode_contradiction(cand: Candidate) -> ContradictionReport:
    """The braided anti-homomorphism chain for cases B and C.

    Evaluates S(rs) - (r_{-1} . S(s)) S(r_0) on the ordered pairs (u,u),
    (v,u), (u,v) with gamma = zeta2 = 1 substituted, forcing alpha = 0 and
    zeta4 = 1 and ending at the exact mismatch -2 iota (B) or -3 iota (C).
    A failed integral step ends the chain there.  run_case passes the
    candidate whose structure laws it has checked.
    """
    if cand.case not in ("B", "C"):
        raise ValueError("antipode contradiction applies to cases B and C")
    integral = check_integral_constraints(cand)
    if not all(s.ok for s in integral.steps):
        return integral
    cand = cand.substituted({"gamma": 1, "zeta2": 1})
    report = ContradictionReport(cand.case)
    report.steps.extend(integral.steps)
    report.forced.update(integral.forced)
    ring = cand.ring
    basis = [unit_vector(ring, 5, i) for i in range(5)]

    def braided_rhs(r_idx, s_idx):
        # (r_{-1} . S(s)) S(r_0)
        acted = cand.yd.action.contract(1, cand.antipode.column(s_idx))
        terms = cand.yd.coact_basis(r_idx)
        products = [
            cand.alg.multiply(acted.row(h), cand.antipode.column(r0))
            for h, r0, _ in terms
        ]
        return vec_combination([c for _, _, c in terms], products, ring, 5)

    def s_of_product(r_idx, s_idx):
        return cand.antipode.apply(cand.alg.multiply(basis[r_idx], basis[s_idx]))

    # (u, u): S(u^2) - (u_{-1} . S(u)) S(u_0) = 2 alpha iota
    lhs = s_of_product(U, U)
    rhs = braided_rhs(U, U)
    residual = vec_sub(lhs, rhs)
    expected = vec_scale(ring.var("alpha") * 2, basis[IOTA])
    report.add(
        "pair(u,u)",
        "S(u^2) = %s; (u_-1 . S(u)) S(u_0) = %s; residual = %s -> alpha = 0"
        % (_vec_repr(lhs), _vec_repr(rhs), _vec_repr(residual)),
        ok=residual == expected,
    )
    if residual != expected:
        return report
    report.forced["alpha"] = 0
    cand = cand.substituted({"alpha": 0})

    # (v, u): S(vu) - (v_{-1} . S(u)) S(v_0) = (1 - zeta4) iota
    lhs = s_of_product(V, U)
    rhs = braided_rhs(V, U)
    residual = vec_sub(lhs, rhs)
    expected = vec_scale(1 - ring.var("zeta4"), basis[IOTA])
    report.add(
        "pair(v,u)",
        "S(vu) = %s; (v_-1 . S(u)) S(v_0) = %s; residual = %s -> zeta4 = 1"
        % (_vec_repr(lhs), _vec_repr(rhs), _vec_repr(residual)),
        ok=residual == expected,
    )
    if residual != expected:
        return report
    report.forced["zeta4"] = 1
    cand = cand.substituted({"zeta4": 1})

    # (u, v): computed (u_{-1} . S(v)) S(u_0) versus required S(uv) = uv + iota
    required = cand.antipode.column(UV)
    computed = braided_rhs(U, V)
    mismatch = vec_sub(computed, required)
    expected = vec_scale(-2 if cand.case == "B" else -3, basis[IOTA])
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


def run_case(case: str) -> ContradictionReport:
    """The full contradiction chain for one case, as printed by the CLI.

    A failed structure law ends the case at once, with inconsistent = False:
    a contradiction derived from a candidate that breaks the laws proves
    nothing.
    """
    cand = build_case(case)
    ok = (
        verify_yd(cand.yd).ok
        and not any(module_algebra_failures(cand.yd, cand.alg))
        and not any(comodule_algebra_failures(cand.yd, cand.alg))
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
        chain = check_integral_constraints(cand)
    else:
        chain = check_antipode_contradiction(cand)
    chain.steps = report.steps + chain.steps
    return chain
