"""The Hopf algebra data type and its structural computations: axiom
verification, antipode solving, duals, tensor products, integrals and
distinguished group-likes, the antipode fourth-power conjugation formula,
semisimplicity tests, group-likes, skew primitives, coradical, invariant
fingerprints, and the dimension-4p family classifier.

Group-like and character searches are complete relative to the working
cyclotomic field; operations expose obstructions instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from hopfcheck.algebra import (
    AssocAlgebra,
    Report,
    Violation,
    _is_character,
    algebra_failures,
    algebra_generators,
    characters,
    radical,
)
from hopfcheck.cyclotomic import (
    CycloField,
    FieldElement,
    FieldMismatch,
    is_prime,
    rational_to_str,
)
from hopfcheck.linalg import (
    EchelonBasis,
    Matrix,
    Tensor3,
    kron,
    kron_vector,
    row_space_basis,
    sparse_kernel,
    sparse_sub_scaled,
    sparse_vector,
    unit_vector,
    vec_dot,
    vec_is_zero,
    vec_outer,
    vec_scale,
    vec_sub,
)


class NoAntipode(ValueError):
    """The bialgebra admits no antipode."""


class DegenerateIntegral(ValueError):
    """An integral solution space failed to be 1-dimensional."""


class NotGroupLike(ValueError):
    """A claimed group-like element fails its defining equations."""


class BadDimension(ValueError):
    """classify_4p needs dimension 4p with p an odd prime."""


class AntipodeOrderOverflow(ValueError):
    """The antipode order exceeded the search cap."""


class HopfAlgebra:
    """Structure constants of a finite-dimensional Hopf algebra.

    comult[i][j][k] is the coefficient of b_j (x) b_k in Delta(b_i); the
    antipode matrix maps coordinates (column j is S(b_j)) and may be None
    until solved.
    """

    __slots__ = ("algebra", "comult", "counit", "antipode", "_cache")

    def __init__(self, algebra: AssocAlgebra, comult: Tensor3, counit, antipode=None):
        d = algebra.dim
        if comult.dims != (d, d, d):
            raise ValueError("comultiplication tensor has wrong shape")
        self.algebra = algebra
        self.comult = comult
        self.counit = tuple(algebra.field.promote(c) for c in counit)
        self.antipode = antipode
        self._cache = {}

    @property
    def field(self) -> CycloField:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def unit(self) -> tuple:
        return self.algebra.unit

    def __repr__(self):
        return "HopfAlgebra(dim=%d over %r)" % (self.dim, self.field)

    def counit_of(self, vec) -> FieldElement:
        return vec_dot(self.counit, vec, self.field)

    def delta_basis(self, i: int):
        """Delta(b_i) as a sparse tuple of (j, k, coeff)."""
        return self.comult.by_i().get(i, ())

    def delta_vec(self, vec) -> dict:
        """Delta of a coordinate vector as {(j, k): coeff}."""
        return self.comult.contract_first(vec)

    def sweedler_triples(self, i: int):
        """(id (x) Delta)Delta(b_i) as (j, k, l, coeff): the second leg expanded."""
        out = []
        for j, t, c in self.delta_basis(i):
            for k, l, c2 in self.delta_basis(t):
                out.append((j, k, l, c * c2))
        return tuple(out)


def structure_equal(h1: HopfAlgebra, h2: HopfAlgebra) -> bool:
    """Exact equality of all structure tensors over the same field."""
    if h1.field != h2.field or h1.dim != h2.dim:
        return False
    if h1.algebra.mult != h2.algebra.mult or h1.algebra.unit != h2.algebra.unit:
        return False
    if h1.comult != h2.comult or h1.counit != h2.counit:
        return False
    if (h1.antipode is None) != (h2.antipode is None):
        return False
    if h1.antipode is not None and h1.antipode != h2.antipode:
        return False
    return True


_CHECK_ORDER = [
    "associativity",
    "unit",
    "coassociativity",
    "counit",
    "comult-algebra-map",
    "counit-algebra-map",
    "antipode-left",
    "antipode-right",
]


def verify_hopf(h: HopfAlgebra) -> Report:
    """Every Hopf axiom of h, decided exactly; the report lists each violation.

    _bialgebra_holds decides the laws before the antipode by running
    bialgebra_failures on the generator rows of H or of H*, whichever has
    fewer generators.  Only when a law fails does bialgebra_failures run on
    every row of h, so a failing report is the full loops' report.  The
    antipode laws run on every basis element, unless certified_antipode
    has already passed h's antipode on h.
    """
    report = Report(checks=list(_CHECK_ORDER))
    if not _bialgebra_holds(h):
        report.violations.extend(bialgebra_failures(h, range(h.dim)))

    # antipode laws
    if h.antipode is None:
        report.add(Violation("antipode-left", (), "antipode missing"))
        report.add(Violation("antipode-right", (), "antipode missing"))
        return report
    if h._cache.get("certified_antipode") is h.antipode:
        return report
    for i, side in antipode_law_failures(h, h.antipode):
        law, detail = _ANTIPODE_VIOLATIONS[side]
        report.add(Violation(law, (i,), detail))
    return report


def bialgebra_failures(h: HopfAlgebra, rows):
    """Each Violation of the laws of verify_hopf before the antipode, in
    report order: algebra_failures(h.algebra, rows); coassociativity at b_i
    for i in rows and both counit laws at every b_i; Delta(1) = 1 (x) 1 and
    eps(1) = 1; then Delta(b_i b_j) = Delta(b_i)Delta(b_j) for i in rows and
    eps(b_i b_j) = eps(b_i)eps(b_j) on every pair.

    On the rows of algebra_generators(h.algebra) it yields nothing exactly
    when every law holds on every basis element, pair and triple.  The laws
    run on every row are the premises, and the three laws run on the
    generators g only are each exact by the lemma in algebra_generators
    given the laws before them:

    - associativity on the triples (g, j, k), given the unit laws;
    - Delta(g b_j) = Delta(g)Delta(b_j), given associativity, the unit laws
      and Delta(1) = 1 (x) 1;
    - coassociativity at g: (Delta (x) id)Delta and (id (x) Delta)Delta
      are then unital algebra maps H -> H^(x)3, and they agree on a
      subalgebra.

    The list is self-dual: in H* = (H, Delta^T, eps, m^T, 1) it is the same
    set of identities with m and Delta swapped (the unit and counit laws,
    Delta(1) = 1 (x) 1 and eps(ab) = eps(a)eps(b), associativity and
    coassociativity trade places).  So it decides H's laws on the generator
    rows of H* as well.
    """
    field, dim = h.field, h.dim
    yield from algebra_failures(h.algebra, rows)
    eps_left, eps_right = (h.comult.contract(leg, h.counit) for leg in (1, 2))
    for i in range(dim):
        delta = h.delta_basis(i)
        if i in rows and not coassociative(delta, h.delta_basis, h.delta_basis, field):
            yield Violation("coassociativity", (i,), "(D(x)id)D != (id(x)D)D")
        e_i = unit_vector(field, dim, i)
        if eps_left.row(i) != e_i:
            yield Violation("counit", (i,), "(eps(x)id)D != id")
        if eps_right.row(i) != e_i:
            yield Violation("counit", (i,), "(id(x)eps)D != id")
    if h.delta_vec(h.unit) != vec_outer(h.unit, h.unit):
        yield Violation("comult-algebra-map", ("unit",), "D(1) != 1(x)1")
    if not h.counit_of(h.unit).is_one():
        yield Violation("counit-algebra-map", ("unit",), "eps(1) != 1")
    deltas = [{(j, k): c for j, k, c in h.delta_basis(i)} for i in range(dim)]
    eps_products = h.algebra.mult.contract(2, h.counit).data  # eps(b_i b_j)
    for i in range(dim):
        # Delta(b_i)Delta(b_j) for every j, from one set of leg products
        row = i in rows and h.algebra.tensor_square_product(deltas[i], deltas)
        for j in range(dim):
            if row and not _comult_multiplies(h.algebra, deltas, i, j, row[j]):
                yield Violation("comult-algebra-map", (i, j), "D(ab) != D(a)D(b)")
            if eps_products[i][j] != h.counit[i] * h.counit[j]:
                yield Violation("counit-algebra-map", (i, j), "eps(ab) != eps(a)eps(b)")


def _bialgebra_holds(h: HopfAlgebra) -> bool:
    """True exactly when every law of verify_hopf before the antipode holds.

    bialgebra_failures decides them on the generator rows of X, which is H
    or H*, whichever needs fewer generators (H on a tie).  The generators
    of H are None only when a unit law fails, which H's run on no rows
    then finds.
    """
    x, gens = h, algebra_generators(h.algebra) or []
    gens_d = algebra_generators(dual_algebra(h), len(gens) - 1)
    if gens_d is not None:
        # H* without its antipode: m and Delta swap roles
        x = HopfAlgebra(dual_algebra(h), h.algebra.mult.permuted((2, 0, 1)), h.unit)
        gens = gens_d
    return next(bialgebra_failures(x, gens), None) is None


def _comult_multiplies(alg: AssocAlgebra, deltas, i, j, square: dict) -> bool:
    """Delta(b_i b_j) == square, which is Delta(b_i)Delta(b_j) and becomes
    the residual; deltas[k] is Delta(b_k) as a dict."""
    for k, c in alg.basis_product(i, j):
        sparse_sub_scaled(square, c, deltas[k])
    return not square


_ANTIPODE_VIOLATIONS = {
    "left": ("antipode-left", "m(S(x)id)D != u.eps"),
    "right": ("antipode-right", "m(id(x)S)D != u.eps"),
}


# --- law kernels shared by the Hopf, braided and Yetter-Drinfeld suites ------


def coassociative(rows, delta_basis, coact_basis, field) -> bool:
    """(Delta (x) id) rho(b) == (id (x) rho) rho(b), with rho(b) given by rows.

    rows lists rho(b) as (j, k, coeff) for b_j (x) m_k; delta_basis(j) is
    Delta(b_j) in the coalgebra on the left leg and coact_basis(k) is
    rho(m_k).  With rho = Delta this is coassociativity of a coalgebra; with
    a coaction it is coassociativity of a comodule.
    """
    zero = field.zero()
    diff: dict = {}
    for j, t, c in rows:
        for a, b, c2 in delta_basis(j):
            key = (a, b, t)
            diff[key] = diff.get(key, zero) + c * c2
    for j, t, c in rows:
        for a, b, c2 in coact_basis(t):
            key = (j, a, b)
            diff[key] = diff.get(key, zero) - c * c2
    return vec_is_zero(diff.values())


def antipode_law_failures(h, s: Matrix):
    """(i, side) for each basis index i where a convolution law of s fails.

    side "left" means m(S (x) id)Delta(b_i) != eps(b_i) 1 and "right" means
    m(id (x) S)Delta(b_i) != eps(b_i) 1; left comes before right.  They are
    summed as sum_k (sum_j c_jk S(b_j)) b_k and sum_j b_j (sum_k c_jk S(b_k)),
    one product per leg of Delta(b_i); an entry t of S(b_j) with no table
    row (t, k) on the left or (j, t) on the right is zero there and skipped.
    h is a HopfAlgebra or a BraidedHopf.  A generator, so the first failure
    costs only the basis elements before it.
    """
    table = h.algebra.mult.by_ij()
    cols = [sparse_vector(col) for col in s.columns()]
    for i in range(h.dim):
        legs: dict = {"left": {}, "right": {}}
        for j, k, c in h.delta_basis(i):
            for side, leg, col in (("left", k, cols[j]), ("right", j, cols[k])):
                acc = legs[side].setdefault(leg, {})
                for t, x in col.items():
                    if ((t, leg) if side == "left" else (leg, t)) in table:
                        acc[t] = acc[t] + c * x if t in acc else c * x
        for side, sums in legs.items():
            rest = list(vec_scale(h.counit[i], h.unit))
            for b, v in sums.items():
                for t, x in h.algebra.basis_times(b, v, right=side == "left").items():
                    rest[t] = rest[t] - x
            if not vec_is_zero(rest):
                yield i, side


def certified_antipode(h, s: Matrix) -> Matrix:
    """s, once it passes both convolution laws on every basis element of h;
    the antipode is unique, so a map passing them is the antipode.  Raises
    NoAntipode naming the first failure otherwise.  h remembers s, so
    verify_hopf does not check the laws again while s is h's antipode."""
    for i, side in antipode_law_failures(h, s):
        raise NoAntipode("%s antipode law fails on basis %d" % (side, i))
    h._cache["certified_antipode"] = s
    return s


def integral_line(mult: Tensor3, eps, right: bool, message: str) -> tuple:
    """The x with b_a x = eps_a x for every basis a, or x b_a = eps_a x when
    right: the left (right) integral of the algebra with product tensor mult
    and counit eps, by one stacked kernel.

    Row (a, k) is the b_k coefficient of b_a x - eps_a x: m[a][j][k] (or
    m[j][a][k] when right) at x_j, less eps_a at x_k, read off the table
    entries.  The kernel vector of a line has its last nonzero coordinate 1.
    Raises DegenerateIntegral(message % dimension) unless the kernel is a
    line.  mult is that of H, of H* (comult permuted, counit the unit) or of
    a braided Hopf algebra.
    """
    field, dim = mult.field, mult.dims[2]
    zero = field.zero()
    rows: dict = {}
    for (i, j, k), c in mult.entries.items():
        a, x = (j, i) if right else (i, j)
        rows.setdefault((a, k), {})[x] = c
    for a, e in enumerate(eps):
        if not e.is_zero():
            for k in range(dim):
                row = rows.setdefault((a, k), {})
                row[k] = row.get(k, zero) - e
    space = sparse_kernel(field, dim, list(rows.values()))
    if len(space) != 1:
        raise DegenerateIntegral(message % len(space))
    return space[0]


def paired_to_one(lam, integral, field) -> tuple:
    """lam scaled so lam(integral) = 1, or lam itself when the pairing is 0."""
    pairing = vec_dot(lam, integral, field)
    return lam if pairing.is_zero() else vec_scale(pairing.inverse(), lam)


def _integral_pair(h: HopfAlgebra) -> tuple:
    """(Lambda, lam): Lambda spans the left integrals of h (x Lambda =
    eps(x) Lambda) and lam the right integrals of h* (lam(x_1) x_2 =
    lam(x) 1, that is lam f = f(1) lam in the algebra h*), with lam(Lambda)
    = 1 when that pairing is nonzero.  Raises DegenerateIntegral when either
    space is not a line.  The pair does not involve the antipode; it is
    cached on h once found."""
    cached = h._cache.get("integral_pair")
    if cached is not None:
        return cached
    big_lambda = integral_line(
        h.algebra.mult, h.counit, False, "left integral space has dimension %d"
    )
    lam = integral_line(
        dual_algebra(h).mult, h.unit, True, "right dual integral space has dimension %d"
    )
    pair = (big_lambda, paired_to_one(lam, big_lambda, h.field))
    h._cache["integral_pair"] = pair
    return pair


def solve_antipode(h: HopfAlgebra) -> Matrix:
    """The antipode S of h, certified by both convolution laws.

    _solve_antipode_dense takes S as the inverse of Radford's formula for
    S^-1, and the result must pass m(S (x) id)Delta(b_i) = eps(b_i) 1 =
    m(id (x) S)Delta(b_i) on every basis element (certified_antipode), so
    whatever is returned is a two-sided convolution inverse of the identity.

    Raises NoAntipode only if h is not a Hopf algebra.  Proof: let h be one,
    with antipode S.  By Larson-Sweedler (Amer. J. Math. 91, 1969) the left
    integrals of h (x Lambda = eps(x) Lambda) form a line, and so do the
    right integrals of h* (lam(x_1) x_2 = lam(x) 1).  By Radford (Amer. J.
    Math. 98, 1976) S is bijective and lam(Lambda) != 0, so paired_to_one
    scales lam to lam(Lambda) = 1.  Since Delta is multiplicative and
    x_2 Lambda = eps(x_2) Lambda,
        S(x) Lambda_1 (x) Lambda_2 = S(x_1) x_2 Lambda_1 (x) x_3 Lambda_2
                                   = Lambda_1 (x) x Lambda_2.
    Put S^-1(x) for x and apply lam (x) id:
        T(x) = lam(x Lambda_1) Lambda_2 = lam(Lambda_1) S^-1(x) Lambda_2
             = S^-1(x) lam(Lambda) 1 = S^-1(x).
    So T is invertible, its inverse is S, and S passes the certificate.
    """
    return certified_antipode(h, _solve_antipode_dense(h))


def _solve_antipode_dense(h: HopfAlgebra) -> Matrix:
    """S as the inverse of T(x) = lam(x Lambda_1) Lambda_2 (see solve_antipode).

    Lambda is a left integral of h and lam a right integral of h*.
    """
    try:
        big_lambda, lam = _integral_pair(h)
    except DegenerateIntegral as exc:
        raise NoAntipode(str(exc)) from None
    # row i is T(b_i): lam(b_i b_j) times Delta(Lambda) = sum c_jk b_j (x) b_k
    t = h.algebra.mult.contract(2, lam) * h.comult.contract(0, big_lambda)
    try:
        return t.transpose().inverse()
    except ZeroDivisionError:
        raise NoAntipode("lam(x Lambda_1) Lambda_2 is singular") from None


def dual(h: HopfAlgebra) -> HopfAlgebra:
    """Transpose all structure: mult* = comult^T, comult* = mult^T, etc.

    The two index permutations compose to the identity and S^TT = S, so the
    result records h as its own dual: dual(dual(h)) is h.
    """
    cached = h._cache.get("dual")
    if cached is not None:
        return cached
    if h.antipode is None:
        raise NoAntipode("dualizing requires a solved antipode")
    comult_dual = h.algebra.mult.permuted((2, 0, 1))
    result = HopfAlgebra(
        dual_algebra(h), comult_dual, h.unit, h.antipode.transpose()
    )
    result._cache["dual"] = h
    result._cache["dual_algebra"] = h.algebra
    h._cache["dual"] = result
    return result


def dual_algebra(h: HopfAlgebra) -> AssocAlgebra:
    """Just the algebra structure of H*: convolution on functionals."""
    cached = h._cache.get("dual_algebra")
    if cached is None:
        cached = h._cache["dual_algebra"] = AssocAlgebra(
            h.field, h.dim, h.comult.permuted((1, 2, 0)), h.counit
        )
    return cached


def tensor_hopf(h1: HopfAlgebra, h2: HopfAlgebra) -> HopfAlgebra:
    """Componentwise Hopf structure on the tensor product basis (lex order)."""
    if h1.field != h2.field:
        raise FieldMismatch("tensor factors over different fields")
    field, d2 = h1.field, h2.dim
    dim = h1.dim * d2

    def tensor(t1: Tensor3, t2: Tensor3) -> Tensor3:
        return Tensor3(field, (dim, dim, dim), kron(t1.entries, t2.entries, d2))

    anti = None
    if h1.antipode is not None and h2.antipode is not None:
        s = kron(_matrix_entries(h1.antipode), _matrix_entries(h2.antipode), d2)
        zero = field.zero()
        anti = Matrix._wrap(
            field, [[s.get((r, c), zero) for c in range(dim)] for r in range(dim)]
        )
    unit = kron_vector(field, h1.unit, h2.unit)
    alg = AssocAlgebra(field, dim, tensor(h1.algebra.mult, h2.algebra.mult), unit)
    counit = kron_vector(field, h1.counit, h2.counit)
    return HopfAlgebra(alg, tensor(h1.comult, h2.comult), counit, anti)


def _matrix_entries(m: Matrix) -> dict:
    """The nonzero entries of m keyed by (row, column)."""
    return {
        (r, c): x
        for r, row in enumerate(m.data)
        for c, x in enumerate(row)
        if not x.is_zero()
    }


@dataclass
class IntegralData:
    """Integrals and the distinguished group-likes they define.

    left_integral L satisfies hL = eps(h)L; right_dual_integral t (a vector
    of functional values) satisfies h <- t = t(h) 1; distinguished_a in G(H)
    and distinguished_alpha in G(H*) come from L h = alpha(h) L and
    t -> h = t(h) a, with t(L) normalized to 1 when nonzero.
    """

    left_integral: tuple
    right_dual_integral: tuple
    distinguished_a: tuple
    distinguished_alpha: tuple


def integrals(h: HopfAlgebra) -> IntegralData:
    field = h.field
    dim = h.dim
    big_lambda, lam = _integral_pair(h)

    # distinguished a in G(H):  lam -> h = lam(h) a; row i of hits is lam -> b_i
    hits = h.comult.contract(2, lam)
    pivot = next((i for i in range(dim) if not lam[i].is_zero()), None)
    if pivot is None:
        raise DegenerateIntegral("right dual integral is zero")
    a_vec = vec_scale(lam[pivot].inverse(), hits.row(pivot))
    for i in range(dim):
        if hits.row(i) != vec_scale(lam[i], a_vec):
            raise DegenerateIntegral("distinguished group-like a is ill-defined")

    # distinguished alpha in G(H*):  L h = alpha(h) L
    lam_vec = sparse_vector(big_lambda)
    lpivot = min(lam_vec)
    alpha = []
    for i in range(dim):
        w = h.algebra.basis_times(i, lam_vec, right=True)
        scale = w.get(lpivot, field.zero()) / lam_vec[lpivot]
        if not scale.is_zero():
            sparse_sub_scaled(w, scale, lam_vec)
        if w:
            raise DegenerateIntegral("distinguished group-like alpha is ill-defined")
        alpha.append(scale)
    return IntegralData(big_lambda, lam, a_vec, tuple(alpha))


def check_radford_s4(h: HopfAlgebra, data: IntegralData) -> bool:
    """S^4 = a (alpha -> h <- alpha^{-1}) a^{-1}, entry-exactly on the basis.

    The middle term alpha^{-1}(x_1) x_2 alpha(x_3) at b_i is row i of the
    product comult.contract(1, alpha^{-1}) * comult.contract(2, alpha): row
    t of the right factor is alpha -> b_t = alpha(b_l) b_k over Delta(b_t) =
    b_k (x) b_l, and row i of the left one weighs it by alpha^{-1}(b_j) over
    Delta(b_i) = b_j (x) b_t.  That is the finite sum over (id (x)
    Delta)Delta(b_i), with no use of coassociativity.
    """
    if h.antipode is None:
        raise NoAntipode("antipode required")
    field = h.field
    dim = h.dim
    s4 = h.antipode.power(4)
    alpha = data.distinguished_alpha
    alpha_inv = tuple(vec_dot(alpha, h.antipode.column(j), field) for j in range(dim))
    a = data.distinguished_a
    a_inv = h.antipode.apply(a)
    middle = h.comult.contract(1, alpha_inv) * h.comult.contract(2, alpha)
    for i in range(dim):
        conj = h.algebra.multiply(a, h.algebra.multiply(middle.row(i), a_inv))
        if conj != s4.column(i):
            return False
    return True


def _antipode_cached(h: HopfAlgebra, key: str):
    """The value cached under key on h or on dual(h), else None.

    The antipode of H* is S^T, which has the order and the Tr(S^2) of S.
    """
    if h.antipode is None:
        raise NoAntipode("antipode required")
    for owner in (h, h._cache.get("dual")):
        if owner is not None and key in owner._cache:
            return owner._cache[key]
    return None


def trace_s2(h: HopfAlgebra) -> FieldElement:
    """Tr(S^2) as the sum of S[i][j] S[j][i] over nonzero entries."""
    acc = _antipode_cached(h, "trace_s2")
    if acc is None:
        s = h.antipode.data
        acc = h.field.zero()
        for i, row in enumerate(s):
            for j, x in enumerate(row):
                if not (x.is_zero() or s[j][i].is_zero()):
                    acc = acc + x * s[j][i]
        h._cache["trace_s2"] = acc
    return acc


def is_semisimple_lr(h: HopfAlgebra) -> bool:
    """Larson-Radford: semisimple in characteristic zero iff Tr(S^2) != 0."""
    return not trace_s2(h).is_zero()


@dataclass
class GroupLikes:
    """G(H) with its multiplication table and element orders.

    complete is False when character splitting met irreducible factors of
    degree > 1; the listed elements are still exactly the group-likes
    rational over the working field.
    """

    elements: list
    table: dict
    orders: list
    identity: int
    complete: bool

    def __len__(self):
        return len(self.elements)

    def inverse(self, i: int) -> int:
        for j in range(len(self.elements)):
            if self.table[(i, j)] == self.identity:
                return j
        raise NotGroupLike("element %d has no inverse in the table" % i)

    def is_cyclic(self) -> bool:
        return any(o == len(self.elements) for o in self.orders)


def group_likes(h: HopfAlgebra) -> GroupLikes:
    """G(H) via characters of the dual algebra, pulled back to H."""
    cached = h._cache.get("group_likes")
    if cached is not None:
        return cached
    # each character of H* passed _is_character, which on dual_algebra(h)
    # is the group-like test
    search = characters(dual_algebra(h))
    elements = [tuple(chi) for chi in search.characters]
    index = {g: i for i, g in enumerate(elements)}
    identity = index.get(tuple(h.unit))
    if identity is None:
        raise NotGroupLike("unit missing from group-like list")
    n = len(elements)

    # exact rows for a generating set; remaining rows follow by composing
    # verified rows, so every table entry is exact at ~|gens| * |G| products
    def exact_row(i):
        row = []
        for j in range(n):
            prod = tuple(h.algebra.multiply(elements[i], elements[j]))
            k = index.get(prod)
            if k is None:
                raise NotGroupLike("group-likes are not closed under product")
            row.append(k)
        return row

    rows: dict = {identity: list(range(n))}
    while len(rows) < n:
        missing = next(i for i in range(n) if i not in rows)
        rows[missing] = exact_row(missing)
        frontier = [missing]
        while frontier:
            nxt = []
            for s in frontier:
                for y in list(rows):
                    x = rows[s][y]
                    if x not in rows:
                        rows[x] = [rows[s][rows[y][j]] for j in range(n)]
                        nxt.append(x)
            frontier = nxt
    table = {(i, j): rows[i][j] for i in range(n) for j in range(n)}
    orders = []
    for i, g in enumerate(elements):
        power = i
        order = 1
        while power != identity:
            power = table[(power, i)]
            order += 1
        orders.append(order)
    result = GroupLikes(
        elements, table, orders, identity, not search.unresolved_factors
    )
    h._cache["group_likes"] = result
    return result


def skew_primitives(h: HopfAlgebra, g, hvec) -> list[tuple]:
    """Basis of {x : Delta(x) = x (x) g + h (x) x} modulo the trivial span{g - h}.

    The kernel of all dim^2 equations (j, k), read in H* as x(f_j f_k) =
    x(f_j)g(f_k) + h(f_j)x(f_k).  Both endpoints must be group-like.
    """
    g = tuple(h.field.promote(c) for c in g)
    hv = tuple(h.field.promote(c) for c in hvec)
    for cand in (g, hv):
        if not _is_character(dual_algebra(h), cand):
            raise NotGroupLike("skew primitive endpoints must be group-like")
    space = sparse_kernel(h.field, h.dim, _skew_rows(h, g, hv))
    return _modulo_line(h.field, space, vec_sub(g, hv))


def _modulo_line(field, space, trivial) -> list:
    """A reduced basis of span(space) modulo span{trivial}."""
    if vec_is_zero(trivial):
        return space
    # trivial leads at column p, so p is a pivot of span(space, trivial); the
    # other rows of its echelon, zero at p, are the reduced basis of the
    # projection of space along trivial onto x_p = 0
    p = next(t for t, c in enumerate(trivial) if not c.is_zero())
    return [v for v in row_space_basis(field, [trivial] + space) if v[p].is_zero()]


def _skew_rows(h: HopfAlgebra, g, hv) -> list:
    """Sparse rows (j, k) of sum_i Delta[i][j][k] x_i - g_k x_j - h_j x_k."""
    table = dual_algebra(h).mult.by_ij()  # (j, k) -> the (i, Delta[i][j][k])
    zero = h.field.zero()
    g_nz, h_nz = sparse_vector(g), sparse_vector(hv)
    rows = []
    for j in range(h.dim):
        hj = h_nz.get(j)
        for k in range(h.dim):
            row = dict(table.get((j, k), ()))
            gk = g_nz.get(k)
            if gk is not None:
                row[j] = row.get(j, zero) - gk
            if hj is not None:
                row[k] = row.get(k, zero) - hj
            if row:
                rows.append(row)
    return rows


def coradical(h: HopfAlgebra) -> list[tuple]:
    """(rad H*)^perp inside H: the sum of all simple subcoalgebras."""
    cached = h._cache.get("coradical")
    if cached is not None:
        return cached
    rad = radical(dual_algebra(h))
    if not rad:
        result = [unit_vector(h.field, h.dim, i) for i in range(h.dim)]
    else:
        result = Matrix(h.field, [list(v) for v in rad]).kernel()
    h._cache["coradical"] = result
    return result


def is_pointed(h: HopfAlgebra) -> bool:
    """dim(coradical) == |G(H)|, relative to the working field."""
    return len(coradical(h)) == len(group_likes(h).elements)


_ANTIPODE_ORDER_CAP = 32


def antipode_order(h: HopfAlgebra) -> int:
    """Least k <= _ANTIPODE_ORDER_CAP with S^k = id."""
    order = _antipode_cached(h, "antipode_order")
    if order is None:
        power = h.antipode
        for k in range(1, _ANTIPODE_ORDER_CAP + 1):
            if power.is_identity():
                order = h._cache["antipode_order"] = k
                break
            power = power * h.antipode
    if order is None:
        raise AntipodeOrderOverflow("antipode order exceeds %d" % _ANTIPODE_ORDER_CAP)
    return order


@dataclass(frozen=True)
class Fingerprint:
    """Comparable invariant tuple used by the dimension-4p classifier.

    The dual skew profile is part of the tuple: it is what separates the
    dual of the mu = 0 family from the Taft (x) group-algebra family, whose
    own profiles coincide.
    """

    dim: int
    group_order: int
    group_element_orders: tuple
    dual_group_order: int
    trace_s2_key: tuple
    antipode_order: int
    pointed: bool
    dual_pointed: bool
    skew_profile: tuple
    dual_skew_profile: tuple


def _trace_key(value: FieldElement) -> tuple:
    if value.is_rational():
        return ("rat", rational_to_str(value.rational))
    return ("alg", value.field.order, tuple(value.to_strings()))


def skew_profile(h: HopfAlgebra, likes: GroupLikes | None = None) -> dict:
    """(order g, order h) -> total dim of nontrivial (g,h)-skew primitives.

    h must be a Hopf algebra; the CLI runs verify_hopf before it.  The
    translation P_{g,h} = g * P_{1, g^{-1} h} leaves only the dims of
    P'_{1,g} = P_{1,g} / k(1 - g), P_{1,g} = {x : Delta(x) = x (x) 1 +
    g (x) x}, and all of them are read off one kernel W.  With I = (kG)^perp
    and f_j for j in algebra_generators(H*), W = {x : eps(x) = 0,
    (phi (x) f_j)(Delta(x) - x (x) 1) = 0 for phi in I}.  Why the count of
    g is exactly dim P'_{1,g} (the group-likes are independent, with
    Delta(g) = g (x) g and eps(g) = 1):

    - P_{1,g} lies in W: there the row is phi(g)f_j(x) = 0, and eps(x) = 0
      follows from (eps (x) eps)Delta = eps.
    - P_{1,g} meets kG in k(1 - g) (0 for g = 1), by the coefficients of
      Delta(y) = y (x) 1 + g (x) y at the independent h (x) h'.
    - W is the sum of the P_{1,g}.  For x in W the f with
      (id (x) f)Delta(x) - f(1)x in kG form a subalgebra of H* (by
      coassociativity) that holds the generators, so Delta(x) = x (x) 1 +
      sum_h h (x) y_h.  Then coassociativity puts each y_h in P_{1,h}, and
      the counit law gives x = sum y_h.
    - U_j = (f_j (x) id)(Delta - id (x) 1) is g(f_j) on P_{1,g} and maps
      each 1 - h into kG.  So W/kG is the sum of the images of the P_{1,g},
      and U_j acts on the image of P_{1,g}, a copy of P'_{1,g}, by g(f_j).
      The phi(x) read W modulo kG, with phi(U_j x) = (f_j phi)(x) since
      phi(1) = 0.
    - Two group-likes are characters of H*, so they differ on a generator.
      The sum of the images is direct, and the joint eigenspace of the U_j
      with the eigenvalues g(f_j) in W/kG is exactly the image of P_{1,g}.

    I's basis is rad H*, kept for coradical, when it has dim - |G| vectors
    that kill every g (H pointed), else the kernel of G's rows.  Without
    generators of H* or with (eps (x) eps)Delta != eps, h is not a Hopf
    algebra and ArithmeticError is raised.  The profile for h's own
    group-likes is cached on h; callers get a copy.
    """
    if likes is None:
        likes = group_likes(h)
    own = likes is h._cache.get("group_likes")
    if own and "skew_profile" in h._cache:
        return dict(h._cache["skew_profile"])
    nontrivial = _skew_counts(h, likes)
    profile: dict = {}
    for a in range(len(likes.elements)):
        inv_a = likes.inverse(a)
        for b in range(len(likes.elements)):
            k = likes.table[(inv_a, b)]
            d = nontrivial.get(k)
            if d:
                key = (likes.orders[a], likes.orders[b])
                profile[key] = profile.get(key, 0) + d
    if own:
        h._cache["skew_profile"] = dict(profile)
    return profile


def _skew_counts(h: HopfAlgebra, likes: GroupLikes) -> dict:
    """{index of g: dim P'_{1,g}} for the g with P'_{1,g} != 0, each the
    dim of g's joint eigenspace in the kernel W of skew_profile (see there)."""
    alg = dual_algebra(h)
    gens = algebra_generators(alg)
    if gens is None:
        raise ArithmeticError("skew_profile needs a Hopf algebra: H* has no generators")
    if alg.multiply(h.counit, h.counit) != h.counit:
        raise ArithmeticError("skew_profile needs a Hopf algebra: eps * eps != eps")
    field, dim = h.field, h.dim
    ideal = list(map(sparse_vector, radical(alg)))
    if len(ideal) != dim - len(likes) or any(
        _pairings(ideal, g, field) for g in likes.elements
    ):
        elements = [sparse_vector(g) for g in likes.elements]
        ideal = list(map(sparse_vector, sparse_kernel(field, dim, elements)))
    rows = [sparse_vector(h.counit)]
    for phi in ideal:
        for j in gens:
            rows.append(alg.basis_times(j, phi, right=True))  # phi f_j
            if not h.unit[j].is_zero():
                sparse_sub_scaled(rows[-1], h.unit[j], phi)
    # a basis of W modulo kG: vectors of W with independent values on I
    seen = EchelonBasis(field, len(ideal))
    quotient, coords = [], []
    for w in sparse_kernel(field, dim, rows):
        values = _pairings(ideal, w, field)
        if seen.insert(values):
            quotient.append(w)
            coords.append(values)
    if not quotient:
        return {}
    # (j, the values phi(U_j w) = (f_j phi)(w) for each w in quotient)
    images = []
    for j in gens:
        products = [alg.basis_times(j, phi) for phi in ideal]
        images.append((j, [_pairings(products, w, field) for w in quotient]))
    counts = {}
    for k, g in enumerate(likes.elements):
        # sum_s c_s (phi(U_j w_s) - g_j phi(w_s)) = 0 for every phi and j
        eqs: dict = {}
        for j, values_u in images:
            for s, (u, values) in enumerate(zip(values_u, coords)):
                col = dict(u)
                if not g[j].is_zero():
                    sparse_sub_scaled(col, g[j], values)
                for a, c in col.items():
                    eqs.setdefault((j, a), {})[s] = c
        eigenvectors = sparse_kernel(field, len(quotient), list(eqs.values()))
        if eigenvectors:
            counts[k] = len(eigenvectors)
    return counts


def _pairings(functionals, x, field) -> dict:
    """{a: f_a(x)} without zeros, for {index: coeff} functionals f_a."""
    zero = field.zero()
    values = (sum((c * x[i] for i, c in f.items()), zero) for f in functionals)
    return {a: v for a, v in enumerate(values) if not v.is_zero()}


def fingerprint(h: HopfAlgebra) -> Fingerprint:
    """The invariants of h and of its dual; h must be a Hopf algebra, which
    verify_hopf decides (the skew profiles need it, see skew_profile)."""
    cached = h._cache.get("fingerprint")
    if cached is not None:
        return cached
    likes = group_likes(h)
    hdual = dual(h)
    dual_likes = group_likes(hdual)
    result = Fingerprint(
        dim=h.dim,
        group_order=len(likes.elements),
        group_element_orders=tuple(sorted(likes.orders)),
        dual_group_order=len(dual_likes.elements),
        trace_s2_key=_trace_key(trace_s2(h)),
        antipode_order=antipode_order(h),
        pointed=is_pointed(h),
        dual_pointed=is_pointed(hdual),
        skew_profile=tuple(sorted(skew_profile(h, likes).items())),
        dual_skew_profile=tuple(sorted(skew_profile(hdual, dual_likes).items())),
    )
    h._cache["fingerprint"] = result
    return result


LABEL_A0 = "A(tau,0)"
LABEL_A0_DUAL = "A(tau,0)*"
LABEL_A1 = "A(tau,1)"
LABEL_A1_DUAL = "A(tau,1)*"
LABEL_TAFT_TENSOR = "Tq x k[Zp]"
LABEL_SEMISIMPLE = "semisimple"
LABEL_UNKNOWN = "unknown"

_REFERENCE_CACHE: dict = {}


def reference_fingerprints(p: int) -> dict:
    """Fingerprints of the five dimension-4p reference families at q = 2,
    in closed form; nothing is constructed.

    With n = 2p and tau = -1, A(tau,mu) is a^n = 1, y^2 = mu(1 - a^2),
    ay = tau ya, Delta(a) = a (x) a, Delta(y) = y (x) 1 + a (x) y; T2 (x)
    k[Zp] is g^2 = 1, x^2 = 0, gx = -xg, Delta(x) = x (x) g + 1 (x) x,
    tensored with the group-like generator c of order p.

    - G(A(tau,mu)) = <a> and G(T2 (x) k[Zp]) = <g> x <c> are Z_n: both
      algebras are generated by group-likes and one skew primitive, so they
      are pointed.  Z_n has phi(d) elements of order d: 1, 2, p (p - 1
      times) and n (p - 1 times).
    - G(H*) is the set of characters.  A character chi of A(tau,mu) has
      chi(a) chi(y) = tau chi(y) chi(a), so chi(y) = 0, and then y^2 =
      mu(1 - a^2) gives mu(1 - chi(a)^2) = 0: chi(a) runs over mu_n for
      mu = 0 and over +-1 for mu = 1.  So G(A(tau,0)*) = Z_n and
      G(A(tau,1)*) = Z_2; T2 (x) k[Zp] is self-dual, so its dual has Z_n.
    - a^2 is central, so A(tau,mu) splits into p blocks a^2 = w (w^p = 1)
      with y^2 = mu(1 - w).  For mu = 0 every block is Sweedler's algebra:
      A(tau,0) is basic and A(tau,0)* pointed.  For mu = 1 the p - 1
      blocks with w != 1 are M_2(k): A(tau,1) has 2 characters but
      dim H/rad H = 4p - 2, so only A(tau,1)* is not pointed.
    - S^2 is conjugation by a (S^2(y) = a^{-1} y a = -y), resp. by g: it
      is -1 on half of a basis a^i y^j (g^i x^j c^k), so Tr(S^2) = 0 and S
      has order 4.  S of H* is the transpose: the same trace and order.
    - Skew profiles count nontrivial (g, h)-skew primitives by (order g,
      order h).  In A(tau,mu) they are the a^i y, of type (a^i, a^(i+1));
      walking i over Z_n gives shape "a" below.  In T2 (x) k[Zp] they are
      the g^i c^k x, of type (t g, t) with g of order 2: shape "t".  The
      dual skew primitive xi of A(tau,mu)* reads the y-coordinate; xi(hk)
      picks y from either factor, so Delta(xi) = xi (x) chi + eps (x) xi
      with chi(a) = tau^{-1} = -1 of order 2.  Its translates by G(H*)
      give shape "t" for mu = 0 and shape "z" (G = Z_2) for mu = 1.
    """
    cached = _REFERENCE_CACHE.get(p)
    if cached is not None:
        return cached
    n = 2 * p
    cyclic = (1, 2) + (p,) * (p - 1) + (n,) * (p - 1)
    shapes = {
        "a": {
            (1, n): 1, (2, p): 1, (p, 2): 1, (p, n): p - 2, (n, 1): 1, (n, p): p - 2,
        },
        "t": {(1, 2): 1, (2, 1): 1, (p, n): p - 1, (n, p): p - 1},
        "z": {(1, 2): 1, (2, 1): 1},
    }
    # the element orders of G next to each skew shape; only the Z_2 side,
    # A(tau,1)*, is not pointed
    orders = {"a": cyclic, "t": cyclic, "z": (1, 2)}

    def reference(skew: str, dual_skew: str) -> Fingerprint:
        return Fingerprint(
            dim=4 * p,
            group_order=len(orders[skew]),
            group_element_orders=orders[skew],
            dual_group_order=len(orders[dual_skew]),
            trace_s2_key=("rat", "0/1"),
            antipode_order=4,
            pointed=skew != "z",
            dual_pointed=dual_skew != "z",
            skew_profile=tuple(sorted(shapes[skew].items())),
            dual_skew_profile=tuple(sorted(shapes[dual_skew].items())),
        )

    refs = {
        LABEL_A0: reference("a", "t"),
        LABEL_A0_DUAL: reference("t", "a"),
        LABEL_A1: reference("a", "z"),
        LABEL_A1_DUAL: reference("z", "a"),
        LABEL_TAFT_TENSOR: reference("t", "t"),
    }
    _REFERENCE_CACHE[p] = refs
    return refs


def classify_4p(h: HopfAlgebra) -> str:
    """Fingerprint-matching against the five reference families of dim 4p.

    Returns a label only on a unique match; "unknown" is a legitimate
    output, never a misattribution.  h must be a Hopf algebra, as for
    fingerprint; on another input the label means nothing.  The references
    are in closed form, so the only algebra built here is h's dual.
    """
    if h.dim % 4 != 0:
        raise BadDimension("dimension %d is not 4p" % h.dim)
    p = h.dim // 4
    if p == 2 or not is_prime(p):
        raise BadDimension("dimension %d is not 4p for an odd prime p" % h.dim)
    if not trace_s2(h).is_zero():
        return LABEL_SEMISIMPLE
    refs = reference_fingerprints(p)
    fp = fingerprint(h)
    matches = [label for label, ref in refs.items() if ref == fp]
    if len(matches) == 1:
        return matches[0]
    return LABEL_UNKNOWN
