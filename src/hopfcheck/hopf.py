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
    characters,
    minimal_polynomial,
    radical,
    verify_algebra,
)
from hopfcheck.cyclotomic import (
    CycloField,
    FieldElement,
    FieldMismatch,
    is_prime,
    rational_to_str,
    roots_in_field,
)
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    common_kernel,
    sparse_equal,
    unit_vector,
    vec_dot,
    vec_is_zero,
    vec_outer,
    vec_scale,
    vec_sub,
    zero_vector,
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
        return vec_dot(self.counit, vec)

    def delta_basis(self, i: int):
        """Delta(b_i) as a sparse tuple of (j, k, coeff)."""
        return self.comult.by_i().get(i, ())

    def delta_vec(self, vec) -> dict:
        """Delta of a coordinate vector as {(j, k): coeff}."""
        return self.comult.contract_first(vec)

    def sweedler_triples(self, i: int):
        """(Delta (x) id)Delta(b_i) as a tuple of (j, k, l, coeff)."""
        out = []
        for j, t, c in self.delta_basis(i):
            for k, l, c2 in self.delta_basis(t):
                out.append((j, k, l, c * c2))
        return tuple(out)


def structure_equal(h1: HopfAlgebra, h2: HopfAlgebra) -> bool:
    """Exact equality of all structure tensors over the same field."""
    if h1.field.order != h2.field.order or h1.dim != h2.dim:
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
    """Every Hopf axiom on every basis element/pair/triple, exactly."""
    report = Report(checks=list(_CHECK_ORDER))
    for v in verify_algebra(h.algebra).violations:
        report.add(v)
    dim = h.dim
    field = h.field
    zero = field.zero()

    # coassociativity and counit laws
    for i in range(dim):
        rows = h.delta_basis(i)
        if not coassociative(rows, h.delta_basis, h.delta_basis, field):
            report.add(Violation("coassociativity", (i,), "(D(x)id)D != (id(x)D)D"))
        if not counit_law(rows, h.counit, 0, i, field, dim):
            report.add(Violation("counit", (i,), "(eps(x)id)D != id"))
        if not counit_law(rows, h.counit, 1, i, field, dim):
            report.add(Violation("counit", (i,), "(id(x)eps)D != id"))

    # bialgebra compatibility
    unit_delta = h.delta_vec(h.unit)
    unit_outer = vec_outer(h.unit, h.unit)
    if not sparse_equal(unit_delta, unit_outer):
        report.add(Violation("comult-algebra-map", ("unit",), "D(1) != 1(x)1"))
    if not h.counit_of(h.unit).is_one():
        report.add(Violation("counit-algebra-map", ("unit",), "eps(1) != 1"))
    deltas = [{(j, k): c for j, k, c in h.delta_basis(i)} for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            prod_delta: dict = {}
            for k, c in h.algebra.basis_product(i, j):
                for key, c2 in deltas[k].items():
                    prod_delta[key] = prod_delta.get(key, zero) + c * c2
            delta_prod = h.algebra.tensor_square_product(deltas[i], deltas[j])
            if not sparse_equal(prod_delta, delta_prod):
                report.add(
                    Violation("comult-algebra-map", (i, j), "D(ab) != D(a)D(b)")
                )
            acc = zero
            for k, c in h.algebra.basis_product(i, j):
                if not h.counit[k].is_zero():
                    acc = acc + c * h.counit[k]
            if acc != h.counit[i] * h.counit[j]:
                report.add(
                    Violation("counit-algebra-map", (i, j), "eps(ab) != eps(a)eps(b)")
                )

    # antipode laws
    if h.antipode is None:
        report.add(Violation("antipode-left", (), "antipode missing"))
        report.add(Violation("antipode-right", (), "antipode missing"))
        return report
    for i, side in antipode_law_failures(h, h.antipode):
        law, detail = _ANTIPODE_VIOLATIONS[side]
        report.add(Violation(law, (i,), detail))
    return report


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
    left: dict = {}
    right: dict = {}
    for j, t, c in rows:
        for a, b, c2 in delta_basis(j):
            key = (a, b, t)
            left[key] = left.get(key, zero) + c * c2
    for j, t, c in rows:
        for a, b, c2 in coact_basis(t):
            key = (j, a, b)
            right[key] = right.get(key, zero) + c * c2
    return sparse_equal(left, right)


def counit_law(rows, counit, leg, i, field, dim) -> bool:
    """Applying counit to tensor leg `leg` (0 or 1) of rows gives back b_i.

    rows lists rho(b_i) as (j, k, coeff); the other leg ranges over a space
    of dimension dim.
    """
    acc = [field.zero()] * dim
    for row in rows:
        e = counit[row[leg]]
        if not e.is_zero():
            k = row[1 - leg]
            acc[k] = acc[k] + e * row[2]
    return tuple(acc) == unit_vector(field, dim, i)


def antipode_law_failures(h, s: Matrix):
    """(i, side) for each basis index i where a convolution law of s fails.

    side "left" means m(S (x) id)Delta(b_i) != eps(b_i) 1 and "right" means
    m(id (x) S)Delta(b_i) != eps(b_i) 1; left comes before right.  h is a
    HopfAlgebra or a BraidedHopf.  A generator, so the first failure costs
    only the basis elements before it.
    """
    field = h.field
    dim = h.dim
    cols = s.columns()
    for i in range(dim):
        left = list(zero_vector(field, dim))
        right = list(zero_vector(field, dim))
        for j, k, c in h.delta_basis(i):
            term = h.algebra.multiply(cols[j], unit_vector(field, dim, k))
            for t, x in enumerate(term):
                if not x.is_zero():
                    left[t] = left[t] + c * x
            term = h.algebra.multiply(unit_vector(field, dim, j), cols[k])
            for t, x in enumerate(term):
                if not x.is_zero():
                    right[t] = right[t] + c * x
        target = vec_scale(h.counit[i], h.unit)
        if tuple(left) != target:
            yield i, "left"
        if tuple(right) != target:
            yield i, "right"


def integral_line(blocks, field, dim, message) -> tuple:
    """The vector spanning the common kernel of blocks, which must be a line.

    Raises DegenerateIntegral(message % dimension) otherwise.
    """
    space = common_kernel(blocks, dim, field)
    if len(space) != 1:
        raise DegenerateIntegral(message % len(space))
    return space[0]


def right_dual_integral(h, integral, message) -> tuple:
    """lam in the dual with (lam (x) id)Delta(b) = lam(b) 1 for every b.

    Scaled so lam(integral) = 1 when that pairing is nonzero.  h is a
    HopfAlgebra or a BraidedHopf; message is passed to integral_line.
    """

    def block(i):
        rows = h.delta_basis(i)

        def apply(lam):
            out = list(vec_scale(-lam[i], h.unit))
            for j, k, c in rows:
                if not lam[j].is_zero():
                    out[k] = out[k] + c * lam[j]
            return tuple(out)

        return apply

    lam = integral_line([block(i) for i in range(h.dim)], h.field, h.dim, message)
    pairing = vec_dot(lam, integral)
    if not pairing.is_zero():
        lam = vec_scale(pairing.inverse(), lam)
    return lam


def solve_antipode(h: HopfAlgebra) -> Matrix:
    """The unique S with m(S (x) id)Delta = u.eps, also checked on the right.

    Solved by a block-triangular sweep over the comultiplication slices (each
    step is one dim x dim solve); falls back to the stacked system for inputs
    without triangular structure.  Raises NoAntipode when no solution exists
    or the right-sided law fails.
    """
    field = h.field
    dim = h.dim
    # equation per basis i:  sum_{(j,k,c) in Delta(b_i)}  c * R_{b_k} S(b_j) = eps_i 1
    equations = []
    for i in range(dim):
        terms: dict = {}
        for j, k, c in h.delta_basis(i):
            terms.setdefault(j, []).append((k, c))
        equations.append(terms)
    right_mults = [
        h.algebra.right_mult_matrix(unit_vector(field, dim, k)) for k in range(dim)
    ]
    solved: dict = {}
    pending = list(range(dim))
    progress = True
    while pending and progress:
        progress = False
        still = []
        for i in pending:
            terms = equations[i]
            unknown = [j for j in terms if j not in solved]
            if len(unknown) > 1:
                still.append(i)
                continue
            rhs = list(vec_scale(h.counit[i], h.unit))
            for j, klist in terms.items():
                if j in solved:
                    for k, c in klist:
                        img = right_mults[k].apply(solved[j])
                        for t, x in enumerate(img):
                            if not x.is_zero():
                                rhs[t] = rhs[t] - c * x
            if not unknown:
                if not vec_is_zero(tuple(rhs)):
                    raise NoAntipode("inconsistent antipode equation")
                progress = True
                continue
            j0 = unknown[0]
            acc = [[field.zero()] * dim for _ in range(dim)]
            for k, c in terms[j0]:
                for r in range(dim):
                    row = right_mults[k].data[r]
                    for col in range(dim):
                        if not row[col].is_zero():
                            acc[r][col] = acc[r][col] + c * row[col]
            mat = Matrix(field, acc)
            sol = mat.solve(tuple(rhs))
            if sol is None:
                raise NoAntipode("antipode equation unsolvable at basis %d" % i)
            particular, kernel = sol
            if kernel:
                still.append(i)
                continue
            solved[j0] = particular
            progress = True
        pending = still
    if pending or len(solved) < dim:
        s = _solve_antipode_dense(h)
    else:
        s = Matrix.from_columns(field, [solved[j] for j in range(dim)])
    for i, side in antipode_law_failures(h, s):
        raise NoAntipode("%s antipode law fails on basis %d" % (side, i))
    return s


def _solve_antipode_dense(h: HopfAlgebra) -> Matrix:
    # stacked left+right law system in dim^2 unknowns; for small inputs only
    field = h.field
    dim = h.dim
    if dim > 12:
        raise ArithmeticError(
            "antipode system is not block-triangular and too large to stack"
        )
    n = dim * dim
    rows = []
    rhs = []
    prod = h.algebra.basis_product
    for i in range(dim):
        for law in ("left", "right"):
            coeff = [[field.zero()] * n for _ in range(dim)]
            for j, k, c in h.delta_basis(i):
                if law == "left":
                    for l in range(dim):
                        for t, m in prod(l, k):
                            coeff[t][j * dim + l] = coeff[t][j * dim + l] + c * m
                else:
                    for l in range(dim):
                        for t, m in prod(j, l):
                            coeff[t][k * dim + l] = coeff[t][k * dim + l] + c * m
            for t in range(dim):
                rows.append(coeff[t])
                rhs.append(h.counit[i] * h.unit[t])
    aug = Matrix(field, rows)
    sol = aug.solve(tuple(rhs))
    if sol is None:
        raise NoAntipode("no solution to the antipode equations")
    particular, kernel = sol
    if kernel:
        raise NoAntipode("antipode equations are degenerate")
    cols = [
        tuple(particular[j * dim + l] for l in range(dim)) for j in range(dim)
    ]
    return Matrix.from_columns(field, cols)


def dual(h: HopfAlgebra, antipode_required: bool = True) -> HopfAlgebra:
    """Transpose all structure: mult* = comult^T, comult* = mult^T, etc."""
    cached = h._cache.get("dual")
    if cached is not None and (cached.antipode is not None or not antipode_required):
        return cached
    field = h.field
    mult_dual = h.comult.permuted((1, 2, 0))
    comult_dual = h.algebra.mult.permuted((2, 0, 1))
    alg = AssocAlgebra(field, h.dim, mult_dual, h.counit)
    anti = h.antipode.transpose() if h.antipode is not None else None
    if anti is None and antipode_required:
        raise NoAntipode("dualizing requires a solved antipode")
    result = HopfAlgebra(alg, comult_dual, h.unit, anti)
    h._cache["dual"] = result
    return result


def dual_algebra(h: HopfAlgebra) -> AssocAlgebra:
    """Just the algebra structure of H*: convolution on functionals."""
    return AssocAlgebra(h.field, h.dim, h.comult.permuted((1, 2, 0)), h.counit)


def tensor_hopf(h1: HopfAlgebra, h2: HopfAlgebra) -> HopfAlgebra:
    """Componentwise Hopf structure on the tensor product basis (lex order)."""
    if h1.field.order != h2.field.order:
        raise FieldMismatch("tensor factors over different fields")
    field = h1.field
    d1, d2 = h1.dim, h2.dim
    dim = d1 * d2

    def fuse(i1, i2):
        return i1 * d2 + i2

    mult_entries = {}
    for (i1, j1, k1), c1 in h1.algebra.mult.entries.items():
        for (i2, j2, k2), c2 in h2.algebra.mult.entries.items():
            mult_entries[(fuse(i1, i2), fuse(j1, j2), fuse(k1, k2))] = c1 * c2
    comult_entries = {}
    for (i1, j1, k1), c1 in h1.comult.entries.items():
        for (i2, j2, k2), c2 in h2.comult.entries.items():
            comult_entries[(fuse(i1, i2), fuse(j1, j2), fuse(k1, k2))] = c1 * c2
    unit = [field.zero()] * dim
    for i1, u1 in enumerate(h1.unit):
        if u1.is_zero():
            continue
        for i2, u2 in enumerate(h2.unit):
            if not u2.is_zero():
                unit[fuse(i1, i2)] = u1 * u2
    counit = [field.zero()] * dim
    for i1, e1 in enumerate(h1.counit):
        for i2, e2 in enumerate(h2.counit):
            if not (e1.is_zero() or e2.is_zero()):
                counit[fuse(i1, i2)] = e1 * e2
    anti = None
    if h1.antipode is not None and h2.antipode is not None:
        rows = [[field.zero()] * dim for _ in range(dim)]
        for r1 in range(d1):
            for c1 in range(d1):
                a = h1.antipode.data[r1][c1]
                if a.is_zero():
                    continue
                for r2 in range(d2):
                    for c2 in range(d2):
                        b = h2.antipode.data[r2][c2]
                        if not b.is_zero():
                            rows[fuse(r1, r2)][fuse(c1, c2)] = a * b
        anti = Matrix(field, rows)
    alg = AssocAlgebra(field, dim, Tensor3(field, (dim, dim, dim), mult_entries), unit)
    return HopfAlgebra(
        alg, Tensor3(field, (dim, dim, dim), comult_entries), counit, anti
    )


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

    def left_block(i):
        e = unit_vector(field, dim, i)
        eps = h.counit[i]

        def apply(v):
            return vec_sub(h.algebra.multiply(e, v), vec_scale(eps, v))

        return apply

    big_lambda = integral_line(
        [left_block(i) for i in range(dim)],
        field,
        dim,
        "left integral space has dimension %d",
    )
    lam = right_dual_integral(
        h, big_lambda, "right dual integral space has dimension %d"
    )

    # distinguished a in G(H):  lam -> h = lam(h) a
    def hit(i):
        out = list(zero_vector(field, dim))
        for j, k, c in h.delta_basis(i):
            if not lam[k].is_zero():
                out[j] = out[j] + c * lam[k]
        return tuple(out)

    pivot = next((i for i in range(dim) if not lam[i].is_zero()), None)
    if pivot is None:
        raise DegenerateIntegral("right dual integral is zero")
    a_vec = vec_scale(lam[pivot].inverse(), hit(pivot))
    for i in range(dim):
        if hit(i) != vec_scale(lam[i], a_vec):
            raise DegenerateIntegral("distinguished group-like a is ill-defined")

    # distinguished alpha in G(H*):  L h = alpha(h) L
    lpivot = next(i for i in range(dim) if not big_lambda[i].is_zero())
    alpha = []
    for i in range(dim):
        w = h.algebra.multiply(big_lambda, unit_vector(field, dim, i))
        scale = w[lpivot] / big_lambda[lpivot]
        if w != vec_scale(scale, big_lambda):
            raise DegenerateIntegral("distinguished group-like alpha is ill-defined")
        alpha.append(scale)
    return IntegralData(big_lambda, lam, a_vec, tuple(alpha))


def check_radford_s4(h: HopfAlgebra, data: IntegralData) -> bool:
    """S^4 = a (alpha -> h <- alpha^{-1}) a^{-1}, entry-exactly on the basis."""
    if h.antipode is None:
        raise NoAntipode("antipode required")
    field = h.field
    dim = h.dim
    s4 = h.antipode.power(4)
    alpha = data.distinguished_alpha
    alpha_inv = tuple(vec_dot(alpha, h.antipode.column(j)) for j in range(dim))
    a = data.distinguished_a
    a_inv = h.antipode.apply(a)
    for i in range(dim):
        w = list(zero_vector(field, dim))
        for j, k, l, c in h.sweedler_triples(i):
            f = alpha_inv[j] * alpha[l]
            if not f.is_zero():
                w[k] = w[k] + c * f
        conj = h.algebra.multiply(a, h.algebra.multiply(tuple(w), a_inv))
        if conj != s4.column(i):
            return False
    return True


def trace_s2(h: HopfAlgebra) -> FieldElement:
    if h.antipode is None:
        raise NoAntipode("antipode required")
    return (h.antipode * h.antipode).trace()


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


def _is_group_like(h: HopfAlgebra, g) -> bool:
    if not h.counit_of(g).is_one():
        return False
    return sparse_equal(h.delta_vec(g), vec_outer(g, g))


def group_likes(h: HopfAlgebra) -> GroupLikes:
    """G(H) via characters of the dual algebra, pulled back to H."""
    cached = h._cache.get("group_likes")
    if cached is not None:
        return cached
    search = characters(dual_algebra(h))
    elements = []
    for chi in search.characters:
        g = tuple(chi)
        if not _is_group_like(h, g):
            raise NotGroupLike("dual character is not group-like")
        elements.append(g)
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
        a_mat = h.comult.contract("comult-left", f)
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
                if _is_group_like(h, base):
                    found[tuple(base)] = True
            elif len(directions) == 1:
                for cand in _quadratic_line_solutions(h, base, directions[0]):
                    if _is_group_like(h, cand):
                        found[tuple(cand)] = True
            else:
                raise ArithmeticError(
                    "brute-force search inconclusive: affine family too large"
                )
    out = sorted(found, key=lambda g: tuple(tuple(c.coeffs) for c in g))
    return [tuple(g) for g in out]


def _quadratic_line_solutions(h: HopfAlgebra, base, direction):
    """Solve Delta(v) = v (x) v with eps(v) = 1 on the line v = base + t*dir."""
    from hopfcheck.cyclotomic import UniPoly

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


def skew_primitives(h: HopfAlgebra, g, hvec, _checked: bool = False) -> list[tuple]:
    """Basis of {x : Delta(x) = x (x) g + h (x) x} modulo the trivial span{g - h}."""
    g = tuple(h.field.promote(c) for c in g)
    hv = tuple(h.field.promote(c) for c in hvec)
    if not _checked:
        for cand in (g, hv):
            if not _is_group_like(h, cand):
                raise NotGroupLike("skew primitive endpoints must be group-like")
    field = h.field
    dim = h.dim
    # assemble the sparse rows of the linear system indexed by (j, k):
    #   sum_i Delta[i][j][k] x_i - g_k x_j - h_j x_k = 0
    zero = field.zero()
    rows: dict = {}
    for (i, j, k), c in h.comult.entries.items():
        row = rows.get((j, k))
        if row is None:
            row = rows[(j, k)] = {}
        row[i] = row.get(i, zero) + c
    for k, gk in enumerate(g):
        if gk.is_zero():
            continue
        for j in range(dim):
            row = rows.get((j, k))
            if row is None:
                row = rows[(j, k)] = {}
            row[j] = row.get(j, zero) - gk
    for j, hj in enumerate(hv):
        if hj.is_zero():
            continue
        for k in range(dim):
            row = rows.get((j, k))
            if row is None:
                row = rows[(j, k)] = {}
            row[k] = row.get(k, zero) - hj
    from hopfcheck.linalg import sparse_kernel

    space = sparse_kernel(field, dim, list(rows.values()))
    trivial = vec_sub(g, hv)
    if vec_is_zero(trivial):
        return space
    p = next(t for t, c in enumerate(trivial) if not c.is_zero())
    inv = trivial[p].inverse()
    reduced = []
    for v in space:
        if not v[p].is_zero():
            v = vec_sub(v, vec_scale(v[p] * inv, trivial))
        if not vec_is_zero(v):
            reduced.append(v)
    from hopfcheck.linalg import row_space_basis

    return row_space_basis(field, reduced)


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


def antipode_order(h: HopfAlgebra, cap: int = 32) -> int:
    if h.antipode is None:
        raise NoAntipode("antipode required")
    power = h.antipode
    for k in range(1, cap + 1):
        if power.is_identity():
            return k
        power = power * h.antipode
    raise AntipodeOrderOverflow("antipode order exceeds %d" % cap)


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

    Uses the translation P_{g,h} = g * P_{1, g^{-1} h}, so only |G| solves.
    """
    likes = likes or group_likes(h)
    nontrivial = {}
    for k, gk in enumerate(likes.elements):
        nontrivial[k] = len(skew_primitives(h, h.unit, gk, _checked=True))
    profile: dict = {}
    for a in range(len(likes.elements)):
        inv_a = likes.inverse(a)
        for b in range(len(likes.elements)):
            k = likes.table[(inv_a, b)]
            d = nontrivial[k]
            if d:
                key = (likes.orders[a], likes.orders[b])
                profile[key] = profile.get(key, 0) + d
    return profile


def fingerprint(h: HopfAlgebra) -> Fingerprint:
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
        pointed=len(coradical(h)) == len(likes.elements),
        dual_pointed=len(coradical(hdual)) == len(dual_likes.elements),
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
    """Fingerprints of the five dimension-4p reference families at q = 2."""
    cached = _REFERENCE_CACHE.get(p)
    if cached is not None:
        return cached
    from hopfcheck import families

    a0 = families.a_tau_mu(p, 2, -1, 0)
    a1 = families.a_tau_mu(p, 2, -1, 1)
    refs = {
        LABEL_A0: fingerprint(a0),
        LABEL_A0_DUAL: fingerprint(dual(a0)),
        LABEL_A1: fingerprint(a1),
        LABEL_A1_DUAL: fingerprint(dual(a1)),
        LABEL_TAFT_TENSOR: fingerprint(families.taft_tensor_group(2, -1, p)),
    }
    _REFERENCE_CACHE[p] = refs
    return refs


def classify_4p(h: HopfAlgebra) -> str:
    """Fingerprint-matching against the five reference families of dim 4p.

    Returns a label only on a unique match; "unknown" is a legitimate
    output, never a misattribution.
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
