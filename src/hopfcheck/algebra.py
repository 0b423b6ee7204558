"""Finite-dimensional associative algebras given by structure constants.

Axiom verification, Jacobson radical (trace-form kernel, valid in
characteristic zero), center, and the complete list of one-dimensional
characters relative to the working field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from hopfcheck.cyclotomic import CycloField, UniPoly, factor_unipoly, sort_by_coeffs
from hopfcheck.linalg import (
    EchelonBasis,
    Matrix,
    Tensor3,
    dense_vector,
    sparse_kernel,
    sparse_sub_scaled,
    sparse_vector,
    unit_vector,
    vec_combination,
    vec_is_zero,
)


@dataclass(frozen=True)
class Violation:
    law: str
    location: tuple
    detail: str = ""


@dataclass
class Report:
    """Outcome of an axiom suite: which laws ran and every violation found."""

    checks: list = dc_field(default_factory=list)
    violations: list = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, violation: Violation):
        self.violations.append(violation)

    def lines(self) -> list[str]:
        out = []
        bad = {}
        for v in self.violations:
            bad.setdefault(v.law, []).append(v)
        for law in self.checks:
            if law in bad:
                out.append("%s: FAIL (%d violations)" % (law, len(bad[law])))
                for v in bad[law]:
                    loc = ",".join(str(x) for x in v.location)
                    out.append("  at (%s) %s" % (loc, v.detail))
            else:
                out.append("%s: ok" % law)
        return out


_UNSEARCHED = object()


class AssocAlgebra:
    """dim, multiplication tensor (dim x dim x dim) and unit vector."""

    __slots__ = (
        "field", "dim", "mult", "unit", "_radical", "_generators"
    )

    def __init__(self, field: CycloField, dim: int, mult: Tensor3, unit):
        if mult.dims != (dim, dim, dim):
            raise ValueError("multiplication tensor has wrong shape")
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = tuple(field.promote(c) for c in unit)
        self._radical = None
        self._generators = _UNSEARCHED

    def __repr__(self):
        return "AssocAlgebra(dim=%d over %r)" % (self.dim, self.field)

    def basis_product(self, i: int, j: int):
        """Product of basis elements as a sparse tuple of (k, coeff)."""
        return self.mult.by_ij().get((i, j), ())

    def multiply(self, a, b) -> tuple:
        """Product of two coordinate vectors."""
        out = [self.field.zero()] * self.dim
        table = self.mult.by_ij()
        b_nz = [(j, bj) for j, bj in enumerate(b) if not bj.is_zero()]
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in b_nz:
                row = table.get((i, j))
                if row is None:
                    continue
                c = ai * bj
                for k, m in row:
                    out[k] = out[k] + c * m
        return tuple(out)

    def basis_times(self, i: int, v: dict, right: bool = False) -> dict:
        """b_i * v, or v * b_i when right, for v and the result given as
        {index: coeff} without zeros: one table row per entry of v."""
        out: dict = {}
        zero = self.field.zero()
        table = self.mult.by_ij()
        for j, c in v.items():
            for k, m in table.get((j, i) if right else (i, j), ()):
                out[k] = out.get(k, zero) + c * m
        return {k: x for k, x in out.items() if not x.is_zero()}

    def tensor_square_product(self, a: dict, bs: list) -> list:
        """The products a b in A (x) A, one for each b in bs, of sparse
        {(j, k): coeff} elements.

        Grouped by the second leg, a = sum_k1 A_k1 (x) b_k1 and
        b = sum_k2 B_k2 (x) b_k2, so ab = sum (A_k1 B_k2) (x) (b_k1 b_k2).
        Each A_k1 b_j2 is formed once for all of bs, A_k1 B_k2 is combined
        from them, and b_k1 b_k2 is one table row: a dense pair costs dim^4,
        not dim^6.
        """
        zero = self.field.zero()
        table = self.mult.by_ij()

        def legs(x) -> dict:  # {k: the first legs {j: coeff} at b_k}
            out: dict = {}
            for (j, k), c in x.items():
                out.setdefault(k, {})[j] = c
            return out

        a_legs = legs(a)
        firsts = {j2 for b in bs for j2, _ in b}
        left_b = {
            k1: {j2: self.basis_times(j2, left, right=True) for j2 in firsts}
            for k1, left in a_legs.items()
        }
        outs = []
        for b_legs in map(legs, bs):
            out: dict = {}
            for k1, products in left_b.items():
                for k2, right in b_legs.items():
                    row = table.get((k1, k2))
                    if row is None:
                        continue
                    first: dict = {}
                    for j2, c2 in right.items():
                        for j, x in products[j2].items():
                            first[j] = first.get(j, zero) + c2 * x
                    for j, x in first.items():
                        if x.is_zero():
                            continue
                        for k, m in row:
                            key = (j, k)
                            out[key] = out.get(key, zero) + x * m
            outs.append({k: v for k, v in out.items() if not v.is_zero()})
        return outs

    def left_mult_matrix(self, a) -> Matrix:
        return self.mult.contract(0, a).transpose()


def verify_algebra(alg: AssocAlgebra) -> Report:
    """Two-sided unit law, then associativity on every basis triple.

    algebra_failures runs first on the rows of algebra_generators(alg),
    which decides the laws exactly (see there); only when it yields a
    violation does it run on every row, so the violations are those of the
    full loop.
    """
    report = Report(checks=["unit", "associativity"])
    gens = algebra_generators(alg)
    if gens is None or next(algebra_failures(alg, gens), None) is not None:
        report.violations.extend(algebra_failures(alg, range(alg.dim)))
    return report


def algebra_failures(alg: AssocAlgebra, rows):
    """Each Violation of the unit laws on every basis element, then of
    associativity on the triples (i, j, k) with i in rows, in that order.

    On the rows of algebra_generators(alg) it yields nothing exactly when
    both laws hold on every triple (see there).  A generator, so the first
    failure costs only the checks before it.
    """
    unit = sparse_vector(alg.unit)
    for i in range(alg.dim):
        e = {i: alg.field.one()}
        if alg.basis_times(i, unit, right=True) != e:
            yield Violation("unit", (i,), "1*b != b")
        if alg.basis_times(i, unit) != e:
            yield Violation("unit", (i,), "b*1 != b")
    every = range(alg.dim)
    for i in rows:
        for j in every:
            for k in every:
                if not _associates(alg, i, j, k):
                    yield Violation("associativity", (i, j, k), "(ab)c != a(bc)")


def _associates(alg: AssocAlgebra, i: int, j: int, k: int) -> bool:
    """(b_i b_j) b_k == b_i (b_j b_k): their difference vanishes."""
    table = alg.mult.by_ij()
    zero = alg.field.zero()
    diff: dict = {}
    for t, c in table.get((i, j), ()):
        for s, m in table.get((t, k), ()):
            diff[s] = diff.get(s, zero) + c * m
    for t, c in table.get((j, k), ()):
        for s, m in table.get((i, t), ()):
            diff[s] = diff.get(s, zero) - c * m
    return vec_is_zero(diff.values())


def algebra_generators(alg: AssocAlgebra, limit: int | None = None):
    """Basis indices whose left words from 1 span alg, or None.

    Indices are taken greedily in index order: b_i joins when it is not yet
    in the span W of the words, and W is then closed under left
    multiplication by every generator.  None when the words do not span alg
    (which needs a failing unit law) or when more than `limit` generators
    would be needed.  A complete search is cached on alg.

    Why the generators decide a law (nothing is sampled).  Let X be a
    subspace of alg with 1 in X and xy in X for x, y in X.  Every word is
    1 or g w with g a generator and w an earlier word, so if the generators
    lie in X, so does every word, and X = alg once the words span.  Six
    such X, each with the preconditions it needs:

    - {x : (xb)c = x(bc) for all b, c}, given the two-sided unit laws:
      ((xy)b)c = (x(yb))c = x((yb)c) = x(y(bc)) = (xy)(bc).
    - {x : Delta(xy) = Delta(x)Delta(y) for all y}, given associativity,
      the unit laws and Delta(1) = 1 (x) 1:
      Delta((xy)z) = Delta(x(yz)) = Delta(x)Delta(y)Delta(z).
    - {x : eps(xy) = eps(x)eps(y) for all y}, given associativity, the unit
      laws and eps(1) = 1, by the same computation.
    - {x : F(x) = G(x)} for two linear maps F, G from alg to an algebra
      with F(1) = G(1) and F(xy) = F(x)F(y), G(xy) = G(x)G(y):
      F(xy) = F(x)F(y) = G(x)G(y) = G(xy).  With F = (Delta (x) id)Delta
      and G = (id (x) Delta)Delta, given Delta multiplicative and
      Delta(1) = 1 (x) 1, this is coassociativity.
    - {x : x I in I and I x in I} for a subspace I, given associativity
      and the unit laws: L_xy = L_x L_y and R_xy = R_y R_x.  So an ideal is
      the closure of its seeds under multiplication by generators.
    - {x : xy = yx for all y in Y}, given associativity and the unit laws.
      When the generators commute with each other, this set holds them for
      Y the generators, so every x commutes with the generators; then it
      holds them for Y = alg, and alg is commutative.  So the commutator
      ideal is the ideal of the commutators of generator pairs.

    So a law that holds on the rows of the generators holds on all of alg.
    ideal_closure and characters, which use the last two sets, do not check
    associativity: they assume an associative algebra, as the radical
    already does, and every character returned still passes _is_character.
    """
    if alg._generators is _UNSEARCHED:
        ech = EchelonBasis(alg.field, alg.dim)
        gens: list = []
        words: list = []

        def close(queue):
            # keep span(words) closed under left multiplication by gens
            while queue:
                v = queue.pop()
                if ech.insert(v):
                    words.append(v)
                    queue.extend(alg.basis_times(g, v) for g in gens)

        close([sparse_vector(alg.unit)])
        for i in range(alg.dim):
            if len(ech.rows) == alg.dim:
                break
            if not ech.reduce({i: alg.field.one()}):
                continue
            if limit is not None and len(gens) == limit:
                return None
            gens.append(i)
            close([alg.basis_times(i, w) for w in words])
        alg._generators = tuple(gens) if len(ech.rows) == alg.dim else None
    gens = alg._generators
    if gens is None or (limit is not None and len(gens) > limit):
        return None
    return list(gens)


def radical(alg: AssocAlgebra) -> list[tuple]:
    """Basis of the Jacobson radical via the trace bilinear form.

    In characteristic zero rad(A) = {x : Tr(L_{xy}) = 0 for all y}
    (Dickson's criterion), one exact kernel computation, cached on `alg`.
    The form is mult.contract(2, traces): Tr(L_{b_i b_j}) = sum_t m[i][j][t]
    Tr(L_{b_t}), with Tr(L_{b_t}) = sum_j m[t][j][j].
    """
    if alg._radical is not None:
        return list(alg._radical)
    traces = [alg.field.zero()] * alg.dim
    for (t, j, k), c in alg.mult.entries.items():
        if j == k:
            traces[t] = traces[t] + c
    alg._radical = tuple(alg.mult.contract(2, traces).kernel())
    return list(alg._radical)


def is_semisimple_trace(alg: AssocAlgebra) -> bool:
    return not radical(alg)


def center(alg: AssocAlgebra) -> list[tuple]:
    """Basis of {z : zb = bz for all basis b} by one stacked kernel.

    Row (i, k) is the b_k coefficient of b_i z - z b_i: m[i][j][k] -
    m[j][i][k] at z_j, read off the table entries.
    """
    zero = alg.field.zero()
    rows: dict = {}
    for (i, j, k), c in alg.mult.entries.items():
        row = rows.setdefault((i, k), {})
        row[j] = row.get(j, zero) + c
        row = rows.setdefault((j, k), {})
        row[i] = row.get(i, zero) - c
    return sparse_kernel(alg.field, alg.dim, list(rows.values()))


def ideal_closure(alg: AssocAlgebra, ideal, seeds) -> list[tuple]:
    """Basis of ideal + the two-sided ideal generated by the seed vectors,
    for vectors `ideal` that span a two-sided ideal already.

    The ideal enters the span as it is; each new vector is closed under
    multiplication by algebra_generators(alg) only (see there), or by every
    basis element when there are none.
    """
    ech = EchelonBasis.spanned_by(alg.field, alg.dim, map(sparse_vector, ideal))
    gens = algebra_generators(alg)
    mults = range(alg.dim) if gens is None else gens
    queue = [sparse_vector(v) for v in seeds]
    while queue:
        v = queue.pop()
        if not ech.insert(v):
            continue
        for i in mults:
            queue.append(alg.basis_times(i, v))
            queue.append(alg.basis_times(i, v, right=True))
    return ech.basis()


def quotient_algebra(alg: AssocAlgebra, ideal_basis):
    """Quotient A/I: (algebra, projection matrix, section column indices).

    Coordinates of the quotient are the non-pivot basis positions of the
    echelonized ideal.
    """
    field = alg.field
    dim = alg.dim
    if not ideal_basis:
        proj = Matrix.identity(field, dim)
        return alg, proj, list(range(dim))
    rows = map(sparse_vector, Matrix(field, ideal_basis).data)
    ech = EchelonBasis.spanned_by(field, dim, rows)
    complement = [c for c in range(dim) if c not in ech.rows]
    qdim = len(complement)
    zero, one = field.zero(), field.one()

    # the projection is linear: b_c for c in the complement, and minus the
    # rest of its echelon row for a pivot column; products and the unit are
    # mapped through these rows
    proj_rows = {c: {a: one} for a, c in enumerate(complement)}
    for pc, row in ech.rows.items():
        proj_rows[pc] = {a: -row[c] for a, c in enumerate(complement) if c in row}
    proj = Matrix._wrap(
        field, [[proj_rows[i].get(a, zero) for i in range(dim)] for a in range(qdim)]
    ) if qdim else None

    def project(terms) -> dict:
        out: dict = {}
        for k, m in terms:
            for a, x in proj_rows[k].items():
                out[a] = out.get(a, zero) + m * x
        return out

    table = alg.mult.by_ij()
    entries = {}
    for a_idx, qa in enumerate(complement):
        for b_idx, qb in enumerate(complement):
            for k_idx, c in project(table.get((qa, qb), ())).items():
                entries[(a_idx, b_idx, k_idx)] = c
    unit_q = dense_vector(field, qdim, project(sparse_vector(alg.unit).items()))
    quotient = AssocAlgebra(
        field, qdim, Tensor3(field, (qdim, qdim, qdim), entries), unit_q
    )
    return quotient, proj, complement


def minimal_polynomial(m: Matrix) -> UniPoly:
    """Minimal polynomial by Krylov chains from each basis vector.

    One EchelonBasis per chain v, Mv, M^2 v, ... holds M^k v with a marker
    1 in column n + k.  The first power that reduces to zero on the first n
    columns is M^k v - sum_t a_t M^t v = 0, and its marker columns hold the
    coefficients -a_0, ..., -a_(k-1), 1 of the chain's polynomial.
    """
    field = m.field
    n = m.rows
    zero, one = field.zero(), field.one()
    result = UniPoly(field, [one])
    for start in range(n):
        ech = EchelonBasis(field, 2 * n + 1)
        cur = unit_vector(field, n, start)
        for k in range(n + 1):
            v = ech.reduce({**sparse_vector(cur), n + k: one})
            if min(v) >= n:
                local = UniPoly(field, [v.get(n + t, zero) for t in range(k + 1)])
                result = _poly_lcm(result, local)
                break
            ech.insert(v)
            cur = m.apply(cur)
        if result.degree == n:
            break
    return result.monic()


def _poly_lcm(a: UniPoly, b: UniPoly) -> UniPoly:
    if a.degree <= 0:
        return b
    if b.degree <= 0:
        return a
    g = a.gcd(b)
    return ((a * b) // g).monic()


@dataclass
class CharacterSearch:
    """Characters found over the working field plus splitting obstructions.

    `unresolved_factors` lists irreducible minimal-polynomial factors of
    degree > 1 met during eigenspace splitting; enlarging the field so these
    split and retrying yields more characters over the bigger field.  Over
    the current field the list returned is already complete.
    """

    characters: list
    unresolved_factors: list


def characters(alg: AssocAlgebra) -> CharacterSearch:
    """All algebra maps chi: A -> k with chi(1) = 1, chi(ab) = chi(a)chi(b).

    Route: one quotient Q = A/J, J = rad A + the ideal of the commutators of
    algebra_generators(A); split Q into common eigenspaces of its own
    generators only, by factoring minimal polynomials of their
    multiplication maps (a block of eigenvectors, such as k^G's basis of
    idempotents, splits unfactored); then read each character off its
    block of dimension 1.  Every character returned passes _is_character.

    Why A/J is the quotient by the radical and then by the commutator
    ideal.  A character kills rad A and every commutator, so it factors
    through A/J.  The images of A's generators generate A/rad A, so its
    commutator ideal is the ideal of their commutators (see
    algebra_generators), whose preimage in A is J.  rad A is an ideal
    already, so only the commutators are closed.

    Why one column read is exact.  Q is commutative and semisimple, a
    product of fields.  A block is an eigenspace of a generator inside an
    earlier block, so, Q being commutative, every block is invariant under
    all of Q, and a block of dimension 1 is spanned by a common eigenvector
    v of Q; such a block is not split further.  Once the generators have
    split a block, every generator, hence every word, acts on it by a
    scalar, so the block lies in the eigenspace of one character of Q,
    which is one factor k of the product: the block has dimension 1.  So
    b_k v = chi(b_k) v for every basis element b_k of Q, and coordinate p of
    this, p the first nonzero coordinate of v, gives chi(b_k) = (b_k v)_p /
    v_p: one pass over the entries of Q's table that land on p.  Nothing
    outside the generators is multiplied into a block.
    """
    field = alg.field
    dim = alg.dim
    one = field.one()
    gens = algebra_generators(alg)
    if gens is None:
        gens = range(dim)
    comms = []
    for a, i in enumerate(gens):
        for j in gens[a + 1:]:
            c = alg.basis_times(i, {j: one})
            sparse_sub_scaled(c, one, alg.basis_times(j, {i: one}))
            if c:
                comms.append(dense_vector(field, dim, c))
    ideal = ideal_closure(alg, radical(alg), comms)
    if len(ideal) == dim:
        return CharacterSearch([], [])
    quotient, proj, _ = quotient_algebra(alg, ideal)

    qdim = quotient.dim
    blocks = [[unit_vector(field, qdim, i) for i in range(qdim)]]
    unresolved = []
    qgens = algebra_generators(quotient)
    for gen in range(qdim) if qgens is None else qgens:
        new_blocks = []
        for block in blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            # a block of eigenvectors of gen splits by their eigenvalues, each
            # read off at the first nonzero coordinate and checked exactly
            by_eigenvalue: dict = {}
            for v in block:
                sv = sparse_vector(v)
                w = quotient.basis_times(gen, sv)
                p = min(sv)
                eigenvalue = w.get(p, field.zero()) / sv[p]
                if not eigenvalue.is_zero():
                    sparse_sub_scaled(w, eigenvalue, sv)
                if w:
                    break
                by_eigenvalue.setdefault(eigenvalue, []).append(v)
            else:
                new_blocks.extend(by_eigenvalue.values())
                continue
            lmat = quotient.left_mult_matrix(unit_vector(field, qdim, gen))
            restricted = _restrict(lmat, block, field)
            for fac, _ in factor_unipoly(minimal_polynomial(restricted)):
                if fac.degree > 1:
                    # a primary component over a proper extension carries no
                    # characters of the base field; record and drop it
                    unresolved.append(fac)
                    continue
                # fac = x - eigenvalue is monic, so fac(M) = M - eigenvalue I
                sub = _plus_scalar(restricted, fac.coeffs[0])
                piece = [
                    vec_combination(combo, block, field, qdim)
                    for combo in sub.kernel()
                ]
                if piece:
                    new_blocks.append(piece)
        blocks = new_blocks

    by_k = quotient.mult.by_k()
    chars = []
    for block in blocks:
        if len(block) != 1:
            continue
        v = block[0]
        p = next(t for t, c in enumerate(v) if not c.is_zero())
        values = [field.zero()] * qdim  # chi on Q's basis: (b_k v)_p / v_p
        for k, j, m in by_k.get(p, ()):
            if not v[j].is_zero():
                values[k] = values[k] + m * v[j]
        scale = v[p].inverse()
        values = [x * scale for x in values]
        chars.append(vec_combination(values, proj.data, field, dim))
    verified = _characters_among(alg, chars)
    sort_by_coeffs(verified)
    return CharacterSearch(verified, unresolved)


def _restrict(m: Matrix, block, field) -> Matrix:
    # express all images in block coordinates with one augmented reduction
    k = len(block)
    aug = Matrix.from_columns(field, list(block) + [m.apply(v) for v in block])
    red, rank, pivots = aug.rref()
    if pivots[:k] != list(range(k)) or any(p >= k for p in pivots):
        raise ArithmeticError("block is not invariant")
    return Matrix(field, [[red.data[r][k + i] for i in range(k)] for r in range(k)])


def _plus_scalar(m: Matrix, c) -> Matrix:
    """M + c I."""
    if c.is_zero():
        return m
    data = [list(row) for row in m.data]
    for i, row in enumerate(data):
        row[i] = row[i] + c
    return Matrix._wrap(m.field, data)


def _is_character(alg: AssocAlgebra, chi) -> bool:
    """chi(1) = 1 and chi(b_i b_j) = chi(b_i) chi(b_j) on every basis pair.

    chi(b_i b_j) sums the row (i, j) of the table over the terms k where
    chi_k != 0, so it is read off by_k() for k in the support of chi; a row
    with no such term sums to 0.  Such a row must have chi_i or chi_j zero,
    so it can fail only at a pair inside the support, and those pairs are
    checked apart.  So the rows with a term in the support and the pairs of
    nonzero entries of chi cover every pair.  On dual_algebra(h) this is
    the group-like test Delta(g) = g (x) g, eps(g) = 1 of h.
    """
    return bool(_characters_among(alg, [chi]))


def _characters_among(alg: AssocAlgebra, candidates) -> list:
    """The candidates that pass _is_character, in order.

    Each product chi_i chi_j is formed once per pair of values for all the
    candidates: the characters of one algebra mostly take their values in
    one group of roots of unity, so at |G| characters with |G| nonzero
    entries each, |G|^2 products serve |G|^3 pairs.
    """
    field = alg.field
    zero = field.zero()
    by_k = alg.mult.by_k()
    values: dict = {}  # one object per value, so a pair's lookup is by identity
    products: dict = {}  # (chi_i, chi_j) -> chi_i chi_j

    def holds(chi) -> bool:
        one = zero
        for c, u in zip(chi, alg.unit):
            one = one + c * u
        if not one.is_one():
            return False
        support = {
            k: values.setdefault(c, c) for k, c in enumerate(chi) if not c.is_zero()
        }
        sums: dict = {}  # (i, j) -> chi(b_i b_j), on rows with a term in the support
        for k, c in support.items():
            for i, j, m in by_k.get(k, ()):
                key = (i, j)
                sums[key] = sums.get(key, zero) + m * c
        for (i, j), acc in sums.items():
            ci = support.get(i)
            cj = support.get(j)
            if ci is None or cj is None:
                if not acc.is_zero():
                    return False
                continue
            prod = products.get((ci, cj))
            if prod is None:
                prod = products[(ci, cj)] = ci * cj
            if acc != prod:
                return False
        return all((i, j) in sums for i in support for j in support)

    return [chi for chi in candidates if holds(chi)]
