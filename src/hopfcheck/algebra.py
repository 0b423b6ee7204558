"""Finite-dimensional associative algebras given by structure constants.

Axiom verification, Jacobson radical (trace-form kernel, valid in
characteristic zero), center, and the complete list of one-dimensional
characters relative to the working field.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from hopfcheck.cyclotomic import CycloField, FieldElement, UniPoly, factor_unipoly
from hopfcheck.linalg import Matrix, Tensor3, sparse_equal, unit_vector, vec_is_zero


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


class AssocAlgebra:
    """dim, multiplication tensor (dim x dim x dim) and unit vector."""

    __slots__ = ("field", "dim", "mult", "unit", "_left_traces")

    def __init__(self, field: CycloField, dim: int, mult: Tensor3, unit):
        if mult.dims != (dim, dim, dim):
            raise ValueError("multiplication tensor has wrong shape")
        self.field = field
        self.dim = dim
        self.mult = mult
        self.unit = tuple(field.promote(c) for c in unit)
        self._left_traces = None

    def __repr__(self):
        return "AssocAlgebra(dim=%d over %r)" % (self.dim, self.field)

    def basis_product(self, i: int, j: int):
        """Product of basis elements as a sparse tuple of (k, coeff)."""
        return self.mult.by_ij().get((i, j), ())

    def multiply(self, a, b) -> tuple:
        """Product of two coordinate vectors."""
        out = [self.field.zero()] * self.dim
        table = self.mult.by_ij()
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j, bj in enumerate(b):
                if bj.is_zero():
                    continue
                c = ai * bj
                for k, m in table.get((i, j), ()):
                    out[k] = out[k] + c * m
        return tuple(out)

    def tensor_square_product(self, a: dict, b: dict) -> dict:
        """Product in A (x) A of two sparse {(j, k): coeff} elements."""
        out: dict = {}
        zero = self.field.zero()
        table = self.mult.by_ij()
        for (j1, k1), c1 in a.items():
            for (j2, k2), c2 in b.items():
                c = c1 * c2
                for j, cj in table.get((j1, j2), ()):
                    cc = c * cj
                    for k, ck in table.get((k1, k2), ()):
                        key = (j, k)
                        out[key] = out.get(key, zero) + cc * ck
        return {k: v for k, v in out.items() if not v.is_zero()}

    def left_mult_matrix(self, a) -> Matrix:
        return self.mult.contract("left-mult", a)

    def right_mult_matrix(self, a) -> Matrix:
        return self.mult.contract("right-mult", a)

    def basis_left_trace(self, t: int) -> FieldElement:
        """Trace of left multiplication by basis element t."""
        if self._left_traces is None:
            traces = [self.field.zero()] * self.dim
            for (i, j, k), c in self.mult.entries.items():
                if j == k:
                    traces[i] = traces[i] + c
            self._left_traces = traces
        return self._left_traces[t]


def verify_algebra(alg: AssocAlgebra) -> Report:
    """Associativity on all basis triples plus the two-sided unit law."""
    report = Report(checks=["unit", "associativity"])
    dim = alg.dim
    table = alg.mult.by_ij()
    unit = alg.unit
    for i in range(dim):
        e = unit_vector(alg.field, dim, i)
        if alg.multiply(unit, e) != e:
            report.add(Violation("unit", (i,), "1*b != b"))
        if alg.multiply(e, unit) != e:
            report.add(Violation("unit", (i,), "b*1 != b"))
    zero = alg.field.zero()
    for i in range(dim):
        for j in range(dim):
            ij = table.get((i, j), ())
            for k in range(dim):
                left: dict = {}
                for t, c in ij:
                    for s, m in table.get((t, k), ()):
                        left[s] = left.get(s, zero) + c * m
                right: dict = {}
                for t, c in table.get((j, k), ()):
                    for s, m in table.get((i, t), ()):
                        right[s] = right.get(s, zero) + c * m
                if not sparse_equal(left, right):
                    report.add(
                        Violation("associativity", (i, j, k), "(ab)c != a(bc)")
                    )
    return report


def radical(alg: AssocAlgebra) -> list[tuple]:
    """Basis of the Jacobson radical via the trace bilinear form.

    In characteristic zero rad(A) = {x : Tr(L_{xy}) = 0 for all y}
    (Dickson's criterion), one exact kernel computation.
    """
    dim = alg.dim
    zero = alg.field.zero()
    gram = [[zero] * dim for _ in range(dim)]
    table = alg.mult.by_ij()
    for i in range(dim):
        for j in range(dim):
            acc = zero
            for t, c in table.get((i, j), ()):
                tr = alg.basis_left_trace(t)
                if not tr.is_zero():
                    acc = acc + c * tr
            gram[i][j] = acc
    return Matrix(alg.field, gram).kernel()


def is_semisimple_trace(alg: AssocAlgebra) -> bool:
    return not radical(alg)


def center(alg: AssocAlgebra) -> list[tuple]:
    """Basis of {z : zb = bz for all basis b} by one stacked kernel."""
    dim = alg.dim
    blocks = []
    for i in range(dim):
        e = unit_vector(alg.field, dim, i)
        diff = alg.left_mult_matrix(e) - alg.right_mult_matrix(e)
        blocks.append(diff)
    rows = []
    for b in blocks:
        rows.extend(b.data)
    return Matrix(alg.field, rows).kernel()


class EchelonBasis:
    """Incrementally maintained reduced row space; cheap membership tests."""

    def __init__(self, field: CycloField, dim: int):
        self.field = field
        self.dim = dim
        self.rows = []  # (pivot column, vector with pivot scaled to 1)

    def reduce(self, vec) -> tuple:
        v = list(vec)
        for pivot, row in self.rows:
            c = v[pivot]
            if not c.is_zero():
                for t in range(self.dim):
                    if not row[t].is_zero():
                        v[t] = v[t] - c * row[t]
        return tuple(v)

    def insert(self, vec) -> bool:
        """Reduce and add; True when the vector enlarged the span."""
        v = self.reduce(vec)
        pivot = None
        for t, c in enumerate(v):
            if not c.is_zero():
                pivot = t
                break
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        v = tuple(inv * c for c in v)
        for entry in self.rows:
            row = entry[1]
            c = row[pivot]
            if not c.is_zero():
                entry[1] = tuple(x - c * y for x, y in zip(row, v))
        self.rows.append([pivot, v])
        self.rows.sort(key=lambda e: e[0])
        return True

    def basis(self) -> list[tuple]:
        return [row for _, row in self.rows]


def ideal_closure(alg: AssocAlgebra, generators) -> list[tuple]:
    """Basis of the two-sided ideal generated by the given vectors."""
    ech = EchelonBasis(alg.field, alg.dim)
    queue = [tuple(v) for v in generators]
    while queue:
        v = queue.pop()
        if not ech.insert(v):
            continue
        for i in range(alg.dim):
            e = unit_vector(alg.field, alg.dim, i)
            queue.append(alg.multiply(e, v))
            queue.append(alg.multiply(v, e))
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
    echelon = Matrix(field, [list(v) for v in ideal_basis])
    red, rank, pivots = echelon.rref()
    complement = [c for c in range(dim) if c not in pivots]
    qdim = len(complement)
    zero = field.zero()

    # projection: subtract the ideal part using the echelon rows
    def project(vec):
        v = list(vec)
        for r, pc in enumerate(pivots):
            c = v[pc]
            if not c.is_zero():
                row = red.data[r]
                for t in range(dim):
                    if not row[t].is_zero():
                        v[t] = v[t] - c * row[t]
        return tuple(v[c] for c in complement)

    proj_rows = [project(unit_vector(field, dim, i)) for i in range(dim)]
    proj = Matrix(field, [list(r) for r in zip(*proj_rows)]) if qdim else None

    entries = {}
    for a_idx, qa in enumerate(complement):
        for b_idx, qb in enumerate(complement):
            prod = alg.multiply(
                unit_vector(field, dim, qa), unit_vector(field, dim, qb)
            )
            for k_idx, c in enumerate(project(prod)):
                if not c.is_zero():
                    entries[(a_idx, b_idx, k_idx)] = c
    unit_q = project(alg.unit)
    quotient = AssocAlgebra(
        field, qdim, Tensor3(field, (qdim, qdim, qdim), entries), unit_q
    )
    return quotient, proj, complement


def minimal_polynomial(m: Matrix) -> UniPoly:
    """Minimal polynomial by Krylov chains from each basis vector."""
    field = m.field
    n = m.rows
    result = UniPoly(field, [field.one()])
    for start in range(n):
        v = unit_vector(field, n, start)
        krylov = [v]
        cur = v
        while True:
            cur = m.apply(cur)
            columns = Matrix.from_columns(field, krylov + [cur])
            red, rank, pivots = columns.rref()
            if rank < len(krylov) + 1:
                sol = columns.kernel()[0]
                scale = sol[-1].inverse()
                coeffs = [c * scale for c in sol]
                local = UniPoly(field, coeffs)
                result = _poly_lcm(result, local)
                break
            krylov.append(cur)
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

    Route: quotient by the radical, then by the commutator ideal, then split
    the commutative semisimple quotient into common eigenspaces by factoring
    minimal polynomials of multiplication maps.
    """
    field = alg.field
    dim = alg.dim
    semi, proj1, _ = quotient_algebra(alg, radical(alg))
    comms = []
    for i in range(semi.dim):
        for j in range(i + 1, semi.dim):
            ei = unit_vector(field, semi.dim, i)
            ej = unit_vector(field, semi.dim, j)
            c = tuple(
                x - y
                for x, y in zip(semi.multiply(ei, ej), semi.multiply(ej, ei))
            )
            if not vec_is_zero(c):
                comms.append(c)
    ideal = ideal_closure(semi, comms)
    if len(ideal) == semi.dim:
        return CharacterSearch([], [])
    quotient, proj2, _ = quotient_algebra(semi, ideal)
    proj = proj2 * proj1

    # (vectors, eigenvalue per generator so far); chi is linear, so the
    # eigenvalue list determines the character on the quotient
    qdim = quotient.dim
    blocks = [([unit_vector(field, qdim, i) for i in range(qdim)], [])]
    unresolved = []
    for gen in range(qdim):
        e = unit_vector(field, qdim, gen)
        lmat = quotient.left_mult_matrix(e)
        new_blocks = []
        for block, eigs in blocks:
            restricted = _restrict(lmat, block, field)
            minpoly = minimal_polynomial(restricted)
            pieces = factor_unipoly(minpoly)
            for fac, _ in pieces:
                if fac.degree > 1:
                    # a primary component over a proper extension carries no
                    # characters of the base field; record and drop it
                    unresolved.append(fac)
                    continue
                eigenvalue = -fac.coeffs[0]
                sub = _apply_poly(restricted, fac, field)
                piece = [
                    _combine(block, combo, field, qdim) for combo in sub.kernel()
                ]
                if piece:
                    new_blocks.append((piece, eigs + [eigenvalue]))
        blocks = new_blocks

    chars = []
    for block, eigs in blocks:
        if len(block) != 1:
            continue
        chi = []
        for i in range(dim):
            col = proj.column(i)
            acc = field.zero()
            for g in range(qdim):
                if not col[g].is_zero():
                    acc = acc + col[g] * eigs[g]
            chi.append(acc)
        chars.append(tuple(chi))
    verified = [chi for chi in chars if _is_character(alg, chi)]
    verified.sort(key=lambda c: tuple(tuple(x.coeffs) for x in c))
    return CharacterSearch(verified, unresolved)


def _restrict(m: Matrix, block, field) -> Matrix:
    # express all images in block coordinates with one augmented reduction
    k = len(block)
    aug = Matrix.from_columns(field, list(block) + [m.apply(v) for v in block])
    red, rank, pivots = aug.rref()
    if pivots[:k] != list(range(k)) or any(p >= k for p in pivots):
        raise ArithmeticError("block is not invariant")
    return Matrix(field, [[red.data[r][k + i] for i in range(k)] for r in range(k)])


def _apply_poly(m: Matrix, poly: UniPoly, field) -> Matrix:
    acc = Matrix.zero(field, m.rows, m.cols)
    power = Matrix.identity(field, m.rows)
    for c in poly.coeffs:
        if not c.is_zero():
            acc = acc + power.scale(c)
        power = power * m
    return acc


def _combine(block, combo, field, dim) -> tuple:
    out = [field.zero()] * dim
    for coeff, vec in zip(combo, block):
        if not coeff.is_zero():
            for t in range(dim):
                out[t] = out[t] + coeff * vec[t]
    return tuple(out)


def _is_character(alg: AssocAlgebra, chi) -> bool:
    one = alg.field.zero()
    for c, u in zip(chi, alg.unit):
        one = one + c * u
    if not one.is_one():
        return False
    table = alg.mult.by_ij()
    for i in range(alg.dim):
        for j in range(alg.dim):
            acc = alg.field.zero()
            for k, m in table.get((i, j), ()):
                acc = acc + m * chi[k]
            if acc != chi[i] * chi[j]:
                return False
    return True
