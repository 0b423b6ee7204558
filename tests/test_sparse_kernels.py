"""The sparse elimination kernels against the dense loops they replaced.

Matrix.rref, Matrix.apply, sparse_kernel, EchelonBasis, minimal_polynomial
and quotient_algebra visit only nonzero entries.  The reference models below
are the dense loops of the earlier code, kept here verbatim in behaviour: on
random sparse matrices over Q and Q(zeta_12) (zero rows and columns,
rank-deficient products, the identity, single entries) both must return
equal results.  Exact arithmetic has one form per value, so equal means
entry for entry.  Tensor3.contract is compared in the same way with a
triple loop over the dense tensor, on random sparse tensors of unequal
dimensions.  Matrix.solve, Matrix.inverse, row_space_basis and
algebra.center are compared with dense models built on ref_rref in the
same way; ref_common_kernel, the incremental route the integrals once took,
is the oracle of test_integrals.

A last test counts FieldElement.is_zero calls in a cold classify_4p of
A(3,1) and fails above a fixed ceiling, so a dense loop cannot creep back.
Run as a script, `PYTHONPATH=src python tests/test_sparse_kernels.py P`
prints that count for A(P,1) (default 11) in a fresh process.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck import cyclotomic, hopf
from hopfcheck.algebra import (
    AssocAlgebra,
    center,
    minimal_polynomial,
    quotient_algebra,
)
from hopfcheck.cyclotomic import UniPoly, make_field
from hopfcheck.families import a_tau_mu
from hopfcheck.linalg import (
    EchelonBasis,
    Matrix,
    ShapeMismatch,
    Tensor3,
    dense_vector,
    row_space_basis,
    sparse_kernel,
    sparse_vector,
    unit_vector,
    vec_combination,
)

FIELDS = (make_field(1), make_field(12))


# --- the reference models: the dense loops ------------------------------------------


def ref_rref(m):
    data = [list(row) for row in m.data]
    pivots = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if not data[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        inv = data[r][c].inverse()
        data[r] = [inv * x for x in data[r]]
        for i in range(m.rows):
            if i != r and not data[i][c].is_zero():
                factor = data[i][c]
                data[i] = [x - factor * y for x, y in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return Matrix(m.field, data), len(pivots), pivots


def ref_kernel(m):
    red, _, pivots = ref_rref(m)
    zero, one = m.field.zero(), m.field.one()
    basis = []
    for fc in range(m.cols):
        if fc in pivots:
            continue
        vec = [zero] * m.cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red.data[r][fc]
        basis.append(tuple(vec))
    return basis


def ref_apply(m, vec):
    out = []
    for row in m.data:
        acc = m.field.zero()
        for a, x in zip(row, vec):
            if not (a.is_zero() or x.is_zero()):
                acc = acc + a * x
        out.append(acc)
    return tuple(out)


def ref_contract(t, slot, f):
    """sum_s f_s T[.., s, ..] by a triple loop over the dense tensor, as the
    matrix on the two other indices in order."""
    zero = t.field.zero()
    out = {}
    for i in range(t.dims[0]):
        for j in range(t.dims[1]):
            for k in range(t.dims[2]):
                idx = (i, j, k)
                key = tuple(x for s, x in enumerate(idx) if s != slot)
                out[key] = out.get(key, zero) + f[idx[slot]] * t.get(i, j, k)
    rows, cols = (n for s, n in enumerate(t.dims) if s != slot)
    return Matrix(t.field, [[out[(a, b)] for b in range(cols)] for a in range(rows)])


def ref_sparse_kernel(field, dim, sparse_rows):
    echelon = []  # (pivot column, {column: coeff} with pivot -> 1)
    for row in sorted(sparse_rows, key=len):
        work = {c: v for c, v in row.items() if not v.is_zero()}
        for pivot, prow in echelon:
            c = work.get(pivot)
            if c is None or c.is_zero():
                continue
            for col, v in prow.items():
                cur = work.get(col)
                nxt = (cur - c * v) if cur is not None else -(c * v)
                if nxt.is_zero():
                    work.pop(col, None)
                else:
                    work[col] = nxt
        work = {c: v for c, v in work.items() if not v.is_zero()}
        if not work:
            continue
        pivot = min(work)
        inv = work[pivot].inverse()
        work = {c: inv * v for c, v in work.items()}
        for entry in echelon:
            prow = entry[1]
            c = prow.get(pivot)
            if c is None or c.is_zero():
                continue
            for col, v in work.items():
                cur = prow.get(col)
                nxt = (cur - c * v) if cur is not None else -(c * v)
                if nxt.is_zero():
                    prow.pop(col, None)
                else:
                    prow[col] = nxt
        echelon.append((pivot, work))
    pivots = {p for p, _ in echelon}
    zero, one = field.zero(), field.one()
    basis = []
    for free in range(dim):
        if free in pivots:
            continue
        vec = [zero] * dim
        vec[free] = one
        for pivot, prow in echelon:
            c = prow.get(free)
            if c is not None and not c.is_zero():
                vec[pivot] = -c
        basis.append(tuple(vec))
    return basis


class RefEchelonBasis:
    """Dense rows, reduced by a pass over every column."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = []  # (pivot column, vector with pivot scaled to 1)

    def reduce(self, vec):
        v = list(vec)
        for pivot, row in self.rows:
            c = v[pivot]
            if not c.is_zero():
                for t in range(self.dim):
                    if not row[t].is_zero():
                        v[t] = v[t] - c * row[t]
        return tuple(v)

    def insert(self, vec):
        v = self.reduce(vec)
        pivot = next((t for t, c in enumerate(v) if not c.is_zero()), None)
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

    def basis(self):
        return [row for _, row in self.rows]


def ref_minimal_polynomial(m):
    field = m.field
    n = m.rows
    result = UniPoly(field, [field.one()])
    for start in range(n):
        v = unit_vector(field, n, start)
        krylov = [v]
        cur = v
        while True:
            cur = ref_apply(m, cur)
            columns = Matrix.from_columns(field, krylov + [cur])
            _, rank, _ = ref_rref(columns)
            if rank < len(krylov) + 1:
                sol = ref_kernel(columns)[0]
                scale = sol[-1].inverse()
                local = UniPoly(field, [c * scale for c in sol])
                if result.degree <= 0:
                    result = local
                elif local.degree > 0:
                    result = ((result * local) // result.gcd(local)).monic()
                break
            krylov.append(cur)
        if result.degree == n:
            break
    return result.monic()


def ref_quotient_algebra(alg, ideal_basis):
    field = alg.field
    dim = alg.dim
    if not ideal_basis:
        return alg, Matrix.identity(field, dim), list(range(dim))
    red, rank, pivots = ref_rref(Matrix(field, [list(v) for v in ideal_basis]))
    complement = [c for c in range(dim) if c not in pivots]
    qdim = len(complement)

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
            prod = alg.multiply(unit_vector(field, dim, qa), unit_vector(field, dim, qb))
            for k_idx, c in enumerate(project(prod)):
                if not c.is_zero():
                    entries[(a_idx, b_idx, k_idx)] = c
    quotient = AssocAlgebra(
        field, qdim, Tensor3(field, (qdim, qdim, qdim), entries), project(alg.unit)
    )
    return quotient, proj, complement


# --- random sparse inputs ---------------------------------------------------------------


@st.composite
def scalars(draw, field, density=0.35):
    """Zero with probability 1 - density; else small rationals, and over
    Q(zeta_12) sometimes a full element."""
    if draw(st.floats(0, 1)) >= density:
        return field.zero()
    if field.degree > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=field.degree,
                               max_size=field.degree))
        if any(coeffs):
            return field.element(coeffs)
    num = draw(st.integers(-3, 3).filter(bool))
    return field.from_rational(Fraction(num, draw(st.integers(1, 3))))


@st.composite
def matrices(draw, square=False, max_dim=6):
    """A random sparse matrix, a rank-deficient product, the identity or a
    single entry; random ones may get a zero row and a zero column."""
    field = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    kind = draw(st.sampled_from(["random", "product", "identity", "single"]))
    zero = field.zero()
    if kind == "identity":
        return Matrix.identity(field, rows)
    if kind == "single":
        data = [[zero] * cols for _ in range(rows)]
        c = draw(scalars(field, density=1.0))
        data[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = c
        return Matrix(field, data)
    if kind == "product":
        inner = draw(st.integers(1, max(1, min(rows, cols) - 1)))
        left = [[draw(scalars(field, 0.6)) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(scalars(field, 0.6)) for _ in range(cols)] for _ in range(inner)]
        return Matrix(field, left) * Matrix(field, right)
    data = [[draw(scalars(field)) for _ in range(cols)] for _ in range(rows)]
    if draw(st.booleans()):
        data[draw(st.integers(0, rows - 1))] = [zero] * cols
        j = draw(st.integers(0, cols - 1))
        for row in data:
            row[j] = zero
    return Matrix(field, data)


@st.composite
def matrix_and_vector(draw):
    m = draw(matrices())
    vec = tuple(draw(scalars(m.field)) for _ in range(m.cols))
    return m, vec


@st.composite
def tensors_and_functionals(draw):
    """A random sparse tensor of dimensions 1..4 each, a slot, and a random,
    zero or one-entry functional on that slot."""
    field = draw(st.sampled_from(FIELDS))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(3))
    entries = {
        (i, j, k): draw(scalars(field))
        for i in range(dims[0])
        for j in range(dims[1])
        for k in range(dims[2])
    }
    slot = draw(st.integers(0, 2))
    n = dims[slot]
    kind = draw(st.sampled_from(["random", "zero", "single"]))
    f = [field.zero()] * n
    if kind == "random":
        f = [draw(scalars(field, 0.6)) for _ in range(n)]
    elif kind == "single":
        f[draw(st.integers(0, n - 1))] = draw(scalars(field, density=1.0))
    return Tensor3(field, dims, entries), slot, tuple(f)


SETTINGS = settings(max_examples=150, deadline=None)


# --- the comparisons ----------------------------------------------------------------


@SETTINGS
@given(matrices())
def test_rref_matches_reference(m):
    assert m.rref() == ref_rref(m)
    assert m.kernel() == ref_kernel(m)


@SETTINGS
@given(matrix_and_vector())
def test_apply_matches_reference(mv):
    m, vec = mv
    assert m.apply(vec) == ref_apply(m, vec)
    product = m.transpose() * m
    columns = [ref_apply(m.transpose(), col) for col in m.columns()]
    assert product == Matrix.from_columns(m.field, columns)


@SETTINGS
@given(tensors_and_functionals())
def test_contract_matches_reference(case):
    t, slot, f = case
    assert t.contract(slot, f) == ref_contract(t, slot, f)
    with pytest.raises(ShapeMismatch):
        t.contract(slot, f + (t.field.zero(),))


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_contract_rejects_a_wrong_length(slot):
    q = FIELDS[0]
    t = Tensor3(q, (2, 3, 4), {(1, 2, 3): 1})
    for n in (2, 3, 4):
        if n != t.dims[slot]:
            with pytest.raises(ShapeMismatch):
                t.contract(slot, (q.one(),) * n)


@SETTINGS
@given(matrices(), st.booleans())
def test_sparse_kernel_matches_reference(m, keep_zeros):
    """Rows as dicts, with or without explicit zero coefficients."""
    rows = [
        {c: x for c, x in enumerate(row) if keep_zeros or not x.is_zero()}
        for row in m.data
    ]
    got = sparse_kernel(m.field, m.cols, rows)
    assert got == ref_sparse_kernel(m.field, m.cols, rows)
    assert got == ref_kernel(m)


@SETTINGS
@given(matrices(), matrices())
def test_echelon_basis_matches_reference(m, probes):
    ech = EchelonBasis(m.field, m.cols)
    ref = RefEchelonBasis(m.field, m.cols)
    for row in m.data:
        assert ech.insert(sparse_vector(row)) == ref.insert(tuple(row))
        assert ech.basis() == ref.basis()
    if probes.field == m.field and probes.cols == m.cols:
        for row in probes.data:
            reduced = ech.reduce(sparse_vector(row))
            assert not any(x.is_zero() for x in reduced.values())
            assert dense_vector(m.field, m.cols, reduced) == ref.reduce(tuple(row))


@SETTINGS
@given(matrices(square=True, max_dim=5))
def test_minimal_polynomial_matches_reference(m):
    assert minimal_polynomial(m) == ref_minimal_polynomial(m)


@st.composite
def algebras_with_ideals(draw):
    """Structure constants that need not be associative, a random unit and
    the rows of a random matrix (possibly dependent or zero) as the ideal:
    quotient_algebra is the same computation on any such input."""
    m = draw(matrices(max_dim=5))
    field, dim = m.field, m.cols
    entries = {}
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                c = draw(scalars(field, 0.15))
                if not c.is_zero():
                    entries[(i, j, k)] = c
    unit = [draw(scalars(field)) for _ in range(dim)]
    alg = AssocAlgebra(field, dim, Tensor3(field, (dim, dim, dim), entries), unit)
    return alg, [tuple(row) for row in m.data] if draw(st.integers(0, 5)) else []


@SETTINGS
@given(algebras_with_ideals())
def test_quotient_algebra_matches_reference(case):
    alg, ideal = case
    quotient, proj, complement = quotient_algebra(alg, ideal)
    ref_quotient, ref_proj, ref_complement = ref_quotient_algebra(alg, ideal)
    assert (proj, complement) == (ref_proj, ref_complement)
    assert quotient.mult == ref_quotient.mult
    assert quotient.unit == ref_quotient.unit


# --- the callers of rref against dense models on ref_rref ------------------------------


def ref_solve(m, b):
    aug = Matrix(m.field, [list(row) + [b[i]] for i, row in enumerate(m.data)])
    red, _, pivots = ref_rref(aug)
    if m.cols in pivots:
        return None
    particular = [m.field.zero()] * m.cols
    for r, pc in enumerate(pivots):
        particular[pc] = red.data[r][m.cols]
    return tuple(particular), ref_kernel(m)


def ref_inverse(m):
    n = m.rows
    eye = Matrix.identity(m.field, n)
    red, rank, pivots = ref_rref(
        Matrix(m.field, [m.data[i] + eye.data[i] for i in range(n)])
    )
    if pivots[:n] != list(range(n)):
        return None
    return Matrix(m.field, [row[n:] for row in red.data])


def ref_row_space_basis(field, vectors):
    red, rank, _ = ref_rref(Matrix(field, [list(v) for v in vectors]))
    return [red.row(i) for i in range(rank)]


def ref_common_kernel(matrices_, dim, field):
    basis = [unit_vector(field, dim, i) for i in range(dim)]
    for m in matrices_:
        if not basis:
            return []
        images = [m.apply(v) for v in basis]
        if all(x.is_zero() for img in images for x in img):
            continue
        constraint = Matrix.from_columns(field, images)
        basis = [
            vec_combination(combo, basis, field, dim)
            for combo in ref_kernel(constraint)
        ]
    return basis


def ref_center(alg):
    rows = []
    for i in range(alg.dim):
        e = unit_vector(alg.field, alg.dim, i)
        diff = alg.left_mult_matrix(e) - alg.mult.contract(1, e).transpose()
        rows.extend(diff.data)
    return ref_kernel(Matrix(alg.field, rows))


@st.composite
def systems(draw):
    """M and a right-hand side: M x for a random x (solvable) or random."""
    m = draw(matrices())
    if draw(st.booleans()):
        b = m.apply(tuple(draw(scalars(m.field)) for _ in range(m.cols)))
    else:
        b = tuple(draw(scalars(m.field)) for _ in range(m.rows))
    return m, b


@SETTINGS
@given(systems())
def test_solve_matches_reference(case):
    m, b = case
    got = m.solve(b)
    assert got == ref_solve(m, b)
    if got is not None:
        assert m.apply(got[0]) == b


@SETTINGS
@given(matrices(square=True))
def test_inverse_matches_reference(m):
    """Singular inputs (products, zero rows, single entries) raise."""
    expected = ref_inverse(m)
    if expected is None:
        with pytest.raises(ZeroDivisionError):
            m.inverse()
    else:
        assert m.inverse() == expected
        assert (m * expected).is_identity()


@SETTINGS
@given(matrices())
def test_row_space_basis_matches_reference(m):
    vectors = [tuple(row) for row in m.data]
    assert row_space_basis(m.field, vectors) == ref_row_space_basis(m.field, vectors)


@settings(max_examples=60, deadline=None)
@given(algebras_with_ideals())
def test_center_matches_reference(case):
    alg, _ = case
    assert center(alg) == ref_center(alg)


# --- the is_zero count of a cold classify ----------------------------------------------

# A(3,1): 130,997 calls with the dense loops, 45,301 without, 41,407 with
# the reference fingerprints computed from constructed families and 7,473
# with them in closed form; rebuilding the references or one dense loop back
# in a kernel on the classify path crosses this ceiling
IS_ZERO_CEILING = 10_000


def count_is_zero_calls(p: int, patch) -> tuple:
    """(label, FieldElement.is_zero calls) of classify_4p(A(p,1)) with the
    reference fingerprints and factorizations not yet computed; patch(obj,
    name, value) installs the counter and the empty caches."""
    h = a_tau_mu(p, 2, -1, 1)
    calls = [0]

    def is_zero(self):
        calls[0] += 1
        return not self.num

    patch(hopf, "_REFERENCE_CACHE", {})
    patch(cyclotomic, "_FACTORS", {})
    patch(cyclotomic.FieldElement, "is_zero", is_zero)
    return hopf.classify_4p(h), calls[0]


def test_cold_classify_is_zero_calls_under_ceiling(monkeypatch):
    label, calls = count_is_zero_calls(3, monkeypatch.setattr)
    assert label == hopf.LABEL_A1
    assert calls <= IS_ZERO_CEILING, calls


if __name__ == "__main__":
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    label, calls = count_is_zero_calls(p, setattr)
    print("classify_4p(A(%d,1)) = %s: %d FieldElement.is_zero calls" % (p, label, calls))
