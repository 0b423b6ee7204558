"""Exact linear algebra over a cyclotomic field, plus the sparse 3-index
tensors that carry multiplication/comultiplication structure constants.

The public API takes and returns dense vectors, tuples of FieldElement, and
Matrix keeps dense rows.  Inside the elimination kernels a vector or row is
a {index: coeff} dict holding only nonzero entries (sparse_vector,
dense_vector convert), and every loop visits only those; Matrix.apply walks
the nonzeros of its input.

One rule for every sparse identity: a sparse dict never holds a zero, so
two dicts from zero-free producers (contract_first, vec_outer, kron,
sparse_sub_scaled, AssocAlgebra.basis_times and tensor_square_product) are
equal exactly when they are equal as dicts.  A law lhs = rhs is decided as
one residual: lhs - rhs, accumulated into one dict (with sparse_sub_scaled,
or by hand and then read with vec_is_zero), vanishes.

One contraction applies a functional to a tensor leg: Tensor3.contract(slot,
f) sums f against index slot and returns the dense Matrix on the two other
indices in order, row a at basis a; the counit laws, integrals, Radford's
formulas and the trace form read their rows.  contract_first stays because
it gives Delta(x) or rho(x) as a zero-free dict for the residual rule, not
an operator, and walks only the rows in x's support.

One echelon does all elimination: every rref, kernel and solve inserts its
rows into an EchelonBasis, and _echelon_kernel reads every kernel.  The
reduced row echelon form of a matrix is unique, whatever the order of the
row operations, and a kernel basis has one vector per free column in column
order; exact scalars have one stored form, so each result is entry for entry
that of a dense Gauss-Jordan sweep.  Matrix and Tensor3 also take a PolyRing
for their field and MultiPoly entries, for everything but elimination.
"""

from __future__ import annotations

from hopfcheck.cyclotomic import CycloField, FieldElement, FieldMismatch


class ShapeMismatch(ValueError):
    """Operand dimensions are incompatible."""


# --- vector helpers -----------------------------------------------------------


def zero_vector(field: CycloField, n: int) -> tuple:
    return (field.zero(),) * n


def unit_vector(field: CycloField, n: int, i: int) -> tuple:
    return tuple(field.one() if j == i else field.zero() for j in range(n))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


def vec_dot(a, b, field):
    """sum_i a_i b_i, starting from field.zero()."""
    acc = field.zero()
    for x, y in zip(a, b):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


def vec_combination(coeffs, vectors, field: CycloField, n: int) -> tuple:
    """sum_j coeffs[j] * vectors[j], skipping zero coefficients and entries."""
    out = [field.zero()] * n
    for c, vec in zip(coeffs, vectors):
        if c.is_zero():
            continue
        for t, x in enumerate(vec):
            if not x.is_zero():
                out[t] = out[t] + c * x
    return tuple(out)


def sparse_vector(a) -> dict:
    """The nonzero entries of a dense vector as {index: coeff}."""
    return {i: x for i, x in enumerate(a) if not x.is_zero()}


def dense_vector(field, n: int, v: dict) -> tuple:
    """The length-n dense tuple of a {index: coeff} vector."""
    out = [field.zero()] * n
    for i, x in v.items():
        out[i] = x
    return tuple(out)


def sparse_sub_scaled(v: dict, c, row: dict) -> None:
    """v -= c * row in place, for nonzero c and rows without zeros; entries
    that cancel are dropped."""
    for t, x in row.items():
        y = v.get(t)
        if y is None:
            v[t] = -(c * x)
        else:
            y = y - c * x
            if y.is_zero():
                del v[t]
            else:
                v[t] = y


def vec_outer(a, b) -> dict:
    """a (x) b as a sparse {(j, k): coeff} dict."""
    right = sparse_vector(b).items()
    return {(j, k): x * y for j, x in sparse_vector(a).items() for k, y in right}


def kron(a: dict, b: dict, n: int) -> dict:
    """Kronecker product of two sparse arrays without zeros, keyed by index
    tuples of one length: a[s] b[t] sits at the key (s_0 n + t_0, s_1 n +
    t_1, ...), n being b's extent along every index.  A vector is keyed by
    1-tuples."""
    return {
        tuple(s * n + t for s, t in zip(ks, kt)): x * y
        for ks, x in a.items()
        for kt, y in b.items()
    }


def kron_vector(field, a, b) -> tuple:
    """a (x) b for two dense vectors, on the lex basis, by kron."""
    keyed = [{(i,): x for i, x in sparse_vector(v).items()} for v in (a, b)]
    fused = kron(*keyed, len(b))
    return tuple(fused.get((t,), field.zero()) for t in range(len(a) * len(b)))


class Matrix:
    """Dense matrix over one cyclotomic field; immutable by convention."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: CycloField, data):
        self.field = field
        self.data = [[field.promote(c) for c in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise ShapeMismatch("ragged matrix rows")

    @classmethod
    def _wrap(cls, field: CycloField, data) -> "Matrix":
        """Take ownership of equal-length rows of `field` elements as they are."""
        m = cls.__new__(cls)
        m.field = field
        m.data = data
        m.rows = len(data)
        m.cols = len(data[0]) if data else 0
        return m

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero()
        return cls._wrap(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls._wrap(
            field, [[o if i == j else z for j in range(n)] for i in range(n)]
        )

    @classmethod
    def from_columns(cls, field, columns):
        if not columns:
            return cls(field, [])
        n = len(columns[0])
        return cls(field, [[col[i] for col in columns] for i in range(n)])

    def column(self, j) -> tuple:
        return tuple(row[j] for row in self.data)

    def columns(self) -> list[tuple]:
        return [self.column(j) for j in range(self.cols)]

    def row(self, i) -> tuple:
        return tuple(self.data[i])

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return "Matrix(%dx%d over %r)" % (self.rows, self.cols, self.field)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i, row in enumerate(self.data):
            for j, c in enumerate(row):
                if i == j:
                    if not c.is_one():
                        return False
                elif not c.is_zero():
                    return False
        return True

    def __add__(self, other):
        self._shape_check(other)
        return Matrix._wrap(
            self.field,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other):
        self._shape_check(other)
        return Matrix._wrap(
            self.field,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __neg__(self):
        return Matrix._wrap(self.field, [[-a for a in row] for row in self.data])

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("matrix shapes differ")
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def scale(self, c) -> "Matrix":
        c = self.field.promote(c)
        return Matrix._wrap(self.field, [[c * a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeMismatch("matrix product shapes")
            cols = [self.apply(col) for col in other.columns()]
            return Matrix._wrap(
                self.field, [[col[i] for col in cols] for i in range(self.rows)]
            )
        return NotImplemented

    def apply(self, vec) -> tuple:
        if len(vec) != self.cols:
            raise ShapeMismatch("matrix-vector shapes")
        nonzero = [(j, x) for j, x in enumerate(vec) if not x.is_zero()]
        out = []
        zero = self.field.zero()
        for row in self.data:
            acc = zero
            for j, x in nonzero:
                a = row[j]
                if not a.is_zero():
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix._wrap(
            self.field,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def trace(self) -> FieldElement:
        acc = self.field.zero()
        for i in range(min(self.rows, self.cols)):
            acc = acc + self.data[i][i]
        return acc

    def power(self, n: int) -> "Matrix":
        result = Matrix.identity(self.field, self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def rref(self) -> tuple["Matrix", int, list[int]]:
        """Reduced row echelon form: (R, rank, pivot column indices).

        R is the rows of one EchelonBasis of the rows, in pivot order, with
        zero rows below; the reduced form is unique, so it is the R of any
        elimination order.
        """
        rows = map(sparse_vector, self.data)
        ech = EchelonBasis.spanned_by(self.field, self.cols, rows)
        zero = self.field.zero()
        data = [[zero] * self.cols for _ in range(self.rows)]
        pivots = sorted(ech.rows)
        for row, pivot in zip(data, pivots):
            for c, x in ech.rows[pivot].items():
                row[c] = x
        return Matrix._wrap(self.field, data), len(pivots), pivots

    def kernel(self) -> list[tuple]:
        """Exact basis of the right null space."""
        rows = [dict(enumerate(row)) for row in self.data]
        return sparse_kernel(self.field, self.cols, rows)

    def solve(self, b):
        """Solve M x = b: (particular solution, kernel basis) or None, from
        one rref of (M | b), whose first cols columns are the rref of M."""
        if len(b) != self.rows:
            raise ShapeMismatch("rhs length does not match row count")
        promote = self.field.promote
        aug = Matrix._wrap(self.field, [r + [promote(x)] for r, x in zip(self.data, b)])
        red, rank, pivots = aug.rref()
        if self.cols in pivots:
            return None
        rows = {pivot: dict(enumerate(red.data[r])) for r, pivot in enumerate(pivots)}
        particular = {pivot: row[self.cols] for pivot, row in rows.items()}
        return (
            dense_vector(self.field, self.cols, particular),
            _echelon_kernel(self.field, self.cols, rows),
        )

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("only square matrices invert")
        n = self.rows
        eye = Matrix.identity(self.field, n).data
        aug = Matrix._wrap(self.field, [self.data[i] + eye[i] for i in range(n)])
        red, rank, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix._wrap(self.field, [row[n:] for row in red.data])


def row_space_basis(field, vectors) -> list[tuple]:
    """Independent spanning subset, echelonized, deterministic."""
    if not vectors:
        return []
    rows = map(sparse_vector, Matrix(field, vectors).data)
    return EchelonBasis.spanned_by(field, len(vectors[0]), rows).basis()


def sparse_kernel(field: CycloField, dim: int, sparse_rows) -> list[tuple]:
    """Kernel of a system given as sparse rows ({column: coeff} dicts, zero
    coefficients allowed), read off one EchelonBasis of the rows: the basis
    of the unique reduced echelon form (see the module docstring)."""
    rows = [{c: v for c, v in row.items() if not v.is_zero()} for row in sparse_rows]
    return _echelon_kernel(field, dim, EchelonBasis.spanned_by(field, dim, rows).rows)


def _echelon_kernel(field, dim: int, rows: dict) -> list[tuple]:
    """Null space basis of the first `dim` columns of a reduced echelon form
    whose pivots all lie among them: one vector per free column, in order.

    rows maps each pivot to its {column: coeff} row, zero entries allowed;
    only the free columns are read, so a system of full rank costs nothing.
    """
    zero, one = field.zero(), field.one()
    basis = []
    for free in range(dim):
        if free in rows:
            continue
        vec = [zero] * dim
        vec[free] = one
        for pivot, prow in rows.items():
            c = prow.get(free)
            if c is not None:
                vec[pivot] = -c
        basis.append(tuple(vec))
    return basis


class EchelonBasis:
    """Incrementally maintained reduced row space; cheap membership tests.

    rows maps each pivot (the least column of its row, scaled to 1) to a
    {column: coeff} row without zeros; the rows are fully reduced, so no row
    has an entry at another row's pivot.  Vectors in and out are {column:
    coeff} dicts without zeros; basis() gives dense tuples.  insert is the
    package's one Gauss-Jordan step (see the module docstring).
    """

    def __init__(self, field: CycloField, dim: int):
        self.field = field
        self.dim = dim
        self.rows: dict = {}

    @classmethod
    def spanned_by(cls, field: CycloField, dim: int, rows) -> "EchelonBasis":
        """The echelon of {column: coeff} rows without zeros, inserted
        shortest first, so sparse rows stay sparse as they reduce."""
        ech = cls(field, dim)
        for row in sorted(rows, key=len):
            ech.insert(row)
        return ech

    def reduce(self, vec: dict) -> dict:
        """vec minus its component in the span, as a new dict."""
        v = dict(vec)
        # a row has no entry at another pivot, so these coefficients stay put
        for pivot in [t for t in v if t in self.rows]:
            sparse_sub_scaled(v, v[pivot], self.rows[pivot])
        return v

    def insert(self, vec: dict) -> bool:
        """Reduce and add; True when the vector enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        if not v[pivot].is_one():
            inv = v[pivot].inverse()
            v = {t: inv * c for t, c in v.items()}
        for row in self.rows.values():
            c = row.get(pivot)
            if c is not None:
                sparse_sub_scaled(row, c, v)
        self.rows[pivot] = v
        return True

    def basis(self) -> list[tuple]:
        """The rows in pivot order, as dense tuples."""
        return [
            dense_vector(self.field, self.dim, self.rows[p]) for p in sorted(self.rows)
        ]


class Tensor3:
    """Sparse 3-index tensor of structure constants over one field."""

    __slots__ = ("field", "dims", "entries", "_by_ij", "_by_i", "_by_k")

    def __init__(self, field: CycloField, dims, entries):
        self.field = field
        self.dims = tuple(dims)
        clean = {}
        for (i, j, k), c in entries.items() if isinstance(entries, dict) else entries:
            c = field.promote(c)
            if not (0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
                raise ShapeMismatch("tensor index out of range")
            if not c.is_zero():
                if (i, j, k) in clean:
                    raise ValueError("duplicate tensor entry %r" % ((i, j, k),))
                clean[(i, j, k)] = c
        self.entries = clean
        self._by_ij = None
        self._by_i = None
        self._by_k = None

    def get(self, i, j, k) -> FieldElement:
        return self.entries.get((i, j, k), self.field.zero())

    def by_ij(self) -> dict:
        """(i, j) -> tuple of (k, coeff); the product/row slices."""
        if self._by_ij is None:
            table: dict = {}
            for (i, j, k), c in self.entries.items():
                table.setdefault((i, j), []).append((k, c))
            self._by_ij = {key: tuple(v) for key, v in table.items()}
        return self._by_ij

    def by_i(self) -> dict:
        """i -> tuple of (j, k, coeff)."""
        if self._by_i is None:
            table: dict = {}
            for (i, j, k), c in self.entries.items():
                table.setdefault(i, []).append((j, k, c))
            self._by_i = {key: tuple(v) for key, v in table.items()}
        return self._by_i

    def by_k(self) -> dict:
        """k -> tuple of (i, j, coeff); the entries landing on output k."""
        if self._by_k is None:
            table: dict = {}
            for (i, j, k), c in self.entries.items():
                table.setdefault(k, []).append((i, j, c))
            self._by_k = {key: tuple(v) for key, v in table.items()}
        return self._by_k

    def contract_first(self, v) -> dict:
        """sum_i v_i T[i] as a sparse {(j, k): coeff} dict (v in slot 0)."""
        out: dict = {}
        zero = self.field.zero()
        by_i = self.by_i()
        for i, c in enumerate(v):
            if c.is_zero():
                continue
            for j, k, m in by_i.get(i, ()):
                key = (j, k)
                out[key] = out.get(key, zero) + c * m
        return {key: x for key, x in out.items() if not x.is_zero()}

    def __eq__(self, other):
        return (
            isinstance(other, Tensor3)
            and self.field == other.field
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(
            (self.field, self.dims, tuple(sorted(self.entries.items())))
        )

    def __repr__(self):
        return "Tensor3(dims=%r, nnz=%d)" % (self.dims, len(self.entries))

    def permuted(self, perm) -> "Tensor3":
        """Index permutation; perm maps new positions to old ones."""
        dims = tuple(self.dims[perm[t]] for t in range(3))
        entries = {}
        for idx, c in self.entries.items():
            entries[(idx[perm[0]], idx[perm[1]], idx[perm[2]])] = c
        return Tensor3(self.field, dims, entries)

    def sorted_entries(self):
        return sorted(self.entries.items())

    def contract(self, slot: int, f) -> Matrix:
        """sum_s f_s T[.., s, ..] over index `slot` (0, 1 or 2), as the dense
        Matrix on the two other indices in order: row a is the value at
        basis a, so row i of comult.contract(2, eps) is (id (x) eps)
        Delta(b_i) and mult.contract(0, a) is the transpose of x -> a x."""
        if len(f) != self.dims[slot]:
            raise ShapeMismatch("vector length != dims[%d]" % slot)
        zero = self.field.zero()
        nz = sparse_vector(f)
        a, b = (t for t in range(3) if t != slot)
        rows = [[zero] * self.dims[b] for _ in range(self.dims[a])]
        for idx, c in self.entries.items():
            x = nz.get(idx[slot])
            if x is not None:
                row = rows[idx[a]]
                row[idx[b]] = row[idx[b]] + x * c
        return Matrix._wrap(self.field, rows)
