"""Exact dense linear algebra over a cyclotomic field, plus the sparse
3-index tensors that carry multiplication/comultiplication structure
constants.

Vectors are tuples of FieldElement.  Pivoting always takes the first nonzero
entry in column order; with exact arithmetic this is purely a determinism
choice.
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


def vec_dot(a, b):
    field = a[0].field
    acc = field.zero()
    for x, y in zip(a, b):
        if not (x.is_zero() or y.is_zero()):
            acc = acc + x * y
    return acc


def vec_outer(a, b) -> dict:
    """a (x) b as a sparse {(j, k): coeff} dict."""
    out = {}
    for j, x in enumerate(a):
        if x.is_zero():
            continue
        for k, y in enumerate(b):
            if not y.is_zero():
                out[(j, k)] = x * y
    return out


def sparse_equal(a: dict, b: dict) -> bool:
    """Equality of sparse {key: coeff} dicts, a missing key counting as zero."""
    for k, x in a.items():
        y = b.get(k)
        if y is None:
            if not x.is_zero():
                return False
        elif x != y:
            return False
    for k, y in b.items():
        if k not in a and not y.is_zero():
            return False
    return True


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
    def zero(cls, field, rows, cols):
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_columns(cls, field, columns, rows=None):
        if not columns:
            return cls(field, [[] for _ in range(rows or 0)])
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
            and self.field.order == other.field.order
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field.order, tuple(tuple(r) for r in self.data)))

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
        return Matrix(
            self.field,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __sub__(self, other):
        self._shape_check(other)
        return Matrix(
            self.field,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ],
        )

    def __neg__(self):
        return Matrix(self.field, [[-a for a in row] for row in self.data])

    def _shape_check(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeMismatch("matrix shapes differ")
        if self.field.order != other.field.order:
            raise FieldMismatch("matrices over different fields")

    def scale(self, c) -> "Matrix":
        c = self.field.promote(c)
        return Matrix(self.field, [[c * a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeMismatch("matrix product shapes")
            cols = other.columns()
            return Matrix(
                self.field,
                [[vec_dot(row, col) for col in cols] for row in self.data],
            )
        return NotImplemented

    def apply(self, vec) -> tuple:
        if len(vec) != self.cols:
            raise ShapeMismatch("matrix-vector shapes")
        out = []
        zero = self.field.zero()
        for row in self.data:
            acc = zero
            for a, x in zip(row, vec):
                if not (a.is_zero() or x.is_zero()):
                    acc = acc + a * x
            out.append(acc)
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(
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
        """Reduced row echelon form: (R, rank, pivot column indices)."""
        data = [list(row) for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if not data[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            data[r], data[pivot_row] = data[pivot_row], data[r]
            inv = data[r][c].inverse()
            data[r] = [inv * x for x in data[r]]
            for i in range(self.rows):
                if i != r and not data[i][c].is_zero():
                    factor = data[i][c]
                    data[i] = [
                        x - factor * y for x, y in zip(data[i], data[r])
                    ]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(self.field, data), len(pivots), pivots

    def kernel(self) -> list[tuple]:
        """Exact basis of the right null space."""
        red, rank, pivots = self.rref()
        return _rref_kernel(red, pivots, self.cols)

    def solve(self, b):
        """Solve M x = b: (particular solution, kernel basis) or None."""
        if len(b) != self.rows:
            raise ShapeMismatch("rhs length does not match row count")
        aug = Matrix(
            self.field,
            [list(row) + [b[i]] for i, row in enumerate(self.data)],
        )
        red, rank, pivots = aug.rref()
        if self.cols in pivots:
            return None
        zero = self.field.zero()
        particular = [zero] * self.cols
        for r, pc in enumerate(pivots):
            particular[pc] = red.data[r][self.cols]
        # the first cols columns of the augmented RREF are the RREF of self
        return tuple(particular), _rref_kernel(red, pivots, self.cols)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ShapeMismatch("only square matrices invert")
        n = self.rows
        aug = Matrix(
            self.field,
            [
                list(self.data[i])
                + [
                    self.field.one() if j == i else self.field.zero()
                    for j in range(n)
                ]
                for i in range(n)
            ],
        )
        red, rank, pivots = aug.rref()
        if rank < n or pivots[:n] != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return Matrix(self.field, [row[n:] for row in red.data])


def _rref_kernel(red: Matrix, pivots: list[int], cols: int) -> list[tuple]:
    """Null space basis of the first `cols` columns of a reduced echelon form
    whose pivots all lie among them: one vector per free column, in order."""
    basis = []
    zero, one = red.field.zero(), red.field.one()
    for fc in range(cols):
        if fc in pivots:
            continue
        vec = [zero] * cols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red.data[r][fc]
        basis.append(tuple(vec))
    return basis


def row_space_basis(field, vectors) -> list[tuple]:
    """Independent spanning subset, echelonized, deterministic."""
    if not vectors:
        return []
    red, rank, _ = Matrix(field, [list(v) for v in vectors]).rref()
    return [red.row(i) for i in range(rank)]


def sparse_kernel(field: CycloField, dim: int, sparse_rows) -> list[tuple]:
    """Kernel of a system given as sparse rows ({column: coeff} dicts).

    Rows are eliminated into a fully reduced echelon of dicts; sparsity is
    preserved throughout, so tall near-diagonal systems stay cheap.
    """
    echelon: list = []  # (pivot column, {column: coeff} with pivot -> 1)
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


def common_kernel(blocks, dim: int, field: CycloField) -> list[tuple]:
    """Intersection of kernels of an iterable of constraint callables.

    Each block is a callable mapping a length-`dim` vector to a constraint
    vector.  Constraints are imposed incrementally so the working space
    shrinks as fast as possible.
    """
    basis = [unit_vector(field, dim, i) for i in range(dim)]
    for block in blocks:
        if not basis:
            return []
        images = [block(v) for v in basis]
        if all(vec_is_zero(img) for img in images):
            continue
        constraint = Matrix.from_columns(field, images)
        combos = constraint.kernel()
        basis = [
            tuple(
                sum((combo[j] * basis[j][t] for j in range(len(basis))), field.zero())
                for t in range(dim)
            )
            for combo in combos
        ]
    return basis


class Tensor3:
    """Sparse 3-index tensor of structure constants over one field."""

    __slots__ = ("field", "dims", "entries", "_by_ij", "_by_i")

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
            and self.field.order == other.field.order
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(
            (self.field.order, self.dims, tuple(sorted(self.entries.items())))
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

    def contract(self, mode: str, v) -> Matrix:
        """Contract one slot against a vector, yielding an operator matrix.

        left-mult:    x -> v * x        (v in slot 1 of a product tensor)
        right-mult:   x -> x * v        (v in slot 2)
        comult-left:  x -> (f (x) id) Delta(x) with functional f = v
        comult-right: x -> (id (x) f) Delta(x) with functional f = v
        """
        d1, d2, d3 = self.dims
        zero = self.field.zero()
        if mode == "left-mult":
            if len(v) != d1:
                raise ShapeMismatch("vector length != dims[0]")
            rows = [[zero] * d2 for _ in range(d3)]
            for (i, j, k), c in self.entries.items():
                if not v[i].is_zero():
                    rows[k][j] = rows[k][j] + v[i] * c
            return Matrix(self.field, rows)
        if mode in ("right-mult", "comult-left"):
            if len(v) != d2:
                raise ShapeMismatch("vector length != dims[1]")
            rows = [[zero] * d1 for _ in range(d3)]
            for (i, j, k), c in self.entries.items():
                if not v[j].is_zero():
                    rows[k][i] = rows[k][i] + v[j] * c
            return Matrix(self.field, rows)
        if mode == "comult-right":
            if len(v) != d3:
                raise ShapeMismatch("vector length != dims[2]")
            rows = [[zero] * d1 for _ in range(d2)]
            for (i, j, k), c in self.entries.items():
                if not v[k].is_zero():
                    rows[j][i] = rows[j][i] + v[k] * c
            return Matrix(self.field, rows)
        raise ValueError("unknown contraction mode %r" % mode)
