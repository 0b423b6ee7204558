"""Seeded benchmark inputs: manifests built with the `families` constructors,
and the scrambled variants made by an integer change of basis.

The change of basis is unimodular: SHEARS row shears with multipliers in
{+-1, +-2}, then a permutation that moves the unit off index 0.  P and its
inverse stay integer matrices, so transport of structure is exact and the
generator can check itself: P * P^-1 = I, and transporting back gives the
original tensors entry for entry.
"""

from __future__ import annotations

import hashlib
import random

from hopfcheck import families
from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import make_field
from hopfcheck.hopf import HopfAlgebra, dual, structure_equal
from hopfcheck.io import manifest_for, serialize
from hopfcheck.linalg import Matrix, Tensor3
from hopfcheck.yetter_drinfeld import ordinary_to_braided

SHEARS = 12
MULTIPLIERS = (1, -1, 2, -2)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# --- the named families -------------------------------------------------------


FAMILIES = {
    "A0": lambda p: families.a_tau_mu(p, 2, -1, 0),
    "A1": lambda p: families.a_tau_mu(p, 2, -1, 1),
    "T2xZp": lambda p: families.taft_tensor_group(2, -1, p),
    "Z4p": lambda p: families.group_algebra(4 * p),
}

SMALL_ALGEBRAS = {
    "sweedler/Q": lambda: families.sweedler(),
    "sweedler/Q8": lambda: families.sweedler(make_field(8)),
    "Z4": lambda: families.group_algebra(4),
}


def family(name: str, p: int) -> HopfAlgebra:
    """A dimension-4p family at q = 2, tau = -1 over Q(zeta_4p); "X*" is X's dual."""
    h = FAMILIES[name.rstrip("*")](p)
    return dual(h) if name.endswith("*") else h


def small_algebra(name: str) -> HopfAlgebra:
    """A dimension-4 algebra of the dense antipode jobs."""
    return SMALL_ALGEBRAS[name]()


def braided_pair(p: int):
    """R = k[Z_p] with trivial Yetter-Drinfeld structure over H4, in Q(zeta_4p)."""
    field = make_field(4 * p)
    base = families.sweedler(field)
    return ordinary_to_braided(families.group_algebra(p, field), base), base


def without_antipode(h: HopfAlgebra) -> HopfAlgebra:
    return HopfAlgebra(h.algebra, h.comult, h.counit)


def manifest_bytes(obj) -> bytes:
    return serialize(manifest_for(obj))


# --- transport of structure -----------------------------------------------------


class BasisChange:
    """Integer change of basis: new basis vector i is column i of p."""

    def __init__(self, p: list, p_inv: list):
        self.p = p
        self.p_inv = p_inv
        n = len(p)
        # sparse views used by the transport: rows of P, columns of P^-1
        self.p_rows = [{i: p[a][i] for i in range(n) if p[a][i]} for a in range(n)]
        self.inv_cols = [
            {k: p_inv[k][c] for k in range(n) if p_inv[k][c]} for c in range(n)
        ]

    def inverse(self) -> "BasisChange":
        return BasisChange(self.p_inv, self.p)

    @classmethod
    def scramble(cls, n: int, rng: random.Random) -> "BasisChange":
        """SHEARS shears, then a permutation sending the unit off index 0."""
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        p_inv = [row[:] for row in p]
        for _ in range(SHEARS):
            s, t = rng.sample(range(n), 2)
            m = rng.choice(MULTIPLIERS)
            # P <- P (I + m E_st): column t += m column s
            for row in p:
                row[t] += m * row[s]
            # P^-1 <- (I - m E_st) P^-1: row s -= m row t
            p_inv[s] = [x - m * y for x, y in zip(p_inv[s], p_inv[t])]
        perm = list(range(n))
        while perm[0] == 0:
            rng.shuffle(perm)
        # new basis vector i is old column perm[i]
        p = [[row[perm[i]] for i in range(n)] for row in p]
        p_inv = [p_inv[perm[i]] for i in range(n)]
        change = cls(p, p_inv)
        change.check()
        return change

    def check(self):
        n = len(self.p)
        for i in range(n):
            for j in range(n):
                s = sum(self.p[i][k] * self.p_inv[k][j] for k in range(n))
                if s != int(i == j):
                    raise AssertionError("P * P^-1 != I at (%d, %d)" % (i, j))

    def _tensor(self, t: Tensor3, slots: tuple) -> Tensor3:
        """Transform each slot: "in" along rows of P, "out" along columns of P^-1."""
        entries = dict(t.entries)
        for pos, kind in enumerate(slots):
            weights = self._weights(t.field, kind)
            out: dict = {}
            for idx, c in entries.items():
                for new, w in weights[idx[pos]]:
                    key = idx[:pos] + (new,) + idx[pos + 1:]
                    cur = out.get(key)
                    out[key] = c * w if cur is None else cur + c * w
            entries = {k: v for k, v in out.items() if not v.is_zero()}
        return Tensor3(t.field, t.dims, entries)

    def _vector(self, v, kind: str) -> tuple:
        field = v[0].field
        out = [field.zero()] * len(v)
        weights = self._weights(field, kind)
        for idx, c in enumerate(v):
            if c.is_zero():
                continue
            for new, w in weights[idx]:
                out[new] = out[new] + c * w
        return tuple(out)

    def _weights(self, field, kind: str) -> list:
        """Rows of P ("in") or columns of P^-1 ("out") as field elements."""
        rows = self.p_rows if kind == "in" else self.inv_cols
        return [[(i, field.from_rational(w)) for i, w in row.items()] for row in rows]

    def hopf(self, h: HopfAlgebra) -> HopfAlgebra:
        """The same Hopf algebra written in the new basis."""
        field = h.field
        mult = self._tensor(h.algebra.mult, ("in", "in", "out"))
        comult = self._tensor(h.comult, ("in", "out", "out"))
        unit = self._vector(h.unit, "out")
        counit = self._vector(h.counit, "in")
        antipode = None
        if h.antipode is not None:
            # S' = P^-1 S P
            antipode = self._matrix(field, self.p_inv) * h.antipode * self._matrix(
                field, self.p
            )
        alg = AssocAlgebra(field, h.dim, mult, unit)
        return HopfAlgebra(alg, comult, counit, antipode)

    @staticmethod
    def _matrix(field, rows) -> Matrix:
        return Matrix(field, [[field.from_rational(x) for x in row] for row in rows])


def scrambled(h: HopfAlgebra, rng: random.Random) -> HopfAlgebra:
    """h in a seeded unimodular basis, checked by transporting back."""
    change = BasisChange.scramble(h.dim, rng)
    out = change.hopf(h)
    if not structure_equal(change.inverse().hopf(out), h):
        raise AssertionError("transport back does not restore the structure")
    if out.unit[0].is_one() and all(c.is_zero() for c in out.unit[1:]):
        raise AssertionError("scrambled unit still sits at index 0")
    return out
