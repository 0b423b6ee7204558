"""Exact structure-constant builders for the named finite-dimensional
Hopf algebra families: cyclic group algebras, Taft algebras (Sweedler's
algebra as the q = 2 case), the pq^2-dimensional family A(tau, mu), and the
Taft (x) group-algebra tensor family.

Conventions, fixed once: Taft relation g x = tau x g (tau = -1 recovers
g x = -x g), and a y = tau y a so that y a^i = tau^{-i} a^i y.  Normal-form
bases are ordered lexicographically (g^i x^j and a^i y^j).  T_q and
A(tau, mu) come from one presentation; T_q is its case n = q, mu = 0.
Default working field for a family of dimension d with parameter in mu_q is
Q(zeta_lcm(q, d)) so group-like searches over the constructed object are
complete.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import CycloField, FieldElement, embed, is_prime, make_field
from hopfcheck.hopf import HopfAlgebra, certified_antipode, tensor_hopf
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    dense_vector,
    sparse_sub_scaled,
    unit_vector,
)


class NotPrimitiveRoot(ValueError):
    """tau fails tau^q = 1 with tau^d != 1 for proper divisors d."""


class BadParams(ValueError):
    """Family parameters out of range."""


def _resolve_tau(q: int, tau, field: CycloField | None) -> tuple[CycloField, FieldElement]:
    if isinstance(tau, FieldElement):
        if field is None:
            field = tau.field
        else:
            tau = embed(tau, field)
    else:
        if field is None:
            field = make_field(1)
        tau = field.from_rational(Fraction(tau))
    if tau ** q != field.one():
        raise NotPrimitiveRoot("tau^%d != 1" % q)
    for d in range(1, q):
        if q % d == 0 and tau ** d == field.one():
            raise NotPrimitiveRoot("tau has order dividing %d < %d" % (d, q))
    return field, tau


def group_algebra(n: int, field: CycloField | None = None) -> HopfAlgebra:
    """k[Z_n]: basis g^0..g^(n-1), Delta(g^i) = g^i (x) g^i, S(g^i) = g^-i."""
    if n < 1:
        raise BadParams("group order must be >= 1")
    field = field or make_field(n)
    mult = {(i, j, (i + j) % n): 1 for i in range(n) for j in range(n)}
    comult = {(i, i, i): 1 for i in range(n)}
    counit = [field.one()] * n
    anti = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        anti[(-i) % n][i] = field.one()
    alg = AssocAlgebra(
        field, n, Tensor3(field, (n, n, n), mult), unit_vector(field, n, 0)
    )
    return HopfAlgebra(
        alg, Tensor3(field, (n, n, n), comult), counit, Matrix(field, anti)
    )


def taft(q: int, tau, field: CycloField | None = None) -> HopfAlgebra:
    """Taft algebra T_q: g^q = 1, x^q = 0, gx = tau xg; dim q^2.

    Basis g^i x^j ordered lexicographically by (i, j); Delta(g) = g (x) g,
    Delta(x) = x (x) g + 1 (x) x; S(g) = g^{q-1} and S(x) = -x S(g) extend
    anti-multiplicatively, and the result is certified by both antipode laws.
    """
    if q < 2:
        raise BadParams("Taft algebras need q >= 2")
    field, tau = _resolve_tau(q, tau, field)
    return _presentation(q, q, tau, 0, field, c_left=False)


def sweedler(field: CycloField | None = None) -> HopfAlgebra:
    """The 4-dimensional algebra with g^2 = 1, x^2 = 0, gx = -xg, over Q."""
    return taft(2, -1, field)


def a_tau_mu(p: int, q: int, tau, mu: int, field: CycloField | None = None) -> HopfAlgebra:
    """The pq^2-dimensional family: a^{pq} = 1, y^q = mu(1 - a^q), ay = tau ya.

    Basis a^i y^j, i < pq, j < q, ordered lexicographically.  Delta(a) =
    a (x) a and Delta(y) = y (x) 1 + a (x) y extend multiplicatively;
    S(a) = a^{pq-1} and S(y) = -S(a) y extend anti-multiplicatively, and the
    result is certified by both antipode laws.  Default field
    Q(zeta_lcm(q, p q^2)).
    """
    if mu not in (0, 1):
        raise BadParams("mu must be 0 or 1")
    if p == q or not (is_prime(p) and is_prime(q)):
        raise BadParams("p, q must be distinct primes")
    if field is None:
        field = make_field(math.lcm(q, p * q * q))
    field, tau = _resolve_tau(q, tau, field)
    return _presentation(p * q, q, tau, mu, field, c_left=True)


def _presentation(n, q, tau, mu, field, c_left) -> HopfAlgebra:
    """c^n = 1, z^q = mu(1 - c^q), cz = tau zc on the basis c^i z^j, i < n,
    j < q, ordered lexicographically, with Delta(c) = c (x) c and S(c) =
    c^(n-1).  Delta(z) = z (x) 1 + c (x) z and S(z) = -S(c) z when c_left,
    else Delta(z) = z (x) c + 1 (x) z and S(z) = -z S(c).  Delta extends
    multiplicatively and S anti-multiplicatively along the words c^i z^j,
    and the result is certified by both antipode laws.
    """
    dim = n * q

    def idx(i, j):
        return i * q + j

    # z^j c^k = tau^{-jk} c^k z^j and z^q = mu (1 - c^q)
    tau_pow = [tau ** t for t in range(q)]
    mult = {}
    for i in range(n):
        for j in range(q):
            for k in range(n):
                for l in range(q):
                    c = tau_pow[(-j * k) % q]
                    if j + l < q:
                        key = (idx(i, j), idx(k, l), idx((i + k) % n, j + l))
                        mult[key] = mult.get(key, field.zero()) + c
                    elif mu == 1:
                        # z^{j+l} = z^{j+l-q} (1 - c^q); z^q is central
                        r = j + l - q
                        k1 = (idx(i, j), idx(k, l), idx((i + k) % n, r))
                        k2 = (idx(i, j), idx(k, l), idx((i + k + q) % n, r))
                        mult[k1] = mult.get(k1, field.zero()) + c
                        mult[k2] = mult.get(k2, field.zero()) - c
    alg = AssocAlgebra(
        field, dim, Tensor3(field, (dim, dim, dim), mult), unit_vector(field, dim, 0)
    )
    one = field.one()
    c_gen, z_gen = idx(1, 0), idx(0, 1)
    s_c, minus_z = {idx(n - 1, 0): one}, {z_gen: -one}
    if c_left:
        delta_z = {(z_gen, 0): one, (c_gen, z_gen): one}
        s_z = _product(alg, s_c, minus_z)
    else:
        delta_z = {(z_gen, c_gen): one, (0, z_gen): one}
        s_z = _product(alg, minus_z, s_c)
    comult, antipode = _from_generators(
        alg,
        dim,
        gens={c_gen: ({(c_gen, c_gen): one}, s_c), z_gen: (delta_z, s_z)},
        words=[[c_gen] * i + [z_gen] * j for i in range(n) for j in range(q)],
        order=[idx(i, j) for i in range(n) for j in range(q)],
    )
    counit = [one if j == 0 else field.zero() for i in range(n) for j in range(q)]
    h = HopfAlgebra(alg, comult, counit)
    h.antipode = certified_antipode(h, antipode)
    return h


def taft_tensor_group(
    q: int, tau, p: int, field: CycloField | None = None
) -> HopfAlgebra:
    """T_q (x) k[Z_p] on the lexicographic tensor basis; dim p q^2."""
    if not is_prime(p) or not is_prime(q) or p == q:
        raise BadParams("p, q must be distinct primes")
    if field is None:
        field = make_field(math.lcm(q, p * q * q))
    field, tau = _resolve_tau(q, tau, field)
    return tensor_hopf(taft(q, tau, field), group_algebra(p, field))


def _from_generators(alg, dim, gens, words, order):
    """Comultiplication tensor and antipode matrix from generator images.

    gens[g] is (Delta(g), S(g)) as sparse {(j, k): coeff} and {t: coeff}.
    words[t] is a product of generator indices realizing basis element
    order[t] exactly (coefficient 1 in the normal form); Delta extends along
    it multiplicatively and S anti-multiplicatively, S(w_1..w_m) =
    S(w_m)..S(w_1).
    """
    field = alg.field
    one = field.one()
    # (Delta, S) of each prefix walked so far; a word extends its longest one
    known = {(): ({(0, 0): one}, {0: one})}
    entries = {}
    columns = [None] * dim
    for word, target in zip(words, order):
        word = tuple(word)
        cut = len(word)
        while word[:cut] not in known:
            cut -= 1
        delta, s = known[word[:cut]]
        for t in range(cut, len(word)):
            g_delta, g_s = gens[word[t]]
            (delta,) = alg.tensor_square_product(delta, [g_delta])
            s = _product(alg, g_s, s)
            known[word[: t + 1]] = delta, s
        for (j, k), c in delta.items():
            entries[(target, j, k)] = c
        columns[target] = s
    antipode = Matrix.from_columns(
        field, [dense_vector(field, dim, col) for col in columns]
    )
    return Tensor3(field, (dim, dim, dim), entries), antipode


def _product(alg, a: dict, b: dict) -> dict:
    """ab for sparse {index: coeff} vectors, without zeros."""
    out: dict = {}
    for i, c in a.items():
        sparse_sub_scaled(out, -c, alg.basis_times(i, b))
    return out
