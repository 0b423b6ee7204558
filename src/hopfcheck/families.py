"""Exact structure-constant builders for the named finite-dimensional
Hopf algebra families: cyclic group algebras, Taft algebras (Sweedler's
algebra as the q = 2 case), the pq^2-dimensional family A(tau, mu), and the
Taft (x) group-algebra tensor family.

Conventions, fixed once: Taft relation g x = tau x g (tau = -1 recovers
g x = -x g), and a y = tau y a so that y a^i = tau^{-i} a^i y.  Normal-form
bases are ordered lexicographically (g^i x^j and a^i y^j).  Default working
field for a family of dimension d with parameter in mu_q is Q(zeta_lcm(q, d))
so group-like searches over the constructed object are complete.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import CycloField, FieldElement, embed, is_prime, make_field
from hopfcheck.hopf import HopfAlgebra, solve_antipode, tensor_hopf
from hopfcheck.linalg import Matrix, Tensor3, unit_vector


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
    Delta(x) = x (x) g + 1 (x) x; the antipode is solved, not postulated.
    """
    if q < 2:
        raise BadParams("Taft algebras need q >= 2")
    field, tau = _resolve_tau(q, tau, field)
    dim = q * q

    def idx(i, j):
        return i * q + j

    # x^j g^k = tau^{-jk} g^k x^j, so (g^i x^j)(g^k x^l) = tau^{-jk} g^{i+k} x^{j+l}
    tau_pow = [tau ** t for t in range(q)]
    mult = {}
    for i in range(q):
        for j in range(q):
            for k in range(q):
                for l in range(q):
                    if j + l < q:
                        c = tau_pow[(-j * k) % q]
                        mult[(idx(i, j), idx(k, l), idx((i + k) % q, j + l))] = c
    alg = AssocAlgebra(
        field, dim, Tensor3(field, (dim, dim, dim), mult), unit_vector(field, dim, 0)
    )
    comult = _comult_from_generators(
        alg,
        dim,
        gens={
            idx(1, 0): {(idx(1, 0), idx(1, 0)): field.one()},
            idx(0, 1): {
                (idx(0, 1), idx(1, 0)): field.one(),
                (idx(0, 0), idx(0, 1)): field.one(),
            },
        },
        words=[
            [idx(1, 0)] * i + [idx(0, 1)] * j
            for i in range(q)
            for j in range(q)
        ],
        order=[idx(i, j) for i in range(q) for j in range(q)],
    )
    counit = [field.one() if j == 0 else field.zero() for i in range(q) for j in range(q)]
    h = HopfAlgebra(alg, comult, counit)
    h.antipode = solve_antipode(h)
    return h


def sweedler(field: CycloField | None = None) -> HopfAlgebra:
    """The 4-dimensional algebra with g^2 = 1, x^2 = 0, gx = -xg, over Q."""
    return taft(2, -1, field)


def a_tau_mu(p: int, q: int, tau, mu: int, field: CycloField | None = None) -> HopfAlgebra:
    """The pq^2-dimensional family: a^{pq} = 1, y^q = mu(1 - a^q), ay = tau ya.

    Basis a^i y^j, i < pq, j < q, ordered lexicographically.  Delta(a) =
    a (x) a and Delta(y) = y (x) 1 + a (x) y extend multiplicatively; the
    antipode is solved.  Default field Q(zeta_lcm(q, p q^2)).
    """
    if mu not in (0, 1):
        raise BadParams("mu must be 0 or 1")
    if p == q or not (is_prime(p) and is_prime(q)):
        raise BadParams("p, q must be distinct primes")
    if field is None:
        field = make_field(math.lcm(q, p * q * q))
    field, tau = _resolve_tau(q, tau, field)
    n = p * q
    dim = p * q * q

    def idx(i, j):
        return i * q + j

    # y^j a^k = tau^{-jk} a^k y^j and y^q = mu (1 - a^q)
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
                        # y^{j+l} = y^{j+l-q} (1 - a^q); y^q is central
                        r = j + l - q
                        k1 = (idx(i, j), idx(k, l), idx((i + k) % n, r))
                        k2 = (idx(i, j), idx(k, l), idx((i + k + q) % n, r))
                        mult[k1] = mult.get(k1, field.zero()) + c
                        mult[k2] = mult.get(k2, field.zero()) - c
    alg = AssocAlgebra(
        field, dim, Tensor3(field, (dim, dim, dim), mult), unit_vector(field, dim, 0)
    )
    comult = _comult_from_generators(
        alg,
        dim,
        gens={
            idx(1, 0): {(idx(1, 0), idx(1, 0)): field.one()},
            idx(0, 1): {
                (idx(0, 1), idx(0, 0)): field.one(),
                (idx(1, 0), idx(0, 1)): field.one(),
            },
        },
        words=[
            [idx(1, 0)] * i + [idx(0, 1)] * j
            for i in range(n)
            for j in range(q)
        ],
        order=[idx(i, j) for i in range(n) for j in range(q)],
    )
    counit = [
        field.one() if j == 0 else field.zero() for i in range(n) for j in range(q)
    ]
    h = HopfAlgebra(alg, comult, counit)
    h.antipode = solve_antipode(h)
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


def _comult_from_generators(alg, dim, gens, words, order):
    """Comultiplication tensor from generator images, extended along words.

    words[t] is a product of generator indices realizing basis element
    order[t] exactly (coefficient 1 in the normal form).
    """
    field = alg.field
    one_delta = {(0, 0): field.one()}
    entries = {}
    for word, target in zip(words, order):
        acc = one_delta
        for g in word:
            acc = alg.tensor_square_product(acc, gens[g])
        for (j, k), c in acc.items():
            entries[(target, j, k)] = c
    return Tensor3(field, (dim, dim, dim), entries)
