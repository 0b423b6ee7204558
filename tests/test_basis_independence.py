"""No answer depends on the basis: transport of structure as an oracle.

Each input is moved to a random basis P, either (permutation) (a few
integer shears) or, at dimension <= 6, a dense (permutation) U L with U
upper and L lower unitriangular; P and its inverse are integral, and only
bases that move the unit off index 0 are kept.  In the new basis
solve_antipode on the stripped structure returns the transported antipode
P^-1 S P, verify_hopf passes, and |G(H)|, Tr(S^2), the skew profiles of H
and H* and (at dimension 12) the classify_4p label are those of the
original.  A fixed dense basis of A(3,1), where almost every structure
constant is nonzero, checks verify_hopf, solve_antipode and the same
invariants at dimension 12.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfcheck.families import a_tau_mu, group_algebra, sweedler, taft_tensor_group
from hopfcheck.hopf import (
    HopfAlgebra,
    classify_4p,
    dual,
    group_likes,
    skew_profile,
    solve_antipode,
    trace_s2,
    verify_hopf,
)
from hopfcheck.linalg import Matrix, unit_vector
from test_verify_generators import transport

INPUTS = {
    "sweedler": sweedler,
    "A(3,0)": lambda: a_tau_mu(3, 2, -1, 0),
    "A(3,1)": lambda: a_tau_mu(3, 2, -1, 1),
    "k[Z6]": lambda: group_algebra(6),
    "T2xk[Z3]": lambda: taft_tensor_group(2, -1, 3),
}

_INVARIANTS: dict = {}


def invariants(h):
    """|G(H)|, Tr(S^2), the skew profiles of H and H* and, at dimension 12,
    the classify_4p label."""
    label = classify_4p(h) if h.dim == 12 else None
    profiles = skew_profile(h), skew_profile(dual(h))
    return len(group_likes(h).elements), trace_s2(h), profiles, label


def original(name):
    """The input in its own basis and its invariants, computed once."""
    if name not in _INVARIANTS:
        h = INPUTS[name]()
        _INVARIANTS[name] = invariants(h)
    return INPUTS[name](), _INVARIANTS[name]


@st.composite
def unimodular_columns(draw, dim, field):
    """The columns of (permutation) (I + a few strictly upper integer
    entries): an integer matrix of determinant +-1 with an integer inverse.

    A few shears keep the structure constants sparse, so the invariants
    stay cheap at dimension 12; dense_columns makes dense ones.
    """
    perm = draw(st.permutations(range(dim)))
    data = [[int(perm[i] == j) for j in range(dim)] for i in range(dim)]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, dim - 2))
        j = draw(st.integers(i + 1, dim - 1))
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        for row in data:  # column j += c * column i
            row[j] += c * row[i]
    return Matrix(field, data).columns()


def dense_columns(field, perm, pick):
    """The columns of (permutation) U L, with U upper and L lower
    unitriangular and each off-diagonal entry pick() in {-1, 0, 1}: an
    integer matrix of determinant +-1 with an integer inverse, and in
    general dense structure constants."""
    dim = len(perm)

    def triangle(upper):
        return Matrix(field, [
            [1 if i == j else pick() if (j > i) == upper else 0 for j in range(dim)]
            for i in range(dim)
        ])

    swap = Matrix(field, [[int(perm[i] == j) for j in range(dim)] for i in range(dim)])
    return (swap * triangle(True) * triangle(False)).columns()


@st.composite
def moved_inputs(draw):
    name = draw(st.sampled_from(sorted(INPUTS)))
    h, expected = original(name)
    if h.dim <= 6 and draw(st.booleans()):
        perm = draw(st.permutations(range(h.dim)))
        entries = st.sampled_from((-1, 0, 1))
        cols = dense_columns(h.field, perm, lambda: draw(entries))
    else:
        cols = draw(unimodular_columns(h.dim, h.field))
    moved = transport(h, cols)
    assume(tuple(moved.unit) != unit_vector(h.field, h.dim, 0))
    return name, moved, expected


@settings(max_examples=40, deadline=None)
@given(moved_inputs())
def test_answers_do_not_depend_on_the_basis(case):
    name, h, expected = case
    stripped = HopfAlgebra(h.algebra, h.comult, h.counit)
    assert solve_antipode(stripped) == h.antipode, name
    assert verify_hopf(h).ok, name
    assert invariants(h) == expected, name


def dense_a31():
    """A(3,1) moved by a fixed dense P (random.Random(1))."""
    h = INPUTS["A(3,1)"]()
    rng = random.Random(1)
    perm = list(range(h.dim))
    rng.shuffle(perm)
    return transport(h, dense_columns(h.field, perm, lambda: rng.choice((-1, 0, 1))))


def test_dense_basis_of_a31():
    """A(3,1) in a dense basis (almost every comultiplication constant is
    nonzero) verifies, its antipode solves to P^-1 S P, and its invariants
    are those of A(3,1)."""
    moved = dense_a31()
    assert len(moved.comult.entries) > moved.dim**3 // 2
    assert verify_hopf(moved).ok
    stripped = HopfAlgebra(moved.algebra, moved.comult, moved.counit)
    assert solve_antipode(stripped) == moved.antipode
    assert invariants(moved) == original("A(3,1)")[1]
