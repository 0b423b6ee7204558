"""Every integral against the incremental route it replaced.

hopf.integral_line reads each integral off a structure tensor as one sparse
kernel.  The oracle below is the earlier route: one dense constraint block
per basis element, imposed one after another by ref_common_kernel.  For H
the blocks are L_{b_i} - eps_i I (left integrals of H) and
lam -> (lam (x) id)Delta(b_i) - lam_i 1 (right integrals of H*); for a
braided Hopf algebra R the first becomes R_{b_i} - eps_i I.  lam is then
scaled so lam(Lambda) = 1 when that pairing is nonzero.  Both routes must
return the same vectors, and on degenerate inputs the same
DegenerateIntegral message.

Inputs: A(p,0), A(p,1), T2 (x) k[Z_p] and their duals at p = 3, 5, 7;
Sweedler, k[Z6], Taft T3 and A(3,1) in dense bases; R and R* for the
braided lines of test_yetter_drinfeld and for k[Z3] over H4; monoid bialgebras k[M] and their duals, whose
integral spaces have dimension 0 or 2.
"""

import random

import pytest

from hopfcheck import hopf
from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import make_field
from hopfcheck.families import a_tau_mu, group_algebra, sweedler, taft, taft_tensor_group
from hopfcheck.hopf import DegenerateIntegral, HopfAlgebra, dual
from hopfcheck.linalg import Matrix, Tensor3, unit_vector, vec_dot, vec_scale
from hopfcheck.yetter_drinfeld import (
    BraidedHopf,
    braided_integrals,
    dual_braided,
    ordinary_to_braided,
    trivial_yd,
)
from test_basis_independence import dense_columns
from test_hopf import without_antipode
from test_sparse_kernels import ref_common_kernel
from test_verify_generators import transport
from test_yetter_drinfeld import G, h4_line, nichols_line

Q = make_field(1)


def ref_integral_line(blocks, field, dim, message):
    space = ref_common_kernel(blocks, dim, field)
    if len(space) != 1:
        raise DegenerateIntegral(message % len(space))
    return space[0]


def ref_integral_pair(h, right, messages):
    """(Lambda, lam) by the incremental route; h is a HopfAlgebra (right
    False) or a BraidedHopf (right True)."""
    field, dim = h.field, h.dim
    slot = 1 if right else 0
    basis = [unit_vector(field, dim, i) for i in range(dim)]
    mult_blocks = [
        h.algebra.mult.contract(slot, basis[i]).transpose()
        - Matrix.identity(field, dim).scale(h.counit[i])
        for i in range(dim)
    ]
    big = ref_integral_line(mult_blocks, field, dim, messages[0])
    # column j of the block is (f_j (x) id)Delta(b_i) - f_j(b_i) 1
    zero = (field.zero(),) * dim
    dual_blocks = [
        h.comult.contract(0, basis[i]).transpose()
        - Matrix.from_columns(field, [h.unit if j == i else zero for j in range(dim)])
        for i in range(dim)
    ]
    lam = ref_integral_line(dual_blocks, field, dim, messages[1])
    pairing = vec_dot(lam, big, field)
    if not pairing.is_zero():
        lam = vec_scale(pairing.inverse(), lam)
    return big, lam


HOPF_MESSAGES = (
    "left integral space has dimension %d",
    "right dual integral space has dimension %d",
)
BRAIDED_MESSAGES = (
    "right integral space of R has dimension %d",
    "right integral space of R* has dimension %d",
)


def family_inputs():
    out = {}
    for p in (3, 5, 7):
        for name, build in (
            ("A(%d,0)" % p, lambda: a_tau_mu(p, 2, -1, 0)),
            ("A(%d,1)" % p, lambda: a_tau_mu(p, 2, -1, 1)),
            ("T2xk[Z%d]" % p, lambda: taft_tensor_group(2, -1, p)),
        ):
            h = build()
            out[name] = h
            out[name + "*"] = dual(h)
    return out


def dense_inputs():
    """Small Hopf algebras moved to dense bases (fixed seeds)."""
    builds = {
        "sweedler": sweedler,
        "k[Z6]": lambda: group_algebra(6),
        "T3": lambda: taft(3, make_field(3).zeta()),
        "A(3,1)": lambda: a_tau_mu(3, 2, -1, 1),
    }
    out = {}
    for name, build in builds.items():
        for seed in (1, 2):
            h = build()
            rng = random.Random(seed)
            perm = list(range(h.dim))
            rng.shuffle(perm)
            cols = dense_columns(h.field, perm, lambda: rng.choice((-1, 0, 1)))
            out["%s@%d" % (name, seed)] = transport(h, cols)
    return out


def monoid(kind):
    """k[M] for M = {1, a, b} with a, b a left-zero (yz = y) or right-zero
    (yz = z) semigroup: a bialgebra with group-like basis, not Hopf.  Its
    left integrals have dimension 2 (right-zero) or 0 (left-zero)."""
    entries = {(0, j, j): 1 for j in range(3)}
    for y in (1, 2):
        entries[(y, 0, y)] = 1
        for z in (1, 2):
            entries[(y, z, y if kind == "left-zero" else z)] = 1
    alg = AssocAlgebra(Q, 3, Tensor3(Q, (3, 3, 3), entries), unit_vector(Q, 3, 0))
    comult = Tensor3(Q, (3, 3, 3), {(i, i, i): 1 for i in range(3)})
    return HopfAlgebra(alg, comult, [Q.one()] * 3)


def monoid_dual(kind):
    """The dual bialgebra of monoid(kind): functions on M."""
    h = monoid(kind)
    return HopfAlgebra(hopf.dual_algebra(h), h.algebra.mult.permuted((2, 0, 1)), h.unit)


def braided_from(h):
    """h as a braided Hopf algebra over k with the trivial Yetter-Drinfeld
    structure; the antipode slot holds the identity."""
    base = group_algebra(1, h.field)
    return BraidedHopf(
        trivial_yd(base, h.dim),
        h.algebra.mult,
        h.unit,
        h.comult,
        h.counit,
        Matrix.identity(h.field, h.dim),
    )


HOPF_INPUTS = {**family_inputs(), **dense_inputs()}


@pytest.mark.parametrize("name", sorted(HOPF_INPUTS))
def test_hopf_integral_pair_matches_the_incremental_route(name):
    h = HOPF_INPUTS[name]
    expected = ref_integral_pair(h, False, HOPF_MESSAGES)
    assert hopf._integral_pair(without_antipode(h)) == expected


BRAIDED_INPUTS = {
    "nichols-3": lambda: nichols_line(3),
    "nichols-4": lambda: nichols_line(4),
    "nichols-5": lambda: nichols_line(5),
    "H4-line": lambda: h4_line(G),
    "k[Z3] over H4": lambda: ordinary_to_braided(
        group_algebra(3, make_field(12)), sweedler(make_field(12))
    ),
}


@pytest.mark.parametrize("name", sorted(BRAIDED_INPUTS))
@pytest.mark.parametrize("dualized", (False, True))
def test_braided_integrals_match_the_incremental_route(name, dualized):
    r = BRAIDED_INPUTS[name]()
    if dualized:
        r = dual_braided(r)
    got = braided_integrals(r)
    expected = ref_integral_pair(r, True, BRAIDED_MESSAGES)
    assert (got.right_integral, got.dual_right_integral) == expected


DEGENERATE = {
    "k[left-zero]": (lambda: monoid("left-zero"), "left integral space has dimension 0"),
    "k[right-zero]": (lambda: monoid("right-zero"), "left integral space has dimension 2"),
    "k[left-zero]*": (
        lambda: monoid_dual("left-zero"),
        "right dual integral space has dimension 2",
    ),
    "k[right-zero]*": (
        lambda: monoid_dual("right-zero"),
        "right dual integral space has dimension 0",
    ),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_hopf_inputs_raise_the_same_message(name):
    build, message = DEGENERATE[name]
    with pytest.raises(DegenerateIntegral) as ref:
        ref_integral_pair(build(), False, HOPF_MESSAGES)
    with pytest.raises(DegenerateIntegral) as got:
        hopf._integral_pair(build())
    assert str(got.value) == str(ref.value) == message


BRAIDED_DEGENERATE = {
    "k[left-zero]": (lambda: monoid("left-zero"), "of R has dimension 2"),
    "k[right-zero]": (lambda: monoid("right-zero"), "of R has dimension 0"),
    "k[left-zero]*": (lambda: monoid_dual("left-zero"), "of R* has dimension 2"),
    "k[right-zero]*": (lambda: monoid_dual("right-zero"), "of R* has dimension 0"),
}


@pytest.mark.parametrize("name", sorted(BRAIDED_DEGENERATE))
def test_degenerate_braided_inputs_raise_the_same_message(name):
    build, tail = BRAIDED_DEGENERATE[name]
    r = braided_from(build())
    with pytest.raises(DegenerateIntegral) as ref:
        ref_integral_pair(r, True, BRAIDED_MESSAGES)
    with pytest.raises(DegenerateIntegral) as got:
        braided_integrals(r)
    assert str(got.value) == str(ref.value) == "right integral space " + tail
