"""Every law decided as one residual, against the two-dict loops it replaced.

verify_yd and verify_braided_hopf accumulate lhs - rhs of each identity
into one dict and ask that it vanish.  The reference models below are the
earlier loops, which built a left dict and a right dict and compared them
with zeros dropped; the kernels those loops shared with today's code and
that did not change (module_algebra_failures, antipode_law_failures,
contract_first) are called as they are.  counit_law, whose rows the suites
now read off Tensor3.contract, is kept below as it was.  On every
input and on every seeded one-constant perturbation of it, both must give
the same violations in the same order.

The == comparisons in the suites rest on one rule: contract_first,
basis_times, tensor_square_product and vec_outer never return a zero entry.
The last tests check it on random inputs built so that terms cancel.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.algebra import AssocAlgebra, Report, Violation
from hopfcheck.cyclotomic import make_field
from hopfcheck.dim5 import CASES, build_case
from hopfcheck.hopf import antipode_law_failures
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    dense_vector,
    sparse_vector,
    unit_vector,
    vec_outer,
    vec_scale,
    zero_vector,
)
from hopfcheck.yetter_drinfeld import (
    BraidedHopf,
    YDModule,
    dual_braided,
    module_algebra_failures,
    verify_braided_hopf,
    verify_yd,
)
from test_verify_generators import ref_verify_algebra
from test_yetter_drinfeld import VALID, action_matrices, action_tensor

# --- the reference models: a left dict, a right dict, zeros dropped -----------


def _nonzero(d):
    return {k: v for k, v in d.items() if not v.is_zero()}


def _add(out, key, c):
    out[key] = out[key] + c if key in out else c


def _basis_product(alg, i, j):
    return dense_vector(alg.field, alg.dim, dict(alg.basis_product(i, j)))


def counit_law(rows, counit, leg, i, field, dim) -> bool:
    """Applying counit to tensor leg `leg` (0 or 1) of rows gives back b_i.

    rows lists rho(b_i) as (j, k, coeff); the other leg ranges over a space
    of dimension dim.
    """
    acc = [field.zero()] * dim
    for row in rows:
        e = counit[row[leg]]
        if not e.is_zero():
            k = row[1 - leg]
            acc[k] = acc[k] + e * row[2]
    return tuple(acc) == unit_vector(field, dim, i)


def ref_coassociative(rows, delta_basis, coact_basis):
    left, right = {}, {}
    for j, t, c in rows:
        for a, b, c2 in delta_basis(j):
            _add(left, (a, b, t), c * c2)
        for a, b, c2 in coact_basis(t):
            _add(right, (j, a, b), c * c2)
    return _nonzero(left) == _nonzero(right)


def ref_verify_yd(v):
    report = Report(checks=["module", "comodule", "yd-compatibility"])
    base, field, dim, bdim = v.base, v.field, v.dim, v.base.dim
    action = action_matrices(v)
    unit_action = Matrix.zero(field, dim, dim)
    for i, c in enumerate(base.unit):
        if not c.is_zero():
            unit_action = unit_action + action[i].scale(c)
    if not unit_action.is_identity():
        report.add(Violation("module", ("unit",), "1 . v != v"))
    for i in range(bdim):
        for j in range(bdim):
            composed = action[i] * action[j]
            expected = Matrix.zero(field, dim, dim)
            for k, c in base.algebra.basis_product(i, j):
                expected = expected + action[k].scale(c)
            if composed != expected:
                report.add(Violation("module", (i, j), "action not multiplicative"))
    for i in range(dim):
        rows = v.coact_basis(i)
        if not counit_law(rows, base.counit, 0, i, field, dim):
            report.add(Violation("comodule", (i,), "(eps (x) id) rho != id"))
        if not ref_coassociative(rows, base.delta_basis, v.coact_basis):
            report.add(Violation("comodule", (i,), "coaction not coassociative"))
    if base.antipode is None:
        report.add(Violation("yd-compatibility", (), "base antipode missing"))
        return report
    s_cols = base.antipode.columns()
    acts = [[sparse_vector(col) for col in m.columns()] for m in action]
    for bi in range(bdim):
        triples = base.sweedler_triples(bi)
        for vi in range(dim):
            lhs = v.coact_vec(action[bi].column(vi))
            rhs = {}
            for b1, b2, b3, c in triples:
                for vm1, v0, c2 in v.coact_basis(vi):
                    left_leg = base.algebra.multiply(
                        _basis_product(base.algebra, b1, vm1), s_cols[b3]
                    )
                    for t, x in sparse_vector(left_leg).items():
                        for u, y in acts[b2][v0].items():
                            _add(rhs, (t, u), c * c2 * x * y)
            if _nonzero(lhs) != _nonzero(rhs):
                report.add(
                    Violation("yd-compatibility", (bi, vi), "compatibility fails")
                )
    return report


def ref_comodule_algebra_failures(yd, alg):
    base = yd.base
    unit_lhs = yd.coact_vec(alg.unit)
    if _nonzero(unit_lhs) != _nonzero(vec_outer(base.unit, alg.unit)):
        yield ("unit",)
    for i in range(yd.dim):
        for j in range(yd.dim):
            rhs = {}
            for a1, k1, c1 in yd.coact_basis(i):
                for a2, k2, c2 in yd.coact_basis(j):
                    for t, x in base.algebra.basis_product(a1, a2):
                        for u, y in alg.basis_product(k1, k2):
                            _add(rhs, (t, u), c1 * c2 * x * y)
            lhs = yd.coact_vec(_basis_product(alg, i, j))
            if _nonzero(lhs) != _nonzero(rhs):
                yield (i, j)


def ref_verify_braided_hopf(r):
    report = Report(
        checks=[
            "yd-structure",
            "algebra",
            "coalgebra",
            "module-algebra",
            "comodule-algebra",
            "module-coalgebra",
            "comodule-coalgebra",
            "braided-comult-multiplicative",
            "antipode-law",
            "braided-antipode-antihom",
        ]
    )
    yd, field, dim, base = r.yd, r.field, r.dim, r.base
    for v in ref_verify_yd(yd).violations:
        report.add(Violation("yd-structure", v.location, "%s: %s" % (v.law, v.detail)))
    for v in ref_verify_algebra(r.algebra).violations:
        report.add(Violation("algebra", v.location, "%s: %s" % (v.law, v.detail)))
    for i in range(dim):
        rows = r.delta_basis(i)
        if not (
            counit_law(rows, r.counit, 0, i, field, dim)
            and counit_law(rows, r.counit, 1, i, field, dim)
        ):
            report.add(Violation("coalgebra", (i,), "counit law fails"))
        if not ref_coassociative(rows, r.delta_basis, r.delta_basis):
            report.add(Violation("coalgebra", (i,), "comult not coassociative"))
    for loc in module_algebra_failures(yd, r.algebra):
        detail = "b . 1 != eps(b) 1" if len(loc) == 1 else "not a module algebra"
        report.add(Violation("module-algebra", loc, detail))
    for loc in ref_comodule_algebra_failures(yd, r.algebra):
        detail = "rho(1) != 1 (x) 1" if loc == ("unit",) else "not a comodule algebra"
        report.add(Violation("comodule-algebra", loc, detail))
    action = action_matrices(yd)
    acts = [[sparse_vector(col) for col in m.columns()] for m in action]
    for bi in range(base.dim):
        for i in range(dim):
            acted = action[bi].column(i)
            lhs = r.comult.contract_first(acted)
            rhs = {}
            for b1, b2, c in base.delta_basis(bi):
                for j, k, c2 in r.delta_basis(i):
                    for t, x in acts[b1][j].items():
                        for u, y in acts[b2][k].items():
                            _add(rhs, (t, u), c * c2 * x * y)
            if _nonzero(lhs) != _nonzero(rhs):
                report.add(
                    Violation("module-coalgebra", (bi, i), "Delta not a module map")
                )
            if r.counit_of(acted) != base.counit[bi] * r.counit[i]:
                report.add(
                    Violation("module-coalgebra", (bi, i), "eps not a module map")
                )
    for i in range(dim):
        lhs = {}
        for j, k, c in r.delta_basis(i):
            for a1, t1, c1 in yd.coact_basis(j):
                for a2, t2, c2 in yd.coact_basis(k):
                    for b, x in base.algebra.basis_product(a1, a2):
                        _add(lhs, (b, t1, t2), c * c1 * c2 * x)
        rhs = {}
        for a, t, c in yd.coact_basis(i):
            for j, k, c2 in r.delta_basis(t):
                _add(rhs, (a, j, k), c * c2)
        if _nonzero(lhs) != _nonzero(rhs):
            report.add(
                Violation("comodule-coalgebra", (i,), "Delta not a comodule map")
            )
        eps_leg = list(zero_vector(field, base.dim))
        for a, t, c in yd.coact_basis(i):
            eps_leg[a] = eps_leg[a] + c * r.counit[t]
        if tuple(eps_leg) != vec_scale(r.counit[i], base.unit):
            report.add(Violation("comodule-coalgebra", (i,), "eps not a comodule map"))
    for i in range(dim):
        for j in range(dim):
            lhs = r.comult.contract_first(_basis_product(r.algebra, i, j))
            rhs = {}
            for r1, r2, c in r.delta_basis(i):
                for s1, s2, c2 in r.delta_basis(j):
                    for b, r2_0, c3 in yd.coact_basis(r2):
                        left = r.algebra.multiply(
                            unit_vector(field, dim, r1), action[b].column(s1)
                        )
                        for t, x in sparse_vector(left).items():
                            for u, y in r.algebra.basis_product(r2_0, s2):
                                _add(rhs, (t, u), c * c2 * c3 * x * y)
            if _nonzero(lhs) != _nonzero(rhs):
                report.add(
                    Violation(
                        "braided-comult-multiplicative",
                        (i, j),
                        "Delta(rs) != braided product of Deltas",
                    )
                )
    for i in dict.fromkeys(i for i, _ in antipode_law_failures(r, r.antipode)):
        report.add(Violation("antipode-law", (i,), "convolution law fails"))
    s_cols = r.antipode.columns()
    for i in range(dim):
        for j in range(dim):
            lhs = r.antipode.apply(_basis_product(r.algebra, i, j))
            rhs = list(zero_vector(field, dim))
            for b, r0, c in yd.coact_basis(i):
                term = r.algebra.multiply(action[b].apply(s_cols[j]), s_cols[r0])
                rhs = [x + c * y for x, y in zip(rhs, term)]
            if lhs != tuple(rhs):
                report.add(
                    Violation(
                        "braided-antipode-antihom",
                        (i, j),
                        "S(rs) != (r_-1 . S(s)) S(r_0)",
                    )
                )
    return report


# --- inputs and their one-constant perturbations --------------------------------


BRAIDED = sorted(VALID) + sorted(name + "*" for name in VALID)


def build_braided(name):
    """A fresh braided input; "X*" is dual_braided of X."""
    r = VALID[name.rstrip("*")]()
    return dual_braided(r) if name.endswith("*") else r


def _picks(rng, entries, keys):
    """A seeded key holding a nonzero entry and a seeded key holding none,
    each when there is one; entries maps keys to their nonzero values."""
    nonzero = sorted(entries)
    zero = [key for key in keys if key not in entries]
    return [rng.choice(part) for part in (nonzero, zero) if part]


def _bumped(entries, key, one):
    out = dict(entries)
    out[key] = out[key] + one if key in out else one
    return out


def _matrix_entries(m):
    return {
        (i, j): x
        for i, row in enumerate(m.data)
        for j, x in enumerate(row)
        if not x.is_zero()
    }


def _matrix(field, shape, entries):
    rows, cols = shape
    zero = field.zero()
    return Matrix(
        field, [[entries.get((i, j), zero) for j in range(cols)] for i in range(rows)]
    )


def yd_perturbations(yd, seed):
    """(label, module) for each one-constant change of the action and the
    coaction: a seeded nonzero entry and a seeded zero entry of each."""
    rng = random.Random(seed)
    field, dim, bdim = yd.field, yd.dim, yd.base.dim
    one = field.one()
    out = []
    action = {
        (b, i, j): x
        for b, m in enumerate(action_matrices(yd))
        for (i, j), x in _matrix_entries(m).items()
    }
    keys = [(b, i, j) for b in range(bdim) for i in range(dim) for j in range(dim)]
    for key in _picks(rng, action, keys):
        bumped = _bumped(action, key, one)
        mats = [
            _matrix(field, (dim, dim), {k[1:]: x for k, x in bumped.items() if k[0] == b})
            for b in range(bdim)
        ]
        act = action_tensor(field, mats)
        out.append(("action%r" % (key,), YDModule(yd.base, dim, act, yd.coaction)))
    keys = [(i, b, k) for i in range(dim) for b in range(bdim) for k in range(dim)]
    for key in _picks(rng, yd.coaction.entries, keys):
        rho = Tensor3(field, yd.coaction.dims, _bumped(yd.coaction.entries, key, one))
        out.append(("coaction%r" % (key,), YDModule(yd.base, dim, yd.action, rho)))
    return out


def braided_perturbations(r, seed):
    """(label, braided input) for each one-constant change of the action,
    coaction, mult, comult, counit and antipode."""
    rng = random.Random(seed)
    field, dim = r.field, r.dim
    one = field.one()
    cube = [(i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)]

    def replaced(yd=None, mult=None, comult=None, counit=None, antipode=None):
        return BraidedHopf(
            yd or r.yd,
            mult or r.mult,
            r.unit,
            comult or r.comult,
            counit or r.counit,
            antipode or r.antipode,
        )

    out = [(label, replaced(yd=yd)) for label, yd in yd_perturbations(r.yd, seed)]
    for kind in ("mult", "comult"):
        tensor = getattr(r, kind)
        for key in _picks(rng, tensor.entries, cube):
            new = Tensor3(field, tensor.dims, _bumped(tensor.entries, key, one))
            out.append(("%s%r" % (kind, key), replaced(**{kind: new})))
    counit = sparse_vector(r.counit)
    for key in _picks(rng, counit, range(dim)):
        new = dense_vector(field, dim, _bumped(counit, key, one))
        out.append(("counit[%d]" % key, replaced(counit=new)))
    antipode = _matrix_entries(r.antipode)
    square = [(i, j) for i in range(dim) for j in range(dim)]
    for key in _picks(rng, antipode, square):
        new = _matrix(field, (dim, dim), _bumped(antipode, key, one))
        out.append(("antipode%r" % (key,), replaced(antipode=new)))
    return out


def _same(report, ref):
    assert report.checks == ref.checks
    assert report.violations == ref.violations
    assert report.lines() == ref.lines()


@pytest.mark.parametrize("name", BRAIDED)
def test_braided_suite_matches_reference(name):
    r = build_braided(name)
    assert ref_verify_braided_hopf(r).ok
    _same(verify_braided_hopf(r), ref_verify_braided_hopf(r))
    for label, bad in braided_perturbations(r, name):
        ref = ref_verify_braided_hopf(bad)
        report = verify_braided_hopf(bad)
        assert report.violations == ref.violations, label
        assert report.lines() == ref.lines(), label


def test_perturbations_break_laws():
    """The perturbations reach the converted laws: across the inputs, each
    law of the braided suite but the algebra's fails somewhere."""
    failed = set()
    for name in ("nichols-4", "H4-line", "Z3-over-H4", "nilpotent-line-over-Z2*"):
        for _, bad in braided_perturbations(build_braided(name), name):
            report = verify_braided_hopf(bad)
            failed |= {v.law for v in report.violations}
            failed |= {v.detail.split(":")[0] for v in report.violations}
    assert {
        "module",
        "comodule",
        "yd-compatibility",
        "coalgebra",
        "module-algebra",
        "comodule-algebra",
        "module-coalgebra",
        "comodule-coalgebra",
        "braided-comult-multiplicative",
        "antipode-law",
    } <= failed


@pytest.mark.parametrize("case", CASES)
def test_verify_yd_matches_reference_on_dim5_candidates(case):
    """The candidates live over a polynomial ring; each perturbation adds 1,
    and most of them break a law."""
    yd = build_case(case).yd
    assert ref_verify_yd(yd).ok
    _same(verify_yd(yd), ref_verify_yd(yd))
    perturbed = yd_perturbations(yd, case)
    assert len(perturbed) == 4
    failing = 0
    for label, bad in perturbed:
        ref = ref_verify_yd(bad)
        failing += not ref.ok
        _same(verify_yd(bad), ref)
    assert failing >= 2


# --- the zero-free producers --------------------------------------------------------

Q = make_field(1)
COEFFS = st.sampled_from([-2, -1, 1, 2])


@st.composite
def twinned(draw):
    """(n, classes, table): b_i b_j depends only on the classes of i and j,
    so every product of a basis element with b_i equals the one with any
    b_i' of i's class; opposite coefficients on such twins cancel."""
    n = draw(st.integers(2, 4))
    classes = [draw(st.integers(0, i)) for i in range(n)]
    rows = {}
    for a in set(classes):
        for b in set(classes):
            row = st.dictionaries(st.integers(0, n - 1), COEFFS, max_size=n)
            rows[(a, b)] = draw(row)
    table = {
        (i, j, k): c
        for i in range(n)
        for j in range(n)
        for k, c in rows[(classes[i], classes[j])].items()
    }
    return n, classes, table


def cancelling(draw, keys, class_of):
    """A zero-free {key: coeff} over keys; for a drawn set of classes the
    coefficients of each class sum to zero, so those terms cancel."""
    out = {key: Q.promote(draw(COEFFS)) for key in keys if draw(st.booleans())}
    by_class = {}
    for key in sorted(out):
        by_class.setdefault(class_of(key), []).append(key)
    for members in by_class.values():
        if len(members) > 1 and draw(st.booleans()):
            rest = sum((out[key] for key in members[:-1]), Q.zero())
            if rest.is_zero():
                del out[members[-1]]
            else:
                out[members[-1]] = -rest
    return out


@st.composite
def producer_inputs(draw):
    n, classes, table = draw(twinned())
    alg = AssocAlgebra(Q, n, Tensor3(Q, (n, n, n), table), unit_vector(Q, n, 0))
    pairs = [(j, k) for j in range(n) for k in range(n)]
    vec = cancelling(draw, range(n), lambda i: classes[i])
    tensors = [
        cancelling(draw, pairs, lambda key: (classes[key[0]], classes[key[1]]))
        for _ in range(3)
    ]
    return alg, vec, tensors


def _no_zero(d):
    return all(not x.is_zero() for x in d.values())


def _dense_square_product(alg, a, b):
    out = {}
    for (j1, k1), x in a.items():
        for (j2, k2), y in b.items():
            for s, m in alg.basis_product(j1, j2):
                for t, w in alg.basis_product(k1, k2):
                    _add(out, (s, t), x * y * m * w)
    return _nonzero(out)


@settings(max_examples=150, deadline=None)
@given(producer_inputs())
def test_producers_return_no_zero(case):
    alg, vec, (a, *bs) = case
    n = alg.dim
    dense = dense_vector(Q, n, vec)
    got = alg.mult.contract_first(dense)
    assert _no_zero(got)
    expected = {}
    for (i, j, k), c in alg.mult.entries.items():
        if i in vec:
            _add(expected, (j, k), vec[i] * c)
    assert got == _nonzero(expected)
    for i in range(n):
        for right in (False, True):
            got = alg.basis_times(i, vec, right=right)
            assert _no_zero(got)
            e = unit_vector(Q, n, i)
            prod = alg.multiply(dense, e) if right else alg.multiply(e, dense)
            assert got == sparse_vector(prod)
    squares = alg.tensor_square_product(a, bs)
    assert len(squares) == len(bs)
    for b, got in zip(bs, squares):
        assert _no_zero(got)
        assert got == _dense_square_product(alg, a, b)
    outer = vec_outer(dense, dense_vector(Q, n, vec))
    assert _no_zero(outer)
    assert len(outer) == len(vec) ** 2


def test_twins_cancel_completely():
    """On twins with opposite coefficients every producer returns {}."""
    n = 2
    table = Tensor3(Q, (n, n, n), {(i, j, 0): 1 for i in range(n) for j in range(n)})
    alg = AssocAlgebra(Q, n, table, unit_vector(Q, n, 0))
    one = Q.one()
    vec = {0: one, 1: -one}
    assert alg.mult.contract_first(dense_vector(Q, n, vec)) == {}
    assert alg.basis_times(0, vec) == {}
    assert alg.basis_times(0, vec, right=True) == {}
    a = {(0, 0): one}
    b = {(0, 0): one, (1, 0): -one}
    assert alg.tensor_square_product(a, [b, a]) == [{}, {(0, 0): one}]
