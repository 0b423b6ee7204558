"""The generator shortcuts of the verifiers and invariants against full loops.

verify_algebra decides associativity on the rows of algebra generators,
and verify_hopf decides associativity, coassociativity and
Delta(ab) = Delta(a)Delta(b) on the generator rows of H or H*; each reruns
the full loops on any failure.  The reference model below is those loops,
written out on their own: on every input, perturbed or not, both must give
the same violations in the same order.

ideal_closure and characters work on generators too, and _is_character on
the nonzero rows of the table; each has a full-loop reference at the end of
this file, as does skew_primitives, which solves the full system.  Ideals
and characters assume an associative algebra, so on a perturbed one that is
not associative only the containments they promise are checked.
"""

import functools
import random

import pytest

from hopfcheck import algebra, hopf
from hopfcheck.algebra import (
    AssocAlgebra,
    Report,
    Violation,
    _is_character,
    _restrict,
    algebra_generators,
    characters,
    ideal_closure,
    radical,
    verify_algebra,
)
from hopfcheck.cyclotomic import factor_unipoly, make_field
from hopfcheck.families import a_tau_mu, group_algebra, sweedler, taft_tensor_group
from hopfcheck.hopf import (
    HopfAlgebra,
    dual,
    dual_algebra,
    group_likes,
    skew_primitives,
    skew_profile,
    trace_s2,
    verify_hopf,
)
from hopfcheck.linalg import (
    Matrix,
    Tensor3,
    dense_vector,
    row_space_basis,
    sparse_vector,
    unit_vector,
    vec_is_zero,
    vec_outer,
    vec_scale,
    vec_sub,
)
from test_sparse_kernels import (
    RefEchelonBasis,
    ref_minimal_polynomial,
    ref_quotient_algebra,
)

# --- the reference model: every law on every basis element/pair/triple ---------


def ref_verify_algebra(alg):
    report = Report(checks=["unit", "associativity"])
    dim, field = alg.dim, alg.field
    table = alg.mult.by_ij()
    zero = field.zero()
    for i in range(dim):
        e = unit_vector(field, dim, i)
        if alg.multiply(alg.unit, e) != e:
            report.add(Violation("unit", (i,), "1*b != b"))
        if alg.multiply(e, alg.unit) != e:
            report.add(Violation("unit", (i,), "b*1 != b"))
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left, right = {}, {}
                for t, c in table.get((i, j), ()):
                    for s, m in table.get((t, k), ()):
                        left[s] = left.get(s, zero) + c * m
                for t, c in table.get((j, k), ()):
                    for s, m in table.get((i, t), ()):
                        right[s] = right.get(s, zero) + c * m
                if _nonzero(left) != _nonzero(right):
                    report.add(Violation("associativity", (i, j, k), "(ab)c != a(bc)"))
    return report


def _nonzero(d):
    return {k: v for k, v in d.items() if not v.is_zero()}


def _add(out, key, c):
    out[key] = out.get(key, c.field.zero()) + c


def ref_verify_hopf(h):
    report = Report(checks=list(hopf._CHECK_ORDER))
    for v in ref_verify_algebra(h.algebra).violations:
        report.add(v)
    dim, field = h.dim, h.field
    alg = h.algebra
    table = alg.mult.by_ij()
    delta = [{} for _ in range(dim)]
    for (i, j, k), c in h.comult.entries.items():
        delta[i][(j, k)] = c
    for i in range(dim):
        left, right = {}, {}
        for (j, t), c in delta[i].items():
            for (a, b), c2 in delta[j].items():
                _add(left, (a, b, t), c * c2)
            for (a, b), c2 in delta[t].items():
                _add(right, (j, a, b), c * c2)
        if _nonzero(left) != _nonzero(right):
            report.add(Violation("coassociativity", (i,), "(D(x)id)D != (id(x)D)D"))
        for leg, detail in ((0, "(eps(x)id)D != id"), (1, "(id(x)eps)D != id")):
            acc = [field.zero()] * dim
            for key, c in delta[i].items():
                acc[key[1 - leg]] = acc[key[1 - leg]] + h.counit[key[leg]] * c
            if tuple(acc) != unit_vector(field, dim, i):
                report.add(Violation("counit", (i,), detail))
    unit_delta = {}
    for i, u in enumerate(h.unit):
        for key, c in delta[i].items():
            _add(unit_delta, key, u * c)
    outer = {(j, k): x * y for j, x in enumerate(h.unit) for k, y in enumerate(h.unit)}
    if _nonzero(unit_delta) != _nonzero(outer):
        report.add(Violation("comult-algebra-map", ("unit",), "D(1) != 1(x)1"))
    eps_unit = sum((e * u for e, u in zip(h.counit, h.unit)), field.zero())
    if not eps_unit.is_one():
        report.add(Violation("counit-algebra-map", ("unit",), "eps(1) != 1"))
    for i in range(dim):
        for j in range(dim):
            prod = alg.multiply(unit_vector(field, dim, i), unit_vector(field, dim, j))
            lhs = {}
            for k, c in enumerate(prod):
                for key, c2 in delta[k].items():
                    _add(lhs, key, c * c2)
            rhs = {}
            for (a, c), x in delta[i].items():
                for (b, d), y in delta[j].items():
                    for s, m in table.get((a, b), ()):
                        for t, n in table.get((c, d), ()):
                            _add(rhs, (s, t), x * y * m * n)
            if _nonzero(lhs) != _nonzero(rhs):
                report.add(Violation("comult-algebra-map", (i, j), "D(ab) != D(a)D(b)"))
            eps = sum((c * e for c, e in zip(prod, h.counit)), field.zero())
            if eps != h.counit[i] * h.counit[j]:
                report.add(
                    Violation("counit-algebra-map", (i, j), "eps(ab) != eps(a)eps(b)")
                )
    if h.antipode is None:
        report.add(Violation("antipode-left", (), "antipode missing"))
        report.add(Violation("antipode-right", (), "antipode missing"))
        return report
    cols = h.antipode.columns()
    for i in range(dim):
        left = [field.zero()] * dim
        right = [field.zero()] * dim
        for (j, k), c in delta[i].items():
            lt = alg.multiply(cols[j], unit_vector(field, dim, k))
            rt = alg.multiply(unit_vector(field, dim, j), cols[k])
            left = [x + c * y for x, y in zip(left, lt)]
            right = [x + c * y for x, y in zip(right, rt)]
        target = tuple(h.counit[i] * u for u in h.unit)
        if tuple(left) != target:
            report.add(Violation("antipode-left", (i,), "m(S(x)id)D != u.eps"))
        if tuple(right) != target:
            report.add(Violation("antipode-right", (i,), "m(id(x)S)D != u.eps"))
    return report


# --- inputs ------------------------------------------------------------------------


def transport(h, p_cols, algebra=True, coalgebra=True):
    """h in the basis given by the columns of P (old coordinates).

    With algebra or coalgebra False that side keeps its old constants, which
    is how a coalgebra (or algebra) is moved along a map psi alone.
    """
    field, dim = h.field, h.dim
    p = Matrix.from_columns(field, p_cols)
    pinv = p.inverse()
    new = [p.column(i) for i in range(dim)]
    mult, unit = h.algebra.mult, h.unit
    if algebra:
        entries = {}
        for i in range(dim):
            for j in range(dim):
                prod = pinv.apply(h.algebra.multiply(new[i], new[j]))
                for k, c in enumerate(prod):
                    if not c.is_zero():
                        entries[(i, j, k)] = c
        mult = Tensor3(field, (dim, dim, dim), entries)
        unit = pinv.apply(h.unit)
    comult, counit = h.comult, h.counit
    if coalgebra:
        entries = {}
        for i in range(dim):
            d = h.delta_vec(new[i])
            img = {}
            for (j, k), c in d.items():
                for a, x in enumerate(pinv.column(j)):
                    for b, y in enumerate(pinv.column(k)):
                        if not (x.is_zero() or y.is_zero()):
                            _add(img, (i, a, b), c * x * y)
            entries.update(_nonzero(img))
        comult = Tensor3(field, (dim, dim, dim), entries)
        counit = tuple(h.counit_of(v) for v in new)
    antipode = h.antipode
    if algebra and coalgebra and antipode is not None:
        antipode = pinv * antipode * p
    return HopfAlgebra(AssocAlgebra(field, dim, mult, unit), comult, counit, antipode)


def scrambled_sweedler():
    """Sweedler's algebra with the unit moved off index 0 by an integer P."""
    h = sweedler()
    one, zero, two = h.field.one(), h.field.zero(), h.field.from_rational(2)
    cols = [
        (zero, one, zero, zero),
        (one, zero, two, zero),
        (zero, zero, one, one),
        (one, zero, zero, one),
    ]
    return transport(h, cols)


FAMILIES = {
    "sweedler": sweedler,
    "A(3,0)": lambda: a_tau_mu(3, 2, -1, 0),
    "A(3,1)": lambda: a_tau_mu(3, 2, -1, 1),
    "T2xk[Z3]": lambda: taft_tensor_group(2, -1, 3),
}


def build(name):
    """A fresh input (no caches shared between tests); "X*" is X's dual."""
    if name == "scrambled-sweedler":
        return scrambled_sweedler()
    h = FAMILIES[name.rstrip("*")]()
    return dual(h) if name.endswith("*") else h


INPUTS = sorted(FAMILIES) + sorted(n + "*" for n in FAMILIES) + ["scrambled-sweedler"]


def _bump(field, value):
    return value + field.one()


def perturbations(h, seed):
    """One structure constant changed at a time: mult, comult, unit, counit.

    For each tensor, a seeded nonzero entry and a seeded zero entry; for
    unit and counit, one seeded coordinate.
    """
    rng = random.Random(seed)
    field, dim = h.field, h.dim
    out = []
    for kind, tensor in (("mult", h.algebra.mult), ("comult", h.comult)):
        keys = sorted(tensor.entries)
        picks = [rng.choice(keys)]
        while True:
            key = tuple(rng.randrange(dim) for _ in range(3))
            if key not in tensor.entries:
                picks.append(key)
                break
        for key in picks:
            entries = dict(tensor.entries)
            entries[key] = _bump(field, entries.get(key, field.zero()))
            new = Tensor3(field, tensor.dims, entries)
            if kind == "mult":
                alg, comult = AssocAlgebra(field, dim, new, h.unit), h.comult
            else:
                alg, comult = h.algebra, new
            bad = HopfAlgebra(alg, comult, h.counit, h.antipode)
            out.append(("%s%r" % (kind, key), bad))
    t = rng.randrange(dim)
    unit = list(h.unit)
    unit[t] = _bump(field, unit[t])
    alg = AssocAlgebra(field, dim, h.algebra.mult, unit)
    out.append(("unit[%d]" % t, HopfAlgebra(alg, h.comult, h.counit, h.antipode)))
    counit = list(h.counit)
    t = rng.randrange(dim)
    counit[t] = _bump(field, counit[t])
    out.append(("counit[%d]" % t, HopfAlgebra(h.algebra, h.comult, counit, h.antipode)))
    return out


def _same(report, ref):
    assert report.checks == ref.checks
    assert report.violations == ref.violations
    assert report.lines() == ref.lines()


@pytest.mark.parametrize("name", INPUTS)
def test_unperturbed_input_matches_reference(name):
    h = build(name)
    ref = ref_verify_hopf(h)
    assert ref.ok
    _same(verify_hopf(h), ref)
    _same(verify_algebra(h.algebra), ref_verify_algebra(h.algebra))


@pytest.mark.parametrize("name", INPUTS)
def test_one_perturbed_constant_matches_reference(name):
    h = build(name)
    for label, bad in perturbations(h, name):
        ref = ref_verify_hopf(bad)
        assert not ref.ok, label
        _same(verify_hopf(bad), ref)
        _same(verify_algebra(bad.algebra), ref_verify_algebra(bad.algebra))


def moved(h, side):
    """h with one side ("algebra" or "coalgebra") moved along psi = id + E_ts,
    b_s -> b_s + b_t, where unit[s] = 0 and eps(b_t) = 0: psi fixes 1 and
    eps, so each side keeps its own laws, Delta(1) = 1 (x) 1 and eps(ab) =
    eps(a)eps(b)."""
    field, dim = h.field, h.dim
    s = next(i for i in range(1, dim) if h.unit[i].is_zero())
    t = next(i for i in range(dim) if i != s and h.counit[i].is_zero())
    cols = [unit_vector(field, dim, i) for i in range(dim)]
    cols[s] = tuple(x + y for x, y in zip(cols[s], unit_vector(field, dim, t)))
    return transport(
        h, cols, algebra=side == "algebra", coalgebra=side == "coalgebra"
    )


@pytest.mark.parametrize("name", ["sweedler", "A(3,1)", "A(3,1)*", "T2xk[Z3]*"])
@pytest.mark.parametrize("side", ["coalgebra", "algebra"])
def test_only_compatibility_fails(name, side):
    """Every law before compatibility holds, so the generator rows run,
    fail, and the per-pair loop reports."""
    bad = moved(build(name), side)
    ref = ref_verify_hopf(bad)
    laws = {v.law for v in ref.violations}
    assert "comult-algebra-map" in laws
    assert not laws & {"associativity", "unit", "coassociativity", "counit",
                       "counit-algebra-map"}
    _same(verify_hopf(bad), ref)


def transpose(h):
    """(H*, H) structure without an antipode: m and Delta swap roles."""
    alg = AssocAlgebra(h.field, h.dim, h.comult.permuted((1, 2, 0)), h.counit)
    return HopfAlgebra(alg, h.algebra.mult.permuted((2, 0, 1)), h.unit)


def grouplike_coalgebra(h, cols):
    """h's algebra with the coalgebra whose group-likes are the given vectors.

    Coassociative and counital for any basis `cols`; eps is 1 on each.
    """
    field, dim = h.field, h.dim
    inv = Matrix.from_columns(field, cols).inverse()
    entries, counit = {}, []
    for k in range(dim):
        img = {}
        for i, g in enumerate(cols):
            c = inv.data[i][k]
            for a, x in enumerate(g):
                for b, y in enumerate(g):
                    if not (c.is_zero() or x.is_zero() or y.is_zero()):
                        _add(img, (k, a, b), c * x * y)
        entries.update(_nonzero(img))
        counit.append(sum(inv.column(k), field.zero()))
    return HopfAlgebra(h.algebra, Tensor3(field, (dim,) * 3, entries), counit)


def klein_second_row_fails():
    """k[Z2 x Z2] (basis 1, b, a, ab) with group-likes 1, b, 1+b-a, 1+b-ab.

    Left multiplication by b permutes them, so the rows of the first
    generator b hold; the rows of a fail.  eps is the character a -> -1,
    b -> 1, so every law before compatibility holds.
    """
    h = hopf.tensor_hopf(group_algebra(2), group_algebra(2))
    field = h.field
    o, z, m = field.one(), field.zero(), -field.one()
    cols = [(o, z, z, z), (z, o, z, z), (o, o, m, z), (o, o, z, m)]
    return grouplike_coalgebra(h, cols)


def dual_numbers_grouplike():
    """k[x]/(x^2) with x group-like: Delta is multiplicative (both sides of
    Delta(x x) = Delta(x)Delta(x) vanish) but eps(x x) = 0 != eps(x)^2."""
    field = make_field(1)
    mult = Tensor3(field, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    comult = Tensor3(field, (2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    return HopfAlgebra(AssocAlgebra(field, 2, mult, (1, 0)), comult, (1, 1))


def ground_field_with_a_two(kind):
    """k = k[Z1] with its one `kind` constant ("mult", "comult", "unit" or
    "counit") set to 2.  k has no generators (its unit spans it), so H*
    cannot need fewer and H decides on no rows."""
    h = group_algebra(1)
    field = h.field
    two = field.from_rational(2)
    tensor = Tensor3(field, (1, 1, 1), {(0, 0, 0): two})
    mult = tensor if kind == "mult" else h.algebra.mult
    comult = tensor if kind == "comult" else h.comult
    unit = (two,) if kind == "unit" else h.unit
    counit = (two,) if kind == "counit" else h.counit
    return HopfAlgebra(AssocAlgebra(field, 1, mult, unit), comult, counit, h.antipode)


HANDMADE = {
    "klein": klein_second_row_fails,
    "klein-transposed": lambda: transpose(klein_second_row_fails()),
    "dual-numbers": dual_numbers_grouplike,
    "dual-numbers-transposed": lambda: transpose(dual_numbers_grouplike()),
    **{
        "k-%s-2" % kind: functools.partial(ground_field_with_a_two, kind)
        for kind in ("mult", "comult", "unit", "counit")
    },
}


@pytest.mark.parametrize("name", sorted(HANDMADE))
def test_handmade_bialgebra_failures_match_reference(name):
    """Inputs where one generator row, the eps precondition, or (at
    dimension 1) no row at all decides."""
    h = HANDMADE[name]()
    ref = ref_verify_hopf(h)
    assert not ref.ok
    _same(verify_hopf(h), ref)


@pytest.mark.parametrize("name", ["sweedler", "sweedler*", "scrambled-sweedler"])
def test_every_perturbed_mult_constant_matches_reference(name):
    """verify_algebra on each single change of the multiplication table."""
    h = build(name)
    field, dim = h.field, h.dim
    for key in ((i, j, k) for i in range(dim) for j in range(dim) for k in range(dim)):
        entries = dict(h.algebra.mult.entries)
        entries[key] = _bump(field, entries.get(key, field.zero()))
        alg = AssocAlgebra(field, dim, Tensor3(field, (dim,) * 3, entries), h.unit)
        _same(verify_algebra(alg), ref_verify_algebra(alg))


# --- algebra_generators --------------------------------------------------------------


def _word_span_rank(alg, gens):
    """Rank of the span of all left words in the generators, by closure."""
    field, dim = alg.field, alg.dim
    words = [alg.unit]
    frontier = [alg.unit]
    rank = 1
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                v = alg.multiply(unit_vector(field, dim, g), w)
                trial = Matrix(field, [list(x) for x in words + [v]]).rref()[1]
                if trial > rank:
                    words.append(v)
                    nxt.append(v)
                    rank = trial
        frontier = nxt
    return rank


@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: a_tau_mu(3, 2, -1, 0), 2),
        (lambda: a_tau_mu(3, 2, -1, 1), 2),
        (lambda: a_tau_mu(5, 2, -1, 1), 2),
        (lambda: group_algebra(6), 1),
        (lambda: group_algebra(7), 1),
        (sweedler, 2),
    ],
)
def test_generators_span(make, count):
    alg = make().algebra
    gens = algebra_generators(alg)
    assert len(gens) == count
    assert _word_span_rank(alg, gens) == alg.dim


def test_generator_limit_and_cache():
    alg = a_tau_mu(3, 2, -1, 0).algebra
    assert algebra_generators(alg, 1) is None
    assert algebra_generators(alg, 2) == [1, 2]
    gens = algebra_generators(alg)
    gens.append(99)
    assert algebra_generators(alg) == [1, 2]


def test_no_spanning_set_without_unit():
    h = sweedler()
    zero = h.field.zero()
    alg = AssocAlgebra(h.field, h.dim, h.algebra.mult, (zero,) * h.dim)
    assert algebra_generators(alg) is None


def test_dual_side_decides_dense_duals():
    """A(5,1)* has dense comultiplication; H* = A(5,1) has 2 generators, so
    at most 2 * dim tensor-square products (the per-pair loop makes dim^2)."""
    h = dual(a_tau_mu(5, 2, -1, 1))
    assert algebra_generators(dual_algebra(h)) == [1, 2]
    calls = []
    original = AssocAlgebra.tensor_square_product

    def counting(self, a, b):
        calls.append(1)
        return original(self, a, b)

    AssocAlgebra.tensor_square_product = counting
    try:
        report = verify_hopf(h)
    finally:
        AssocAlgebra.tensor_square_product = original
    assert report.ok
    assert len(calls) <= 2 * h.dim


_ANTIPODE_LAWS = {"antipode-left", "antipode-right"}


def _bialgebra_ok(ref):
    """The reference finds no failing law before the antipode laws."""
    return all(v.law in _ANTIPODE_LAWS for v in ref.violations)


@pytest.mark.parametrize("name", INPUTS)
def test_bialgebra_decision_matches_reference(name):
    """_bialgebra_holds is exact: True on each input, False on each of its
    perturbations, as the reference's report says."""
    h = build(name)
    assert _bialgebra_ok(ref_verify_hopf(h))
    assert hopf._bialgebra_holds(h)
    for label, bad in perturbations(h, name):
        assert not _bialgebra_ok(ref_verify_hopf(bad)), label
        assert not hopf._bialgebra_holds(bad), label


@pytest.mark.parametrize("dualize", [True, False], ids=["A(5,1)*", "A(5,1)"])
def test_laws_run_on_the_generators_of_one_side(dualize, monkeypatch):
    """A passing A(5,1)* decides its laws on H* = A(5,1), and A(5,1) on
    itself: each with 2 generators, so coassociativity runs at most twice
    and associativity on at most 2 * dim^2 triples.  A(5,1)* needs 19
    generators, so deciding its associativity on its own rows, or its
    coassociativity per basis element, would break these bounds."""
    h = a_tau_mu(5, 2, -1, 1)
    if dualize:
        h = dual(h)
    gens = algebra_generators(dual_algebra(h) if dualize else h.algebra)
    assert len(gens) == 2
    calls = {"coassociative": 0, "_associates": 0}

    def count(module, name):
        original = getattr(module, name)

        def counting(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)

    count(hopf, "coassociative")
    count(algebra, "_associates")
    assert verify_hopf(h).ok
    assert calls["coassociative"] <= len(gens)
    assert calls["_associates"] <= len(gens) * h.dim**2


# --- the sparse helpers behind the shortcut ----------------------------------------


@pytest.mark.parametrize("name", ["A(3,1)", "T2xk[Z3]*", "scrambled-sweedler"])
def test_basis_times_matches_dense_product(name):
    h = build(name)
    alg, field, dim = h.algebra, h.field, h.dim
    rng = random.Random(name)
    for _ in range(5):
        v = tuple(field.from_rational(rng.randint(-2, 2)) for _ in range(dim))
        for i in range(dim):
            e = unit_vector(field, dim, i)
            left = alg.basis_times(i, sparse_vector(v))
            right = alg.basis_times(i, sparse_vector(v), right=True)
            assert dense_vector(field, dim, left) == alg.multiply(e, v)
            assert dense_vector(field, dim, right) == alg.multiply(v, e)
            assert not any(x.is_zero() for x in (*left.values(), *right.values()))


@pytest.mark.parametrize("name", INPUTS)
def test_trace_s2_matches_dense_square(name):
    h = build(name)
    assert trace_s2(h) == (h.antipode * h.antipode).trace()


# --- invariants on generators: skew primitives, ideals, characters -----------------


def ref_skew_primitives(h, g, hv):
    """All dim^2 equations of Delta(x) = x (x) g + h (x) x, solved densely,
    then reduced modulo span{g - h} as skew_primitives documents."""
    field, dim = h.field, h.dim
    rows = []
    for j in range(dim):
        for k in range(dim):
            row = [h.comult.get(i, j, k) for i in range(dim)]
            row[j] = row[j] - g[k]
            row[k] = row[k] - hv[j]
            rows.append(row)
    space = Matrix(field, rows).kernel()
    trivial = vec_sub(g, hv)
    if vec_is_zero(trivial):
        return space
    p = next(t for t, c in enumerate(trivial) if not c.is_zero())
    reduced = [vec_sub(v, vec_scale(v[p] / trivial[p], trivial)) for v in space]
    return row_space_basis(field, [v for v in reduced if not vec_is_zero(v)])


def ref_ideal_closure(alg, seeds):
    """Closure under left and right multiplication by every basis element."""
    ech = RefEchelonBasis(alg.field, alg.dim)
    queue = [tuple(v) for v in seeds]
    while queue:
        v = queue.pop()
        if ech.insert(v):
            for i in range(alg.dim):
                e = unit_vector(alg.field, alg.dim, i)
                queue.append(alg.multiply(e, v))
                queue.append(alg.multiply(v, e))
    return ech.basis()


def ref_is_character(alg, chi):
    field, dim = alg.field, alg.dim
    if not sum((c * u for c, u in zip(chi, alg.unit)), field.zero()).is_one():
        return False
    for i in range(dim):
        for j in range(dim):
            acc = field.zero()
            for k, m in alg.basis_product(i, j):
                acc = acc + m * chi[k]
            if acc != chi[i] * chi[j]:
                return False
    return True


def ref_characters(alg):
    """Commutators of every basis pair, the ideal closed under every basis
    element, and eigenspaces split on every basis element in index order."""
    field, dim = alg.field, alg.dim
    semi, proj1, _ = ref_quotient_algebra(alg, radical(alg))
    comms = []
    for i in range(semi.dim):
        for j in range(i + 1, semi.dim):
            ei = unit_vector(field, semi.dim, i)
            ej = unit_vector(field, semi.dim, j)
            c = vec_sub(semi.multiply(ei, ej), semi.multiply(ej, ei))
            if not vec_is_zero(c):
                comms.append(c)
    ideal = ref_ideal_closure(semi, comms)
    if len(ideal) == semi.dim:
        return []
    quotient, proj2, _ = ref_quotient_algebra(semi, ideal)
    proj = proj2 * proj1
    qdim = quotient.dim
    blocks = [([unit_vector(field, qdim, i) for i in range(qdim)], [])]
    for i in range(qdim):
        lmat = quotient.left_mult_matrix(unit_vector(field, qdim, i))
        split = []
        for block, eigs in blocks:
            restricted = _restrict(lmat, block, field)
            for fac, _ in factor_unipoly(ref_minimal_polynomial(restricted)):
                if fac.degree == 1:
                    eig = -fac.coeffs[0]  # fac is monic: x - eig
                    ident = Matrix.identity(field, restricted.rows)
                    kernel = (restricted - ident.scale(eig)).kernel()
                    piece = [Matrix.from_columns(field, block).apply(c) for c in kernel]
                    split.append((piece, eigs + [eig]))
        blocks = split
    found = []
    for block, eigs in blocks:
        if len(block) == 1:
            chi = tuple(
                sum((proj.data[g][i] * eigs[g] for g in range(qdim)), field.zero())
                for i in range(dim)
            )
            if ref_is_character(alg, chi):
                found.append(chi)
    return sorted(found, key=lambda c: tuple(tuple(x.coeffs) for x in c))


def is_group_like(h: HopfAlgebra, g) -> bool:
    """eps(g) = 1 and Delta(g) = g (x) g, checked directly."""
    return h.counit_of(g).is_one() and h.delta_vec(g) == vec_outer(g, g)


def with_perturbations(name):
    """(label, input) for the input and each of its one-constant changes."""
    h = build(name)
    return [("unperturbed", h)] + perturbations(h, name)


def both_algebras(h):
    return (("H", h.algebra), ("H*", dual_algebra(h)))


@pytest.mark.parametrize("name", INPUTS)
def test_skew_primitives_match_reference(name):
    """The endpoints are the unperturbed group-likes; on a perturbed input
    one that is no longer group-like is refused."""
    likes = group_likes(build(name)).elements
    for label, h in with_perturbations(name):
        for g in likes:
            for k in likes:
                if is_group_like(h, g) and is_group_like(h, k):
                    got = skew_primitives(h, g, k)
                    assert got == ref_skew_primitives(h, g, k), (label, g, k)
                else:
                    with pytest.raises(hopf.NotGroupLike):
                        skew_primitives(h, g, k)


def _count_sparse_kernel_rows(monkeypatch, systems=None):
    """Record (columns, number of rows) of each sparse_kernel system hopf
    solves, and the rows themselves in systems when it is given."""
    rows = []
    original = hopf.sparse_kernel

    def counting(field, dim, sparse_rows):
        sparse_rows = list(sparse_rows)
        rows.append((dim, len(sparse_rows)))
        if systems is not None:
            systems.append(sparse_rows)
        return original(field, dim, sparse_rows)

    monkeypatch.setattr(hopf, "sparse_kernel", counting)
    return rows


def test_failed_skew_certificate_solves_full_system(monkeypatch):
    """Sweedler (basis 1, x, g, gx) with Delta(gx) given an extra g (x) gx,
    where H*'s generator rows would admit a vector that is not (1, g)-skew
    primitive: the one full system has no solution."""
    h = sweedler()
    field = h.field
    entries = dict(h.comult.entries)
    entries[(3, 2, 3)] = entries.get((3, 2, 3), field.zero()) + field.one()
    bad = HopfAlgebra(h.algebra, Tensor3(field, (4, 4, 4), entries), h.counit)
    one, g = h.unit, unit_vector(field, 4, 2)
    rows = _count_sparse_kernel_rows(monkeypatch)
    got = skew_primitives(bad, one, g)
    assert len(rows) == 1
    assert got == ref_skew_primitives(bad, one, g) == []


def test_skew_profile_solves_generator_rows(monkeypatch):
    """A(3,1): one dim-column kernel W of at most (dim - |G|) * |gens(H*)| + 1
    rows and no skew_primitives solve; the eigenvector systems of the |G|
    group-likes have dim W - |G| + 1 columns."""
    h = a_tau_mu(3, 2, -1, 1)
    gens = algebra_generators(dual_algebra(h))
    likes = group_likes(h)
    rows = _count_sparse_kernel_rows(monkeypatch)
    assert skew_profile(h, likes)
    full = [n for dim, n in rows if dim == h.dim]
    assert len(full) == 1
    assert full[0] <= (h.dim - len(likes)) * len(gens) + 1
    assert [dim for dim, _ in rows if dim != h.dim] == [1] * len(likes)


def per_g_skew_profile(h, likes):
    """The profile with skew_primitives(h, 1, g) solved for every g in likes
    and translated to the pairs as skew_profile does."""
    nontrivial = [len(skew_primitives(h, h.unit, g)) for g in likes.elements]
    profile: dict = {}
    for a in range(len(likes)):
        inv_a = likes.inverse(a)
        for b in range(len(likes)):
            d = nontrivial[likes.table[(inv_a, b)]]
            if d:
                key = (likes.orders[a], likes.orders[b])
                profile[key] = profile.get(key, 0) + d
    return profile


def _skew_profile_route(monkeypatch, h, likes) -> str:
    """The route skew_profile takes on h to I: the "radical" or the "kernel
    of G", or "ArithmeticError" where a precondition of W fails."""
    systems = []
    _count_sparse_kernel_rows(monkeypatch, systems)
    try:
        skew_profile(h, likes)
    except ArithmeticError:
        return "ArithmeticError"
    finally:
        monkeypatch.undo()
    g_rows = [sparse_vector(g) for g in likes.elements]
    return "kernel of G" if g_rows in systems else "radical"


@pytest.mark.parametrize("name", INPUTS)
def test_skew_profile_matches_per_g_route(name):
    """The counts of W's eigenvectors are the skew_primitives(h, 1, g) solved
    for every g; test_hopf has the per-pair oracle, and test_io_cli runs
    the perturbations through the invariants verb."""
    h = build(name)
    likes = group_likes(h)
    assert skew_profile(h, likes) == per_g_skew_profile(h, likes)


def test_skew_profile_routes(monkeypatch):
    """I is the radical of H* on the pointed A(3,1) and the kernel of G's
    rows on its dual, which is not pointed; a perturbation without
    generators of H* or with eps * eps != eps is refused."""
    routes = {}
    for name in INPUTS:
        for label, h in with_perturbations(name):
            try:
                likes = group_likes(h)
            except (hopf.NotGroupLike, ArithmeticError):
                continue
            routes[name, label] = _skew_profile_route(monkeypatch, h, likes)
    assert routes["A(3,1)", "unperturbed"] == "radical"
    assert routes["A(3,1)*", "unperturbed"] == "kernel of G"
    assert set(routes.values()) == {"ArithmeticError", "radical", "kernel of G"}


def test_skew_profile_checks_the_counit_precondition_once(monkeypatch):
    """skew_profile checks eps * eps = eps in H* with one product, and
    skew_primitives forms none."""
    h = a_tau_mu(3, 2, -1, 1)
    likes = group_likes(h)
    calls = []
    original = AssocAlgebra.multiply

    def counting(alg, a, b):
        calls.append((a, b))
        return original(alg, a, b)

    monkeypatch.setattr(AssocAlgebra, "multiply", counting)
    skew_profile(h, likes)
    skew_primitives(h, h.unit, likes.elements[1])
    assert len(likes) > 1 and calls == [(h.counit, h.counit)]


def _seed_lists(alg):
    """Each basis vector alone, and the radical, as ideal seeds."""
    seeds = [[unit_vector(alg.field, alg.dim, i)] for i in range(alg.dim)]
    return seeds + [radical(alg)]


def _span_contains(big, small, field):
    return len(row_space_basis(field, list(big) + list(small))) == len(big)


@pytest.mark.parametrize("name", INPUTS)
def test_ideal_closure_matches_reference(name):
    for label, h in with_perturbations(name):
        for side, alg in both_algebras(h):
            associative = verify_algebra(alg).ok
            for seeds in _seed_lists(alg):
                got = ideal_closure(alg, [], seeds)
                ref = ref_ideal_closure(alg, seeds)
                if associative:
                    assert got == ref, (label, side, seeds)
                    # the radical enters unmultiplied: the same ideal
                    rad = radical(alg)
                    with_rad = ideal_closure(alg, rad, seeds)
                    assert with_rad == ref_ideal_closure(alg, rad + seeds), (label, side)
                else:
                    assert _span_contains(ref, got, alg.field), (label, side, seeds)
            assert ideal_closure(alg, [], []) == []


@pytest.mark.parametrize("name", INPUTS)
def test_characters_match_reference(name):
    """On a non-associative perturbation the search may stop with
    ArithmeticError, and what it returns is still a character."""
    for label, h in with_perturbations(name):
        for side, alg in both_algebras(h):
            if verify_algebra(alg).ok:
                search = characters(alg)
                assert search.characters == ref_characters(alg), (label, side)
                continue
            try:
                found = characters(alg).characters
            except ArithmeticError:
                continue
            assert all(ref_is_character(alg, chi) for chi in found), (label, side)


def test_without_generators_every_path_runs_its_full_loop():
    """Sweedler with zero unit and counit: neither H nor H* has generators."""
    h = sweedler()
    field, dim = h.field, h.dim
    zero = (field.zero(),) * dim
    bad = HopfAlgebra(AssocAlgebra(field, dim, h.algebra.mult, zero), h.comult, zero)
    for _, alg in both_algebras(bad):
        assert algebra_generators(alg) is None
        for seeds in _seed_lists(alg):
            assert ideal_closure(alg, [], seeds) == ref_ideal_closure(alg, seeds)
        assert characters(alg).characters == ref_characters(alg) == []
    # with a zero counit no endpoint is group-like
    with pytest.raises(hopf.NotGroupLike):
        skew_primitives(bad, h.unit, unit_vector(field, dim, 2))


def _character_candidates(alg, seed):
    """Characters of alg, each with one coordinate bumped, and small vectors."""
    rng = random.Random(seed)
    field, dim = alg.field, alg.dim
    out = []
    for chi in ref_characters(alg):
        out.append(chi)
        t = rng.randrange(dim)
        out.append(chi[:t] + (_bump(field, chi[t]),) + chi[t + 1:])
    for _ in range(4):
        out.append(tuple(field.from_rational(rng.choice((0, 0, 1, -1))) for _ in range(dim)))
    out.append(alg.unit)
    return out


@pytest.mark.parametrize("name", INPUTS)
def test_is_character_matches_reference(name):
    clean = {side: alg for side, alg in both_algebras(build(name))}
    for label, h in with_perturbations(name):
        for side, alg in both_algebras(h):
            for chi in _character_candidates(clean[side], name + side):
                assert _is_character(alg, chi) == ref_is_character(alg, chi), (
                    label, side, chi
                )
