"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured evidence.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import pytest

from hopfcheck.algebra import is_semisimple_trace
from hopfcheck.cyclotomic import make_field
from hopfcheck.dim5 import check_antipode_contradiction, check_integral_constraints, build_case, run_case
from hopfcheck.families import a_tau_mu, group_algebra, sweedler, taft, taft_tensor_group
from hopfcheck.hopf import (
    LABEL_A0,
    LABEL_A0_DUAL,
    LABEL_A1,
    LABEL_A1_DUAL,
    LABEL_TAFT_TENSOR,
    check_radford_s4,
    classify_4p,
    coradical,
    dual,
    group_likes,
    integrals,
    is_pointed,
    is_semisimple_lr,
    reference_fingerprints,
    structure_equal,
    trace_s2,
    verify_hopf,
)
from hopfcheck.linalg import unit_vector, vec_scale
from hopfcheck.yetter_drinfeld import (
    bosonize,
    check_dual_biproduct,
    ordinary_to_braided,
)

PRIMES = (3, 5, 7, 11)

RESULTS = {}


def _record(criterion, message):
    RESULTS[criterion] = message
    print("CRITERION %s: PASS - %s" % (criterion, message))


@pytest.fixture(scope="module")
def constructed():
    fams = {}
    fams["sweedler"] = sweedler()
    fams["taft(2,-1)"] = taft(2, -1)
    for n in range(1, 13):
        fams["k[Z_%d]" % n] = group_algebra(n)
    for p in PRIMES:
        for mu in (0, 1):
            fams["A(%d,%d)" % (p, mu)] = a_tau_mu(p, 2, -1, mu)
        fams["T2xk[Z_%d]" % p] = taft_tensor_group(2, -1, p)
    return fams


@pytest.fixture(scope="module")
def duals(constructed):
    out = {}
    for p in PRIMES:
        for mu in (0, 1):
            out["A(%d,%d)*" % (p, mu)] = dual(constructed["A(%d,%d)" % (p, mu)])
    return out


def _nonsemisimple_names(constructed):
    return [k for k in constructed if not k.startswith("k[Z_")]


def test_criterion_1_axiom_suite(constructed):
    worst = 0.0
    for name, h in constructed.items():
        t0 = time.time()
        report = verify_hopf(h)
        elapsed = time.time() - t0
        worst = max(worst, elapsed)
        assert report.ok, "%s: %s" % (name, report.lines())
        assert elapsed <= 60.0, "%s verification took %.1fs" % (name, elapsed)
    _record(1, "verify_hopf clean on %d algebras (dims up to 44), max %.1fs"
            % (len(constructed), worst))


def test_criterion_2_larson_radford(constructed):
    for name, h in constructed.items():
        tr = trace_s2(h)
        if name.startswith("k[Z_"):
            n = h.dim
            assert tr == h.field.from_rational(n), name
        else:
            assert tr.is_zero(), name
        assert is_semisimple_lr(h) == is_semisimple_trace(h.algebra), name
    _record(2, "Tr(S^2) = 0 on all non-semisimple families, = n on k[Z_n]; "
            "Larson-Radford agrees with the trace-form radical everywhere")


def test_criterion_3_integrals(constructed, duals):
    count = 0
    for name, h in list(constructed.items()) + list(duals.items()):
        integrals(h)  # raises DegenerateIntegral unless both spaces are 1-dim
        count += 1
    h4 = constructed["sweedler"]
    data = integrals(h4)
    lam = data.left_integral
    g = unit_vector(h4.field, 4, 2)  # basis order (1, x, g, gx)
    assert h4.algebra.multiply(lam, g) == vec_scale(h4.field.from_rational(-1), lam)
    assert data.distinguished_a == g
    assert data.distinguished_alpha[2] == h4.field.from_rational(-1)
    _record(3, "left-integral spaces 1-dimensional on %d algebras; "
            "H4 satisfies Lg = -L, a = g, alpha(g) = -1" % count)


def test_criterion_4_radford_s4(constructed, duals):
    for name, h in list(constructed.items()) + list(duals.items()):
        assert check_radford_s4(h, integrals(h)), name
    listed = [k for k in constructed if k.startswith(("A(", "T2x"))]
    for name in listed:
        assert constructed[name].antipode.power(4).is_identity(), name
    for name, h in duals.items():
        assert h.antipode.power(4).is_identity(), name
    _record(4, "S^4 conjugation formula entry-exact on all families; "
            "S^4 = id on the dimension-4p list families and their duals")


# Criteria 5-9 are instance checks that criterion 10 also relies on; each
# returns its evidence message so criterion 10 can run the ones that did not
# run earlier in the same process (under -k or --deselect).


def check_criterion_5(constructed):
    for p in PRIMES:
        for mu in (0, 1):
            likes = group_likes(constructed["A(%d,%d)" % (p, mu)])
            assert len(likes) == 2 * p, (p, mu)
            assert likes.is_cyclic(), (p, mu)
    for name, h in constructed.items():
        likes = group_likes(h)
        assert h.dim % len(likes) == 0, name
    return ("|G(A(tau,mu))| = 2p cyclic at p in %s; |G| divides dim on all "
            "%d constructed algebras" % (PRIMES, len(constructed)))


def test_criterion_5_group_likes(constructed):
    _record(5, check_criterion_5(constructed))


def check_criterion_6(constructed, duals):
    for p in PRIMES:
        assert is_pointed(constructed["A(%d,0)" % p]), p
        assert is_pointed(duals["A(%d,0)*" % p]), p
        assert is_pointed(constructed["A(%d,1)" % p]), p
        assert is_pointed(constructed["T2xk[Z_%d]" % p]), p
        assert not is_pointed(duals["A(%d,1)*" % p]), p
    # main-theorem instance: non-semisimple of dim 4p with |G| > 2 is pointed
    checked = 0
    for name, h in list(constructed.items()) + list(duals.items()):
        if h.dim % 4 or h.dim // 4 not in PRIMES:
            continue
        if is_semisimple_lr(h):
            continue
        if len(group_likes(h)) > 2:
            assert is_pointed(h), name
            checked += 1
    return ("pointedness as classified (dual of A(tau,1) not pointed); "
            "|G| > 2 implies pointed on %d non-semisimple dim-4p instances" % checked)


def test_criterion_6_pointedness(constructed, duals):
    _record(6, check_criterion_6(constructed, duals))


def check_criterion_7(constructed, duals):
    for p in PRIMES:
        refs = reference_fingerprints(p)
        labels = list(refs)
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                assert refs[a] != refs[b], "fingerprint collision at p=%d: %s vs %s" % (p, a, b)
        expected = {
            LABEL_A0: constructed["A(%d,0)" % p],
            LABEL_A0_DUAL: duals["A(%d,0)*" % p],
            LABEL_A1: constructed["A(%d,1)" % p],
            LABEL_A1_DUAL: duals["A(%d,1)*" % p],
            LABEL_TAFT_TENSOR: constructed["T2xk[Z_%d]" % p],
        }
        for label, h in expected.items():
            got = classify_4p(h)
            assert got == label, "p=%d: expected %s, got %s" % (p, label, got)
    return ("five reference fingerprints pairwise distinct and every family "
            "self-classifies (no unknown, no collision) at p in %s" % (PRIMES,))


def test_criterion_7_classifier(constructed, duals):
    _record(7, check_criterion_7(constructed, duals))


def check_criterion_8():
    base_q = sweedler()
    trivial_line = ordinary_to_braided(group_algebra(1, base_q.field), base_q)
    assert structure_equal(bosonize(trivial_line, base_q), base_q)
    for p in (3, 5):
        field = make_field(4 * p)
        base = sweedler(field)
        r = ordinary_to_braided(group_algebra(p, field), base)
        h = bosonize(r, base)  # verify_hopf runs inside
        likes = group_likes(h)
        assert len(likes) == 2 * p
        assert len(coradical(h)) == len(likes)
        assert check_dual_biproduct(r, base), p
    assert check_dual_biproduct(trivial_line, base_q)
    return ("bosonize(k, H4) = H4 tensor-exactly; k[Z_p] biproducts verified, "
            "|G| = 2p, pointed; dual-biproduct identity holds for k, k[Z_3], k[Z_5]")


def test_criterion_8_bosonization():
    _record(8, check_criterion_8())


def check_criterion_9():
    t0 = time.time()
    case_a = check_integral_constraints(build_case("A"))
    assert case_a.inconsistent
    step = next(s for s in case_a.steps if s.name == "rho(uv)")
    assert "g(x)uv" in step.detail.replace(" ", "").replace("(1).", "")
    for case, mismatch in (("B", -2), ("C", -3)):
        report = check_antipode_contradiction(build_case(case))
        assert report.inconsistent
        assert report.forced == {"gamma": 1, "zeta2": 1, "alpha": 0, "zeta4": 1}
        uu = next(s for s in report.steps if s.name == "pair(u,u)")
        assert "residual = (2*alpha).iota" in uu.detail
        vu = next(s for s in report.steps if s.name == "pair(v,u)")
        assert "-> zeta4 = 1" in vu.detail
        uv = next(s for s in report.steps if s.name == "pair(u,v)")
        assert "mismatch = (%d).iota" % mismatch in uv.detail
        for s in report.steps:
            for free in ("beta", "eta", "zeta3"):
                assert free not in report.forced
    for case in ("A", "B", "C"):
        assert run_case(case).inconsistent
    elapsed = time.time() - t0
    assert elapsed <= 10.0, "dim5 chain took %.1fs" % elapsed
    return ("case A eliminated via the integral-coaction identity; gamma = 1, "
            "alpha = 0 (residual 2*alpha*iota), zeta4 = 1 forced; final mismatches "
            "-2*iota (B) and -3*iota (C), independent of beta, eta, zeta3; %.1fs" % elapsed)


def test_criterion_9_dim5_elimination():
    _record(9, check_criterion_9())


# criterion -> (check, names of the fixtures it takes)
INSTANCE_CHECKS = {
    5: (check_criterion_5, ("constructed",)),
    6: (check_criterion_6, ("constructed", "duals")),
    7: (check_criterion_7, ("constructed", "duals")),
    8: (check_criterion_8, ()),
    9: (check_criterion_9, ()),
}


def test_criterion_10_headline_theorems_via_instances(request):
    # The headline classification theorems are not reproducible as
    # computations; their acceptance is the instance suites of criteria 5-9.
    # A criterion that did not pass earlier in this process runs here.
    for criterion, (check, fixtures) in INSTANCE_CHECKS.items():
        if criterion not in RESULTS:
            args = [request.getfixturevalue(name) for name in fixtures]
            _record(criterion, check(*args))
    _record(10, "headline classification covered by the instance-level criteria 5-9")
