import dataclasses
import itertools

import pytest

from hopfcheck import cli, dim5
from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import make_field
from hopfcheck.dim5 import (
    CASES,
    E,
    IOTA,
    U,
    UV,
    V,
    build_case,
    check_antipode_contradiction,
    check_integral_constraints,
    run_case,
)
from hopfcheck.families import sweedler
from hopfcheck.linalg import Matrix, Tensor3, unit_vector, vec_outer
from hopfcheck.yetter_drinfeld import (
    YDModule,
    comodule_algebra_failures,
    module_algebra_failures,
    verify_yd,
)
from test_yetter_drinfeld import action_matrices, action_tensor

Q = make_field(1)

# sweedler()'s basis (1, x, g, gx)
ONE, X, G, GX = range(4)


def basis(cand, i):
    return unit_vector(cand.ring, 5, i)


def with_entries(cand, action=None, coaction=None, mult=None):
    """cand with entries set: action {(h, row, col): c}, coaction
    {(r, h, r0): c} and mult {(i, j, k): c}; a zero c drops an entry."""
    ring = cand.ring
    acts = [[list(row) for row in m.data] for m in action_matrices(cand.yd)]
    for (h, i, j), c in (action or {}).items():
        acts[h][i][j] = ring.promote(c)
    rho = {**cand.yd.coaction.entries, **(coaction or {})}
    table = {**cand.alg.mult.entries, **(mult or {})}
    yd = YDModule(
        cand.yd.base,
        5,
        action_tensor(ring, [Matrix(ring, a) for a in acts]),
        Tensor3(ring, (5, 4, 5), rho),
    )
    alg = AssocAlgebra(ring, 5, Tensor3(ring, (5, 5, 5), table), cand.alg.unit)
    return dataclasses.replace(cand, yd=yd, alg=alg)


def coact_product(cand, i, j):
    """rho(r_i) rho(r_j) in H (x) R, term by term, without zeros."""
    base = cand.yd.base.algebra
    out = {}
    for h1, r1, c1 in cand.yd.coact_basis(i):
        for h2, r2, c2 in cand.yd.coact_basis(j):
            hh = base.multiply(
                unit_vector(cand.ring, 4, h1), unit_vector(cand.ring, 4, h2)
            )
            rr = cand.alg.multiply(basis(cand, r1), basis(cand, r2))
            for key, c in vec_outer(hh, rr).items():
                out[key] = out.get(key, cand.ring.zero()) + c1 * c2 * c
    return {key: c for key, c in out.items() if not c.is_zero()}


def _perturbed(part):
    """Case B with one action, coaction or multiplication entry changed."""
    cand = build_case("B")
    if part == "action":
        return with_entries(cand, action={(G, E, E): 2})  # g . e = 2e breaks g^2 = 1
    if part == "coaction":
        # rho(u) = 2 g (x) u breaks counitality
        return with_entries(cand, coaction={(U, G, U): 2})
    # u^2 = alpha iota + u breaks g . u^2 = (g . u)^2
    return with_entries(cand, mult={(U, U, U): 1})


def failed_laws(cand):
    """The library laws that cand breaks."""
    yd, alg = cand.yd, cand.alg
    laws = {v.law for v in verify_yd(yd).violations}
    if any(module_algebra_failures(yd, alg)):
        laws.add("module-algebra")
    if any(comodule_algebra_failures(yd, alg)):
        laws.add("comodule-algebra")
    return laws


# the library law that each perturbation must break
PERTURBED_LAW = {
    "action": "module",
    "coaction": "comodule",
    "multiplication": "module-algebra",
}

# the terms (base index, module index) of the rho(uv) data in each case
RHO_UV = {"A": ((G, UV),), "B": ((ONE, UV), (X, U)), "C": ((ONE, UV), (X, V))}


def structure_failure_output(case):
    return (
        "case %s\n"
        "structure: module/comodule laws: RESIDUALS PRESENT\n"
        "CONSISTENT\n" % case
    )


class TestBuildCase:
    def test_case_b_coaction_of_u(self):
        cand = build_case("B")
        # rho(u) = g (x) u
        assert cand.yd.coact_vec(basis(cand, U)) == {(G, U): cand.ring.one()}

    def test_case_c_coaction_of_u(self):
        cand = build_case("C")
        # rho(u) = g (x) u - gx (x) iota
        one = cand.ring.one()
        assert cand.yd.coact_vec(basis(cand, U)) == {(GX, IOTA): -one, (G, U): one}

    def test_iota_action(self):
        for case in CASES:
            cand = build_case(case)
            iota = basis(cand, IOTA)
            act = action_matrices(cand.yd)
            assert act[X].apply(iota) == (cand.ring.zero(),) * 5
            assert act[G].apply(iota) == iota

    def test_e_sector(self):
        cand = build_case("B")
        e = basis(cand, E)
        assert cand.alg.multiply(e, e) == e
        assert cand.alg.multiply(e, basis(cand, U)) == (cand.ring.zero(),) * 5
        assert cand.yd.coact_vec(e) == {(ONE, E): cand.ring.one()}

    def test_table_is_associative_symbolically(self):
        for case in CASES:
            cand = build_case(case)
            mul = cand.alg.multiply
            for i, j, k in itertools.product(range(5), repeat=3):
                bi, bj, bk = (basis(cand, t) for t in (i, j, k))
                assert mul(mul(bi, bj), bk) == mul(bi, mul(bj, bk)), (case, i, j, k)

    def test_unit_law(self):
        cand = build_case("C")
        for i in range(5):
            b = basis(cand, i)
            assert cand.alg.multiply(cand.alg.unit, b) == b
            assert cand.alg.multiply(b, cand.alg.unit) == b

    def test_antipode_is_module_map(self):
        # S(b . r) = b . S(r) for the ansatz, for b in {g, x}
        for case in CASES:
            cand = build_case(case)
            s = cand.antipode
            for h in (G, X):
                act = action_matrices(cand.yd)[h]
                for i in range(5):
                    b = basis(cand, i)
                    assert s.apply(act.apply(b)) == act.apply(s.apply(b)), (case, h, i)

    def test_built_once_per_run(self, monkeypatch):
        # run_case chains the candidate whose structure laws it checked
        built = []
        real = dim5.build_case

        def counted(case):
            built.append(case)
            return real(case)

        monkeypatch.setattr(dim5, "build_case", counted)
        for case in CASES:
            assert run_case(case).inconsistent
        assert built == list(CASES)


class TestModuleComodule:
    @pytest.mark.parametrize("case", CASES)
    def test_all_laws_hold_identically(self, case):
        assert failed_laws(build_case(case)) == set()

    def test_case_b_uu_law_explicitly(self):
        cand = build_case("B")
        uu = cand.alg.multiply(basis(cand, U), basis(cand, U))
        assert cand.yd.coact_vec(uu) == coact_product(cand, U, U)

    @pytest.mark.parametrize("case", CASES)
    def test_rho_uv_data_is_rho_u_rho_v(self, case):
        cand = build_case(case)
        rho_uv = cand.yd.coact_vec(basis(cand, UV))
        assert rho_uv == coact_product(cand, U, V)

    def test_case_a_rho_uv_is_g_uv(self):
        cand = build_case("A")
        assert cand.yd.coact_vec(basis(cand, UV)) == {(G, UV): cand.ring.one()}

    def test_g_fixes_uv(self):
        for case in CASES:
            cand = build_case(case)
            uv = basis(cand, UV)
            assert action_matrices(cand.yd)[G].apply(uv) == uv

    @pytest.mark.parametrize(
        "case,term", [(c, t) for c in sorted(RHO_UV) for t in RHO_UV[c]]
    )
    def test_dropped_rho_uv_term_is_caught(self, case, term, monkeypatch, capsys):
        cand = build_case(case)
        key = (UV,) + term
        assert key in cand.yd.coaction.entries
        broken = with_entries(cand, coaction={key: 0})
        assert "comodule-algebra" in failed_laws(broken)
        monkeypatch.setattr(dim5, "build_case", lambda c: broken)
        report = run_case(case)
        assert not report.inconsistent
        assert report.lines() == structure_failure_output(case).splitlines()
        assert cli.main(["dim5-check", "--case", case]) == 1
        assert capsys.readouterr().out == structure_failure_output(case)


class TestSubstituted:
    @staticmethod
    def parts(cand):
        """Every tensor, matrix and vector of the candidate."""
        return [
            cand.yd.action, cand.yd.coaction, cand.alg.mult, cand.alg.unit,
            cand.antipode, cand.lam,
        ]

    @staticmethod
    def scalars(cand):
        for part in TestSubstituted.parts(cand):
            if isinstance(part, Tensor3):
                yield from part.entries.values()
            elif isinstance(part, Matrix):
                for row in part.data:
                    yield from row
            else:
                yield from part

    @pytest.mark.parametrize("case", CASES)
    def test_empty_assignment_changes_nothing(self, case):
        cand = build_case(case)
        same = cand.substituted({})
        assert same.case == case and same.yd.base is cand.yd.base
        assert self.parts(same) == self.parts(cand)

    @pytest.mark.parametrize("case", CASES)
    def test_assigned_variables_disappear(self, case):
        cand = build_case(case)
        used = set().union(*(c.used_variables() for c in self.scalars(cand)))
        assert "zeta2" in used and ("gamma" in used) == (case != "A")
        sub = cand.substituted({"gamma": 1, "zeta2": 1})
        for c in self.scalars(sub):
            assert not c.used_variables() & {"gamma", "zeta2"}


class TestIntegralConstraints:
    def test_lambda_vu_is_minus_one(self):
        pa = build_case("B")
        report = check_integral_constraints(pa)
        step = next(s for s in report.steps if s.name == "lambda(vu)")
        assert step.ok

    def test_gamma_forced_to_one(self):
        report = check_integral_constraints(build_case("B"))
        assert report.forced.get("gamma") == 1
        assert report.forced.get("zeta2") == 1
        assert not report.inconsistent  # contradiction comes later for B

    def test_case_a_eliminated(self):
        report = check_integral_constraints(build_case("A"))
        assert report.inconsistent
        step = next(s for s in report.steps if s.name == "integral-coaction")
        assert not step.ok
        assert "g" in step.detail and "!= 0" in step.detail

    @pytest.mark.parametrize("case", CASES)
    def test_invariance_reads_the_action(self, case):
        # g . u = u: lambda(g.u) - eps(g) lambda(u) vanishes and forces nothing
        cand = with_entries(build_case(case), action={(G, U, U): 1})
        report = check_integral_constraints(cand)
        assert [(s.name, s.detail, s.ok) for s in report.steps] == [
            ("integral-invariance",
             "lambda(g.u) - eps(g) lambda(u) = 0, not forcing l_u = 0", False),
        ]
        assert not report.inconsistent
        if case != "A":
            assert not check_antipode_contradiction(cand).inconsistent

    def test_invariance_forces_only_its_variable(self):
        cand = build_case("B")
        alpha = cand.ring.var("alpha")
        perturbed = [
            # x . v = u forces l_u, not l_iota
            ({(X, IOTA, V): 0, (X, U, V): 1},
             "lambda(x.v) - eps(x) lambda(v) = l_u, not forcing l_iota = 0"),
            # g . v = alpha v forces nothing for an unknown alpha
            ({(G, V, V): alpha},
             "lambda(g.v) - eps(g) lambda(v) = lambda((alpha - 1).v), "
             "not forcing l_v = 0"),
        ]
        for action, detail in perturbed:
            broken = with_entries(cand, action=action)
            report = check_integral_constraints(broken)
            assert report.steps[-1].detail == detail
            assert not report.steps[-1].ok
            assert all(s.ok for s in report.steps[:-1])
            assert not check_antipode_contradiction(broken).inconsistent

    def test_dual_basis_residual_only_on_uv(self):
        report = check_integral_constraints(build_case("C"))
        for s in report.steps:
            if s.name.startswith("dual-basis"):
                if "[uv]" in s.name:
                    assert "gamma" in s.detail
                else:
                    assert s.detail == "exact"


class TestAntipodeContradiction:
    @pytest.mark.parametrize("case", ("B", "C"))
    def test_chain(self, case):
        report = check_antipode_contradiction(build_case(case))
        assert report.inconsistent
        assert report.forced == {"gamma": 1, "zeta2": 1, "alpha": 0, "zeta4": 1}
        uu = next(s for s in report.steps if s.name == "pair(u,u)")
        assert "residual = (2*alpha).iota" in uu.detail
        vu = next(s for s in report.steps if s.name == "pair(v,u)")
        assert "zeta4 = 1" in vu.detail

    def test_case_b_mismatch_is_minus_two_iota(self):
        report = check_antipode_contradiction(build_case("B"))
        uv_step = next(s for s in report.steps if s.name == "pair(u,v)")
        assert "mismatch = (-2).iota" in uv_step.detail

    def test_case_c_mismatch_is_minus_three_iota(self):
        report = check_antipode_contradiction(build_case("C"))
        uv_step = next(s for s in report.steps if s.name == "pair(u,v)")
        assert "mismatch = (-3).iota" in uv_step.detail

    def test_case_a_rejected(self):
        with pytest.raises(ValueError):
            check_antipode_contradiction(build_case("A"))

    def test_free_symbols_stay_free(self):
        # beta and eta and zeta3 are never assigned values
        for case in ("B", "C"):
            report = check_antipode_contradiction(build_case(case))
            assert "beta" not in report.forced
            assert "eta" not in report.forced
            assert "zeta3" not in report.forced


class TestRunCase:
    @pytest.mark.parametrize("case", CASES)
    def test_inconsistent_everywhere(self, case):
        report = run_case(case)
        assert report.inconsistent
        lines = report.lines()
        assert lines[0] == "case %s" % case
        assert lines[-1] == "INCONSISTENT"

    def test_deterministic(self):
        assert run_case("B").lines() == run_case("B").lines()


class TestTransport:
    """sweedler() lifted into the parameter ring, and the action on it."""

    def test_base_is_sweedler_entry_by_entry(self):
        cand = build_case("B")
        ring = cand.ring
        base = cand.yd.base
        sw = sweedler()
        assert base.field == ring and sw.field == Q
        lift = lambda vec: tuple(ring.promote(c) for c in vec)
        for got, want in (
            (base.algebra.mult, sw.algebra.mult),
            (base.comult, sw.comult),
        ):
            assert got.dims == want.dims
            assert got.entries == {k: ring.promote(c) for k, c in want.entries.items()}
        assert base.unit == lift(sw.unit)
        assert base.counit == lift(sw.counit)
        assert base.antipode.data == [list(lift(row)) for row in sw.antipode.data]

    @pytest.mark.parametrize("case", CASES)
    def test_gx_acts_as_g_after_x(self, case):
        cand = build_case(case)
        ring = cand.ring
        sw = sweedler()
        unit = lambda i: unit_vector(Q, 4, i)
        assert sw.algebra.multiply(unit(G), unit(X)) == unit(GX)
        act = action_matrices(cand.yd)
        assert act[GX] == act[G] * act[X]
        # gx . v = g . iota = iota and gx . uv = g . u = -u
        assert act[GX].column(V) == basis(cand, IOTA)
        assert act[GX].column(UV) == tuple(-c for c in basis(cand, U))
        assert act[ONE] == Matrix.identity(ring, 5)

    def test_kernels_report_the_unit_laws(self):
        # g . iota = -iota moves 1 = iota + e; rho(e) = g (x) e moves rho(1)
        cand = with_entries(
            build_case("B"),
            action={(G, IOTA, IOTA): -1},
            coaction={(E, ONE, E): 0, (E, G, E): 1},
        )
        assert (G,) in list(module_algebra_failures(cand.yd, cand.alg))
        assert list(comodule_algebra_failures(cand.yd, cand.alg))[0] == ("unit",)

    @pytest.mark.parametrize("part", sorted(PERTURBED_LAW))
    def test_perturbed_candidate_fails_its_law(self, part):
        assert PERTURBED_LAW[part] in failed_laws(_perturbed(part))

    @pytest.mark.parametrize("part", sorted(PERTURBED_LAW))
    def test_perturbed_candidate_ends_consistent(self, part, monkeypatch, capsys):
        monkeypatch.setattr(dim5, "build_case", lambda case: _perturbed(part))
        report = run_case("B")
        assert not report.inconsistent
        assert [s.name for s in report.steps] == ["structure"]
        assert cli.main(["dim5-check", "--case", "B"]) == 1
        assert capsys.readouterr().out == structure_failure_output("B")
