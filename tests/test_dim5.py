import itertools

import pytest

from hopfcheck import cli, dim5
from hopfcheck.cyclotomic import make_field
from hopfcheck.dim5 import (
    CASES,
    E,
    IOTA,
    U,
    UV,
    V,
    build_case,
    candidate_yd,
    check_antipode_contradiction,
    check_integral_constraints,
    run_case,
)
from hopfcheck.families import sweedler
from hopfcheck.yetter_drinfeld import (
    comodule_algebra_failures,
    module_algebra_failures,
    verify_yd,
)

Q = make_field(1)


def _perturbed(part):
    """Case B with one action, coaction or multiplication entry changed."""
    pa = build_case("B")
    two = pa.ring.promote(2)
    if part == "action":
        pa.action[1][(E, E)] = two  # g . e = 2e breaks g^2 = 1
    elif part == "coaction":
        pa.coaction[U] = {(1, U): two}  # rho(u) = 2 g (x) u breaks counitality
    else:
        prod = list(pa.table[(U, U)])
        prod[U] = pa.one  # u^2 = alpha iota + u breaks g . u^2 = (g . u)^2
        pa.table[(U, U)] = tuple(prod)
    return pa


def failed_laws(pa):
    """The library laws that candidate_yd(pa) breaks."""
    yd, alg = candidate_yd(pa)
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


class TestBuildCase:
    def test_case_b_coaction_of_u(self):
        pa = build_case("B")
        # rho(u) = g (x) u
        assert pa.coaction[U] == {(1, U): pa.one}

    def test_case_c_coaction_of_u(self):
        pa = build_case("C")
        assert set(pa.coaction[U]) == {(3, IOTA), (1, U)}

    def test_iota_action(self):
        for case in CASES:
            pa = build_case(case)
            iota = pa.basis_vec(IOTA)
            assert pa.act(2, iota) == (pa.zero,) * 5  # x . iota = 0
            assert pa.act(1, iota) == iota  # g . iota = iota

    def test_e_sector(self):
        pa = build_case("B")
        e = pa.basis_vec(E)
        assert pa.mul_vec(e, e) == e
        assert pa.mul_vec(e, pa.basis_vec(U)) == (pa.zero,) * 5
        assert pa.coact_vec(e) == {(0, E): pa.one}

    def test_table_is_associative_symbolically(self):
        for case in CASES:
            pa = build_case(case)
            for i, j, k in itertools.product(range(5), repeat=3):
                left = pa.mul_vec(pa.table[(i, j)], pa.basis_vec(k))
                right = pa.mul_vec(pa.basis_vec(i), pa.table[(j, k)])
                assert left == right, (case, i, j, k)

    def test_unit_law(self):
        pa = build_case("C")
        for i in range(5):
            b = pa.basis_vec(i)
            assert pa.mul_vec(pa.unit, b) == b
            assert pa.mul_vec(b, pa.unit) == b

    def test_antipode_is_module_map(self):
        # S(b . r) = b . S(r) for the ansatz, for b in {g, x}
        for case in CASES:
            pa = build_case(case)
            for h in (1, 2):
                for i in range(5):
                    lhs = pa.s_apply(pa.act(h, pa.basis_vec(i)))
                    rhs = pa.act(h, pa.s_apply(pa.basis_vec(i)))
                    assert lhs == rhs, (case, h, i)


class TestModuleComodule:
    @pytest.mark.parametrize("case", CASES)
    def test_all_laws_hold_identically(self, case):
        assert failed_laws(build_case(case)) == set()

    def test_case_b_uu_law_explicitly(self):
        pa = build_case("B")
        lhs = pa.coact_vec(pa.table[(U, U)])
        rhs = pa.tensor_mul(pa.coaction[U], pa.coaction[U])
        assert lhs == rhs

    def test_case_a_rho_uv_is_g_uv(self):
        pa = build_case("A")
        assert pa.coaction[UV] == {(1, UV): pa.one}

    def test_g_fixes_uv(self):
        for case in CASES:
            pa = build_case(case)
            uv = pa.basis_vec(UV)
            assert pa.act(1, uv) == uv


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
        report = check_antipode_contradiction(case)
        assert report.inconsistent
        assert report.forced == {"gamma": 1, "zeta2": 1, "alpha": 0, "zeta4": 1}
        uu = next(s for s in report.steps if s.name == "pair(u,u)")
        assert "residual = (2*alpha).iota" in uu.detail
        vu = next(s for s in report.steps if s.name == "pair(v,u)")
        assert "zeta4 = 1" in vu.detail

    def test_case_b_mismatch_is_minus_two_iota(self):
        report = check_antipode_contradiction("B")
        uv_step = next(s for s in report.steps if s.name == "pair(u,v)")
        assert "mismatch = (-2).iota" in uv_step.detail

    def test_case_c_mismatch_is_minus_three_iota(self):
        report = check_antipode_contradiction("C")
        uv_step = next(s for s in report.steps if s.name == "pair(u,v)")
        assert "mismatch = (-3).iota" in uv_step.detail

    def test_case_a_rejected(self):
        with pytest.raises(ValueError):
            check_antipode_contradiction("A")

    def test_free_symbols_stay_free(self):
        # beta and eta and zeta3 are never assigned values
        for case in ("B", "C"):
            report = check_antipode_contradiction(case)
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
    def test_base_is_sweedler_entry_by_entry(self):
        pa = build_case("B")
        ring = pa.ring
        base = candidate_yd(pa)[0].base
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

    def test_signed_permutation(self):
        # xg = -gx: sweedler's gx (index 3) acts as -xg, and the case C term
        # xg (x) iota of rho(u) becomes -gx (x) iota
        pa = build_case("C")
        yd, alg = candidate_yd(pa)
        assert yd.action[3].column(UV) == tuple(-c for c in pa.act(3, pa.basis_vec(UV)))
        assert yd.action[1].column(V) == pa.act(2, pa.basis_vec(V))
        assert yd.coaction.get(U, 3, IOTA) == -pa.one
        assert yd.coaction.get(U, 2, U) == pa.one
        assert alg.unit == pa.unit

    def test_kernels_report_the_unit_laws(self):
        # g . iota = -iota moves 1 = iota + e; rho(e) = g (x) e moves rho(1)
        pa = build_case("B")
        pa.action[1][(IOTA, IOTA)] = -pa.one
        pa.coaction[E] = {(1, E): pa.one}
        yd, alg = candidate_yd(pa)
        assert (2,) in list(module_algebra_failures(yd, alg))  # g is 2 there
        assert list(comodule_algebra_failures(yd, alg))[0] == ("unit",)

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
        assert capsys.readouterr().out == (
            "case B\n"
            "structure: module/comodule laws: RESIDUALS PRESENT\n"
            "CONSISTENT\n"
        )
