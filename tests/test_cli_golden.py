"""Golden CLI outputs: exact stdout and exit code of each verb on fixed inputs.

The law-checking code behind `verify` is shared by several suites; these
goldens pin every report line (law names, locations, detail strings and their
order), the manifest bytes written by `construct`, and the `invariants`,
`classify` and `dim5-check` reports, so a refactor can show it changed none
of them.  Broken manifests make each shared law print its failure lines.
"""

import hashlib

import pytest

from hopfcheck.cli import main
from hopfcheck.cyclotomic import make_field
from hopfcheck.families import group_algebra, sweedler
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.io import manifest_for, serialize
from hopfcheck.linalg import Matrix, Tensor3
from hopfcheck.yetter_drinfeld import BraidedHopf, YDModule


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_bytes(serialize(manifest_for(obj)))
    return path


# --- fixed inputs ------------------------------------------------------------


def nilpotent_line():
    """R = k[x]/(x^2) over k[Z_2]: g.x = -x, rho(x) = g (x) x; basis (1, x)."""
    base = group_algebra(2, make_field(1))
    f = base.field
    action = [
        Matrix.identity(f, 2),
        Matrix(f, [[1, 0], [0, -1]]),
    ]
    coaction = {(0, 0, 0): 1, (1, 1, 1): 1}
    mult = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}
    comult = {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    return base, action, coaction, mult, comult, (1, 0), Matrix(f, [[1, 0], [0, -1]])


def braided(coaction=None, comult=None, counit=None, antipode=None):
    base, action, coact, mult, delta, eps, anti = nilpotent_line()
    f = base.field
    yd = YDModule(base, 2, action, Tensor3(f, (2, 2, 2), coaction or coact))
    return BraidedHopf(
        yd,
        Tensor3(f, (2, 2, 2), mult),
        (1, 0),
        Tensor3(f, (2, 2, 2), comult or delta),
        counit or eps,
        antipode or anti,
    )


def hopf_variant(counit=None, comult=None, antipode=None):
    """Sweedler's algebra (basis 1, x, g, gx) with one structure replaced."""
    h = sweedler()
    entries = dict(h.comult.entries)
    entries.update(comult or {})
    return HopfAlgebra(
        h.algebra,
        Tensor3(h.field, h.comult.dims, entries),
        counit or h.counit,
        antipode or h.antipode,
    )


def without_antipode(h):
    return HopfAlgebra(h.algebra, h.comult, h.counit)


def flipped_s_of_x():
    s = sweedler().antipode
    data = [list(row) for row in s.data]
    for row in data:
        row[1] = -row[1]
    return Matrix(s.field, data)


# --- construct ---------------------------------------------------------------

CONSTRUCT = {
    "sweedler": (
        ["sweedler"],
        4,
        "1ce47fa82b49bb1d46fc23e6202506561b68037edd08850bdf8b0dd62201a93b",
    ),
    "A(3,0)": (
        ["a_tau_mu", "--p", 3, "--q", 2, "--mu", 0],
        12,
        "5cfebf97cd0d31ca16837a2be86ded7e931a06e400d2b53bb3692ca438382b98",
    ),
    "A(3,1)": (
        ["a_tau_mu", "--p", 3, "--q", 2, "--mu", 1],
        12,
        "6ec023b7c07b7e21fd4e3ed87acb562057e742900e615e6bb573d26646a62f5b",
    ),
    "T2xk[Z3]": (
        ["taft_tensor_group", "--p", 3, "--q", 2],
        12,
        "f7aa62160302304c098a5f861ba3ff5510425cc4607543b121859b0a31a339d5",
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCT))
def test_construct_manifest_bytes(capsys, tmp_path, name):
    argv, dim, digest = CONSTRUCT[name]
    out = tmp_path / "m.json"
    code, stdout, stderr = run(capsys, "construct", *argv, "-o", out)
    assert code == 0
    assert stdout == "wrote %s (%s, dim %d)\n" % (out, argv[0], dim)
    assert stderr == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# --- verify ------------------------------------------------------------------

HOPF_OK = """\
associativity: ok
unit: ok
coassociativity: ok
counit: ok
comult-algebra-map: ok
counit-algebra-map: ok
antipode-left: ok
antipode-right: ok
"""

DUAL_A31 = "f3e18519d671feec01a0a6ea6d8c8d2d73f699cc3a58e439059072f37b1410a4"

VERIFY = {
    "hopf-solved": (lambda: without_antipode(sweedler()), 0, """\
antipode: solved
associativity: ok
unit: ok
coassociativity: ok
counit: ok
comult-algebra-map: ok
counit-algebra-map: ok
antipode-left: ok
antipode-right: ok
"""),
    "hopf-unsolvable": (
        lambda: without_antipode(hopf_variant(comult={(1, 0, 0): 1})), 1,
        "antipode: unsolvable (right antipode law fails on basis 1)\n"),
    "hopf-counit": (
        lambda: hopf_variant(counit=(1, 1, 1, 0)), 1, """\
associativity: ok
unit: ok
coassociativity: ok
counit: FAIL (2 violations)
  at (1) (eps(x)id)D != id
  at (1) (id(x)eps)D != id
comult-algebra-map: ok
counit-algebra-map: FAIL (5 violations)
  at (1,1) eps(ab) != eps(a)eps(b)
  at (1,2) eps(ab) != eps(a)eps(b)
  at (2,1) eps(ab) != eps(a)eps(b)
  at (2,3) eps(ab) != eps(a)eps(b)
  at (3,2) eps(ab) != eps(a)eps(b)
antipode-left: FAIL (1 violations)
  at (1) m(S(x)id)D != u.eps
antipode-right: FAIL (1 violations)
  at (1) m(id(x)S)D != u.eps
"""),
    "hopf-coassociativity": (
        lambda: hopf_variant(comult={(1, 1, 1): 1}), 1, """\
associativity: ok
unit: ok
coassociativity: FAIL (1 violations)
  at (1) (D(x)id)D != (id(x)D)D
counit: ok
comult-algebra-map: FAIL (4 violations)
  at (1,2) D(ab) != D(a)D(b)
  at (2,1) D(ab) != D(a)D(b)
  at (2,3) D(ab) != D(a)D(b)
  at (3,2) D(ab) != D(a)D(b)
counit-algebra-map: ok
antipode-left: ok
antipode-right: ok
"""),
    "hopf-antipode": (
        lambda: hopf_variant(antipode=flipped_s_of_x()), 1, """\
associativity: ok
unit: ok
coassociativity: ok
counit: ok
comult-algebra-map: ok
counit-algebra-map: ok
antipode-left: FAIL (1 violations)
  at (1) m(S(x)id)D != u.eps
antipode-right: FAIL (1 violations)
  at (1) m(id(x)S)D != u.eps
"""),
    "yd": (lambda: braided().yd, 0, """\
module: ok
comodule: ok
yd-compatibility: ok
"""),
    "yd-comodule": (
        lambda: braided(coaction={(0, 0, 0): 1, (1, 1, 1): 2}).yd, 1, """\
module: ok
comodule: FAIL (2 violations)
  at (1) (eps (x) id) rho != id
  at (1) coaction not coassociative
yd-compatibility: ok
"""),
    "braided": (braided, 0, """\
yd-structure: ok
algebra: ok
coalgebra: ok
module-algebra: ok
comodule-algebra: ok
module-coalgebra: ok
comodule-coalgebra: ok
braided-comult-multiplicative: ok
antipode-law: ok
braided-antipode-antihom: ok
"""),
    "braided-counit": (
        lambda: braided(counit=(1, 1)), 1, """\
yd-structure: ok
algebra: ok
coalgebra: FAIL (1 violations)
  at (1) counit law fails
module-algebra: ok
comodule-algebra: ok
module-coalgebra: FAIL (1 violations)
  at (1,1) eps not a module map
comodule-coalgebra: FAIL (1 violations)
  at (1) eps not a comodule map
braided-comult-multiplicative: ok
antipode-law: FAIL (1 violations)
  at (1) convolution law fails
braided-antipode-antihom: ok
"""),
    "braided-coalgebra": (
        lambda: braided(comult={(0, 0, 0): 1, (1, 0, 1): 2, (1, 1, 0): 1}), 1,
        """\
yd-structure: ok
algebra: ok
coalgebra: FAIL (2 violations)
  at (1) counit law fails
  at (1) comult not coassociative
module-algebra: ok
comodule-algebra: ok
module-coalgebra: ok
comodule-coalgebra: ok
braided-comult-multiplicative: ok
antipode-law: FAIL (1 violations)
  at (1) convolution law fails
braided-antipode-antihom: ok
"""),
    "braided-antipode": (
        lambda: braided(antipode=Matrix.identity(make_field(1), 2)), 1,
        """\
yd-structure: ok
algebra: ok
coalgebra: ok
module-algebra: ok
comodule-algebra: ok
module-coalgebra: ok
comodule-coalgebra: ok
braided-comult-multiplicative: ok
antipode-law: FAIL (1 violations)
  at (1) convolution law fails
braided-antipode-antihom: ok
"""),
}


@pytest.mark.parametrize("name", sorted(VERIFY))
def test_verify_report(capsys, tmp_path, name):
    build, exit_code, expected = VERIFY[name]
    path = write(tmp_path, "m.json", build())
    code, stdout, stderr = run(capsys, "verify", path)
    assert (code, stdout, stderr) == (exit_code, expected, "")


def test_verify_constructed_hopf_and_dual(capsys, tmp_path):
    path = tmp_path / "a.json"
    dualized = tmp_path / "ad.json"
    run(capsys, "construct", *CONSTRUCT["A(3,1)"][0], "-o", path)
    assert run(capsys, "verify", path) == (0, HOPF_OK, "")
    assert run(capsys, "dualize", path, "-o", dualized) == (
        0, "wrote %s\n" % dualized, "")
    assert hashlib.sha256(dualized.read_bytes()).hexdigest() == DUAL_A31
    assert run(capsys, "verify", dualized) == (0, HOPF_OK, "")


# --- invariants and classify at p = 3 -----------------------------------------

REPORTS = {
    ("invariants", "A(3,1)"): """\
dim: 12
group_likes: 6
group_like_orders: 1,2,3,3,6,6
dual_group_likes: 2
trace_s2: 0
antipode_order: 4
semisimple: no
pointed: yes
dual_pointed: no
skew_primitives[ord 1, ord 6]: 1
skew_primitives[ord 2, ord 3]: 1
skew_primitives[ord 3, ord 2]: 1
skew_primitives[ord 3, ord 6]: 1
skew_primitives[ord 6, ord 1]: 1
skew_primitives[ord 6, ord 3]: 1
""",
    ("invariants", "T2xk[Z3]"): """\
dim: 12
group_likes: 6
group_like_orders: 1,2,3,3,6,6
dual_group_likes: 6
trace_s2: 0
antipode_order: 4
semisimple: no
pointed: yes
dual_pointed: yes
skew_primitives[ord 1, ord 2]: 1
skew_primitives[ord 2, ord 1]: 1
skew_primitives[ord 3, ord 6]: 2
skew_primitives[ord 6, ord 3]: 2
""",
    ("classify", "A(3,0)"): """\
A(tau,0)
""",
    ("classify", "A(3,1)"): """\
A(tau,1)
""",
    ("classify", "T2xk[Z3]"): """\
Tq x k[Zp]
""",
}


@pytest.mark.parametrize("verb,name", sorted(REPORTS))
def test_fingerprint_reports(capsys, tmp_path, verb, name):
    path = tmp_path / "m.json"
    run(capsys, "construct", *CONSTRUCT[name][0], "-o", path)
    code, stdout, stderr = run(capsys, verb, path)
    assert (code, stdout, stderr) == (0, REPORTS[(verb, name)], "")


# --- dim5-check ----------------------------------------------------------------

DIM5 = {"A": """\
case A
structure: module/comodule laws: all residuals zero
integral-invariance: lambda(g.u) - eps(g) lambda(u) = -2*l_u, forcing l_u = 0
integral-invariance: lambda(g.v) - eps(g) lambda(v) = -2*l_v, forcing l_v = 0
integral-invariance: lambda(x.v) - eps(x) lambda(v) = l_iota, forcing l_iota = 0
lambda: lambda = (0, 0, 0, 1, 1) on (iota, u, v, uv, e)
lambda(vu): lambda(vu) = (0) lambda(iota) - lambda(uv) = -1
rho(uv): (1).g(x)uv
integral-coaction: r_{-1} lambda(r_0) - lambda(uv) 1 = (-1).1 + (1).g != 0
INCONSISTENT
""", "B": """\
case B
structure: module/comodule laws: all residuals zero
integral-invariance: lambda(g.u) - eps(g) lambda(u) = -2*l_u, forcing l_u = 0
integral-invariance: lambda(g.v) - eps(g) lambda(v) = -2*l_v, forcing l_v = 0
integral-invariance: lambda(x.v) - eps(x) lambda(v) = l_iota, forcing l_iota = 0
lambda: lambda = (0, 0, 0, 1, 1) on (iota, u, v, uv, e)
lambda(vu): lambda(vu) = (gamma) lambda(iota) - lambda(uv) = -1
dual-basis[iota]: exact
dual-basis[u]: exact
dual-basis[v]: exact
dual-basis[uv]: residual (gamma).iota
dual-basis[e]: exact
counit-contraction: sum d_i d'_i = (gamma).iota + (1).e; equating to 1_R forces gamma = 1
antipode-normalization: (lambda (x) id) of the S-mapped dual basis = (zeta2).iota + (1).e; equating to 1_R forces zeta2 = 1
pair(u,u): S(u^2) = (alpha).iota; (u_-1 . S(u)) S(u_0) = (-alpha).iota; residual = (2*alpha).iota -> alpha = 0
pair(v,u): S(vu) = (-zeta4 + 1).iota + (-1).uv; (v_-1 . S(u)) S(v_0) = (-1).uv; residual = (-zeta4 + 1).iota -> zeta4 = 1
pair(u,v): computed = (-1).iota + (1).uv; required S(uv) = (1).iota + (1).uv; mismatch = (-2).iota
INCONSISTENT
""", "C": """\
case C
structure: module/comodule laws: all residuals zero
integral-invariance: lambda(g.u) - eps(g) lambda(u) = -2*l_u, forcing l_u = 0
integral-invariance: lambda(g.v) - eps(g) lambda(v) = -2*l_v, forcing l_v = 0
integral-invariance: lambda(x.v) - eps(x) lambda(v) = l_iota, forcing l_iota = 0
lambda: lambda = (0, 0, 0, 1, 1) on (iota, u, v, uv, e)
lambda(vu): lambda(vu) = (gamma) lambda(iota) - lambda(uv) = -1
dual-basis[iota]: exact
dual-basis[u]: exact
dual-basis[v]: exact
dual-basis[uv]: residual (gamma).iota
dual-basis[e]: exact
counit-contraction: sum d_i d'_i = (gamma).iota + (1).e; equating to 1_R forces gamma = 1
antipode-normalization: (lambda (x) id) of the S-mapped dual basis = (zeta2).iota + (1).e; equating to 1_R forces zeta2 = 1
pair(u,u): S(u^2) = (alpha).iota; (u_-1 . S(u)) S(u_0) = (-alpha).iota; residual = (2*alpha).iota -> alpha = 0
pair(v,u): S(vu) = (-zeta4 + 1).iota + (-1).uv; (v_-1 . S(u)) S(v_0) = (-1).uv; residual = (-zeta4 + 1).iota -> zeta4 = 1
pair(u,v): computed = (-2).iota + (1).uv; required S(uv) = (1).iota + (1).uv; mismatch = (-3).iota
INCONSISTENT
"""}


@pytest.mark.parametrize("case", sorted(DIM5))
def test_dim5_check_report(capsys, case):
    code, stdout, stderr = run(capsys, "dim5-check", "--case", case)
    assert (code, stdout, stderr) == (0, DIM5[case], "")
