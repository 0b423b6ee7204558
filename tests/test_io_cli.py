import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcheck
from hopfcheck import cli
from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import make_field
from hopfcheck.families import a_tau_mu, group_algebra, sweedler, taft_tensor_group
from hopfcheck.hopf import (
    AntipodeOrderOverflow,
    DegenerateIntegral,
    HopfAlgebra,
    NotGroupLike,
    dual,
    structure_equal,
    verify_hopf,
)
from hopfcheck.linalg import Matrix, Tensor3
from hopfcheck.io import (
    ParseError,
    SchemaVersionMismatch,
    _write,
    manifest_for,
    parse,
    serialize,
)
from hopfcheck.yetter_drinfeld import (
    BraidedHopf,
    YDModule,
    ordinary_to_braided,
    trivial_yd,
)
from test_hopf import cyclic_antipode_z33, idempotent_monoid, per_pair_skew_profile
from test_verify_generators import INPUTS as PERTURBED_INPUTS
from test_verify_generators import with_perturbations
from test_yetter_drinfeld import action_matrices


# the directory holding the imported package, so the CLI subprocess runs the
# same code even when the suite was started without PYTHONPATH
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "hopfcheck.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


class TestRoundTrip:
    def test_sweedler_round_trip(self):
        h = sweedler()
        data = serialize(manifest_for(h))
        back = parse(data)
        assert back.object_kind == "hopf"
        assert structure_equal(back.payload, h)
        assert serialize(manifest_for(back.payload)) == data

    def test_a_tau_mu_round_trip(self):
        h = a_tau_mu(3, 2, -1, 1)
        data = serialize(manifest_for(h))
        assert structure_equal(parse(data).payload, h)

    def test_braided_round_trip(self):
        base = sweedler(make_field(12))
        r = ordinary_to_braided(group_algebra(3, make_field(12)), base)
        data = serialize(manifest_for(r))
        back = parse(data).payload
        assert back.mult == r.mult
        assert back.comult == r.comult
        assert back.yd.coaction == r.yd.coaction
        assert back.yd.action == r.yd.action
        assert serialize(manifest_for(back)) == data

    def test_yd_round_trip(self):
        base = sweedler()
        v = trivial_yd(base, 3)
        data = serialize(manifest_for(v))
        back = parse(data).payload
        assert back.dim == 3 and back.coaction == v.coaction

    def test_determinism(self):
        h = group_algebra(4)
        assert serialize(manifest_for(h)) == serialize(manifest_for(h))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_action_tensors_round_trip(self, data):
        """yd and braided manifests with random sparse action and coaction
        tensors parse back to equal tensors and re-serialize to the same
        bytes."""
        field = data.draw(st.sampled_from(sorted(BASES, key=lambda f: f.order)))
        base = BASES[field]
        n = data.draw(st.integers(1, 3))
        action = data.draw(sparse_tensors(field, (base.dim, n, n)))
        coaction = data.draw(sparse_tensors(field, (n, base.dim, n)))
        yd = YDModule(base, n, action, coaction)
        obj = yd
        if data.draw(st.booleans()):
            r = ordinary_to_braided(group_algebra(n, field), base)
            obj = BraidedHopf(yd, r.mult, r.unit, r.comult, r.counit, r.antipode)
        encoded = serialize(manifest_for(obj))
        back = parse(encoded).payload
        back_yd = back if obj is yd else back.yd
        assert (back_yd.action, back_yd.coaction) == (action, coaction)
        assert serialize(manifest_for(back)) == encoded


BASES = {f: sweedler(f) for f in (make_field(1), make_field(12))}


@st.composite
def sparse_tensors(draw, field, dims):
    """A Tensor3 with up to six random entries over field."""
    coeffs = st.fractions(-3, 3, max_denominator=4)
    element = st.lists(coeffs, min_size=field.degree, max_size=field.degree)
    key = st.tuples(*(st.integers(0, d - 1) for d in dims))
    entries = draw(st.dictionaries(key, element.map(field.element), max_size=6))
    return Tensor3(field, dims, entries)


def ref_doc(m):
    """The manifest document with each field element as its list of
    rational strings, the form the stdlib encoder writes."""

    def vector(vec):
        return [el.to_strings() for el in vec]

    def matrix(mat):
        return [vector(row) for row in mat.data]

    def tensor(t):
        return {
            "dims": list(t.dims),
            "entries": [[i, j, k, c.to_strings()] for (i, j, k), c in t.sorted_entries()],
        }

    def structure(h):
        return {
            "mult": tensor(h.algebra.mult),
            "unit": vector(h.unit),
            "comult": tensor(h.comult),
            "counit": vector(h.counit),
        }

    def hopf(h):
        out = {"field": h.field.order, "dim": h.dim, **structure(h)}
        if h.antipode is not None:
            out["antipode"] = matrix(h.antipode)
        return out

    def yd(v):
        return {
            "base": hopf(v.base),
            "dim": v.dim,
            "action": [matrix(a) for a in action_matrices(v)],
            "coaction": tensor(v.coaction),
        }

    obj = m.payload
    if m.object_kind == "hopf":
        payload = hopf(obj)
    elif m.object_kind == "yd":
        payload = yd(obj)
    else:
        payload = {**yd(obj.yd), **structure(obj), "antipode": matrix(obj.antipode)}
    return {
        "schema_version": m.schema_version,
        "object_kind": m.object_kind,
        "payload": payload,
    }


def _odd_elements(field):
    """Elements with negative and non-unit denominators, rational and not."""
    z = field.zeta() if field.degree > 1 else field.one()
    return [
        field.from_rational(Fraction(-3, 4)),
        field.from_rational(Fraction(5, 6)) * z - field.from_rational(Fraction(1, 9)),
        field.from_rational(-7) * z * z + field.from_rational(Fraction(-2, 35)),
    ]


def _odd_hopf(field):
    """Sweedler's tensors over field with odd constants in unit, counit and
    antipode: no Hopf algebra, but the writer needs none."""
    h = sweedler(field)
    odd = _odd_elements(field)
    anti = Matrix(field, [[odd[(i + j) % 3] for j in range(4)] for i in range(4)])
    return HopfAlgebra(
        AssocAlgebra(field, 4, h.algebra.mult, [odd[0], odd[1], 0, odd[2]]),
        h.comult,
        [odd[2], 0, odd[1], 1],
        anti,
    )


def _empty_tensor_hopf():
    field = make_field(1)
    empty = Tensor3(field, (1, 1, 1), {})
    return HopfAlgebra(AssocAlgebra(field, 1, empty, [1]), empty, [1])


def _no_antipode(h):
    return HopfAlgebra(h.algebra, h.comult, h.counit)


WRITER_CASES = {
    "hopf": lambda: a_tau_mu(3, 2, -1, 1),
    "hopf-no-antipode": lambda: _no_antipode(a_tau_mu(3, 2, -1, 1)),
    "hopf-dual": lambda: dual(taft_tensor_group(2, -1, 3)),
    "yd": lambda: trivial_yd(sweedler(make_field(12)), 3),
    "braided": lambda: ordinary_to_braided(
        group_algebra(3, make_field(12)), sweedler(make_field(12))
    ),
    "empty-tensor": _empty_tensor_hopf,
    "odd-Q": lambda: _odd_hopf(make_field(1)),
    "odd-Q12": lambda: _odd_hopf(make_field(12)),
}


class TestWriter:
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_bytes_equal_stdlib_encoder(self, case):
        m = manifest_for(WRITER_CASES[case]())
        expected = json.dumps(ref_doc(m), sort_keys=True, indent=1) + "\n"
        data = serialize(m)
        assert data == expected.encode()
        assert serialize(manifest_for(parse(data).payload)) == data

    @pytest.mark.parametrize("leaf", [1.5, True, None, (1,), Fraction(1, 2)])
    def test_other_types_raise(self, leaf):
        with pytest.raises(TypeError):
            _write({"x": [leaf]}, 0, [], {})


class TestParseErrors:
    def _doc(self):
        return json.loads(serialize(manifest_for(sweedler())).decode())

    def test_zero_denominator_names_field(self):
        doc = self._doc()
        doc["payload"]["unit"][0][0] = "1/0"
        with pytest.raises(ParseError) as err:
            parse(json.dumps(doc).encode())
        assert "payload.unit[0][0]" in str(err.value)
        assert "denominator 0" in str(err.value)

    def test_schema_version_mismatch(self):
        doc = self._doc()
        doc["schema_version"] = "2"
        with pytest.raises(SchemaVersionMismatch):
            parse(json.dumps(doc).encode())

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse(b"{\n  broken\n}")
        assert "line" in str(err.value)

    def test_missing_field(self):
        doc = self._doc()
        del doc["payload"]["mult"]
        with pytest.raises(ParseError) as err:
            parse(json.dumps(doc).encode())
        assert "payload.mult" in str(err.value)

    def test_bad_tensor_entry(self):
        doc = self._doc()
        doc["payload"]["mult"]["entries"][0] = [0, 0]
        with pytest.raises(ParseError) as err:
            parse(json.dumps(doc).encode())
        assert "entries[0]" in str(err.value)

    def test_unknown_kind(self):
        doc = self._doc()
        doc["object_kind"] = "frobenius"
        with pytest.raises(ParseError):
            parse(json.dumps(doc).encode())

    @pytest.mark.parametrize("kind", ("yd", "braided"))
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda a: a.pop(), "payload.action must have one matrix per base basis element"),
            (lambda a: a.append(a[0]), "payload.action must have one matrix per base basis element"),
            (lambda a: a[1].pop(), "payload.action[1] must have 2 rows"),
            (lambda a: a[3].append(a[3][0]), "payload.action[3] must have 2 rows"),
            (lambda a: a[1][0].pop(), "payload.action[1][0] must be a list of length 2"),
        ],
        ids=["one-matrix-short", "one-matrix-long", "row-short", "row-long", "column-short"],
    )
    def test_action_list_shape_errors(self, kind, edit, message):
        """Each matrix of the action is read with its own path."""
        base = sweedler()
        r = ordinary_to_braided(group_algebra(2, base.field), base)
        doc = json.loads(serialize(manifest_for(r if kind == "braided" else r.yd)))
        edit(doc["payload"]["action"])
        with pytest.raises(ParseError) as err:
            parse(json.dumps(doc).encode())
        assert str(err.value) == message

    @pytest.mark.parametrize("order", (3, 30030, 10**40))
    def test_field_order_must_match_element_length(self, order):
        """Sweedler's elements have length 1 = phi(1).  Q(zeta_3) has degree
        2; an order above 2 * 1^2 is refused before make_field, which takes
        seconds for the 30030th cyclotomic polynomial."""
        doc = self._doc()
        doc["payload"]["field"] = order
        start = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse(json.dumps(doc).encode())
        assert time.perf_counter() - start < 1.0
        assert "payload.field %d does not have degree 1" % order in str(err.value)


def _set_field(doc, value):
    doc["payload"]["field"] = value


def _set_dim(doc, value):
    doc["payload"]["dim"] = value


def _set_tensor_indices(doc, value):
    doc["payload"]["mult"]["entries"][0][:3] = [value] * 3


def _set_tensor_dims(doc, value):
    doc["payload"]["mult"]["dims"] = [value] * 3


class TestBooleansAreNotIntegers:
    """JSON true/false load as Python bools, a subclass of int.

    On k[Z_1] over Q every integer field is 0 or 1, so a bool in its place
    would otherwise parse to the same structure.
    """

    @pytest.mark.parametrize(
        "setter,bad,path",
        [
            (_set_field, True, "payload.field"),
            (_set_dim, True, "payload.dim"),
            (_set_tensor_indices, False, "payload.mult.entries[0]"),
            (_set_tensor_dims, True, "payload.mult.dims"),
        ],
    )
    def test_hopf_field_rejects_bool(self, setter, bad, path):
        doc = json.loads(serialize(manifest_for(group_algebra(1))).decode())
        parse(json.dumps(doc).encode())
        setter(doc, bad)
        with pytest.raises(ParseError) as err:
            parse(json.dumps(doc).encode())
        assert path in str(err.value)

    def test_yd_dim_rejects_bool(self):
        doc = json.loads(serialize(manifest_for(trivial_yd(group_algebra(1), 1))))
        parse(json.dumps(doc).encode())
        doc["payload"]["dim"] = True
        with pytest.raises(ParseError) as err:
            parse(json.dumps(doc).encode())
        assert "payload.dim" in str(err.value)


class TestCli:
    def test_construct_verify_classify(self, tmp_path):
        out = tmp_path / "a.json"
        r = run_cli(
            "construct", "a_tau_mu", "--p", "5", "--q", "2", "--mu", "1",
            "-o", str(out),
        )
        assert r.returncode == 0, r.stderr
        v = run_cli("verify", str(out))
        assert v.returncode == 0, v.stdout + v.stderr
        assert "antipode-left: ok" in v.stdout
        c = run_cli("classify", str(out))
        assert c.returncode == 0
        assert c.stdout.strip() == "A(tau,1)"

    def test_classify_dual(self, tmp_path):
        out = tmp_path / "a.json"
        dualed = tmp_path / "ad.json"
        run_cli(
            "construct", "a_tau_mu", "--p", "3", "--q", "2", "--mu", "1",
            "-o", str(out),
        )
        d = run_cli("dualize", str(out), "-o", str(dualed))
        assert d.returncode == 0
        c = run_cli("classify", str(dualed))
        assert c.stdout.strip() == "A(tau,1)*"

    def test_invariants_deterministic(self, tmp_path):
        out = tmp_path / "g.json"
        run_cli("construct", "group_algebra", "--n", "6", "-o", str(out))
        one = run_cli("invariants", str(out))
        two = run_cli("invariants", str(out))
        assert one.returncode == 0
        assert one.stdout == two.stdout
        assert "group_likes: 6" in one.stdout
        assert "semisimple: yes" in one.stdout

    def test_verify_failure_exit_code(self, tmp_path):
        out = tmp_path / "s.json"
        run_cli("construct", "sweedler", "-o", str(out))
        doc = json.loads(out.read_text())
        # flip the sign of S(x): antipode column 1 (basis order 1, x, g, gx)
        for row in doc["payload"]["antipode"]:
            row[1] = ["%s/%s" % (-int(c.split("/")[0]), c.split("/")[1]) for c in row[1]]
        out.write_text(json.dumps(doc))
        v = run_cli("verify", str(out))
        assert v.returncode == 1
        assert "FAIL" in v.stdout

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("verify", str(bad)).returncode == 2

    def test_usage_error_exit_code(self):
        assert run_cli("construct", "nonsense", "-o", "x.json").returncode == 2

    def test_bosonize_cli(self, tmp_path):
        base_file = tmp_path / "h4.json"
        r_file = tmp_path / "r.json"
        out = tmp_path / "boso.json"
        base = sweedler(make_field(12))
        r = ordinary_to_braided(group_algebra(3, make_field(12)), base)
        base_file.write_bytes(serialize(manifest_for(base)))
        r_file.write_bytes(serialize(manifest_for(r)))
        b = run_cli("bosonize", str(r_file), str(base_file), "-o", str(out))
        assert b.returncode == 0, b.stderr
        v = run_cli("verify", str(out))
        assert v.returncode == 0

    @pytest.mark.parametrize("case", ("A", "B", "C"))
    def test_dim5_check(self, case):
        r = run_cli("dim5-check", "--case", case)
        assert r.returncode == 0
        assert r.stdout.strip().endswith("INCONSISTENT")
        if case != "A":
            assert "gamma = 1" in r.stdout
            assert "alpha = 0" in r.stdout
            assert "zeta4 = 1" in r.stdout
            assert "mismatch = (-%d).iota" % (2 if case == "B" else 3) in r.stdout

    def test_dim5_deterministic(self):
        a = run_cli("dim5-check", "--case", "B").stdout
        b = run_cli("dim5-check", "--case", "B").stdout
        assert a == b


@pytest.fixture(scope="module")
def dual_a51_without_antipode(tmp_path_factory):
    """A(5,1)* (dim 20) with its antipode stripped: the antipode comes from
    the integrals."""
    d = dual(a_tau_mu(5, 2, -1, 1))
    path = tmp_path_factory.mktemp("hostile") / "a51dual.json"
    stripped = HopfAlgebra(d.algebra, d.comult, d.counit)
    path.write_bytes(serialize(manifest_for(stripped)))
    return path


@pytest.fixture(scope="module")
def idempotent_monoid_file(tmp_path_factory):
    """k[{1, z}] with z^2 = z and Delta(z) = z (x) z: a bialgebra with no
    antipode."""
    path = tmp_path_factory.mktemp("hostile") / "monoid.json"
    path.write_bytes(serialize(manifest_for(idempotent_monoid())))
    return path


class TestCliErrors:
    def test_closed_stdout_exits_1_without_traceback(self):
        """The reader of stdout is gone before the first line is written."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "hopfcheck.cli", "dim5-check", "--case", "A"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=cli_env(),
            )
        finally:
            os.close(write_end)
        assert (r.returncode, r.stderr) == (1, b"")

    def test_verify_solves_a51_dual(self, dual_a51_without_antipode):
        r = run_cli("verify", str(dual_a51_without_antipode))
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.startswith("antipode: solved\n")

    def test_dualize_a51_dual_gives_a51(self, dual_a51_without_antipode, tmp_path):
        out = tmp_path / "out.json"
        r = run_cli("dualize", str(dual_a51_without_antipode), "-o", str(out))
        assert (r.returncode, r.stderr) == (0, "")
        assert structure_equal(parse(out.read_bytes()).payload, a_tau_mu(5, 2, -1, 1))

    def test_verify_without_antipode_is_one_line(self, idempotent_monoid_file):
        r = run_cli("verify", str(idempotent_monoid_file))
        assert (r.returncode, r.stdout, r.stderr) == (
            1, "antipode: unsolvable (lam(x Lambda_1) Lambda_2 is singular)\n", ""
        )

    @pytest.mark.parametrize("verb", ("invariants", "classify", "dualize"))
    def test_no_antipode_is_one_error_line(
        self, idempotent_monoid_file, tmp_path, verb
    ):
        argv = [verb, str(idempotent_monoid_file)]
        if verb == "dualize":
            argv += ["-o", str(tmp_path / "out.json")]
        r = run_cli(*argv)
        assert (r.returncode, r.stdout, r.stderr) == (
            1, "", "verification failure: lam(x Lambda_1) Lambda_2 is singular\n"
        )

    def test_antipode_order_beyond_the_cap_is_one_error_line(self, tmp_path):
        """The 33-cycle antipode fails the antipode laws, which invariants
        checks before it takes the order."""
        path = tmp_path / "z33.json"
        path.write_bytes(serialize(manifest_for(cyclic_antipode_z33())))
        r = run_cli("invariants", str(path))
        assert (r.returncode, r.stdout, r.stderr) == (
            1, "", "verification failure: antipode-left fails at (0)\n"
        )

    @pytest.mark.parametrize(
        "exc",
        (ArithmeticError, DegenerateIntegral, AntipodeOrderOverflow, NotGroupLike),
    )
    def test_computation_errors_exit_1(self, monkeypatch, capsys, tmp_path, exc):
        path = tmp_path / "s.json"
        path.write_bytes(serialize(manifest_for(sweedler())))

        def fail(h):
            raise exc("boom")

        monkeypatch.setattr(cli, "classify_4p", fail)
        assert cli.main(["classify", str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: boom\n")

    @pytest.mark.parametrize(
        "verb, build, entry, message",
        (
            ("invariants", sweedler, (0, 2, 3), "coassociativity fails at (0)"),
            ("classify", lambda: a_tau_mu(3, 2, -1, 1), (2, 2, 2),
             "coassociativity fails at (1)"),
            ("invariants", sweedler, (3, 2, 3), "coassociativity fails at (3)"),
            ("classify", sweedler, (3, 2, 3), "coassociativity fails at (3)"),
        ),
    )
    def test_invariant_errors_on_invalid_input_name_the_law(
        self, capsys, tmp_path, verb, build, entry, message
    ):
        """One comultiplication constant bumped, the antipode kept: verify_hopf
        names the first failed law before any invariant is computed.  With
        the extra g (x) gx in Delta(gx) of Sweedler (basis 1, x, g, gx)
        group_likes succeeds, but the skew profile's translation needs a Hopf
        algebra, and classify refuses the input before its dimension check."""
        h = build()
        entries = dict(h.comult.entries)
        entries[entry] = entries.get(entry, h.field.zero()) + h.field.one()
        comult = type(h.comult)(h.field, h.comult.dims, entries)
        bad = HopfAlgebra(h.algebra, comult, h.counit, h.antipode)
        path = tmp_path / "bad.json"
        path.write_bytes(serialize(manifest_for(bad)))
        assert cli.main([verb, str(path)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "verification failure: %s\n" % message
        )

    @pytest.mark.parametrize("name", PERTURBED_INPUTS)
    def test_invariants_on_perturbed_inputs(self, capsys, tmp_path, name):
        """Each one-constant change of an input: a failing verify_hopf is one
        stderr line and exit 1, and on a Hopf algebra the skew lines are the
        per-pair oracle's."""
        path = tmp_path / "h.json"
        for label, h in with_perturbations(name):
            path.write_bytes(serialize(manifest_for(h)))
            code = cli.main(["invariants", str(path)])
            captured = capsys.readouterr()
            if not verify_hopf(h).ok:
                assert (code, captured.out) == (1, ""), label
                assert captured.err.startswith("verification failure: "), label
                assert captured.err.count("\n") == 1, label
                continue
            assert (code, captured.err) == (0, ""), label
            skew = [x for x in captured.out.splitlines() if x.startswith("skew_")]
            expected = sorted(per_pair_skew_profile(h).items())
            assert skew == [
                "skew_primitives[ord %d, ord %d]: %d" % (a, b, d)
                for (a, b), d in expected
            ], label

    @pytest.mark.parametrize(
        "argv, message",
        (
            (("taft", "--q", "0"), "error: --q must be >= 1\n"),
            (("a_tau_mu", "--p", "5", "--q", "0"), "error: --q must be >= 1\n"),
            (("a_tau_mu", "--p", "0", "--q", "2"), "error: --p must be >= 1\n"),
        ),
    )
    def test_construct_bad_orders_exit_2(self, capsys, tmp_path, argv, message):
        out = tmp_path / "x.json"
        assert cli.main(["construct", *argv, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
        assert not out.exists()

    @pytest.mark.parametrize("kind", ("yd", "braided"))
    @pytest.mark.parametrize("verb", ("verify", "bosonize"))
    def test_dim_zero_is_one_parse_error(self, capsys, tmp_path, kind, verb):
        # a consistent dim-0 module over k: every matrix, vector and tensor
        # of the module has length 0
        base = group_algebra(1)
        r = ordinary_to_braided(base, base)
        doc = json.loads(serialize(manifest_for(r if kind == "braided" else r.yd)))
        payload = doc["payload"]
        payload.update(dim=0, action=[[]], coaction={"dims": [0, 1, 0], "entries": []})
        if kind == "braided":
            empty = {"dims": [0, 0, 0], "entries": []}
            payload.update(mult=empty, comult=empty, unit=[], counit=[], antipode=[])
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        base_file = tmp_path / "base.json"
        base_file.write_bytes(serialize(manifest_for(base)))
        argv = ["verify", str(path)]
        if verb == "bosonize":
            argv = ["bosonize", str(path), str(base_file), "-o", str(tmp_path / "o")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "parse error: payload.dim must be >= 1\n"
        )

    def test_bosonize_base_over_other_field_exit_2(self, capsys, tmp_path):
        r_file, base_file = tmp_path / "r.json", tmp_path / "h4.json"
        out = tmp_path / "boso.json"
        q12 = make_field(12)
        r = ordinary_to_braided(group_algebra(3, q12), sweedler(q12))
        r_file.write_bytes(serialize(manifest_for(r)))
        base_file.write_bytes(serialize(manifest_for(sweedler())))
        argv = ["bosonize", str(r_file), str(base_file), "-o", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: braided object lives over a different base\n"
        )
        assert not out.exists()

    def test_bosonize_without_base_antipode_exit_1(self, capsys, tmp_path):
        r_file, base_file = tmp_path / "r.json", tmp_path / "h4.json"
        out = tmp_path / "boso.json"
        q12 = make_field(12)
        base = sweedler(q12)
        r = ordinary_to_braided(group_algebra(3, q12), base)
        for path, obj in ((r_file, r), (base_file, base)):
            doc = json.loads(serialize(manifest_for(obj)))
            payload = doc["payload"]
            del (payload["base"] if obj is r else payload)["antipode"]
            path.write_text(json.dumps(doc))
        argv = ["bosonize", str(r_file), str(base_file), "-o", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "verification failure: bosonizing requires the base antipode\n"
        )
        assert not out.exists()


class TestCliPathErrors:
    """A path that cannot be opened is one line and exit 2, never a traceback:
    `cannot read PATH` for an input, `cannot write PATH` for an output."""

    @pytest.fixture
    def manifests(self, tmp_path):
        hopf_file, braided_file = tmp_path / "h.json", tmp_path / "r.json"
        base = group_algebra(2)
        hopf_file.write_bytes(serialize(manifest_for(base)))
        braided_file.write_bytes(serialize(manifest_for(ordinary_to_braided(base, base))))
        return str(hopf_file), str(braided_file)

    def _run(self, capsys, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("verb", ("verify", "invariants", "classify", "dualize"))
    def test_directory_input_cannot_be_read(self, capsys, tmp_path, verb):
        argv = [verb, str(tmp_path)]
        if verb == "dualize":
            argv += ["-o", str(tmp_path / "out.json")]
        assert self._run(capsys, argv) == (2, "", "cannot read %s\n" % tmp_path)

    def test_missing_input_cannot_be_read(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        assert self._run(capsys, ["verify", str(path)]) == (
            2, "", "cannot read %s\n" % path
        )

    def test_bosonize_directory_input_cannot_be_read(self, capsys, tmp_path, manifests):
        hopf_file, _ = manifests
        argv = ["bosonize", str(tmp_path), hopf_file, "-o", str(tmp_path / "o.json")]
        assert self._run(capsys, argv) == (2, "", "cannot read %s\n" % tmp_path)

    @pytest.mark.parametrize("target", ("directory", "missing-parent"))
    @pytest.mark.parametrize("verb", ("construct", "dualize", "bosonize"))
    def test_output_that_cannot_be_written(self, capsys, tmp_path, manifests, verb, target):
        out = tmp_path if target == "directory" else tmp_path / "nonexistent" / "x.json"
        hopf_file, braided_file = manifests
        argv = {
            "construct": ["construct", "sweedler"],
            "dualize": ["dualize", hopf_file],
            "bosonize": ["bosonize", braided_file, hopf_file],
        }[verb] + ["-o", str(out)]
        assert self._run(capsys, argv) == (2, "", "cannot write %s\n" % out)

    def test_directory_output_is_one_line_in_a_subprocess(self, tmp_path):
        r = run_cli("construct", "sweedler", "-o", str(tmp_path))
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "cannot write %s\n" % tmp_path
        )
