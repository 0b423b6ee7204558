import json
import os
import subprocess
import sys

import pytest

import hopfcheck
from hopfcheck import cli
from hopfcheck.cyclotomic import make_field
from hopfcheck.families import a_tau_mu, group_algebra, sweedler
from hopfcheck.hopf import (
    AntipodeOrderOverflow,
    DegenerateIntegral,
    HopfAlgebra,
    NotGroupLike,
    dual,
    structure_equal,
)
from hopfcheck.io import (
    ParseError,
    SchemaVersionMismatch,
    manifest_for,
    parse,
    serialize,
)
from hopfcheck.yetter_drinfeld import ordinary_to_braided, trivial_yd


# the directory holding the imported package, so the CLI subprocess runs the
# same code even when the suite was started without PYTHONPATH
SRC = os.path.dirname(os.path.dirname(os.path.abspath(hopfcheck.__file__)))


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hopfcheck.cli", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
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
    """A(5,1)* (dim 20) with its antipode stripped: the triangular solve does
    not finish and the dense fallback refuses a system this large."""
    d = dual(a_tau_mu(5, 2, -1, 1))
    path = tmp_path_factory.mktemp("hostile") / "a51dual.json"
    stripped = HopfAlgebra(d.algebra, d.comult, d.counit)
    path.write_bytes(serialize(manifest_for(stripped)))
    return path


class TestCliErrors:
    @pytest.mark.parametrize("verb", ("verify", "invariants", "classify", "dualize"))
    def test_unsolvable_antipode_is_one_error_line(
        self, dual_a51_without_antipode, tmp_path, verb
    ):
        argv = [verb, str(dual_a51_without_antipode)]
        if verb == "dualize":
            argv += ["-o", str(tmp_path / "out.json")]
        r = run_cli(*argv)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == (
            "error: antipode system is not block-triangular and too large to stack\n"
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
