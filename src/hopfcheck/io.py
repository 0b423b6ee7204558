"""Structure-constant file format: versioned JSON manifests for Hopf
algebras, Yetter-Drinfeld modules, and braided Hopf algebras.

Round trips are exact: rationals are canonical "num/den" strings, field
elements are arrays of such strings of length phi(n), tensors are sorted
0-based entry lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from hopfcheck.algebra import AssocAlgebra
from hopfcheck.cyclotomic import FieldElement, make_field, rational_from_str
from hopfcheck.hopf import HopfAlgebra
from hopfcheck.linalg import Matrix, Tensor3
from hopfcheck.yetter_drinfeld import BraidedHopf, YDModule

SCHEMA_VERSION = "1"


class ParseError(ValueError):
    """Malformed manifest; the message carries the offending field path."""


class SchemaVersionMismatch(ParseError):
    """The manifest declares an unsupported schema version."""


@dataclass
class Manifest:
    schema_version: str
    object_kind: str  # hopf | yd | braided
    payload: object


def manifest_for(obj) -> Manifest:
    if isinstance(obj, HopfAlgebra):
        kind = "hopf"
    elif isinstance(obj, BraidedHopf):
        kind = "braided"
    elif isinstance(obj, YDModule):
        kind = "yd"
    else:
        raise TypeError("cannot serialize %r" % type(obj))
    return Manifest(SCHEMA_VERSION, kind, obj)


# --- encoding -----------------------------------------------------------------


def _enc_vector(vec) -> list:
    return list(vec)


def _enc_matrix(m: Matrix) -> list:
    return [list(row) for row in m.data]


def _enc_tensor(t: Tensor3) -> dict:
    return {
        "dims": list(t.dims),
        "entries": [
            [i, j, k, c] for (i, j, k), c in t.sorted_entries()
        ],
    }


def _enc_structure(h) -> dict:
    """The mult, unit, comult and counit fields of a Hopf or braided payload."""
    return {
        "mult": _enc_tensor(h.algebra.mult),
        "unit": _enc_vector(h.unit),
        "comult": _enc_tensor(h.comult),
        "counit": _enc_vector(h.counit),
    }


def _enc_hopf(h: HopfAlgebra) -> dict:
    out = {"field": h.field.order, "dim": h.dim}
    out.update(_enc_structure(h))
    if h.antipode is not None:
        out["antipode"] = _enc_matrix(h.antipode)
    return out


def _enc_yd(v: YDModule) -> dict:
    """The action as one matrix per base element, column j = b . v_j."""
    n = v.dim
    return {
        "base": _enc_hopf(v.base),
        "dim": n,
        "action": [
            [[v.action.get(b, j, k) for j in range(n)] for k in range(n)]
            for b in range(v.base.dim)
        ],
        "coaction": _enc_tensor(v.coaction),
    }


def _enc_braided(r: BraidedHopf) -> dict:
    out = _enc_yd(r.yd)
    out.update(_enc_structure(r))
    out["antipode"] = _enc_matrix(r.antipode)
    return out


def serialize(manifest: Manifest) -> bytes:
    if manifest.object_kind == "hopf":
        payload = _enc_hopf(manifest.payload)
    elif manifest.object_kind == "yd":
        payload = _enc_yd(manifest.payload)
    elif manifest.object_kind == "braided":
        payload = _enc_braided(manifest.payload)
    else:
        raise ValueError("unknown object kind %r" % manifest.object_kind)
    doc = {
        "schema_version": manifest.schema_version,
        "object_kind": manifest.object_kind,
        "payload": payload,
    }
    out: list = []
    _write(doc, 0, out, {})
    out.append("\n")
    return "".join(out).encode("utf-8")


def _write(obj, level: int, out: list, memo: dict) -> None:
    """Append obj as json.dumps(obj, sort_keys=True, indent=1) writes it at
    nesting depth level, a FieldElement as its list of rational strings.

    The text of an element depends only on the element and the depth, so
    memo keeps it per (element, depth) for the manifest being written; a
    manifest has one field, so num and den identify the element.  Any
    other type raises TypeError.
    """
    cls = obj.__class__
    if cls is FieldElement:
        key = (obj.num, obj.den, level)
        text = memo.get(key)
        if text is None:
            sep = ",\n" + " " * (level + 1)
            text = memo[key] = '[%s"%s"\n%s]' % (
                sep[1:], ('"' + sep + '"').join(obj.to_strings()), " " * level
            )
        out.append(text)
    elif cls is list:
        if not obj:
            out.append("[]")
            return
        sep = ",\n" + " " * (level + 1)
        out.append("[")
        lead = sep[1:]
        for item in obj:
            out.append(lead)
            lead = sep
            _write(item, level + 1, out, memo)
        out.append("\n" + " " * level + "]")
    elif cls is int:
        out.append(int.__repr__(obj))
    elif cls is str:
        out.append(encode_basestring_ascii(obj))
    elif cls is dict:
        if not obj:
            out.append("{}")
            return
        sep = ",\n" + " " * (level + 1)
        out.append("{")
        lead = sep[1:]
        for key in sorted(obj):
            out.append(lead + encode_basestring_ascii(key) + ": ")
            lead = sep
            _write(obj[key], level + 1, out, memo)
        out.append("\n" + " " * level + "}")
    else:
        raise TypeError("cannot write %r in a manifest" % cls)


# --- decoding -----------------------------------------------------------------


def _expect(doc, key, types, path):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError("missing field %s.%s" % (path, key))
    val = doc[key]
    # JSON true/false load as bool, a subclass of int; no field takes one
    if isinstance(val, bool) or not isinstance(val, types):
        raise ParseError("field %s.%s has wrong type" % (path, key))
    return val


def _dec_element(field, data, path, memo) -> FieldElement:
    """One element; memo maps each valid coefficient list already parsed
    (as a tuple) to its element, so a repeated list is parsed once."""
    if not isinstance(data, list) or len(data) != field.degree:
        raise ParseError(
            "%s must be a list of %d rational strings" % (path, field.degree)
        )
    try:
        return memo[tuple(data)]
    except (KeyError, TypeError):  # TypeError: an unhashable item, refused below
        pass
    coeffs = []
    for t, s in enumerate(data):
        if not isinstance(s, str):
            raise ParseError("%s[%d] is not a string" % (path, t))
        try:
            coeffs.append(rational_from_str(s))
        except ZeroDivisionError:
            raise ParseError("%s[%d] has denominator 0" % (path, t)) from None
        except ValueError:
            raise ParseError("%s[%d] is not a rational" % (path, t)) from None
    el = memo[tuple(data)] = field.element(coeffs)
    return el


def _dec_vector(field, data, dim, path, memo) -> tuple:
    if not isinstance(data, list) or len(data) != dim:
        raise ParseError("%s must be a list of length %d" % (path, dim))
    return tuple(
        _dec_element(field, c, "%s[%d]" % (path, i), memo) for i, c in enumerate(data)
    )


def _dec_matrix(field, data, rows, cols, path, memo) -> Matrix:
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError("%s must have %d rows" % (path, rows))
    out = []
    for i, row in enumerate(data):
        out.append(list(_dec_vector(field, row, cols, "%s[%d]" % (path, i), memo)))
    return Matrix(field, out)


def _dec_tensor(field, data, dims, path, memo) -> Tensor3:
    entry_list = _expect(data, "entries", list, path)
    declared = _expect(data, "dims", list, path)
    if any(type(x) is not int for x in declared) or tuple(declared) != tuple(dims):
        raise ParseError("%s.dims must be %r" % (path, list(dims)))
    entries = {}
    for t, item in enumerate(entry_list):
        epath = "%s.entries[%d]" % (path, t)
        if not isinstance(item, list) or len(item) != 4:
            raise ParseError("%s must be [i, j, k, coeff]" % epath)
        i, j, k, coeff = item
        if any(type(x) is not int for x in (i, j, k)):
            raise ParseError("%s indices must be integers" % epath)
        if (i, j, k) in entries:
            raise ParseError("%s duplicates index (%d,%d,%d)" % (epath, i, j, k))
        entries[(i, j, k)] = _dec_element(field, coeff, epath + "[3]", memo)
    try:
        return Tensor3(field, dims, entries)
    except Exception as exc:
        raise ParseError("%s: %s" % (path, exc)) from None


def _dec_structure(payload, field, dim, path, memo) -> tuple:
    """mult, unit, comult and counit of a Hopf or braided payload."""
    mult = _dec_tensor(
        field,
        _expect(payload, "mult", dict, path),
        (dim, dim, dim),
        path + ".mult",
        memo,
    )
    unit = _dec_vector(
        field, _expect(payload, "unit", list, path), dim, path + ".unit", memo
    )
    comult = _dec_tensor(
        field,
        _expect(payload, "comult", dict, path),
        (dim, dim, dim),
        path + ".comult",
        memo,
    )
    counit = _dec_vector(
        field, _expect(payload, "counit", list, path), dim, path + ".counit", memo
    )
    return mult, unit, comult, counit


def _check_field_order(payload, order, dim, path):
    """Refuse an order n whose phi(n) is not the length L of unit[0], the
    length of every element, before make_field computes Phi_n.

    phi(n) >= sqrt(n / 2), so n > 2 L^2 is refused at once; otherwise phi(n)
    comes from trial division up to sqrt(n) <= 1.5 L.
    """
    unit = _expect(payload, "unit", list, path)
    if len(unit) != dim:
        raise ParseError("%s.unit must be a list of length %d" % (path, dim))
    if not isinstance(unit[0], list):
        raise ParseError("%s.unit[0] must be a list of rational strings" % path)
    degree = len(unit[0])
    if order > 2 * degree * degree or _euler_phi(order) != degree:
        raise ParseError(
            "%s.field %d does not have degree %d, the length of %s.unit[0]"
            % (path, order, degree, path)
        )


def _euler_phi(n: int) -> int:
    phi, rest, p = n, n, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            phi -= phi // p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


def _dec_hopf(payload, path, memo) -> HopfAlgebra:
    order = _expect(payload, "field", int, path)
    if order < 1:
        raise ParseError("%s.field must be >= 1" % path)
    dim = _expect(payload, "dim", int, path)
    if dim < 1:
        raise ParseError("%s.dim must be >= 1" % path)
    _check_field_order(payload, order, dim, path)
    field = make_field(order)
    mult, unit, comult, counit = _dec_structure(payload, field, dim, path, memo)
    antipode = None
    if "antipode" in payload and payload["antipode"] is not None:
        antipode = _dec_matrix(
            field, payload["antipode"], dim, dim, path + ".antipode", memo
        )
    alg = AssocAlgebra(field, dim, mult, unit)
    return HopfAlgebra(alg, comult, counit, antipode)


def _dec_yd(payload, path, memo) -> YDModule:
    base = _dec_hopf(_expect(payload, "base", dict, path), path + ".base", memo)
    dim = _expect(payload, "dim", int, path)
    if dim < 1:
        raise ParseError("%s.dim must be >= 1" % path)
    action_data = _expect(payload, "action", list, path)
    if len(action_data) != base.dim:
        raise ParseError(
            "%s.action must have one matrix per base basis element" % path
        )
    # matrix b has b . v_j as column j: entry (b, j, k) of the tensor
    action_path = path + ".action"
    mats = [
        _dec_matrix(base.field, m, dim, dim, "%s[%d]" % (action_path, b), memo)
        for b, m in enumerate(action_data)
    ]
    action = {
        (b, j, k): c
        for b, m in enumerate(mats)
        for k, row in enumerate(m.data)
        for j, c in enumerate(row)
    }
    coaction = _dec_tensor(
        base.field,
        _expect(payload, "coaction", dict, path),
        (dim, base.dim, dim),
        path + ".coaction",
        memo,
    )
    return YDModule(
        base, dim, Tensor3(base.field, (base.dim, dim, dim), action), coaction
    )


def _dec_braided(payload, path, memo) -> BraidedHopf:
    yd = _dec_yd(payload, path, memo)
    field = yd.field
    dim = yd.dim
    mult, unit, comult, counit = _dec_structure(payload, field, dim, path, memo)
    antipode = _dec_matrix(
        field,
        _expect(payload, "antipode", list, path),
        dim,
        dim,
        path + ".antipode",
        memo,
    )
    return BraidedHopf(yd, mult, unit, comult, counit, antipode)


def parse(data: bytes) -> Manifest:
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError("manifest is not UTF-8: %s" % exc) from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            "malformed JSON at line %d column %d" % (exc.lineno, exc.colno)
        ) from None
    version = _expect(doc, "schema_version", str, "$")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            "unsupported schema_version %r (expected %r)" % (version, SCHEMA_VERSION)
        )
    kind = _expect(doc, "object_kind", str, "$")
    payload = _expect(doc, "payload", dict, "$")
    # a manifest has one field, so parsed elements are keyed by coefficients
    memo: dict = {}
    if kind == "hopf":
        obj = _dec_hopf(payload, "payload", memo)
    elif kind == "yd":
        obj = _dec_yd(payload, "payload", memo)
    elif kind == "braided":
        obj = _dec_braided(payload, "payload", memo)
    else:
        raise ParseError("unknown object_kind %r" % kind)
    return Manifest(version, kind, obj)
