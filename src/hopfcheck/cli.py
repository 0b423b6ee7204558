"""Command-line surface: construct, verify, invariants, classify, dualize,
bosonize, and the dimension-5 case report.

Reports are line-oriented and deterministic (golden-file friendly).  Exit
codes: 0 pass/success (dim5-check exits 0 when the structure laws hold and
the expected contradiction IS found), 1 verification failure, a failed dim5
structure law or missing contradiction, or a computation that cannot finish
on the input (no antipode, a degenerate integral, a group-like search or
antipode order that fails), 2 usage and parse errors and paths that cannot
be read or written.  invariants and classify run verify_hopf first and exit
1 on the first failed law, before classify checks the dimension.  Errors
print one line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from hopfcheck import families
from hopfcheck.cyclotomic import make_field
from hopfcheck.dim5 import CASES, run_case
from hopfcheck.hopf import (
    AntipodeOrderOverflow,
    BadDimension,
    DegenerateIntegral,
    NoAntipode,
    NotGroupLike,
    antipode_order,
    classify_4p,
    dual,
    group_likes,
    is_pointed,
    is_semisimple_lr,
    skew_profile,
    solve_antipode,
    trace_s2,
    verify_hopf,
)
from hopfcheck.io import Manifest, ParseError, manifest_for, parse, serialize
from hopfcheck.yetter_drinfeld import (
    BaseMismatch,
    VerificationFailure,
    bosonize,
    verify_braided_hopf,
    verify_yd,
)

FAMILIES = ("sweedler", "taft", "group_algebra", "a_tau_mu", "taft_tensor_group")


class PathError(Exception):
    """An input that cannot be read or an output that cannot be written."""


def _require_positive(args, *flags):
    for flag in flags:
        if getattr(args, flag) < 1:
            raise families.BadParams("--%s must be >= 1" % flag)


def _construct(args) -> int:
    name = args.family
    if name == "sweedler":
        h = families.sweedler()
    elif name == "group_algebra":
        n = args.n if args.n is not None else args.p
        if n is None:
            print("group_algebra needs --n (or --p)", file=sys.stderr)
            return 2
        h = families.group_algebra(n)
    elif name == "taft":
        if args.q is None:
            print("taft needs --q", file=sys.stderr)
            return 2
        _require_positive(args, "q")
        field = make_field(args.q * args.q)
        tau = field.zeta(args.q) ** args.tau
        h = families.taft(args.q, tau, field)
    elif name in ("a_tau_mu", "taft_tensor_group"):
        if args.p is None or args.q is None:
            print("%s needs --p and --q" % name, file=sys.stderr)
            return 2
        _require_positive(args, "p", "q")
        order = math.lcm(args.q, args.p * args.q * args.q)
        field = make_field(order)
        tau = field.zeta(order // args.q) ** args.tau
        if name == "a_tau_mu":
            h = families.a_tau_mu(args.p, args.q, tau, args.mu, field)
        else:
            h = families.taft_tensor_group(args.q, tau, args.p, field)
    else:
        print("unknown family %r" % name, file=sys.stderr)
        return 2
    _write(args.output, serialize(manifest_for(h)))
    print("wrote %s (%s, dim %d)" % (args.output, name, h.dim))
    return 0


def _load(path: str) -> Manifest:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        raise PathError("cannot read %s" % path) from None
    return parse(data)


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError:
        raise PathError("cannot write %s" % path) from None


def _load_hopf(path: str, verb: str):
    """The Hopf payload with its antipode solved, or None for another kind."""
    manifest = _load(path)
    if manifest.object_kind != "hopf":
        print("%s requires a hopf manifest" % verb, file=sys.stderr)
        return None
    h = manifest.payload
    if h.antipode is None:
        h.antipode = solve_antipode(h)
    return h


def _verify(args) -> int:
    manifest = _load(args.file)
    if manifest.object_kind == "hopf":
        h = manifest.payload
        if h.antipode is None:
            try:
                h.antipode = solve_antipode(h)
                print("antipode: solved")
            except NoAntipode as exc:
                print("antipode: unsolvable (%s)" % exc)
                return 1
        report = verify_hopf(h)
    elif manifest.object_kind == "yd":
        report = verify_yd(manifest.payload)
    else:
        report = verify_braided_hopf(manifest.payload)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _require_hopf(h) -> None:
    """A VerificationFailure naming the first law verify_hopf finds failing:
    invariants and classify hold only on a Hopf algebra, so they check it
    before they compute anything."""
    report = verify_hopf(h)
    if not report.ok:
        v = report.violations[0]
        where = ",".join(str(x) for x in v.location)
        raise VerificationFailure("%s fails at (%s)" % (v.law, where))


def _invariant_lines(h) -> list:
    likes = group_likes(h)
    hdual = dual(h)
    dual_likes = group_likes(hdual)
    lines = [
        "dim: %d" % h.dim,
        "group_likes: %d" % len(likes),
        "group_like_orders: %s" % ",".join(str(o) for o in sorted(likes.orders)),
        "dual_group_likes: %d" % len(dual_likes),
        "trace_s2: %r" % trace_s2(h),
        "antipode_order: %d" % antipode_order(h),
        "semisimple: %s" % ("yes" if is_semisimple_lr(h) else "no"),
        "pointed: %s" % ("yes" if is_pointed(h) else "no"),
        "dual_pointed: %s" % ("yes" if is_pointed(hdual) else "no"),
    ]
    profile = sorted(skew_profile(h, likes).items())
    return lines + [
        "skew_primitives[ord %d, ord %d]: %d" % (og, oh, d) for (og, oh), d in profile
    ]


def _invariants(args) -> int:
    h = _load_hopf(args.file, "invariants")
    if h is None:
        return 2
    _require_hopf(h)
    print("\n".join(_invariant_lines(h)))
    return 0


def _classify(args) -> int:
    h = _load_hopf(args.file, "classify")
    if h is None:
        return 2
    _require_hopf(h)
    print(classify_4p(h))
    return 0


def _dualize(args) -> int:
    h = _load_hopf(args.file, "dualize")
    if h is None:
        return 2
    _write(args.output, serialize(manifest_for(dual(h))))
    print("wrote %s" % args.output)
    return 0


def _bosonize(args) -> int:
    r_manifest = _load(args.braided)
    b_manifest = _load(args.base)
    if r_manifest.object_kind != "braided" or b_manifest.object_kind != "hopf":
        print("bosonize needs a braided manifest and a hopf manifest", file=sys.stderr)
        return 2
    h = bosonize(r_manifest.payload, b_manifest.payload)
    _write(args.output, serialize(manifest_for(h)))
    print("wrote %s (dim %d)" % (args.output, h.dim))
    return 0


def _dim5_check(args) -> int:
    report = run_case(args.case)
    for line in report.lines():
        print(line)
    return 0 if report.inconsistent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcheck",
        description="exact structure-constant Hopf algebra toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named family")
    c.add_argument("family", choices=FAMILIES)
    c.add_argument("--p", type=int)
    c.add_argument("--q", type=int)
    c.add_argument("--tau", type=int, default=1, help="tau = zeta_q^k")
    c.add_argument("--mu", type=int, choices=(0, 1), default=0)
    c.add_argument("--n", type=int, help="order for group_algebra")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=_construct)

    v = sub.add_parser("verify", help="run the full axiom suite on a manifest")
    v.add_argument("file")
    v.set_defaults(func=_verify)

    i = sub.add_parser("invariants", help="print the invariant fingerprint")
    i.add_argument("file")
    i.set_defaults(func=_invariants)

    k = sub.add_parser("classify", help="match against the dimension-4p families")
    k.add_argument("file")
    k.set_defaults(func=_classify)

    d = sub.add_parser("dualize", help="write the dual Hopf algebra")
    d.add_argument("file")
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=_dualize)

    b = sub.add_parser("bosonize", help="Radford biproduct of a braided manifest")
    b.add_argument("braided")
    b.add_argument("base")
    b.add_argument("-o", "--output", required=True)
    b.set_defaults(func=_bosonize)

    f = sub.add_parser("dim5-check", help="dimension-5 case elimination report")
    f.add_argument("--case", choices=CASES, required=True)
    f.set_defaults(func=_dim5_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: point stdout at devnull, so the flush
        # at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except PathError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (BadDimension, BaseMismatch, families.BadParams,
            families.NotPrimitiveRoot) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (VerificationFailure, NoAntipode) as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return 1
    except (ArithmeticError, DegenerateIntegral, AntipodeOrderOverflow,
            NotGroupLike) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
