"""Span shims around the public functions of each hopfcheck module, and the
aggregation of a deterministic-profiler pass by source file.

A shim records one span per call: name, start, end, parent span, job id and
sizes.  Installing a shim replaces every binding of the function: the module
attribute and each `from ... import` copy held by another loaded module, so
calls through any name are traced.  Spans stay in memory until the run ends.
No shim sits on a scalar operation.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from hopfcheck import algebra, cyclotomic, dim5, families, hopf, io, linalg
from hopfcheck import yetter_drinfeld

MODULES = ("cyclotomic", "linalg", "algebra", "hopf", "families",
           "yetter_drinfeld", "dim5", "io", "cli")


def _rows_in(args, kwargs, result):
    rows = args[2] if len(args) > 2 else kwargs["sparse_rows"]
    dim = args[1] if len(args) > 1 else kwargs["dim"]
    return {"rows": len(rows), "rank": dim - len(result)}


def _cells(args, kwargs, result):
    m = args[0]
    return {"cells": m.rows * m.cols}


def _parse_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


def _serialize_bytes(args, kwargs, result):
    return {"bytes": len(result)}


# (owner, attribute, span name, sizes(args, kwargs, result) or None)
TARGETS = [
    (cyclotomic, "factor_unipoly", "cyclotomic.factor_unipoly", None),
    (linalg.Matrix, "rref", "linalg.rref", _cells),
    (linalg.Matrix, "solve", "linalg.solve", None),
    (linalg, "sparse_kernel", "linalg.sparse_kernel", _rows_in),
    (algebra, "characters", "algebra.characters", None),
    (algebra, "radical", "algebra.radical", None),
    (algebra, "verify_algebra", "algebra.verify_algebra", None),
    (hopf, "verify_hopf", "hopf.verify_hopf", None),
    (hopf, "solve_antipode", "hopf.solve_antipode", None),
    (hopf, "_solve_antipode_dense", "hopf.solve_antipode.dense", None),
    (hopf, "integrals", "hopf.integrals", None),
    (hopf, "check_radford_s4", "hopf.check_radford_s4", None),
    (hopf, "dual", "hopf.dual", None),
    (hopf, "trace_s2", "hopf.trace_s2", None),
    (hopf, "antipode_order", "hopf.antipode_order", None),
    (hopf, "structure_equal", "hopf.structure_equal", None),
    (hopf, "group_likes", "hopf.group_likes", None),
    (hopf, "skew_profile", "hopf.skew_profile", None),
    (hopf, "coradical", "hopf.coradical", None),
    (hopf, "fingerprint", "hopf.fingerprint", None),
    (hopf, "reference_fingerprints", "hopf.reference_fingerprints", None),
    (hopf, "classify_4p", "hopf.classify_4p", None),
    (families, "a_tau_mu", "families.construct", None),
    (families, "taft_tensor_group", "families.construct", None),
    (families, "taft", "families.construct", None),
    (families, "group_algebra", "families.construct", None),
    (yetter_drinfeld, "verify_braided_hopf", "yetter_drinfeld.verify_braided_hopf", None),
    (yetter_drinfeld, "bosonize", "yetter_drinfeld.bosonize", None),
    (yetter_drinfeld, "check_dual_biproduct", "yetter_drinfeld.check_dual_biproduct", None),
    (dim5, "run_case", "dim5.run_case", None),
    (io, "parse", "io.parse", _parse_bytes),
    (io, "serialize", "io.serialize", _serialize_bytes),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "outer", "sizes")

    def __init__(self, name, start, parent, job, outer):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.outer = outer  # no enclosing span of the same name
        self.sizes = None

    def row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.job, self.sizes]


class Tracer:
    """Records spans of shimmed calls; `job` tags every span opened meanwhile."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.depth: dict = defaultdict(int)
        self.job = "setup"

    def _shim(self, fn, name, sizes):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, 0.0, parent, tracer.job, tracer.depth[name] == 0)
            if name == "hopf.reference_fingerprints":
                p = args[0] if args else kwargs["p"]
                span.sizes = {"build": int(p not in hopf._REFERENCE_CACHE), "p": p}
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer.depth[name] += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.depth[name] -= 1
                tracer.stack.pop()
            if sizes is not None:
                span.sizes = sizes(args, kwargs, result)
            return result

        return shim

    def install(self, extra_modules=()):
        """Shim every target, rebinding each name that refers to the original."""
        holders = [m for n, m in sys.modules.items()
                   if n == "hopfcheck" or n.startswith("hopfcheck.")]
        holders.extend(extra_modules)
        for owner, attr, name, sizes in TARGETS:
            orig = getattr(owner, attr)
            shim = self._shim(orig, name, sizes)
            setattr(owner, attr, shim)
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, shim)

    def aggregate(self, skip_jobs=()) -> dict:
        """Per-layer totals over every span not tagged with a job in skip_jobs.

        A span's time counts once even when it recurses into its own name.
        """
        total = defaultdict(float)
        calls = defaultdict(int)
        sums = defaultdict(int)  # "<span name>.<size key>" -> sum
        cells = 0
        for s in self.spans:
            if s.job in skip_jobs:
                continue
            calls[s.name] += 1
            if s.outer:
                total[s.name] += s.end - s.start
            for key, value in (s.sizes or {}).items():
                if key == "cells":
                    cells = max(cells, value)
                elif key != "p":
                    sums["%s.%s" % (s.name, key)] += value
        out = {}
        for name in sorted({t[2] for t in TARGETS}):
            out[name + ".s"] = total[name]
            out[name + ".calls"] = calls[name]
        rows = sums["linalg.sparse_kernel.rows"]
        out["io.parse.bytes"] = sums["io.parse.bytes"]
        out["io.serialize.bytes"] = sums["io.serialize.bytes"]
        out["linalg.rref.max_cells"] = cells
        out["linalg.sparse_kernel.rank_per_row"] = (
            sums["linalg.sparse_kernel.rank"] / rows if rows else 0.0)
        out["hopf.reference_fingerprints.builds"] = sums[
            "hopf.reference_fingerprints.build"]
        return out

    def top_level_s(self, job: str) -> float:
        """Time inside library calls made directly by the job's own code."""
        return sum(s.end - s.start for s in self.spans
                   if s.job == job and s.parent is None)


# --- deterministic profiler pass -------------------------------------------------

FIELD_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "inverse")


def profile_layers(stats: dict) -> dict:
    """Self time per hopfcheck module and the exact count of scalar field ops.

    stats is `pstats.Stats(...).stats`.  `__radd__`/`__rmul__` share the code
    of `__add__`/`__mul__`, and `__rsub__`/`__rtruediv__` delegate to
    `__sub__`/`__truediv__`, so counting these five counts each op once.
    """
    element = cyclotomic.FieldElement
    op_keys = set()
    for op in FIELD_OPS:
        code = getattr(element, op).__code__
        op_keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    self_s = defaultdict(float)
    field_ops = 0
    for key, (cc, nc, tt, ct, callers) in stats.items():
        filename = key[0].replace("\\", "/")
        parts = filename.rsplit("/", 2)
        if len(parts) == 3 and parts[1] == "hopfcheck":
            self_s[parts[2][:-3]] += tt
        if key in op_keys:
            field_ops += nc
    out = {"%s.self_s" % m: self_s[m] for m in MODULES}
    out["cyclotomic.field_ops"] = field_ops
    return out
