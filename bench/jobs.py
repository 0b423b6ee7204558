"""Job lists of the two workloads and the known answer each job checks.

A job starts from manifest bytes and runs the library calls behind one CLI
verb.  Every answer is fixed by construction: the family a manifest was built
from gives its label, its group-likes and its pointedness, its reference
fingerprint gives the normal-form invariants, and the constructed or
transported antipode is the one a solve must return.  A wrong answer raises
`WrongAnswer`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

import inputs
from hopfcheck import dim5, hopf, io
from hopfcheck import yetter_drinfeld as yd

FAMILIES = ("A0", "A0*", "A1", "A1*", "T2xZp")
# (family, p): every family at p = 3 and 5, and the semisimple control
# k[Z_4p] at p = 3
CLASSIFY_JOBS = [(name, 3) for name in FAMILIES + ("Z4p",)] + [
    (name, 5) for name in FAMILIES]
# product-heavy solves at dim 28; coproduct-heavy duals at dim 28 and 20
SOLVE_JOBS = (("A0", 7), ("A1", 7), ("T2xZp", 7))
VERIFY_JOBS = (("A0*", 7), ("A1*", 5), ("T2xZp*", 5))
BRAIDED_PRIMES = (3, 5)
DIM5_CASES = ("A", "B", "C")

QUICK = {
    "classify": [("A1", 3)],
    "solve": [("A1", 3)],
    "verify": [("A1*", 3)],
    "braided": [3],
    "dim5": ["B"],
    "dense": ["sweedler/Q"],
}

LABELS = {
    "A0": hopf.LABEL_A0,
    "A0*": hopf.LABEL_A0_DUAL,
    "A1": hopf.LABEL_A1,
    "A1*": hopf.LABEL_A1_DUAL,
    "T2xZp": hopf.LABEL_TAFT_TENSOR,
    "Z4p": hopf.LABEL_SEMISIMPLE,
}
# acceptance criterion 6: the dual of A(tau,1) is the one family not pointed
POINTED = {"A0": True, "A0*": True, "A1": True, "A1*": False, "T2xZp": True, "Z4p": True}
DUAL_OF = {"A0": "A0*", "A0*": "A0", "A1": "A1*", "A1*": "A1", "T2xZp": "T2xZp", "Z4p": "Z4p"}


class WrongAnswer(AssertionError):
    """A job's verdict differs from the answer fixed by construction."""


def expect(cond: bool, what: str):
    if not cond:
        raise WrongAnswer(what)


@dataclass
class Job:
    id: str
    kind: str
    manifests: dict = dc_field(default_factory=dict)  # name -> bytes
    answer: dict = dc_field(default_factory=dict)
    probe: bool = False


# --- job bodies -----------------------------------------------------------------


def _parse(data: bytes):
    return io.parse(data).payload


def _classify(job: Job):
    """The `classify` and `invariants` verbs, checked against the normal form."""
    h = _parse(job.manifests["H"])
    name, p = job.answer["family"], job.answer["p"]
    label = hopf.classify_4p(h)
    likes = hopf.group_likes(h)
    hd = hopf.dual(h)
    dual_likes = hopf.group_likes(hd)
    tr = hopf.trace_s2(h)
    order = hopf.antipode_order(h)
    pointed = len(hopf.coradical(h)) == len(likes)
    dual_pointed = len(hopf.coradical(hd)) == len(dual_likes)
    profile = tuple(sorted(hopf.skew_profile(h, likes).items()))

    expect(label == LABELS[name], "label %r, expected %r" % (label, LABELS[name]))
    expect(pointed == POINTED[name], "pointed = %s" % pointed)
    expect(dual_pointed == POINTED[DUAL_OF[name]], "dual pointed = %s" % dual_pointed)
    if name in ("A0", "A1", "T2xZp"):
        expect(len(likes) == 2 * p, "|G| = %d, expected %d" % (len(likes), 2 * p))
    if name in ("A0", "A1"):
        expect(likes.is_cyclic(), "G(A(p,mu)) is not cyclic")
    if name in ("A0*", "A1*"):
        expect(len(dual_likes) == 2 * p, "|G(H*)| = %d" % len(dual_likes))
    if name == "Z4p":
        n = 4 * p
        expect(tr == h.field.from_rational(n), "Tr(S^2) = %r, expected %d" % (tr, n))
        expect(len(likes) == n and len(dual_likes) == n, "|G| != 4p on k[Z_4p]")
        expect(order == 2, "antipode order %d on k[Z_4p]" % order)
        return
    expect(tr.is_zero(), "Tr(S^2) = %r, expected 0" % tr)
    # the normal-form answers: the reference family's own fingerprint
    ref = hopf.reference_fingerprints(p)[LABELS[name]]
    got = (len(likes), tuple(sorted(likes.orders)), len(dual_likes), order,
           pointed, dual_pointed, profile)
    want = (ref.group_order, ref.group_element_orders, ref.dual_group_order,
            ref.antipode_order, ref.pointed, ref.dual_pointed, ref.skew_profile)
    expect(got == want, "invariants %r differ from the normal form %r" % (got, want))


def _check_hopf(h):
    report = hopf.verify_hopf(h)
    expect(report.ok, "verify_hopf: %s" % "; ".join(report.lines()))
    data = hopf.integrals(h)
    expect(hopf.check_radford_s4(h, data), "S^4 conjugation formula fails")


def _solve(job: Job):
    """The `verify` verb on a manifest without antipode, then `dualize`."""
    h = _parse(job.manifests["H"])
    expect(h.antipode is None, "manifest carries an antipode")
    h.antipode = hopf.solve_antipode(h)
    expect(h.antipode == job.answer["antipode"], "solved antipode differs")
    if job.kind == "dense-solve":
        report = hopf.verify_hopf(h)
        expect(report.ok, "verify_hopf: %s" % "; ".join(report.lines()))
        return
    _check_hopf(h)
    d = hopf.dual(h)
    back = _parse(io.serialize(io.manifest_for(d)))
    expect(hopf.structure_equal(back, d), "dual manifest round trip differs")


def _verify(job: Job):
    """The `verify` verb on a manifest with antipode."""
    _check_hopf(_parse(job.manifests["H"]))


def _braided(job: Job):
    """Parse round trip, `verify` on a braided manifest, then `bosonize`."""
    data = job.manifests["R"]
    r = _parse(data)
    base = _parse(job.manifests["B"])
    expect(io.serialize(io.manifest_for(r)) == data, "braided round trip differs")
    report = yd.verify_braided_hopf(r)
    expect(report.ok, "verify_braided_hopf: %s" % "; ".join(report.lines()))
    h = yd.bosonize(r, base)
    likes = hopf.group_likes(h)
    p = job.answer["p"]
    expect(len(likes) == 2 * p, "|G(R x H4)| = %d, expected %d" % (len(likes), 2 * p))
    expect(len(hopf.coradical(h)) == len(likes), "R x H4 is not pointed")
    expect(yd.check_dual_biproduct(r, base), "(R x B)* != R* x B*")


def _references(job: Job):
    """The reference fingerprints a session builds before it classifies at p.

    Acceptance criterion 7: the five fingerprints are pairwise distinct.
    """
    refs = hopf.reference_fingerprints(job.answer["p"])
    expect(len(set(refs.values())) == len(FAMILIES), "reference fingerprints collide")


def _dim5(job: Job):
    """The `dim5-check` verb: every case must end in a contradiction."""
    report = dim5.run_case(job.answer["case"])
    expect(report.inconsistent, "case %s is consistent" % job.answer["case"])


RUNNERS = {
    "classify": _classify,
    "hopf-solve": _solve,
    "dense-solve": _solve,
    "probe": _solve,
    "hopf-verify": _verify,
    "braided": _braided,
    "dim5": _dim5,
    "references": _references,
}


def run(job: Job):
    RUNNERS[job.kind](job)


# --- job lists ------------------------------------------------------------------


def _solve_job(kind: str, jid: str, h, probe=False) -> Job:
    """A job that must re-derive h's antipode from a manifest without it."""
    data = inputs.manifest_bytes(inputs.without_antipode(h))
    return Job(jid, kind, {"H": data}, {"antipode": h.antipode}, probe)


def probes() -> list[Job]:
    """Untimed jobs that count only in fail_ratio.

    Both reach the stacked dense antipode solver, which refuses dim > 12.
    The scrambled probe's basis change is the same for every seed, so its
    outcome is too: under some other changes the triangular sweep succeeds.
    """
    scramble = inputs.scrambled(inputs.family("A0", 5), random.Random("probe-0"))
    return [
        _solve_job("probe", "probe:solve:A1*:p5", inputs.family("A1*", 5), True),
        _solve_job("probe", "probe:solve:scrambled-A0:p5", scramble, True),
    ]


def build(workload: str, seed: int, quick: bool = False) -> list[Job]:
    """The seeded job list: references, timed jobs in seeded order, probes.

    quick keeps p = 3 and one job per kind, for the self-test.
    """
    jobs: list[Job] = []
    if workload == "classify":
        for name, p in QUICK["classify"] if quick else CLASSIFY_JOBS:
            h = inputs.family(name, p)
            jobs.append(Job("classify:%s:p%d" % (name, p), "classify",
                            {"H": inputs.manifest_bytes(h)},
                            {"family": name, "p": p}))
    elif workload == "verify":
        for name, p in QUICK["solve"] if quick else SOLVE_JOBS:
            jobs.append(_solve_job("hopf-solve", "solve:%s:p%d" % (name, p),
                                   inputs.family(name, p)))
        for name, p in QUICK["verify"] if quick else VERIFY_JOBS:
            h = inputs.family(name, p)
            jobs.append(Job("verify:%s:p%d" % (name, p), "hopf-verify",
                            {"H": inputs.manifest_bytes(h)}))
        for p in QUICK["braided"] if quick else BRAIDED_PRIMES:
            r, base = inputs.braided_pair(p)
            jobs.append(Job("braided:Zp-over-H4:p%d" % p, "braided",
                            {"R": inputs.manifest_bytes(r),
                             "B": inputs.manifest_bytes(base)},
                            {"p": p}))
        for case in QUICK["dim5"] if quick else DIM5_CASES:
            jobs.append(Job("dim5:%s" % case, "dim5", answer={"case": case}))
        for name in QUICK["dense"] if quick else inputs.SMALL_ALGEBRAS:
            # dense constants reach the stacked antipode solver.  One fixed
            # basis change per algebra: the solve's time moves 0.2-2.3 s
            # with the change, more than a seed-to-seed comparison allows
            fixed = random.Random("small-%s" % name)
            h = inputs.scrambled(inputs.small_algebra(name), fixed)
            jobs.append(_solve_job("dense-solve", "dense-solve:%s" % name, h))
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random("order-%d" % seed).shuffle(jobs)
    # the references come first, so the seeded order does not decide which
    # job pays for them
    primes = sorted({j.answer["p"] for j in jobs if j.kind == "classify"})
    refs = [Job("references:p%d" % p, "references", answer={"p": p}) for p in primes]
    return refs + jobs + probes()
