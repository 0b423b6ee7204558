"""hopfcheck benchmark: two seeded workloads, timed end to end and per module.

    python3 bench/run.py --workload classify --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --selftest

Run from the root of a checkout; hopfcheck is imported from its src/.

Load: a closed loop with one client, one process and one thread.  A pass
is a fresh worker process (bench/worker.py) that builds the seeded inputs
and runs the workload's job list, each job only after the previous one
finished; passes run one after another.  The job list is fixed per
workload, so a faster commit shows as a smaller wall_s on the same work.
Every verdict is checked against an answer fixed by construction
(bench/jobs.py).

--trace 0 starts passes, each with cold caches, while the next one is
expected to end within --seconds (at least MIN_PASSES), and reports the
end-to-end metrics.  Each job is taken at its median over the passes, so a
burst of load on a shared machine skews one sample of a job, not a figure:
wall_s is the sum of those medians over the timed jobs, and job_s.p50 their
median over the jobs that give a verdict on a manifest (the reference
fingerprint builds, which a session pays once per p, count in wall_s
only), as the Harrell-Davis estimate: the job times near the middle are
few and unevenly spaced, so the middle one alone moves with one job's noise.  setup_s (process start until the first job can start) and
peak_rss_mb are medians over the passes, cli_cold_s the median of
CLI_SAMPLES_PER_PASS fresh `python -m hopfcheck.cli dim5-check --case B`
after each pass.  The untimed probes run in the first pass only.
fail_ratio is the share of the workload's jobs, probes included, that gave
a wrong verdict, raised or ran over the per-job limit in any pass.

--trace 1 reports the per-layer metrics from three passes: an untraced
pass (plus the scalar micro-metrics), a pass with span shims around each
module's public functions (bench/spans.py), and a pass under the
deterministic profiler for self time per module.  It also prints the
ROADMAP Baseline stage rows that the spans cover.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  attempted and failed count the timed job runs; the untimed
probes, which reach the stacked antipode solver that refuses dim > 12,
count only in the fail_ratio metric.  Each run also writes .bench_out/
records: job times and manifest digests, and with --trace 1 the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("classify", "verify")
RUN_LIMIT_S = 170.0
MIN_PASSES = 3  # so setup_s and every job are medians of at least three
CLI_SAMPLES_PER_PASS = 6
CLI_ARGS = ["-m", "hopfcheck.cli", "dim5-check", "--case", "B"]

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_s.p50": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
    "cli_cold_s": "s",
}

SPAN_METRICS = [
    "families.construct.s",
    "cyclotomic.factor_unipoly.s", "cyclotomic.factor_unipoly.calls",
    "linalg.rref.s", "linalg.rref.calls", "linalg.rref.max_cells",
    "linalg.sparse_kernel.s", "linalg.sparse_kernel.calls",
    "linalg.sparse_kernel.rank_per_row",
    "linalg.solve.s", "linalg.solve.calls",
    "algebra.characters.s", "algebra.characters.calls",
    "algebra.radical.s", "algebra.verify_algebra.s",
    "hopf.verify_hopf.s", "hopf.solve_antipode.s", "hopf.integrals.s",
    "hopf.group_likes.s", "hopf.skew_profile.s", "hopf.coradical.s",
    "hopf.fingerprint.s", "hopf.fingerprint.calls",
    "hopf.reference_fingerprints.s", "hopf.reference_fingerprints.builds",
    "hopf.classify_4p.s",
    "yetter_drinfeld.verify_braided_hopf.s", "yetter_drinfeld.bosonize.s",
    "yetter_drinfeld.check_dual_biproduct.s",
    "dim5.run_case.s",
    "io.parse.s", "io.parse.bytes", "io.serialize.s", "io.serialize.bytes",
]
PROFILE_METRICS = [
    "cyclotomic.self_s", "cyclotomic.field_ops", "linalg.self_s",
    "algebra.self_s", "hopf.self_s", "families.self_s",
    "yetter_drinfeld.self_s", "dim5.self_s", "io.self_s", "cli.self_s",
]
MICRO_METRICS = [
    "cyclotomic.add_us.q1", "cyclotomic.add_us.q44_rat",
    "cyclotomic.mul_us.q44_rat", "cyclotomic.mul_us.q28_alg",
]


def _unit(name: str) -> str:
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "rank_per_row")):
        return "ratio"
    return "count"


PER_LAYER = {
    name: _unit(name)
    for name in ["setup.import_s", "setup.build_s"] + SPAN_METRICS
    + PROFILE_METRICS + MICRO_METRICS
    + ["hopf.solve_antipode.dense_fallbacks", "trace.overhead_ratio",
       "trace.attributed_share"]
}

# ROADMAP Baseline stage rows for A(p,2,-1,1), cold caches, in seconds
BASELINE_STAGES = {
    ("verify_hopf", 5): 0.24, ("verify_hopf", 7): 0.55,
    ("group_likes(H*)", 5): 0.32, ("group_likes(H*)", 7): 1.1,
    ("classify_4p", 5): 2.6, ("classify_4p", 7): 10.3,
}


class Budget:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return max(1.0, self.end - time.monotonic())


def run_worker(mode, args, budget, *extra) -> dict:
    """One fresh worker process; its events, grouped by kind."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--pass", mode,
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    cmd.extend(extra)
    cmd.extend(["--t0", repr(time.monotonic())])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    start = time.monotonic()
    try:
        out, err = proc.communicate(timeout=budget.left())
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    events = {"ready": None, "done": None, "jobs": [],
              "elapsed_s": time.monotonic() - start}
    for line in out.splitlines():
        try:
            ev = json.loads(line)
        except ValueError:
            continue
        if ev.get("event") == "job":
            events["jobs"].append(ev)
        elif ev.get("event") in ("ready", "done"):
            events[ev["event"]] = ev
    if events["ready"] is None:
        raise SystemExit("worker (%s) failed before its first job:\n%s"
                         % (mode, err.strip()[-2000:]))
    if proc.returncode != 0 and not timed_out:
        sys.stderr.write(err[-2000:])
    return events


def job_outcomes(events, ready) -> tuple:
    """(timed job records, probe records); a job with no record failed."""
    seen = {j["id"]: j for j in events["jobs"]}
    timed, probes = [], []
    for jid, probe in ready["job_ids"]:
        rec = seen.get(jid) or {"id": jid, "ok": False, "s": None, "probe": probe,
                                "error": "no verdict: the worker was stopped"}
        (probes if probe else timed).append(rec)
    return timed, probes


def hd_median(values) -> float:
    """Harrell-Davis estimate of the median: the order statistics weighted
    by the Beta((n+1)/2, (n+1)/2) mass of each rank's interval."""
    xs = sorted(values)
    n, cells = len(xs), 200
    a = (n + 1) / 2.0

    def mass(i: int) -> float:  # unnormalised, by the midpoint rule
        ts = ((i + (k + 0.5) / cells) / n for k in range(cells))
        return sum((t * (1 - t)) ** (a - 1) for t in ts)

    weights = [mass(i) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def combined_digest(digests: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(digests):
        h.update(("%s=%s\n" % (key, digests[key])).encode())
    return h.hexdigest()[:16]


def cli_cold(budget, samples: int) -> tuple:
    """Wall times of fresh CLI processes, and whether each printed the answer."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    times, ok = [], True
    for _ in range(samples):
        t = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable] + CLI_ARGS, cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=min(60.0, budget.left()))
        except subprocess.TimeoutExpired:  # killed and reaped by run()
            times.append(time.perf_counter() - t)
            return times, False
        times.append(time.perf_counter() - t)
        lines = proc.stdout.strip().splitlines()
        ok = ok and proc.returncode == 0 and lines[-1:] == ["INCONSISTENT"]
    return times, ok


def untraced(args, budget) -> tuple:
    passes, cli_times, cli_ok = [], [], True
    start = time.monotonic()
    cycles = []  # seconds per pass, its CLI samples included
    min_passes = 1 if args.quick else MIN_PASSES
    while (len(passes) < min_passes or time.monotonic() - start
           + statistics.mean(cycles) <= args.seconds):
        t = time.monotonic()
        passes.append(run_worker("plain", args, budget,
                                 *([] if passes else ["--probes"])))
        # CLI samples spread over the run, so one burst of load skews few
        times, ok = cli_cold(budget, CLI_SAMPLES_PER_PASS)
        cli_times.extend(times)
        cli_ok = cli_ok and ok
        cycles.append(time.monotonic() - t)
    ready = passes[0]["ready"]
    outcomes = [job_outcomes(p, p["ready"]) for p in passes]
    timed = [j for t, _ in outcomes for j in t]
    probes = [j for _, pr in outcomes for j in pr]
    same_inputs = all(p["ready"]["digests"] == ready["digests"] for p in passes)
    walls = [p["done"]["wall_s"] for p in passes if p["done"] is not None]
    peaks = [p["done"]["peak_rss_mb"] for p in passes if p["done"] is not None]
    if len(peaks) < len(passes):  # a pass stopped at the run limit
        peaks.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    # each job at its median over the passes: a burst of load on the shared
    # machine then skews one sample of a job, not the figure
    samples: dict = {}
    for j in timed:
        if j["s"] is not None:
            samples.setdefault(j["id"], []).append(j["s"])
    job_s = {jid: statistics.median(v) for jid, v in samples.items()}
    verdict_s = [s for jid, s in job_s.items()
                 if not jid.startswith("references:")] or [0.0]
    failed = sum(not j["ok"] for j in timed)
    # a job fails if any of its runs failed
    verdicts: dict = {}
    for j in timed + probes:
        verdicts[j["id"]] = verdicts.get(j["id"], True) and j["ok"]
    metrics = {
        "setup_s": statistics.median(p["ready"]["setup_s"] for p in passes),
        "wall_s": sum(job_s.values()),
        "job_s.p50": hd_median(verdict_s),
        "fail_ratio": sum(not ok for ok in verdicts.values()) / len(verdicts),
        "peak_rss_mb": statistics.median(peaks),
        "cli_cold_s": statistics.median(cli_times),
    }
    correct = failed == 0 and same_inputs and cli_ok
    record = {"digest": combined_digest(ready["digests"]),
              "digests": ready["digests"], "jobs": timed + probes,
              "same_inputs": same_inputs, "cli_ok": cli_ok,
              "pass_wall_s": walls, "cli_s": cli_times,
              "pass_setup_s": [p["ready"]["setup_s"] for p in passes]}
    return correct, len(timed), failed, metrics, record


def stage_rows(spans: list) -> dict:
    """The ROADMAP Baseline stage rows, read off the spans of A(p,1) jobs.

    classify_4p is counted cold: the reference build for p, which ran in the
    references job, is added.  group_likes(H*) is the second group_likes
    inside the job's own fingerprint.
    """
    rows = {}
    builds = {}
    for name, start, end, parent, job, sizes in spans:
        if name == "hopf.reference_fingerprints" and sizes and sizes["build"]:
            builds[sizes["p"]] = (job, end - start)
    for i, (name, start, end, parent, job, sizes) in enumerate(spans):
        if parent is not None:
            continue
        for p in (5, 7):
            if job == "solve:A1:p%d" % p and name == "hopf.verify_hopf":
                rows[("verify_hopf", p)] = end - start
            if job != "classify:A1:p%d" % p or name != "hopf.classify_4p":
                continue
            rows[("classify_4p", p)] = end - start
            if p in builds and builds[p][0] != job:
                rows[("classify_4p", p)] += builds[p][1]
            for k, fp in enumerate(spans):
                if fp[3] == i and fp[0] == "hopf.fingerprint":
                    likes = [s for s in spans
                             if s[3] == k and s[0] == "hopf.group_likes"]
                    rows[("group_likes(H*)", p)] = likes[1][2] - likes[1][1]
    return rows


def traced(args, budget) -> tuple:
    spans_path = os.path.join(
        OUT, "spans-%s-seed%d%s.json" % (args.workload, args.seed,
                                         "-quick" if args.quick else ""))
    plain = run_worker("plain", args, budget, "--micro")
    span_pass = run_worker("spans", args, budget, "--spans-out", spans_path)
    prof = run_worker("profile", args, budget)
    passes = (plain, span_pass, prof)
    outcomes = [job_outcomes(p, p["ready"])[0] for p in passes]
    failed = sum(not j["ok"] for j in outcomes[0])
    correct = (
        all(p["done"] is not None for p in passes)
        and all(all(j["ok"] for j in timed) for timed in outcomes)
        and all(p["ready"]["digests"] == plain["ready"]["digests"] for p in passes)
    )
    metrics = {
        "setup.import_s": plain["ready"]["import_s"],
        "setup.build_s": plain["ready"]["build_s"],
    }
    record = {"spans_file": os.path.relpath(spans_path, ROOT),
              "pass_s": {mode: p["elapsed_s"] for mode, p in
                         zip(("plain", "spans", "profile"), passes)},
              "jobs": outcomes[1], "digest": combined_digest(plain["ready"]["digests"])}
    # a pass stopped at the run limit leaves its metrics out
    if plain["done"]:
        metrics.update({n: plain["done"]["layers"][n] for n in MICRO_METRICS})
    if prof["done"]:
        metrics.update({n: prof["done"]["layers"][n] for n in PROFILE_METRICS})
    if span_pass["done"]:
        agg = span_pass["done"]["layers"]
        metrics.update({name: agg[name] for name in SPAN_METRICS})
        metrics["hopf.solve_antipode.dense_fallbacks"] = agg[
            "hopf.solve_antipode.dense.calls"]
        span_wall = span_pass["done"]["wall_s"]
        metrics["trace.attributed_share"] = agg["trace.attributed_s"] / span_wall
        if plain["done"]:
            metrics["trace.overhead_ratio"] = span_wall / plain["done"]["wall_s"]
        with open(spans_path) as fh:
            stages = stage_rows(json.load(fh)["spans"])
        record["stages"] = [
            {"stage": stage, "p": p, "seconds": s,
             "baseline_s": BASELINE_STAGES[(stage, p)],
             "ratio": s / BASELINE_STAGES[(stage, p)]}
            for (stage, p), s in sorted(stages.items())
        ]
    return correct, len(outcomes[0]), failed, metrics, record


def measure(args) -> dict:
    budget = Budget(RUN_LIMIT_S)
    os.makedirs(OUT, exist_ok=True)
    flow = traced if args.trace else untraced
    correct, attempted, failed, metrics, record = flow(args, budget)
    units = PER_LAYER if args.trace else END_TO_END
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, quick=args.quick, metrics=metrics,
                  python=sys.version.split()[0], cpus=os.cpu_count())
    name = "run-%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace, "-quick" if args.quick else "")
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    for job in record["jobs"]:
        print("%-40s %s %s" % (job["id"],
                               "-" if job["s"] is None else "%.3fs" % job["s"],
                               "ok" if job["ok"] else "FAIL " + str(job["error"])))
    for row in record.get("stages", []):
        print("stage %-16s p=%d %.3fs (baseline %.2fs, ratio %.2f)"
              % (row["stage"], row["p"], row["seconds"], row["baseline_s"],
                 row["ratio"]))
    print("inputs digest %s, %d timed job runs" % (record["digest"], attempted))
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def selftest() -> int:
    """Quick mode on every workload: all metrics named, all answers right."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for trace in (0, 1):
        if want[trace] != (PER_LAYER if trace else END_TO_END):
            problems.append("BENCHMARK.json metrics differ from run.py (trace %d)"
                            % trace)
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                      trace=trace, quick=True)
            result = measure(args)
            where = "%s trace %d" % (workload, trace)
            if not result["correct"] or result["failed"]:
                problems.append("%s: a known answer failed" % where)
            for name, unit in want[trace].items():
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append("%s: metric %s missing or not in %s"
                                    % (where, name, unit))
    for p in problems:
        print("selftest: " + p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="p = 3 and one job per kind")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfcheck", "__init__.py")):
        print("no hopfcheck sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    print(json.dumps(measure(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
