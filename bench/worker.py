"""One fresh benchmark process: set up the seeded inputs, run the job list,
report one JSON object per line on stdout.

Passes:
  plain    set up and run the jobs untraced; --micro adds the scalar figures
  spans    the same with span shims installed; writes the spans file
  profile  the same under the deterministic profiler
--probes also runs the untimed probes after the timed jobs.

Lines: {"event": "ready", ...} once set-up is done, {"event": "job", ...}
per job, {"event": "done", ...} at the end.  Run by bench/run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io as stdio
import json
import os
import pstats
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JOB_LIMIT_S = 60.0


def emit(event: str, **fields):
    fields["event"] = event
    sys.stdout.write(json.dumps(fields, sort_keys=True) + "\n")
    sys.stdout.flush()


def import_library():
    """Import hopfcheck from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import hopfcheck

    where = os.path.dirname(os.path.abspath(hopfcheck.__file__))
    if where != os.path.join(src, "hopfcheck"):
        raise ImportError("hopfcheck imported from %s, not %s" % (where, src))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pass", dest="mode", required=True,
                    choices=("plain", "spans", "profile"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the parent started this process")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--micro", action="store_true")
    ap.add_argument("--probes", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import_library()
    import inputs
    import jobs

    import_s = time.perf_counter() - t

    tracer = profiler = None
    if args.mode == "spans":
        import spans

        tracer = spans.Tracer()
        tracer.install(extra_modules=[jobs, inputs])
    elif args.mode == "profile":
        profiler = cProfile.Profile()
        profiler.enable()

    t = time.perf_counter()
    job_list = jobs.build(args.workload, args.seed, args.quick)
    build_s = time.perf_counter() - t
    digests = {}
    for job in job_list:
        for name, data in job.manifests.items():
            digests["%s/%s" % (job.id, name)] = inputs.digest(data)
    timed = [j for j in job_list if not j.probe]
    probes = [j for j in job_list if j.probe and args.probes]
    emit("ready", setup_s=time.monotonic() - args.t0, import_s=import_s,
         build_s=build_s, digests=digests,
         job_ids=[[j.id, j.probe] for j in timed + probes])

    def run_one(job):
        if tracer is not None:
            tracer.job = job.id
        error = None
        t = time.perf_counter()
        try:
            jobs.run(job)
        except Exception as exc:  # a failed job is a result, not a crash
            error = "%s: %s" % (type(exc).__name__, exc)
        elapsed = time.perf_counter() - t
        if error is None and elapsed > JOB_LIMIT_S:
            error = "over the per-job limit of %.0f s" % JOB_LIMIT_S
        emit("job", id=job.id, kind=job.kind, probe=job.probe, s=elapsed,
             ok=error is None, error=error)

    wall_start = time.perf_counter()
    for job in timed:
        run_one(job)
    wall_s = time.perf_counter() - wall_start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if profiler is not None:
        profiler.disable()
    for job in probes:
        run_one(job)

    layers = {}
    if tracer is not None:
        layers = tracer.aggregate(skip_jobs={j.id for j in probes})
        layers["trace.attributed_s"] = sum(tracer.top_level_s(j.id) for j in timed)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "spans": [s.row() for s in tracer.spans]}, fh)
    if profiler is not None:
        import spans
        from hopfcheck import cli

        layers = spans.profile_layers(pstats.Stats(profiler).stats)
        # the CLI entry point is profiled on its own: no job goes through it
        cli_profiler = cProfile.Profile()
        with contextlib.redirect_stdout(stdio.StringIO()):
            cli_profiler.runcall(cli.main, ["dim5-check", "--case", "B"])
        layers["cli.self_s"] = spans.profile_layers(
            pstats.Stats(cli_profiler).stats)["cli.self_s"]
    if args.micro:
        import micro

        layers.update(micro.scalar_metrics())
    emit("done", wall_s=wall_s, peak_rss_mb=peak_kb / 1024.0, layers=layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
