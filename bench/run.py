"""Benchmark for hopfcyclic: exact Hopf-cyclic invariants, timed end to end.

    python3 bench/run.py --workload cli-q --seed 1 --seconds 22 --trace 0

Runs from the root of a source tree and imports the package from `src/`.
One process, one caller, one job at a time (a closed loop).  The seed
only shuffles the job order; the expected outputs do not depend on it.
A pass runs every job of the workload once, checks each output against
`bench/expected.json`, and counts a job as failed when it raised, hit
its time cap (SIGALRM, in-process), or returned a different output.
Passes repeat until `--seconds` have gone by; at least one always runs.

--trace 0 prints the end-to-end metrics: wall_s (median pass time),
setup_s (median of several fresh-process set-ups: import, fixtures,
parsing and validating every input file) and peak_rss_mb (peak resident
memory of this process).  Both times are wall-clock seconds rescaled to
a reference machine speed (`bench/speed.py`), because the speed of a
shared machine drifts; the raw pass times are in the run metadata.
--trace 1 runs one untraced pass, then traced passes, and prints the
per-layer metrics of `bench/spans.py` (median over traced passes, raw
seconds) and trace.overhead_frac.  Spans, per-job outcomes and run
metadata are written to `.bench_out/`.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 bench/run.py --capture-expected

re-freezes `bench/expected.json` from the current tree; do that only for
a deliberate change to the mathematics, never to make a failure pass.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 11
RUN_DEADLINE_S = 170      # no job starts or runs past this, from launch


class JobTimeout(BaseException):
    """A BaseException, so the program's `except Exception` cannot hide it."""


def _alarm(signum, frame):
    raise JobTimeout()


def run_capped(fn, cap_s):
    """fn() under a SIGALRM time cap; raises JobTimeout when it expires."""
    if cap_s <= 0:
        raise JobTimeout()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_pass(jobs, env, expected, deadline, rec=None):
    """Run each job once, in order; return (wall seconds, outcomes)."""
    outcomes = []
    t_pass = time.perf_counter()
    for job in jobs:
        fn = lambda job=job: job.fn(env)
        if rec is not None:
            fn = rec.span("job." + job.name, fn)
        t0 = time.perf_counter()
        digest = None
        try:
            digest = run_capped(fn, min(job.cap_s, deadline - t0))
            problems = []
            if digest != expected.get(job.name):
                problems.append("output differs from the frozen expectation")
            if job.oracle:
                problems += job.oracle(digest)
            reason = "; ".join(problems) or None
        except JobTimeout:
            reason = "timeout"
        except Exception as e:
            reason = "raised %s: %s" % (type(e).__name__, e)
        outcomes.append({"job": job.name, "ok": reason is None,
                         "reason": reason, "s": time.perf_counter() - t0,
                         "digest": digest})
    return time.perf_counter() - t_pass, outcomes


# One fresh-process set-up: import hopfcyclic, then parse and validate the
# inputs.  Only the interpreter's own start-up is left out of the time.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].setup()
raw = time.perf_counter() - t0
import speed
print(raw * speed.scale([speed.time_kernel() for _ in range(15)]))
"""


def setup_times(workload, n=SETUP_SAMPLES):
    """Set-up seconds of n fresh processes, at the reference speed."""
    cmd = [sys.executable, "-c", SETUP_CHILD, SRC, BENCH, workload]
    samples = []
    for _ in range(n):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def _git_commit():
    """HEAD of the source tree, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metadata(args, order):
    return {"commit": _git_commit(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "job_order": order}


def _write_out(name, obj):
    from workloads import OUT_DIR
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))


def timed_pass(jobs, env, expected, deadline, rec=None):
    """run_pass with the speed sampler on: (raw wall, scaled wall, outcomes).

    The scaled wall leaves out the time the sampler itself took."""
    gc.collect()
    with speed.Sampler() as sampler:
        wall, outcomes = run_pass(jobs, env, expected, deadline, rec)
    return wall, (wall - sampler.inside_s) * sampler.scale(), outcomes


def _go_on(walls, t0, seconds, deadline):
    """Another pass?  Always a first one; then until `seconds` have gone by."""
    now = time.perf_counter()
    return not walls or (now - t0 < seconds and now < deadline)


def run_untraced(wl, jobs, expected, args, deadline):
    setup = setup_times(wl.name)
    env = wl.setup()
    raw, walls, outcomes = [], [], []
    t0 = time.perf_counter()
    while _go_on(walls, t0, args.seconds, deadline):
        wall, scaled, outs = timed_pass(jobs, env, expected, deadline)
        raw.append(wall)
        walls.append(scaled)
        outcomes += outs
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setup), "s"),
               "peak_rss_mb": (rss_kb / 1024.0, "MB")}
    detail = {"pass_walls_raw": raw, "pass_walls": walls,
              "setup_samples": setup}
    return metrics, outcomes, detail


def run_traced(wl, jobs, expected, args, deadline):
    import spans
    from workloads import CLI_JOBS
    cli_jobs = [name for name, _, _ in CLI_JOBS]
    t0 = time.perf_counter()
    env = wl.setup()
    _, base, outcomes = timed_pass(jobs, env, expected, deadline)
    rec = spans.Recorder()
    per_pass, walls, all_spans = [], [], []
    with spans.instrument(rec):
        while _go_on(walls, t0, args.seconds, deadline):
            rec.reset()
            traced_env = wl.setup()
            _, wall, outs = timed_pass(jobs, traced_env, expected, deadline,
                                       rec)
            walls.append(wall)
            outcomes += outs
            per_pass.append(spans.layer_metrics(rec, cli_jobs))
            all_spans += [(len(walls),) + s for s in rec.spans]
    units = spans.metric_units(cli_jobs)
    overhead = "trace.overhead_frac"
    metrics = {name: (statistics.median(p[name] for p in per_pass), unit)
               for name, (unit, _) in units.items() if name != overhead}
    metrics[overhead] = (statistics.median(walls) / base - 1, units[overhead][0])
    _write_out("spans-%s.json" % wl.name,
               {"fields": ["pass", "id", "name", "start_ns", "end_ns",
                           "parent"], "spans": all_spans})
    detail = {"untraced_wall": base, "traced_walls": walls}
    return metrics, outcomes, detail


def capture_expected():
    """Run every job once and write its digest to bench/expected.json."""
    import workloads
    frozen = {}
    for wl in workloads.WORKLOADS.values():
        env = wl.setup()
        frozen[wl.name] = {}
        for job in wl.jobs:
            digest = job.fn(env)
            problems = job.oracle(digest) if job.oracle else []
            if problems:
                raise SystemExit("%s/%s fails its oracle: %s"
                                 % (wl.name, job.name, "; ".join(problems)))
            frozen[wl.name][job.name] = digest
    with open(workloads.EXPECTED, "w") as fh:
        json.dump(frozen, fh, sort_keys=True, indent=1)
        fh.write("\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture-expected", action="store_true")
    args = p.parse_args(argv)
    if not (args.workload or args.capture_expected):
        p.error("--workload is required")
    return args


def main(argv=None):
    launched = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfcyclic", "__init__.py")):
        print("error: no hopfcyclic source tree at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.capture_expected:
        capture_expected()
        return 0
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print("error: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    jobs = list(wl.jobs)
    random.Random(args.seed).shuffle(jobs)
    expected = workloads.load_expected()[wl.name]
    deadline = launched + RUN_DEADLINE_S
    run = run_traced if args.trace else run_untraced
    metrics, outcomes, detail = run(wl, jobs, expected, args, deadline)

    failed = [o for o in outcomes if not o["ok"]]
    meta = metadata(args, [job.name for job in jobs])
    meta.update(detail)
    for name in sorted(metrics):
        print("%-40s %.6g %s" % (name, metrics[name][0], metrics[name][1]))
    print("%-40s %.6g (%d of %d jobs)" % ("fail_frac",
                                          len(failed) / len(outcomes),
                                          len(failed), len(outcomes)))
    for o in failed:
        print("FAILED %s: %s" % (o["job"], o["reason"]))
    print("meta " + json.dumps(meta, sort_keys=True))
    _write_out("result-%s-trace%d.json" % (wl.name, args.trace),
               {"meta": meta, "outcomes": outcomes,
                "metrics": {k: v[0] for k, v in metrics.items()}})
    print(json.dumps({
        "correct": not failed, "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
