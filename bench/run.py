"""Benchmark of the ehresmann toolkit: run one workload and report metrics.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from src/.  The
workload's inputs are generated from the seed into .bench_work/ and
removed at exit.  Jobs run in this process, closed loop: one client, one
job at a time, each through `cli.main(argv)` with output captured, or as a
library call for functions without a command.  Passes over the workload's
fixed job list repeat until --seconds have passed; every verdict is
checked after each pass, outside the timed region.

--trace 0 reports the end-to-end metrics of the untraced passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the median traced pass, whose spans are written to
.bench_out/.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

SETUP_ROUNDS = 5
MIN_TRACED_PASSES = 2   # call counts must repeat between two traced passes
TAIL_BEYOND = 10        # jobs beyond the tail percentile

# Host speed.  On a shared machine the speed of the processor drifts by
# +-25% over phases of seconds to tens of seconds, so raw times of one run
# cannot be compared with those of another.  Each pass therefore also times
# a fixed pure-Python reference unit between jobs, outside their latencies:
# once CALIBRATION_INTERVAL_S has passed since the last one, and
# CALIBRATION_BURST times after a job longer than that.  A job's reported
# latency is its raw latency scaled by REFERENCE_UNIT_S over the median
# time of the units that ended within CALIBRATION_WINDOW_S of it: seconds
# on a host that runs the unit in REFERENCE_UNIT_S.
CALIBRATION_INTERVAL_S = 0.1
CALIBRATION_BURST = 5
CALIBRATION_WINDOW_S = 0.5
REFERENCE_UNIT_S = 0.0025
_UNIT_N = 20
_UNIT_TABLE = [[(3 * i * j + i + 2 * j) % _UNIT_N for j in range(_UNIT_N)]
               for i in range(_UNIT_N)]

END_TO_END = {
    "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(job):
    """Run one job; returns ("exit", code, text), ("result", value, "")
    or ("raised", description, text)."""
    from ehresmann import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            if job.argv is None:
                return "result", job.call(), ""
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:   # the job fails; the benchmark goes on
            return "raised", f"{type(exc).__name__}: {exc}", buf.getvalue()
    return "exit", code, buf.getvalue()


def reference_unit():
    """Seconds taken by a fixed unit of the kinds of work the package does:
    table lookups in a triple loop, tuple hashing, allocation and sorting."""
    t0 = time.perf_counter()
    m, hits, seen = _UNIT_TABLE, 0, {}
    for x in range(_UNIT_N):
        mx = m[x]
        for y in range(_UNIT_N):
            mxy, my = m[mx[y]], m[y]
            for z in range(_UNIT_N):
                if mxy[z] == mx[my[z]]:
                    hits += 1
    for i in range(1500):
        key = (i % 97, i % 13, (i * 7) % 31)
        seen[key] = seen.get(key, hits) + 1
    paths = [tuple(range(i % 9 + 1)) for i in range(800)]
    members = frozenset(paths)
    sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
    [p + (len(p),) for p in paths if p in members]
    return time.perf_counter() - t0


def judge(job, outcome):
    """Problem with a job's outcome, or None when its verdict is the expected one."""
    kind, value, text = outcome
    if kind == "raised":
        return f"exception escaped: {value}"
    if kind == "exit":
        if value != job.expect:
            return f"exit {value}, expected {job.expect}"
        value = text
    if job.check is None:
        return None
    try:
        return job.check(value)
    except Exception as exc:   # a check that cannot run counts against the job
        return f"check raised {type(exc).__name__}: {exc}"


def run_pass(jobs, tracer=None):
    """One closed-loop pass.  Returns (wall, latencies, verdicts, scales):
    wall and latencies in seconds at the reference speed, and per job the
    factor that converted raw seconds to them."""
    gc.collect()
    clock = time.perf_counter
    intervals, outcomes = [], []
    unit_end, unit_time = [], []

    def calibrate(times):
        for _ in range(times):
            unit_time.append(reference_unit())
            unit_end.append(clock())

    calibrate(CALIBRATION_BURST)
    paused = 0.0
    start = last = clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job_id = i
        t0 = clock()
        outcomes.append(execute(job))
        t1 = clock()
        intervals.append((t0, t1))
        if t1 - last >= CALIBRATION_INTERVAL_S:
            calibrate(CALIBRATION_BURST if t1 - t0 >= CALIBRATION_INTERVAL_S else 1)
            last = clock()
            paused += last - t1
    raw_wall = clock() - start - paused
    calibrate(CALIBRATION_BURST)
    scales = []
    for t0, t1 in intervals:
        lo = bisect.bisect_left(unit_end, t0 - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(unit_end, t1 + CALIBRATION_WINDOW_S)
        scales.append(REFERENCE_UNIT_S / statistics.median(unit_time[lo:hi]))
    latencies = [(t1 - t0) * s for (t0, t1), s in zip(intervals, scales)]
    gaps = raw_wall - sum(t1 - t0 for t0, t1 in intervals)
    wall = sum(latencies) + gaps * REFERENCE_UNIT_S / statistics.median(unit_time)
    verdicts = [(o[1] if o[0] == "exit" else o[0], judge(job, o))
                for job, o in zip(jobs, outcomes)]
    return wall, latencies, verdicts, scales


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it,
    and that percentile; the maximum when the pass is shorter."""
    lat = sorted(latencies)
    k = max(len(lat) - TAIL_BEYOND - 1, 0)
    return lat[k], 100.0 * (k + 1) / len(lat)


def setup(workload, seed, workdir):
    """Generate inputs and warm up once per distinct command; returns jobs."""
    import gen
    import workloads
    shutil.rmtree(workdir, ignore_errors=True)
    rng = random.Random(f"{workload}:{seed}")
    jobs = workloads.BUILDERS[workload](rng, gen.DocDir(workdir))
    seen = set()
    for job in jobs:
        key = job.argv[0] if job.argv else job.jid.split()[0]
        if key not in seen:
            seen.add(key)
            execute(job)
    return jobs


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ehresmann", "cli.py")):
        print("bench: src/ehresmann not found; run from the repository root",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.BUILDERS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    units = [reference_unit() for _ in range(5)]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import ehresmann.cli  # noqa: F401  (imports every module of the package)
    import_s = time.perf_counter() - t0

    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        rounds = []
        for _ in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            jobs = setup(args.workload, args.seed, workdir)
            rounds.append(time.perf_counter() - t0)
            units += [reference_unit() for _ in range(5)]
        setup_scale = REFERENCE_UNIT_S / statistics.median(units)
        setup_s = (import_s + statistics.median(rounds)) * setup_scale
        if args.trace:
            result = measure_traced(args, jobs, root)
        else:
            result = measure(args, jobs, setup_s, setup_scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print(json.dumps(result))
    return 0


def _failures(jobs, passes):
    """(attempted, failed, correct) over the verdicts of several passes;
    prints each failed job once to stderr."""
    attempted = failed = 0
    problems = {}
    for verdicts in passes:
        for job, (_, problem) in zip(jobs, verdicts):
            attempted += 1
            if problem is not None:
                failed += 1
                problems.setdefault(job.jid, (job.robustness, problem))
    correct = not any(not robust for robust, _ in problems.values())
    for jid, (robust, problem) in problems.items():
        tag = "known defect" if robust else "WRONG"
        print(f"failed job ({tag}): {jid}: {problem}", file=sys.stderr)
    return attempted, failed, correct


def measure(args, jobs, setup_s, setup_scale):
    deadline = time.perf_counter() + args.seconds
    walls, p50s, tails, scales, passes = [], [], [], [], []
    while not walls or time.perf_counter() < deadline:
        wall, lat, verdicts, job_scales = run_pass(jobs)
        walls.append(wall)
        p50s.append(statistics.median(lat))
        value, pct = tail(lat)
        tails.append(value)
        scales.append(statistics.median(job_scales))
        passes.append(verdicts)
    attempted, failed, correct = _failures(jobs, passes)
    metrics = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(p50s),
        "job_tail_s": statistics.median(tails),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} passes of "
          f"{len(jobs)} jobs, closed loop, one client; times at reference speed, "
          f"raw ~ reported / scale, median scale per pass "
          + " ".join(f"{x:.3f}" for x in scales) + f", setup {setup_scale:.3f}")
    for name, unit in END_TO_END.items():
        note = f"  (p{pct:.1f} of {len(jobs)} jobs per pass)" if name == "job_tail_s" else ""
        print(f"  {name:<12} {metrics[name]:.6f} {unit}{note}")
        if name == "job_tail_s":
            print(f"  {'failed_frac':<12} {failed / attempted:.6f} 1  "
                  f"({failed} of {attempted} jobs)")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END.items()}}


def measure_traced(args, jobs, root):
    import spans
    tracer = spans.Tracer()
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []     # (wall, verdicts) and (wall, verdicts, metrics, spans)
    while (time.perf_counter() < deadline or not plain
           or len(traced) < MIN_TRACED_PASSES):
        if len(plain) <= len(traced):
            wall, _, verdicts, _ = run_pass(jobs)
            plain.append((wall, verdicts))
            continue
        tracer.install()
        try:
            wall, _, verdicts, job_scales = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        arrays = (tracer.layer, tracer.parent, tracer.job, tracer.start, tracer.end)
        traced.append((wall, verdicts, tracer.layer_metrics(job_scales), arrays))

    attempted, failed, correct = _failures(jobs, [v for _, v in plain]
                                           + [t[1] for t in traced])
    problems = []
    if any(t[1] != plain[0][1] for t in traced):
        problems.append("traced verdicts differ from untraced ones")
    counts = [{k: v for k, v in t[2].items() if not k.endswith("_s")} for t in traced]
    if any(c != counts[0] for c in counts):
        problems.append("call or computed counts differ between traced passes")
    traced.sort(key=lambda t: t[0])
    wall, _, metrics, arrays = traced[(len(traced) - 1) // 2]
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_s"))
    if layer_sum > wall:
        problems.append(f"layer self times sum to {layer_sum:.4f} s > traced wall {wall:.4f} s")
    plain_wall = statistics.median(w for w, _ in plain)
    metrics["trace.overhead_frac"] = (statistics.median(t[0] for t in traced)
                                      - plain_wall) / plain_wall
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.layer, tracer.parent, tracer.job, tracer.start, tracer.end = arrays
    span_file = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.tsv.gz")
    tracer.write(span_file, [job.jid for job in jobs])

    units = spans.metric_units()
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(jobs)} jobs; median traced pass "
          f"{wall:.4f} s, untraced {plain_wall:.4f} s; spans in {span_file}")
    for name, (unit, _) in units.items():
        print(f"  {name:<34} {metrics[name]:.6g} {unit}")
    print(f"  {'(sum of layer self times)':<34} {layer_sum:.6g} s")
    return {"correct": correct and not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, (unit, _) in units.items()}}


if __name__ == "__main__":
    sys.exit(main())
