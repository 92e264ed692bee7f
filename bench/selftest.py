"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the repository root.  Checks that metric names are well formed
and agree with what run.py and spans.py report, that input generation is
byte-for-byte deterministic in the seed, and that a traced pass gives the
same verdicts as an untraced one, with call and computed counts repeating
exactly between two traced passes.  Exits 1 on the first failure.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check(cond, message):
    if not cond:
        print(f"FAIL  {message}")
        sys.exit(1)
    print(f"ok    {message}")


def check_names(run, spans, workloads):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    check(all(NAME.fullmatch(n) for n in names), "metric and workload names match "
          "[A-Za-z0-9][A-Za-z0-9_.-]*")
    check(len(names) == len(set(names)), "names are unique")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END,
          "end_to_end metrics are the ones run.py reports")
    units = spans.metric_units()
    check([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
          == [(n, u, b) for n, (u, b) in units.items()],
          "per_layer metrics are the ones the tracer reports")
    check([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
          "workloads are the ones run.py knows")
    check(set(spans.SHOULD_MOVE) == set(spans.LAYERS), "every layer names the metric it should move")


def check_catalog(gen):
    with open(gen.B3_CATALOG) as fh:
        catalog = json.load(fh)
    check(all(90 <= e["closure"] <= 129 and len(gen.closure(3, e["generators"])) == e["closure"]
              for e in catalog), "the B(3) generator catalog states its closure sizes")


def check_seeds(run, workloads):
    """Inputs are the documents and the command lines that name them."""
    scratch = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    try:
        for workload in workloads.WORKLOADS:
            dirs, argvs = {}, {}
            for tag, seed in (("a", 11), ("b", 11), ("c", 12)):
                dirs[tag] = os.path.join(scratch, f"{workload}-{tag}")
                jobs = run.setup(workload, seed, dirs[tag])
                argvs[tag] = [[a.replace(dirs[tag], "") for a in job.argv or [job.jid]]
                              for job in jobs]
            files = sorted(os.listdir(dirs["a"]))
            same = filecmp.cmpfiles(dirs["a"], dirs["b"], files, shallow=False)[0]
            check(same == files and sorted(os.listdir(dirs["b"])) == files
                  and argvs["a"] == argvs["b"],
                  f"{workload}: the same seed gives byte-identical documents and commands")
            other = filecmp.cmpfiles(dirs["a"], dirs["c"], files, shallow=False)
            check(other[1] or other[2] or argvs["a"] != argvs["c"],
                  f"{workload}: another seed gives other inputs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def check_traced(run, spans, workloads):
    scratch = os.path.join(ROOT, ".bench_work", f"selftest-{os.getpid()}")
    tracer = spans.Tracer()
    try:
        for workload in workloads.WORKLOADS:
            jobs = run.setup(workload, 1, os.path.join(scratch, workload))
            _, _, plain, _ = run.run_pass(jobs)
            counts = []
            for _ in range(2):
                tracer.install()
                try:
                    wall, _, traced, scales = run.run_pass(jobs, tracer)
                finally:
                    tracer.uninstall()
                check(traced == plain, f"{workload}: traced verdicts equal untraced ones")
                metrics = tracer.layer_metrics(scales)
                counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
                self_sum = sum(v for k, v in metrics.items() if k.endswith("_s"))
                check(self_sum <= wall, f"{workload}: layer self times sum to at most "
                      "the traced wall time")
            check(counts[0] == counts[1], f"{workload}: counts repeat exactly")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    from ehresmann import cli, cover, resgraph
    check(cover.restrict_path is resgraph.restrict_path
          and not hasattr(cli.main, "__wrapped__"), "uninstall restores the originals")


def main():
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gen
    import run
    import spans
    import workloads
    check_names(run, spans, workloads)
    check_catalog(gen)
    check_seeds(run, workloads)
    check_traced(run, spans, workloads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
