"""Run-to-run spread of the benchmark over seeds.

    python3 bench/spread.py --workloads tables searches --seeds 1-10 [--trace 0]
        [--seconds 20] [--out bench/baseline.json]

Runs bench/run.py once per (workload, seed), one run at a time, from the
repository root, and prints for every metric the median, the quartiles and
the spread (third minus first quartile, as a share of the median).  With
--out the results are merged into that JSON file with the Python version,
the commit and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "values": values}


def layer_map():
    """Per-layer metric -> the functions it times or counts, the end-to-end
    metric it should move and the workloads where it should."""
    sys.path.insert(0, HERE)
    import spans
    out = {}
    for layer, functions in spans.LAYERS.items():
        move, workloads = spans.SHOULD_MOVE[layer]
        entry = {"functions": functions, "should_move": move, "on": list(workloads)}
        out[f"{layer}_s"] = dict(entry, kind="self time")
        if layer in spans.CALL_COUNTS:
            out[f"{layer}_calls"] = dict(entry, kind="call count")
    for name, (function, _) in spans.COMPUTED.items():
        out[name] = {"functions": [function], "kind": "computed count"}
    for name, (layer, function) in spans.CONCLUSIVE.items():
        out[name] = {"functions": [function], "kind": "PASS or FAIL share of calls"}
    out["trace.overhead_frac"] = {"kind": "(traced - untraced) / untraced pass time"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        seconds = args.seconds or json.load(fh)["run_seconds"]

    results = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, seconds, args.trace)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
                      if args.trace == 0), flush=True)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            metrics[name] = dict(summary([r["metrics"][name]["value"] for r in runs]),
                                 unit=first["unit"])
        results[workload] = {"seeds": args.seeds, "correct": all(r["correct"] for r in runs),
                             "failed_frac": sum(r["failed"] for r in runs)
                             / sum(r["attempted"] for r in runs),
                             "metrics": metrics}
        for name, m in metrics.items():
            print(f"  {workload:<10} {name:<34} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.4f}")

    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=HERE, check=False).stdout.strip()
        key = "traced" if args.trace else "untraced"
        doc.setdefault(key, {}).update(results)
        doc["layers"] = layer_map()
        doc[f"{key}_environment"] = {
            "python": platform.python_version(), "commit": commit or "unknown",
            "nproc": os.cpu_count(), "run_seconds": seconds}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
